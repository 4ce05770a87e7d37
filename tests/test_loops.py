"""One training loop: outside `autodiff.gradcheck`, only `training.fit`
calls `.backward()`. One place applies gradients: each autodiff op states
one gradient function per parent, and only `Tensor` accumulates them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latact"

BACKWARD_CALLERS = {"training.fit", "autodiff.gradcheck"}

# the node's backward step that `Tensor.__init__` builds, and the root seed
# in `Tensor.backward`
ACCUM_CALLERS = {"autodiff.Tensor.__init__.backward", "autodiff.Tensor.backward"}
REQUIRES_GRAD_READERS = {"autodiff.Tensor.__init__", "autodiff.Tensor.__init__.backward"}


def _package_nodes():
    """(qualified name of the enclosing function or class, node) for every
    AST node in the package."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            out.append((".".join(scope), child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return out


def test_backward_is_called_only_by_the_known_loops():
    callers = {scope for scope, node in _package_nodes()
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "backward"}
    assert callers == BACKWARD_CALLERS, (
        f"unexpected .backward() callers {sorted(callers - BACKWARD_CALLERS)}; "
        f"missing {sorted(BACKWARD_CALLERS - callers)}: train through training.fit")


def test_only_tensor_applies_gradients():
    nodes = _package_nodes()
    accum = {scope for scope, node in nodes
             if isinstance(node, ast.Attribute) and node.attr == "_accum"}
    readers = {scope for scope, node in nodes
               if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
               and isinstance(node.ctx, ast.Load)}
    closures = {f"{scope}.{node.name}" for scope, node in nodes
                if isinstance(node, ast.FunctionDef) and node.name == "bw"}
    assert accum == ACCUM_CALLERS, (
        f"_accum used outside Tensor's backward step: {sorted(accum - ACCUM_CALLERS)}; "
        "give the op one gradient function per parent (`_grads=`) instead")
    assert readers == REQUIRES_GRAD_READERS, (
        f"requires_grad read outside Tensor: {sorted(readers - REQUIRES_GRAD_READERS)}")
    assert not closures, f"per-op backward closures: {sorted(closures)}"
