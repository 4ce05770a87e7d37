"""One training loop: outside `autodiff.gradcheck`, only `training.fit`
calls `.backward()`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latact"

BACKWARD_CALLERS = {"training.fit", "autodiff.gradcheck"}


def _backward_callers(path):
    """Qualified names of the functions in `path` that call `.backward()`."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "backward"):
                callers.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return callers


def test_backward_is_called_only_by_the_known_loops():
    callers = set().union(*(_backward_callers(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert callers == BACKWARD_CALLERS, (
        f"unexpected .backward() callers {sorted(callers - BACKWARD_CALLERS)}; "
        f"missing {sorted(BACKWARD_CALLERS - callers)}: train through training.fit")
