"""Every defaulted parameter in the package is passed somewhere, and left
to its default somewhere.

A parameter with a default that no call site sets is a constant with extra
steps; it belongs in the body as a literal or a module constant. A default
that every call site overrides restates a value decided elsewhere (a
config field, a command's option or seed), and a caller that forgets the
value gets it silently; the parameter belongs without a default. Calls are
matched by the called name alone (`f(...)`, `obj.f(...)`, `Cls(...)` for
`Cls.__init__`), so a call to an unrelated function of the same name counts
as a caller: the scan may miss an unused option, never flag a used one. The
converse scan counts a call as leaving a parameter to its default unless
the call names it or fills its position with a plain argument, so it too
may miss a default that every call overrides, never flag one that a call
relies on.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latact"
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _defaulted_params(path):
    """(callee name, parameter name, positional index or None, line) for
    every parameter with a default; the index counts call arguments, so a
    method's `self` is not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = methods.get(id(fn))
        callee = cls if fn.name == "__init__" else fn.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if cls and not static else 0
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            out.append((callee, arg.arg, i - skip, fn.lineno))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out.append((callee, arg.arg, None, fn.lineno))
    return sorted(out, key=lambda entry: entry[3])


def _calls():
    """callee name -> [(plain positional count, keyword names, has *args)]."""
    calls = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
                # a **mapping argument (keyword None) names no parameter
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                calls.setdefault(name, []).append((n_pos, keywords, n_pos < len(node.args)))
    return calls


def _surely_passes(call, param, index):
    n_pos, keywords, _ = call
    return param in keywords or (index is not None and n_pos > index)


def _unmatched(matches):
    """`path:line: callee(param)` of each defaulted parameter that no call
    `matches(call, param, index)`."""
    calls = _calls()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for callee, param, index, line in _defaulted_params(path):
            if not any(matches(call, param, index) for call in calls.get(callee, [])):
                out.append(f"{path.relative_to(ROOT)}:{line}: {callee}({param})")
    return out


def test_every_defaulted_parameter_is_passed():
    # *args may fill any positional parameter
    unpassed = _unmatched(lambda call, param, index: _surely_passes(call, param, index)
                          or (index is not None and call[2]))
    assert not unpassed, "defaulted parameters no call site passes:\n" + "\n".join(unpassed)


def test_every_default_is_relied_on():
    overridden = _unmatched(lambda call, param, index: not _surely_passes(call, param, index))
    assert not overridden, ("defaulted parameters every call site passes:\n"
                            + "\n".join(overridden))
