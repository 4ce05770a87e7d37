"""Every import in the package and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "latact").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files for line, name in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
