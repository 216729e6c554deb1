"""Every name a package module imports is used in that module."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rtcast"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for each import binding, ``__future__`` excluded."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
