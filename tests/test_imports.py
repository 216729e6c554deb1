"""Every name a package module imports is used in that module, no package
module reads another one's private (``_``-prefixed) names, only the
entry-point types check their values in ``__post_init__``, and there is one
error class per CLI exit code."""
import ast
import builtins
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree):
    """(``module.name``, line) for each private name of another package module
    that this module imports (``from .module import _name``) or reads as an
    attribute of a module it imports (``from . import module``)."""
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                out += [(f"{node.module}.{alias.name}", node.lineno)
                        for alias in node.names if is_private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            out.append((f"{node.value.id}.{node.attr}", node.lineno))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    reads = [f"{name} (line {line})"
             for name, line in private_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not reads, f"{path.name} reads private names of other modules: {reads}"


#: The types a value enters the program through, each checking its fields in
#: ``__post_init__``. Every other type holds what these, or a function that
#: checks its arguments, produced; a new type that must check its input is
#: added here on purpose.
CHECKED_TYPES = {"TimeTable", "SplitSpec", "SynthConfig", "EngineeringConfig",
                 "FeatureMatrix", "Hyperparams", "HyperparamGrid"}


def test_only_the_entry_point_types_check_their_fields():
    checked = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                    for item in node.body):
                checked.add(node.name)
    assert checked == CHECKED_TYPES


#: The package's exception classes: the base and one class per CLI exit code
#: (2, 3, 4), all in ``errors.py``. What went wrong is in the message; a class
#: that a handler must tell apart from these is added here on purpose.
ERROR_CLASSES = {"ToolkitError", "ConfigError", "DataError", "NumericError"}


def test_one_error_class_per_exit_code():
    bases, module = {}, {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
                module[node.name] = path.name

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    errors = {name: module[name] for name in bases if is_exception(name)}
    assert errors == dict.fromkeys(ERROR_CLASSES, "errors.py")
