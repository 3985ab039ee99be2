"""Every name a `seglift` module imports is used somewhere in that module,
and every private module-level helper is referenced by some module.

The check reads the source with `ast` only: a name counts as used when the
module loads it anywhere, or names it in a quoted annotation or in `__all__`.
A helper counts as referenced when a module loads it, reads it as an
attribute or imports it, outside the helper's own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "seglift"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the alias
                bound = alias.asname or (alias.name.split(".")[0]
                                         if isinstance(node, ast.Import) else alias.name)
                names.setdefault(bound, node.lineno)
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom .errors import ToolkitError, ConfigError\n"
                     "def f(x: 'ConfigError') -> None:\n    return os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"ToolkitError"}


def private_helpers(tree: ast.Module) -> list[ast.stmt]:
    """The module-level functions and classes whose names are private but not dunder."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def references(tree: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute or imported under `tree`."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def orphaned_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """`<module>: <name>` for each private helper nothing outside its own body references."""
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{name}: {node.name}" for name, tree in trees.items()
            for node in private_helpers(tree)
            if everywhere[node.name] == references(node)[node.name]]


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(trees) == []


def test_an_orphaned_helper_is_caught():
    trees = {"a.py": ast.parse("def _used():\n    pass\n\ndef _self(n):\n    return _self(n - 1)\n"
                               "class _Left:\n    pass\n\ndef __getattr__(name):\n    pass\n"),
             "b.py": ast.parse("from .a import _used\n")}
    assert orphaned_helpers(trees) == ["a.py: _self", "a.py: _Left"]
