"""Public surface: every name a module exports has a caller in the package.

A name that only the tests use belongs in the tests (see ``reference.py``),
so each name of a module's ``__all__`` must be read somewhere in the
package's modules other than ``__init__.py``, which only re-exports.  Reads
are found in the syntax tree: a name loaded, an attribute, or an imported
name.  A mention in a docstring or comment does not count.
"""
import ast
from pathlib import Path

import udngc

MODULES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(Path(udngc.__file__).parent.glob("*.py"))
    if path.name != "__init__.py"
}


def exported(tree: ast.Module) -> list[str]:
    """The module's ``__all__``, or no names if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_has_a_caller_in_the_package():
    exports = [(module, name) for module, tree in MODULES.items() for name in exported(tree)]
    assert exports  # no __all__ found would pass the check vacuously
    read = set().union(*map(read_names, MODULES.values()))
    unused = sorted(f"{module}.{name}" for module, name in exports if name not in read)
    assert not unused, f"exported, but read nowhere in the package: {unused}"
