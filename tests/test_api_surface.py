"""Every public name of ``lis_uplink`` is used by the package itself.

A name exported from ``lis_uplink``, a public method or property of an
exported class, or a dataclass field of one, that no module of the package
refers to is reached only from tests; such code belongs in
``tests/reference.py`` as an oracle, or nowhere. The scan collects every
``Name`` and ``Attribute`` node of the package's modules (``__init__.py``,
which only re-exports, excluded); a field counts as used only when some
module loads it as an attribute.
"""

import ast
import dataclasses
import inspect
import types
from pathlib import Path

import lis_uplink

PACKAGE_DIR = Path(lis_uplink.__file__).resolve().parent

# public names allowed to have no use inside the package
EXEMPT: frozenset = frozenset()


def _package_nodes():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _referenced_names() -> set:
    names = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported_classes() -> dict:
    return {
        name: cls for name in lis_uplink.__all__
        if inspect.isclass(cls := getattr(lis_uplink, name))
        and cls.__module__.startswith("lis_uplink")
    }


def test_every_public_name_is_used_inside_the_package():
    public = {
        name for name in lis_uplink.__all__
        if not isinstance(getattr(lis_uplink, name), types.ModuleType)
    }
    unused = sorted(public - _referenced_names() - EXEMPT)
    assert unused == [], f"exported but unused inside lis_uplink: {unused}"


def _public_members(cls) -> set:
    """Public methods and properties a class defines itself."""
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
    }


def test_every_public_member_of_an_exported_class_is_used_inside_the_package():
    members = {
        f"{name}.{member}"
        for name, cls in _exported_classes().items()
        for member in _public_members(cls)
    }
    used = _referenced_names()
    unused = sorted(m for m in members if m.split(".")[1] not in used and m not in EXEMPT)
    assert unused == [], f"public members unused inside lis_uplink: {unused}"


def test_every_dataclass_field_of_an_exported_class_is_read_inside_the_package():
    loaded = {
        node.attr for node in _package_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        f"{name}.{f.name}"
        for name, cls in _exported_classes().items() if dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
    }
    unread = sorted(f for f in fields if f.split(".")[1] not in loaded and f not in EXEMPT)
    assert unread == [], f"dataclass fields no package code reads: {unread}"
