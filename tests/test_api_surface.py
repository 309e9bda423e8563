"""Every public name of ``lis_uplink`` is used by the package itself.

A name exported from ``lis_uplink``, a public method or property of an
exported class, or a field of one (a dataclass's or a ``NamedTuple``'s),
that no module of the package refers to is reached only from tests; such
code belongs in ``tests/reference.py`` as an oracle, or nowhere. The scan
collects every ``Name`` and ``Attribute`` node of the package's modules
(``__init__.py``, which only re-exports, excluded); a field counts as used
only when some module loads it as an attribute.

The scan matches by attribute name, so a field also passes when another
class has a field of the same name that is read. The run-time check
attributes every read to its class instead: it runs the golden cases and
the optimizer front ends with every exported class that has fields
instrumented.

A module's private names are its own: no package module imports one from
another, so the CLI and any later caller reach the engine through public
names alone.
"""

import ast
import copy
import dataclasses
import functools
import importlib
import inspect
import os
import sys
import types
from pathlib import Path

import lis_uplink
from lis_uplink import preset_run_config, write_outputs

from test_golden import CASES, OPTIMIZER_CASES, SEED, _run_optimizer

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


def _private_imports(package_dir: Path) -> list:
    """``file: name`` for every private name a module of the package at
    `package_dir` takes from another: a relative ``from .mod import _name``
    or a read of ``mod._name`` on a package module's name."""
    modules = {path.stem for path in package_dir.glob("*.py")}
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__")):
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_imports_a_private_name_of_another():
    found = _private_imports(PACKAGE_DIR)
    assert found == [], f"private names used across package modules: {found}"


def test_private_import_scan_sees_both_forms(tmp_path):
    (tmp_path / "engine.py").write_text("def _hidden():\n    pass\n", encoding="utf-8")
    (tmp_path / "front.py").write_text(
        "from . import engine\nfrom .engine import _hidden, public\n"
        "engine._hidden()\nengine.__name__\n", encoding="utf-8")
    assert _private_imports(tmp_path) == ["front.py: _hidden", "front.py: engine._hidden"]


def _field_names(cls) -> tuple:
    """Field names of a dataclass or a ``NamedTuple`` class; () for any
    other class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return cls._fields if issubclass(cls, tuple) and hasattr(cls, "_fields") else ()


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
        f"{name}.{field}"
        for name, cls in _exported_classes().items() for field in _field_names(cls)
    }
    assert "RawRecord.label" in fields
    unread = sorted(f for f in fields if f.split(".")[1] not in loaded and f not in EXEMPT)
    assert unread == [], f"fields no package code reads: {unread}"


@functools.lru_cache(maxsize=None)
def _in_package(filename: str) -> bool:
    return Path(os.path.abspath(filename)).parent == PACKAGE_DIR


def test_every_dataclass_field_of_an_exported_class_is_read_at_run_time(monkeypatch, tmp_path):
    """Runs every golden case (raw records on, output files written) and
    the four optimizer CLI cases with ``__getattribute__`` of each exported
    dataclass and ``NamedTuple`` hooked. A field counts as read only when
    the reading code sits in a package module: reads from ``dataclasses``
    (``replace``, ``asdict``), from the generated dunder methods and from
    tests do not count, and neither does unpacking a record as a tuple."""
    classes = [cls for cls in _exported_classes().values() if _field_names(cls)]
    assert lis_uplink.RawRecord in classes
    names = {cls: set(_field_names(cls)) for cls in classes}
    read = set()

    def hook(self, name):
        owners = [cls for cls in type(self).__mro__ if name in names.get(cls, ())]
        if owners and _in_package(sys._getframe(1).f_code.co_filename):
            read.update((cls, name) for cls in owners)
        return object.__getattribute__(self, name)

    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", hook, raising=False)
    for case, (runner, exp_id, overrides) in sorted(CASES.items()):
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(
            {**overrides, "experiment.raw_records": True})
        write_outputs(runner(rc), tmp_path / case)
    for case in sorted(OPTIMIZER_CASES):
        _run_optimizer(case, tmp_path / case)
    monkeypatch.undo()

    unread = sorted(f"{cls.__name__}.{name}" for cls in classes for name in names[cls]
                    if (cls, name) not in read and f"{cls.__name__}.{name}" not in EXEMPT)
    assert unread == [], f"fields no package code reads in a run: {unread}"


def _module_containers() -> dict:
    """``module.name`` -> value of every module-level dict, list, set and
    bytearray of the package (dunder names aside)."""
    return {
        f"{name}.{key}": value
        for name, mod in sorted(sys.modules.items())
        if name == "lis_uplink" or name.startswith("lis_uplink.")
        for key, value in vars(mod).items()
        if isinstance(value, (dict, list, set, bytearray)) and not key.startswith("__")
    }


def test_module_level_containers_are_the_registries_alone():
    """The package keeps no module-level state but its three registries: a
    cache or buffer kept between calls would serve one run's values to
    another. ``cli`` re-imports ``harness.EXPERIMENTS``."""
    importlib.import_module("lis_uplink.cli")
    found = _module_containers()
    assert sorted(found) == ["lis_uplink.cli.EXPERIMENTS", "lis_uplink.cli._COMMANDS",
                             "lis_uplink.config._BOUNDS", "lis_uplink.harness.EXPERIMENTS"]
    assert found["lis_uplink.cli.EXPERIMENTS"] is found["lis_uplink.harness.EXPERIMENTS"]


def test_registries_unchanged_by_runs(tmp_path):
    registries = _module_containers()
    # partials compare by identity, so each experiment's reduction is kept as is
    memo = {id(row.reduce): row.reduce for row in lis_uplink.harness.EXPERIMENTS.values()}
    before = copy.deepcopy(registries, memo)
    for case, (runner, exp_id, overrides) in sorted(CASES.items()):
        runner(preset_run_config(exp_id, seed=SEED).with_overrides(overrides))
    for case in sorted(OPTIMIZER_CASES):
        _run_optimizer(case, tmp_path / case)
    assert _module_containers().keys() == before.keys()
    for key, value in _module_containers().items():
        assert value is registries[key] and value == before[key], key
