"""The README's "Package layout" table names only what its modules hold."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import scbnn

README = Path(__file__).resolve().parent.parent / "README.md"
#: Backticked names that are not identifiers of their row's module.
NOT_IDENTIFIERS = {"scbnn.cli": {"scbnn"}}  # the command's name


def _layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents cell) per table row."""
    section = README.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("## "):
            break
        cells = line.split("|")
        if len(cells) == 4 and (module := re.fullmatch(r"\s*`(scbnn\.\w+)`\s*", cells[1])):
            rows.append((module[1], re.findall(r"`([^`]+)`", cells[2])))
    return rows


def _resolves(module, name: str) -> bool:
    if hasattr(module, name):
        return True
    classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
    return any(
        hasattr(c, name) or (dataclasses.is_dataclass(c) and name in {f.name for f in dataclasses.fields(c)})
        for c in classes
    )


def test_table_lists_every_module():
    modules = {f"scbnn.{info.name}" for info in pkgutil.iter_modules(scbnn.__path__)}
    assert sorted(module for module, _ in _layout_rows()) == sorted(modules)


@pytest.mark.parametrize("module_name, names", _layout_rows())
def test_named_identifiers_exist(module_name, names):
    module = importlib.import_module(module_name)
    missing = [
        name for name in names
        if name not in NOT_IDENTIFIERS.get(module_name, ()) and not _resolves(module, name)
    ]
    assert not missing, f"README's {module_name} row names {missing}, which the module does not hold"
