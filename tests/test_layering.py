"""The modules' layering: the scenario schema knows nothing of the world,
and the world nothing of the batch runner or the command line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opposim"


def imported_modules(name):
    """Short names of the opposim modules that `name`.py imports."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "opposim" and module:
                    found.add(module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "opposim":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:            # from . import engine, or from opposim import engine
                found.update(alias.name for alias in node.names)
    return found


def test_imports_are_found():
    assert {"engine", "scenario"} <= imported_modules("batch")
    assert "radio" in imported_modules("engine")     # from . import radio


@pytest.mark.parametrize("module,above", [
    ("scenario", {"engine", "batch", "cli"}),
    ("engine", {"batch", "cli"}),
    ("batch", {"cli"}),
])
def test_module_imports_nothing_above_it(module, above):
    assert imported_modules(module) & above == set()
