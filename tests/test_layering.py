"""The library modules import nothing from the front end: ``reports``,
``config`` and ``cli`` build on the library, never the other way round.

``slowmol/__init__`` imports every module, so importing a library module
loads the front end anyway; the check reads each module's source instead.
"""

import ast
from pathlib import Path

import pytest

import slowmol

SRC = Path(slowmol.__file__).parent
LIBRARY = ("medium", "schedule", "dynamics", "protocol", "gpe", "units", "errors")
FRONT_END = {"reports", "config", "cli"}


def imported_modules(module: str) -> set[str]:
    """The names under ``slowmol`` that ``module`` imports anywhere in its
    source, function bodies included: ``from .x import``, ``from . import x``,
    ``import slowmol.x`` and ``from slowmol(.x) import``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("slowmol."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module.split(".")[0] == "slowmol":
                parts = node.module.split(".")[1:]
            else:
                continue
            found.update(parts[:1] or [alias.name for alias in node.names])
    return found


@pytest.mark.parametrize("module", LIBRARY)
def test_a_library_module_imports_no_front_end_module(module):
    assert imported_modules(module) & FRONT_END == set()


def test_the_check_sees_each_import_form():
    # cli: ``from .reports import``, ``from .config import`` and ``from . import gpe as ...``
    assert {"reports", "config", "gpe", "protocol"} <= imported_modules("cli")
    assert {"errors", "medium", "schedule"} <= imported_modules("dynamics")
