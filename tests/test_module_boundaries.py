"""The check-only oracles live in tests/reference.py and do not ship in the
package, no production module or CLI command imports them, only summation
assembles closed forms, the package exports only the production surface, and a
one-shot CLI process imports only what its command runs."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysum

SRC = Path(polysum.__file__).resolve().parent

PRODUCTION_NAMES = {
    "Polynomial",
    "to_rising_basis",
    "from_rising_basis",
    "ClosedFormSum",
    "sum_polynomial",
    "sum_range",
    "PowerSumCoefficients",
    "coefficients",
    "power_sum_closed_form",
    "power_sum_factored_form",
    "power_sum_value",
    "ParseError",
    "parse",
    "lower",
    "parse_polynomial",
}


def imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            # "from . import oracles" names the module as an imported symbol
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_oracles():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            if {"oracles", "reference"} & set(name.split(".")):
                offenders.append(f"{path.name} imports {name}")
    assert offenders == []
    assert not (SRC / "oracles.py").exists()
    assert importlib.util.find_spec("polysum.oracles") is None


def test_only_summation_assembles_closed_forms():
    # every closed form is assembled, and checked, by summation.close
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[-1] == "from_rising_row"
    }
    assert importers == {"summation"}  # basis defines it


def test_no_module_imports_a_name_it_never_uses():
    # a check moved to another layer must take its constants' imports with it
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):  # a re-export is a use: its name is in __all__
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                offenders += [f"{path.name} imports {name}" for name in names if name not in used]
    assert offenders == []


def test_no_library_module_imports_a_private_name():
    # a helper two library modules share lives in poly, the module every one
    # imports; only the CLI reaches into another module's private names
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "polysum"):
                offenders += [
                    f"{path.name} imports {node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    assert offenders == []


def test_public_surface_is_the_production_names():
    assert set(polysum.__all__) == PRODUCTION_NAMES | {"__version__"}
    assert len(polysum.__all__) == len(PRODUCTION_NAMES) + 1


def modules_after(*argv: str) -> set[str]:
    """sys.modules of a fresh interpreter, without site, that imports polysum.cli
    and, given arguments, runs cli.main on them to exit code 0."""
    script = (
        "import sys, polysum.cli\n"
        "code = polysum.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    code, *modules = result.stderr.split()
    assert code == "0", result.stderr
    return set(modules)


def test_importing_the_cli_loads_no_unused_module():
    loaded = modules_after()
    assert "polysum.cli" in loaded
    for name in ("dataclasses", "inspect", "typing", "json"):
        assert name not in loaded


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["closed-form", "--n", "3"], False),
        (["--json", "closed-form", "--n", "3"], True),
        (["sum", "--expr", "x", "--lo", "1", "--hi", "3"], False),
        (["--json", "sum", "--expr", "x", "--lo", "1", "--hi", "3"], True),
        (["verify", "--suite", "identities", "--max-n", "3"], False),
        (["--json", "verify", "--suite", "identities", "--max-n", "3"], True),
    ],
)
def test_a_command_loads_json_only_when_it_uses_it(argv, loaded):
    assert ("json" in modules_after(*argv)) is loaded
