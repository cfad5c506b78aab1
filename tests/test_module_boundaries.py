"""The production modules never depend on the check-only oracles, and the
package exports only the production surface."""

from __future__ import annotations

import ast
from pathlib import Path

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
    "FactoredPowerSum",
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


def test_only_cli_imports_oracles():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("cli", "oracles"):
            continue
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            if "oracles" in name.split("."):
                offenders.append(f"{path.name} imports {name}")
    assert offenders == []
    assert (SRC / "oracles.py").is_file()


def test_public_surface_is_the_production_names():
    assert set(polysum.__all__) == PRODUCTION_NAMES | {"__version__"}
    assert len(polysum.__all__) == len(PRODUCTION_NAMES) + 1
