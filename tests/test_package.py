"""The package's public surface: growing it takes an edit here."""

import ast
import importlib
import pathlib

import besselint

SRC = pathlib.Path(besselint.__file__).parent

PUBLIC = [
    "BesselIntError", "BoundEval", "BoundId", "CheckReport", "Direction", "Grid",
    "IntegralSpec", "InvalidDomain", "InvalidOrder", "NonConvergence", "NotFound", "Point",
    "QuadResult", "RelErrTable", "ScaledValue", "SkippedPoint", "SweepResult", "Verdict",
    "bessel_integral", "besseli", "besseli_ratio", "besselk", "bound_value", "c_nu",
    "check_point", "cumulative_bessel_integral", "default_grid", "find_crossover",
    "m_bound_constant", "m_value", "relative_error_table", "sweep", "tightness_scan", "x_star",
]


def test_package_exports_are_pinned():
    assert sorted(besselint.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # running it runs the CLI
            continue
        module = besselint if path.stem == "__init__" else importlib.import_module(
            f"besselint.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], path.name


def test_no_module_imports_test_code():
    # the references the tests compare against stay out of the package
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in {"conftest", "reference", "tests"}, (
                    f"{path.name}:{node.lineno} imports {name}")
