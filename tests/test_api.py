"""The public API surface: every exported name resolves, the export list
changes only on purpose, and the package itself uses every export."""

import ast
from pathlib import Path

import nutforge

EXPORTS = [
    "IntMatrix", "Polynomial", "matrix_kernel",
    "divides_cyclotomic", "enumerate_feasible_indices",
    "divisors", "euler_phi", "factorize",
    "BicirculantSpec", "CirculantSpec", "DihedralSpec", "Graph",
    "build_bicirculant", "build_circulant", "build_dihedral",
    "complement", "from_graph6", "is_regular", "parse_graph", "serialize",
    "to_graph6",
    "NutCertificate", "SpectralReport", "det_polynomial", "nullity_shifted",
    "nut_check_direct", "nut_check_spectral", "trace_polynomial",
    "FeasibilityVerdict", "InfeasiblePairError", "SearchExhaustedError",
    "Witness", "canonical_form", "catalog_witness", "census", "circulant_search",
    "complement_family_spec", "construct", "dihedral_2_mod_8_spec",
    "dihedral_6_mod_8_spec", "feasible_vt",
    "FAMILIES", "FAMILY_TAGS", "VerificationReport",
    "candidate_divisor_indices", "verify_family_bounded",
    "verify_finite_case_analysis", "verify_unique_remainder",
]


def test_every_export_resolves():
    missing = [name for name in nutforge.__all__ if not hasattr(nutforge, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(nutforge.__all__)) == len(nutforge.__all__)


def test_exports_are_pinned():
    # A change to the public API edits this list in the same change.
    assert nutforge.__all__ == EXPORTS


def test_every_export_is_used_by_the_package():
    # Each export is referenced by a module of the package other than
    # __init__.py, as a name, an attribute or an imported name; its own def
    # or class statement does not count.  An export that only the tests
    # call is a wrapper or a dead builder, not part of a command's path.
    used = set()
    for path in sorted(Path(nutforge.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [name for name in nutforge.__all__ if name not in used] == []
