"""The public API surface: every exported name resolves, and the export list
changes only on purpose."""

import nutforge

EXPORTS = [
    "IntMatrix", "Polynomial", "matrix_kernel",
    "divides_cyclotomic", "enumerate_feasible_indices",
    "divisors", "euler_phi", "factorize", "radical",
    "BicirculantSpec", "CirculantSpec", "DihedralSpec", "Graph",
    "build_bicirculant", "build_circulant", "build_dihedral",
    "complement", "from_graph6", "is_regular", "parse_graph", "serialize",
    "to_graph6",
    "NutCertificate", "SpectralReport", "det_polynomial", "nullity_shifted",
    "nut_check_direct", "nut_check_spectral", "trace_polynomial",
    "FeasibilityVerdict", "InfeasiblePairError", "SearchExhaustedError",
    "Witness", "are_isomorphic", "canonical_form", "census", "circulant_search",
    "complement_gap6_spec", "complement_gap10_spec", "complement_gap14_spec",
    "construct", "dihedral_2_mod_8_spec", "dihedral_6_mod_8_spec",
    "feasible_vt", "moebius_complement", "prism_complement",
    "sporadic_witness",
    "FAMILIES", "FAMILY_TAGS", "VerificationReport", "build_family",
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

