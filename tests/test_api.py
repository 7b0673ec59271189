"""The public API surface: every exported name resolves, the export list
changes only on purpose, and the package itself uses every export and every
public method of its classes."""

import ast
from pathlib import Path

import nutforge

PACKAGE_FILES = sorted(Path(nutforge.__file__).parent.rglob("*.py"))

# Public methods the package does not call itself, each with its reason.
UNCALLED_METHODS = {
    ("SpectralReport", "singular_divisors"),  # the README library sketch reads it
}

EXPORTS = [
    "matrix_kernel",
    "divides_cyclotomic", "enumerate_feasible_indices",
    "divisors", "euler_phi", "factorize",
    "BicirculantSpec", "CirculantSpec", "DihedralSpec", "Graph",
    "build_bicirculant", "build_circulant",
    "complement", "from_graph6", "parse_graph", "serialize",
    "to_graph6",
    "NutCertificate", "SpectralReport", "block_invariants",
    "nut_check_direct", "nut_check_spectral",
    "FeasibilityVerdict", "InfeasiblePairError", "SearchExhaustedError",
    "Witness", "canonical_form", "catalog_witness", "census", "circulant_search",
    "complement_family_spec", "construct", "direct_family_spec", "feasible_vt",
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
    # __init__.py, as a name, an attribute or an imported name.  References
    # in a type annotation, or inside the export's own def or class, do not
    # count.  An export that only the tests call is a wrapper or a dead
    # builder, not part of a command's path.
    used = set()
    for path in PACKAGE_FILES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        annotations = [n.annotation for n in ast.walk(tree)
                       if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
        annotations += [n.returns for n in ast.walk(tree)
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
        ignored = {id(n) for a in annotations for n in ast.walk(a)}
        owners = {}  # node id -> names of the defs and classes around it
        for d in ast.walk(tree):
            if isinstance(d, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(d):
                    owners.setdefault(id(n), set()).add(d.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if id(node) not in ignored and name not in owners.get(id(node), ()):
                used.add(name)
    assert [name for name in nutforge.__all__ if name not in used] == []


def test_every_public_method_is_used_by_the_package():
    # Each public method or property of a class in the package is read as an
    # attribute somewhere in the package outside its own def.  Dunder and
    # underscore methods are exempt.  A method only the tests call is dead
    # code for the commands.
    methods = []  # (class, name, ids of the attribute nodes inside its def)
    used = []  # (attribute name, node id)
    trees = [ast.parse(path.read_text(), str(path)) for path in PACKAGE_FILES]
    for tree in trees:  # all kept alive, so node ids stay distinct
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        inside = {id(n) for n in ast.walk(item) if isinstance(n, ast.Attribute)}
                        methods.append((node.name, item.name, inside))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, id(node)))
    unused = [(cls, name) for cls, name, inside in methods
              if (cls, name) not in UNCALLED_METHODS
              and not any(attr == name and i not in inside for attr, i in used)]
    assert unused == []
