"""Command-line front end.

Subcommands:

* ``exists N D``     decide feasibility of the (order, degree) pair
* ``construct N D``  emit a certified witness graph
* ``verify``         certify a graph (direct) or a connection-set spec (spectral)
* ``lemmas``         run the polynomial-family verification suites
* ``census``         enumerate nut graphs of a family at (N, D)

Exit codes are a stable contract: 0 success / positive verdict, 1 negative
verdict, 2 usage or parse error, 3 search budget exhaustion.  Output goes
to stdout.  Above graph6's largest order, 258047, ``construct`` in every
format, ``census`` and ``verify`` (of a graph, or with ``--method both``)
exit 2 before they build, check or print anything.

Spec input for ``verify --method spectral|both`` is a one-line JSON object,
recognised by its content:
``{"n": 16, "jumps": [1, 8]}`` for a circulant,
``{"m": 8, "rotations": [1, 7], "reflections": [0, 1, 4, 6]}`` for a
dihedral Cayley graph or ``{"m": 18, "s0": [...], "s1": [...], "s2": [...]}``
for a general bicirculant, optionally with ``"shift": 0`` or ``1``.  These
are the specs that ``construct`` recipes name.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import (
    InfeasiblePairError,
    SearchExhaustedError,
    census,
    construct,
    feasible_vt,
)
from .graphs import (
    GRAPH6_MAX_ORDER,
    BicirculantSpec,
    CirculantSpec,
    DihedralSpec,
    build,
    parse_graph,
    serialize,
    to_graph6,
)
from .lemmas import (
    FAMILIES,
    FAMILY_TAGS,
    verify_family_bounded,
    verify_finite_case_analysis,
    verify_unique_remainder,
)
from .verify import nut_check_direct, nut_check_spectral

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: Largest cyclic order (n of a circulant spec, m otherwise) accepted: the
#: spectral check factorizes it, and each of its divisors, by trial division.
SPEC_ORDER_LIMIT = 10**12


def _int_at_least(low: int):
    """argparse type for integers of at least ``low``: 1 (counts) or 0 (bounds)."""
    name = "positive" if low else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {name} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _too_large(order: int) -> bool:
    """Whether the order is past GRAPH6_MAX_ORDER, where a graph's order**2
    adjacency bits pass 8 GB; the usage error is printed if so."""
    if order <= GRAPH6_MAX_ORDER:
        return False
    _usage_error(f"order {order} is above {GRAPH6_MAX_ORDER}, the largest graph6 "
                 "order and the largest that nutforge builds")
    return True


def cmd_exists(args) -> int:
    verdict = feasible_vt(args.n, args.d)
    flag = "true" if verdict.exists else "false"
    print(f"exists: {flag} (case {verdict.case}): {verdict.reason}")
    return EXIT_OK if verdict.exists else EXIT_NEGATIVE


def cmd_construct(args) -> int:
    if _too_large(args.n):
        return EXIT_USAGE
    try:
        w = construct(args.n, args.d)
    except InfeasiblePairError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.format == "jsonl":
        print(json.dumps({
            "n": args.n,
            "d": args.d,
            "graph6": to_graph6(w.graph),
            "recipe": w.recipe,
            "nullity": w.certificate.nullity,
            "kernel_vector": [str(x) for x in w.certificate.kernel_vector],
        }))
        return EXIT_OK
    if args.recipe:
        print(f"# recipe: {w.recipe}")
        print("# certified: nullity 1, kernel vector free of zeros")
    print(serialize(w.graph, args.format))
    return EXIT_OK


def _read_input(path: str | None) -> str:
    if path and path != "-":
        with open(path) as fh:
            return fh.read()
    return sys.stdin.read()


def _json_object(text: str) -> dict | None:
    """The JSON object the text holds, or None (a graph6 line of order 60
    also starts with a brace)."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return data if isinstance(data, dict) else None


def _parse_spec(data: dict):
    """Validate a decoded spec; defects raise ValueError."""
    if "n" in data or "jumps" in data:
        kind, order, names = CirculantSpec, "n", ("jumps",)
    elif "rotations" in data or "reflections" in data:
        kind, order, names = DihedralSpec, "m", ("rotations", "reflections")
    else:
        kind, order, names = BicirculantSpec, "m", ("s0", "s1", "s2")
    unknown = sorted(set(data) - {order, "shift", *names})
    if unknown:
        raise ValueError(f"unexpected keys {unknown}")
    # type() rather than isinstance(): JSON true would pass as the integer 1
    if type(data.get(order)) is not int:
        raise ValueError(f"{order} must be an integer")
    if data[order] > SPEC_ORDER_LIMIT:
        raise ValueError(f"{order} above {SPEC_ORDER_LIMIT} is beyond trial-division "
                         "factoring")
    shift = data.get("shift", 0)
    if type(shift) is not int or shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    sets = [data.get(name, []) for name in names]
    if not all(type(s) is list and all(type(x) is int for x in s) for s in sets):
        raise ValueError(f"{', '.join(names)} must be lists of integers")
    if any(len(set(s)) != len(s) for s in sets):
        raise ValueError(f"{', '.join(names)} must not repeat an entry")
    spec = kind(data[order], *sets)
    return spec, shift, kind is CirculantSpec or spec.s0 == spec.s2


def _nut_verdict(cert) -> str:
    """``nut: true`` or ``nut: false``, with the reason when the nullity is
    one but the graph is not a nut graph."""
    if cert.is_nut:
        return "nut: true"
    if cert.nullity != 1:
        return "nut: false"
    if len(cert.kernel_vector) == 1:
        return "nut: false (a single vertex is not a nut graph)"
    return "nut: false (kernel vector has zero entry)"


def cmd_verify(args) -> int:
    try:
        text = _read_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(f"cannot read input: {exc}")
    data = _json_object(text) if args.input_format == "auto" else None
    is_spec = data is not None
    if args.method == "direct":
        if is_spec:
            return _usage_error("direct verification needs a graph, not a spec")
        try:
            g = parse_graph(text, args.input_format)
        except (ValueError, IndexError) as exc:
            return _usage_error(f"cannot parse graph: {exc}")
        cert = nut_check_direct(g, args.shift or 0)
        if args.shift:
            print(f"shifted nullity: {cert.nullity}")
            return EXIT_OK if cert.nullity == 1 else EXIT_NEGATIVE
        print(f"{_nut_verdict(cert)}, nullity: {cert.nullity}")
        return EXIT_OK if cert.is_nut else EXIT_NEGATIVE
    # spectral and both need a spec description
    if not is_spec:
        return _usage_error(f"method {args.method} needs a JSON spec input")
    try:
        spec, spec_shift, vertex_transitive = _parse_spec(data)
    except ValueError as exc:
        return _usage_error(f"cannot parse spec: {exc}")
    if args.method == "both" and _too_large(spec.order):
        return EXIT_USAGE
    shift = args.shift if args.shift is not None else spec_shift
    report = nut_check_spectral(spec, shift)
    singular = ", ".join(f"b={v.b} ({'simple' if v.multiplicity == 1 else 'double'})"
                         for v in report.divisor_verdicts if v.multiplicity) or "none"
    label = "nullity" if shift == 0 else "shifted nullity"
    print(f"spectral {label}: {report.total_nullity}; singular divisors: {singular}")
    positive = report.total_nullity == 1
    if args.method == "both":
        cert = nut_check_direct(build(spec), shift)
        agree = cert.nullity == report.total_nullity
        print(f"direct {label}: {cert.nullity}; agreement: {str(agree).lower()}")
        if shift == 0:
            # the kernel-entry condition is decided by the direct method
            positive = cert.is_nut
            print(_nut_verdict(cert))
        if not agree:
            return EXIT_NEGATIVE
    elif shift == 0 and vertex_transitive:
        print(f"nut: {'true' if positive else 'false'} (vertex-transitive)")
    return EXIT_OK if positive else EXIT_NEGATIVE


def cmd_lemmas(args) -> int:
    tags = list(FAMILY_TAGS) if args.family == "all" else [args.family]
    reports = []
    for tag in tags:
        reports.append(verify_family_bounded(tag, args.t_max))
        threshold = FAMILIES[tag].unique_remainder_threshold
        if args.beta_max >= threshold:
            reports.append(verify_unique_remainder(tag, (threshold, args.beta_max)))
        if args.full_case_analysis:
            reports.append(verify_finite_case_analysis(tag))
    ok = all(r.ok for r in reports)
    if args.format == "jsonl":
        for r in reports:
            print(json.dumps(r.summary()))
    else:
        for r in reports:
            for line in r.text_lines():
                print(line)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_census(args) -> int:
    if _too_large(args.n):
        return EXIT_USAGE
    try:
        witnesses = census(args.family, args.n, args.d,
                           dedup=not args.no_dedup, budget=args.budget)
    except SearchExhaustedError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    for w in witnesses:
        if args.format == "jsonl":
            print(json.dumps({"graph6": to_graph6(w.graph), "recipe": w.recipe,
                              "order": args.n, "degree": args.d}))
        else:
            print(to_graph6(w.graph))
    label = "classes" if not args.no_dedup else "witnesses"
    print(f"# {label}: {len(witnesses)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nutforge",
        description="Exact constructions and certification of regular nut graphs "
                    "over cyclic and dihedral groups.")
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exists", help="decide feasibility of an (order, degree) pair")
    p.add_argument("n", type=_positive_int, help="graph order")
    p.add_argument("d", type=_non_negative_int, help="vertex degree")
    p.set_defaults(fn=cmd_exists)

    p = sub.add_parser("construct", help="emit a certified nut-graph witness")
    p.add_argument("n", type=_positive_int)
    p.add_argument("d", type=_non_negative_int)
    p.add_argument("--format", choices=["graph6", "adjacency-list", "dot", "jsonl"],
                   default="graph6")
    p.add_argument("--recipe", action=argparse.BooleanOptionalAction, default=True,
                   help="emit the construction recipe as a comment line")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="certify a graph or connection-set spec")
    p.add_argument("--input", default="-", help="input path or - for stdin")
    p.add_argument("--method", choices=["direct", "spectral", "both"],
                   default="direct")
    p.add_argument("--shift", type=int, choices=[0, 1], default=None,
                   help="0 checks eigenvalue 0, 1 checks eigenvalue -1")
    p.add_argument("--input-format", choices=["auto", "graph6", "adjacency-list"],
                   default="auto")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "lemmas", help="run the polynomial-family verification suites",
        description="R and T are x^e (1 - x) times the block determinants of the "
                    "8t+6 and 8t+10 direct families, so their suites back those "
                    "recipes. Q and S back no recipe in nutforge.")
    p.add_argument("--family", choices=[*FAMILY_TAGS, "all"], default="all")
    p.add_argument("--t-max", type=_non_negative_int, default=10)
    p.add_argument("--beta-max", type=_non_negative_int, default=300)
    p.add_argument("--full-case-analysis", action="store_true")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser("census", help="enumerate nut graphs of a family at (N, D)")
    p.add_argument("--family", choices=["circulant", "dihedral"], required=True)
    p.add_argument("n", type=_positive_int)
    p.add_argument("d", type=_non_negative_int)
    p.add_argument("--no-dedup", action="store_true",
                   help="skip isomorphism dedup")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="candidate cap; exceeding it exits with code 3")
    p.add_argument("--jobs", type=_positive_int, choices=[1], default=1,
                   help="accepted for old command lines; the census runs in one process")
    p.add_argument("--format", choices=["graph6", "jsonl"], default="graph6")
    p.set_defaults(fn=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
