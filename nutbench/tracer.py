"""Layer spans for the traced run, recorded from outside the program.

Each layer function is replaced by a timing wrapper in every ``nutforge``
module that holds a binding to it: ``from x import f`` binds the name
separately in each importing module, so wrapping only the defining module
would miss most calls. ``restore`` puts every original binding back.

Spans are kept in memory as lists ``[name, start, end, parent, request,
note, nested]``: ``parent`` indexes the enclosing span (-1 for none),
``note`` holds what the layer's observer extracted from the call, and
``nested`` marks a span inside another span of the same layer, which the
inclusive time skips so that recursion between layer functions is not
counted twice. Not thread-safe: the benchmark calls the program from one
thread.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _sweep_note(args, kwargs, result):
    b = args[3] if len(args) > 3 else kwargs["b"]
    return [b, len(result)]


def _matrix_order(args, kwargs, result):
    return (args[0] if args else kwargs["matrix"]).rows


def _truth(args, kwargs, result):
    return bool(result)


def _is_nut(args, kwargs, result):
    return bool(result.is_nut)


# (layer, defining module, function names, observer)
LAYERS = (
    ("modeval.sweep_zero_parameters", "nutforge._modeval", ("sweep_zero_parameters",), _sweep_note),
    ("modeval.nonzero_witness", "nutforge._modeval", ("nonzero_witness",), None),
    ("modeval.prime_setup", "nutforge._modeval", ("evaluation_prime", "root_of_order"), None),
    ("lemmas", "nutforge.lemmas",
     ("verify_family_bounded", "verify_unique_remainder", "verify_finite_case_analysis"), None),
    ("cyclotomic.divides_cyclotomic", "nutforge.cyclotomic", ("divides_cyclotomic",), _truth),
    ("exact.matrix_kernel", "nutforge.exact", ("matrix_kernel",), _matrix_order),
    ("exact.integer_kernel_vector", "nutforge.exact", ("integer_kernel_vector",), None),
    ("verify.nut_check_direct", "nutforge.verify", ("nut_check_direct",), _is_nut),
    ("verify.nut_check_spectral", "nutforge.verify", ("nut_check_spectral",), None),
    ("constructions.search", "nutforge.constructions", ("circulant_search", "dihedral_search"), None),
    ("constructions.canonical_form", "nutforge.constructions", ("canonical_form",), None),
    ("constructions.census", "nutforge.constructions", ("census",), None),
    ("graphs.parse", "nutforge.graphs", ("parse_graph", "from_graph6", "from_adjacency_list"), None),
    ("graphs.build", "nutforge.graphs",
     ("build_circulant", "build_bicirculant", "build_dihedral", "build_lcf", "complement"), None),
    ("graphs.to_graph6", "nutforge.graphs", ("to_graph6",), None),
)
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.request, None, depth > 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _leave(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()
        self._depth[rec[0]] -= 1

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            self._leave(rec)

    def _wrap(self, name: str, fn, observe):
        def traced(*args, **kwargs):
            rec = self._enter(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(rec)
            if observe is not None:
                rec[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded nutforge module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nutforge" or key.startswith("nutforge."))]
        for name, home, funcs, observe in LAYERS:
            defining = sys.modules.get(home)
            for func in funcs:
                orig = getattr(defining, func, None)
                if not callable(orig):
                    continue  # the layer is gone from the program; it reports zeros
                wrapper = self._wrap(name, orig, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request", "note",
                                 "nested"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per layer: call count, inclusive seconds (outermost spans only) and
    self seconds (span time minus the time of its direct child spans)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        row = out.setdefault(rec[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        if not rec[6]:
            row["s"] += dur
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], rows: dict[str, dict],
                  phi_cache_size: int) -> dict[str, float]:
    """Every per-layer metric of the traced run except the trace.* rows;
    `rows` is ``summarize(spans)``."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m: dict[str, float] = {}
    for name, *_ in LAYERS:
        row = rows.get(name, zero)
        for key in ("calls", "s", "self_s"):
            m[f"{name}.{key}"] = row[key]
    m[f"{ROOT}.self_s"] = rows.get(ROOT, zero)["self_s"]

    sweeps = [r for r in spans if r[0] == "modeval.sweep_zero_parameters" and r[5]]
    residues = sum(r[5][0] for r in sweeps)
    m["modeval.sweep_zero_parameters.residues"] = residues
    m["modeval.sweep_zero_parameters.suspects"] = sum(r[5][1] for r in sweeps)
    m["modeval.sweep_zero_parameters.ns_per_residue"] = _ratio(
        m["modeval.sweep_zero_parameters.s"] * 1e9, residues)

    divides = [r for r in spans if r[0] == "cyclotomic.divides_cyclotomic"]
    m["cyclotomic.divides_cyclotomic.true_ratio"] = _ratio(
        sum(1 for r in divides if r[5]), len(divides))
    m["lemmas.exact_fallbacks"] = sum(
        1 for r in divides if r[3] >= 0 and spans[r[3]][0] == "lemmas")
    m["cyclotomic.cache_entries"] = phi_cache_size

    kernels = [r for r in spans if r[0] == "exact.matrix_kernel" and r[5] is not None]
    for label, lo, hi in (("ms_n64", 0, 64), ("ms_n128", 65, 128), ("ms_n200", 129, 200)):
        band = [r[2] - r[1] for r in kernels if lo <= r[5] <= hi]
        m[f"exact.matrix_kernel.{label}"] = _ratio(sum(band) * 1e3, len(band))

    for parent, key, ratio_key in (("constructions.search", "candidates", "hit_ratio"),
                                   ("constructions.census", "candidates", "nut_ratio")):
        checks = [r for r in spans if r[0] == "verify.nut_check_direct"
                  and r[3] >= 0 and spans[r[3]][0] == parent]
        m[f"{parent}.{key}"] = len(checks)
        m[f"{parent}.{ratio_key}"] = _ratio(sum(1 for r in checks if r[5]), len(checks))
    return m
