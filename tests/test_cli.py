"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nutforge import cli
from nutforge.cli import main
from nutforge.graphs import (
    CirculantSpec,
    DihedralSpec,
    build_bicirculant,
    build_circulant,
    to_adjacency_list,
    to_graph6,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExists:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "exists", "16", "6")
        assert code == 0
        assert "exists: true" in out and "d-2-mod-4" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "exists", "14", "6")
        assert code == 1
        assert "exists: false" in out

    def test_malformed(self, capsys):
        # argparse rejects the order, so the exit code comes as SystemExit
        with pytest.raises(SystemExit) as exc:
            main(["exists", "-3", "4"])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exists", "eight", "4"])
        assert exc.value.code == 2


class TestConstruct:
    def test_graph6_output(self, capsys):
        code, out, _ = run(capsys, "construct", "12", "6", "--format", "graph6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# recipe:")
        assert len(lines[-1]) > 0 and not lines[-1].startswith("#")

    def test_adjacency_list_output(self, capsys):
        code, out, _ = run(capsys, "construct", "20", "14",
                           "--format", "adjacency-list", "--no-recipe")
        assert code == 0
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 20

    def test_jsonl_roundtrip(self, capsys):
        from nutforge.graphs import from_graph6
        from nutforge.verify import nut_check_direct

        code, out, _ = run(capsys, "construct", "16", "6", "--format", "jsonl")
        assert code == 0
        payload = json.loads(out.strip())
        g = from_graph6(payload["graph6"])
        assert g.order == 16
        assert nut_check_direct(g).is_nut
        assert payload["nullity"] == 1
        assert all(x != "0" for x in payload["kernel_vector"])

    def test_infeasible(self, capsys):
        code, _, err = run(capsys, "construct", "14", "6")
        assert code == 1
        assert "infeasible" in err

    def test_budget_exhaustion(self, capsys):
        code, _, err = run(capsys, "construct", "20", "8", "--budget", "1")
        assert code == 3
        assert "search exhausted" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "w.g6"
        code, out, _ = run(capsys, "construct", "8", "4", "--no-recipe",
                           "--output", str(target))
        assert code == 0
        assert target.read_text().strip()

    @pytest.mark.parametrize("fmt", ["graph6", "jsonl"])
    def test_unwritable_output(self, tmp_path, capsys, fmt):
        for target in (tmp_path, tmp_path / "missing" / "w.g6"):
            code, _, err = run(capsys, "construct", "12", "6", "--format", fmt,
                               "--output", str(target))
            assert code == 2
            assert err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("fmt", ["graph6", "jsonl"])
    def test_order_beyond_graph6_is_a_usage_error(self, capsys, monkeypatch, fmt):
        # construct would build an order-258048 witness of about 8 GB first
        def no_construct(n, d, budget=None):
            if n > 258047:
                raise AssertionError("construct ran for an order graph6 cannot hold")
            raise cli.InfeasiblePairError("stand-in verdict")

        monkeypatch.setattr(cli, "construct", no_construct)
        code, out, err = run(capsys, "construct", "258048", "10", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: graph6 holds orders up to 258047, not 258048\n"
        # the largest graph6 order still reaches construct
        code, _, err = run(capsys, "construct", "258047", "10", "--format", fmt)
        assert code == 1 and "stand-in verdict" in err


class TestVerify:
    def test_direct_nut(self, tmp_path, capsys):
        g6 = to_graph6(build_circulant(CirculantSpec(8, {1, 2})))
        f = tmp_path / "g.g6"
        f.write_text(g6 + "\n")
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "direct")
        assert code == 0
        assert "nut: true, nullity: 1" in out

    def test_direct_path_kernel_zero(self, tmp_path, capsys):
        f = tmp_path / "p3.txt"
        f.write_text("0: 1\n1: 0 2\n2: 1\n")
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "kernel vector has zero entry" in out

    @pytest.mark.parametrize("text", ["0:\n", "@\n"])
    def test_single_vertex_is_not_nut(self, tmp_path, capsys, text):
        # K1 has nullity one and the kernel vector (1), but a nut graph is
        # nontrivial
        f = tmp_path / "k1.txt"
        f.write_text(text)
        code, out, _ = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert out == "nut: false (a single vertex is not a nut graph), nullity: 1\n"

    def test_repeated_neighbour_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "k2.txt"
        f.write_text("0: 1 1\n1: 0\n")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2
        assert "cannot parse graph" in err

    def test_direct_shift_one(self, tmp_path, capsys):
        prism = build_bicirculant(DihedralSpec(6, {1, 5}, {0}))
        f = tmp_path / "prism.txt"
        f.write_text(to_adjacency_list(prism))
        code, out, _ = run(capsys, "verify", "--input", str(f), "--shift", "1")
        assert code == 0
        assert "shifted nullity: 1" in out

    def test_spectral_spec(self, tmp_path, capsys):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"m": 8, "rotations": [1, 7],
                                 "reflections": [0, 1, 4, 6]}))
        code, out, _ = run(capsys, "verify", "--input", str(f),
                           "--method", "spectral")
        assert code == 0
        assert "spectral nullity: 1" in out
        assert "nut: true" in out

    def test_both_agree(self, tmp_path, capsys):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"m": 10, "rotations": [2, 8],
                                 "reflections": [0, 8, 9], "shift": 1}))
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "both")
        assert code == 0
        assert "agreement: true" in out

    def test_both_agree_on_moebius_ladder_base(self, tmp_path, capsys):
        # The base of construct's order-(d + 4) complement for d = 4 (mod 8).
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"n": 16, "jumps": [1, 8]}))
        code, out, err = run(capsys, "verify", "--input", str(f), "--method", "both",
                             "--shift", "1")
        assert code == 0
        assert out == ("spectral shifted nullity: 1; singular divisors: b=2 (simple)\n"
                       "direct shifted nullity: 1; agreement: true\n")
        assert err == ""

    def test_reads_the_circulant_recipe_construct_prints(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "14", "8", "--format", "jsonl")
        recipe = json.loads(out)["recipe"]
        n, jumps = re.fullmatch(r"circulant\(n=(\d+), jumps=(\[[\d, ]*\])\)", recipe).groups()
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"n": int(n), "jumps": json.loads(jumps)}))
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "spectral")
        assert code == 0
        assert out.startswith("spectral nullity: 1;") and "nut: true (vertex-transitive)" in out
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "both")
        assert code == 0
        assert "agreement: true" in out and "nut: true" in out

    def test_both_defers_nut_verdict_to_direct(self, tmp_path, capsys):
        # Nullity one with a zero kernel entry: spectral and direct agree on
        # the nullity, but the graph is not a nut.
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"m": 4, "s0": [], "s1": [0, 1], "s2": [1, 3]}))
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "both")
        assert code == 1
        assert "agreement: true" in out
        assert "nut: false (kernel vector has zero entry)" in out

    def test_method_input_mismatch(self, tmp_path, capsys):
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(build_circulant(CirculantSpec(8, {1, 2}))))
        code, _, err = run(capsys, "verify", "--input", str(f),
                           "--method", "spectral")
        assert code == 2

    def test_parse_failure(self, tmp_path, capsys):
        f = tmp_path / "junk.txt"
        f.write_text("\x01\x02 not a graph")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2

    def test_forced_input_format(self, tmp_path, capsys):
        g = build_circulant(CirculantSpec(8, {1, 2}))
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(g))
        code, out, _ = run(capsys, "verify", "--input", str(f),
                           "--input-format", "graph6")
        assert code == 0 and "nut: true" in out

    @pytest.mark.parametrize("fmt", ["graph6", "adjacency-list"])
    @pytest.mark.parametrize("recipe", ["--recipe", "--no-recipe"])
    @pytest.mark.parametrize("n, d", [(12, 6), (16, 8), (20, 14)])
    def test_reads_what_construct_writes(self, tmp_path, capsys, fmt, recipe, n, d):
        # The default output starts with "# recipe:" comment lines.
        f = tmp_path / "w.txt"
        code, _, _ = run(capsys, "construct", str(n), str(d), "--format", fmt, recipe,
                         "--output", str(f))
        assert code == 0
        assert f.read_text().startswith("# recipe:") == (recipe == "--recipe")
        for input_format in ("auto", fmt):
            code, out, _ = run(capsys, "verify", "--input", str(f),
                               "--input-format", input_format)
            assert (code, out) == (0, "nut: true, nullity: 1\n"), input_format

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "verify", "--input", "/nonexistent/graph.g6")
        assert code == 2

    def test_auto_reads_order_60_graph6(self, tmp_path, capsys):
        # An order-60 graph6 line starts with '{' but is not a JSON spec.
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(build_circulant(CirculantSpec(60, {1, 2, 9}))))
        assert f.read_text().startswith("{")
        forced = run(capsys, "verify", "--input", str(f), "--input-format", "graph6")
        auto = run(capsys, "verify", "--input", str(f), "--input-format", "auto")
        assert auto == forced and auto[0] in (0, 1)

    @pytest.mark.parametrize("m, nullity", [(999_999, 2), (3_000_000_000, 4)])
    def test_large_prism_spec(self, tmp_path, capsys, m, nullity):
        # C_m x K_2 has eigenvalues 2cos(2 pi k/m) +- 1, which vanish at
        # k/m in {1/6, 1/3, 2/3, 5/6}: nullity 2 when 3 | m, 4 when 6 | m.
        f = tmp_path / "prism.json"
        f.write_text(json.dumps({"m": m, "s0": [1, m - 1], "s1": [0],
                                 "s2": [1, m - 1]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", str(f),
                             "--method", "spectral")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert f"spectral nullity: {nullity};" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, nullity", [
        ({"m": 2000006, "s1": [0, 1000003]}, 2000006),
        ({"m": 2**20, "s0": [2**18, 3 * 2**18], "s1": [], "s2": [2**18, 3 * 2**18]},
         2**20),
    ])
    def test_singular_at_a_large_divisor(self, tmp_path, capsys, spec, nullity):
        # Every invariant is divisible at b = m, whose phi(b) is near 10^6.
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--input", str(f), "--method", "spectral")
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out.startswith(f"spectral nullity: {nullity};")

    @pytest.mark.parametrize("m", [2**84, 10**18 + 3])
    def test_spec_order_beyond_limit(self, tmp_path, capsys, m):
        # 2^84 lies past is_prime's deterministic range, and trial division
        # would not factor 10^18 + 3 in reasonable time
        f = tmp_path / "prism.json"
        f.write_text(json.dumps({"m": m, "s0": [1, m - 1], "s1": [0],
                                 "s2": [1, m - 1]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--input", str(f), "--method", "spectral")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "m above 1000000000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", [
        '{"m": 8, "rotations": 5}',
        '{"m": 8, "rotations": [1, 7], "shift": 2}',
        '{"m": 8.5, "rotations": [1, 7]}',
        '{"m": "8", "rotations": [1, 7]}',
        '{"rotations": [1, 7]}',
        '{"m": 8, "rotations": [1, 7], "s1": [0]}',
        '{"m": 8, "rotations": ["a"]}',
        '{"m": 8, "s0": {"1": 7}}',
        '{"m": 8, "s0": [1]}',
        '{"m": 8, "rotations": [1, 7], "reflections": [0, 0]}',
        '{"m": 8, "rotations": [1, 7, 1]}',
        '{"m": 8, "s0": [1, 7], "s1": [2, 2]}',
        '[8, 1, 7]',
        '{"m": 8,',
    ])
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, spec):
        f = tmp_path / "spec.json"
        f.write_text(spec)
        code, _, err = run(capsys, "verify", "--input", str(f),
                           "--input-format", "spec", "--method", "spectral")
        assert code == 2
        assert "cannot parse spec" in err

    @pytest.mark.parametrize("spec, message", [
        ('{"n": 16, "jumps": [1, 9]}', "jump 9 outside [1, 8]"),
        ('{"n": 16, "jumps": [0]}', "jump 0 outside [1, 8]"),
        ('{"n": 2, "jumps": [1]}', "circulant order must be >= 3"),
        ('{"n": 16, "jumps": [1, 1]}', "must not repeat an entry"),
        ('{"n": 16, "jumps": 1}', "lists of integers"),
        ('{"n": 16, "jumps": [1.5]}', "lists of integers"),
        ('{"n": "16", "jumps": [1]}', "n must be an integer"),
        ('{"jumps": [1, 8]}', "n must be an integer"),
        ('{"n": 16, "jumps": [1], "shift": 2}', "shift must be 0 or 1"),
        ('{"n": 16, "jumps": [1], "m": 8}', "unexpected keys ['m']"),
        ('{"n": 16, "rotations": [1, 15]}', "unexpected keys ['rotations']"),
        ('{"n": 10000000000001, "jumps": [1]}', "n above 1000000000000"),
    ])
    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_malformed_circulant_spec_is_a_usage_error(self, tmp_path, capsys, spec,
                                                       message, method):
        f = tmp_path / "spec.json"
        f.write_text(spec)
        code, out, err = run(capsys, "verify", "--input", str(f), "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse spec: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, fragments", [
        ('{"m": 8, "rotations": [9]}', ("rotation", "9 outside [1, 7]")),
        ('{"m": 8, "rotations": [1]}', ("rotation", "not closed under inversion")),
        ('{"m": 8, "reflections": [8]}', ("reflection", "8 outside [0, 7]")),
        ('{"m": 2, "rotations": []}', ("m must be >= 3",)),
    ])
    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_malformed_dihedral_spec_is_a_usage_error(self, tmp_path, capsys, spec,
                                                      fragments, method):
        # A dihedral spec is checked as a bicirculant, but its errors name
        # the keys the user wrote.
        f = tmp_path / "spec.json"
        f.write_text(spec)
        code, out, err = run(capsys, "verify", "--input", str(f), "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse spec: ")
        assert all(fragment in err for fragment in fragments), err
        assert "Traceback" not in err


class TestLemmas:
    def test_q_family(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--family", "Q", "--t-max", "3",
                           "--beta-max", "40")
        assert code == 0
        assert "result: ok" in out

    def test_r_family_unique_range(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--family", "R", "--t-max", "0",
                           "--beta-max", "100")
        assert code == 0
        assert "beta in [11, 100]" in out

    def test_jsonl_format(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--family", "S", "--t-max", "1",
                           "--beta-max", "20", "--format", "jsonl")
        assert code == 0
        for line in out.strip().splitlines():
            obj = json.loads(line)
            assert obj["ok"] is True

    def test_full_case_analysis_single_family(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--family", "Q", "--t-max", "0",
                           "--beta-max", "10", "--full-case-analysis")
        assert code == 0
        assert "finite-case-analysis" in out

    def test_beta_max_zero_skips_unique_remainder(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--family", "Q", "--t-max", "0",
                           "--beta-max", "0")
        assert code == 0
        assert "unique-remainder" not in out

    @pytest.mark.parametrize("option", ["--t-max", "--beta-max"])
    @pytest.mark.parametrize("value", ["-1", "-5", "ten"])
    def test_bounds_must_be_non_negative(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--family", "Q", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a non-negative integer" in err
        assert "Traceback" not in err


class TestCensus:
    def test_circulant_unique(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "circulant", "8", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "# classes: 1"

    def test_dihedral_contains_prism_complement(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "dihedral", "12", "8")
        assert code == 0
        assert int(out.strip().splitlines()[-1].split(":")[1]) >= 1

    def test_no_dedup(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "circulant", "10", "4",
                           "--no-dedup")
        assert code == 0
        assert "# witnesses:" in out

    def test_dedup_above_order_32(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "circulant", "40", "8")
        assert code == 0
        assert out.endswith("# classes: 40\n")

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "census", "--family", "circulant", "16", "4",
                           "--budget", "2")
        assert code == 3
        assert "budget exceeded" in err

    def test_budget_counts_pruned_candidates(self, capsys):
        # dihedral 14 8 enumerates 147 connection sets; the ones that are not
        # the minimum of their automorphism orbit still count.
        argv = ("census", "--family", "dihedral", "14", "8", "--budget")
        code, _, err = run(capsys, *argv, "146")
        assert code == 3 and "budget exceeded" in err
        code, out, _ = run(capsys, *argv, "147")
        assert code == 0 and out.endswith("# classes: 3\n")

    @pytest.mark.parametrize("family,n,d", [
        ("circulant", "1", "0"), ("dihedral", "1", "0"), ("dihedral", "2", "0"),
        ("dihedral", "4", "2")])
    def test_empty_below_the_least_spec_order(self, capsys, family, n, d):
        # No circulant spec has order below 3 and no dihedral one m below 3.
        code, out, err = run(capsys, "census", "--family", family, n, d)
        assert (code, out, err) == (0, "# classes: 0\n", "")

    def test_jsonl(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "circulant", "8", "4",
                           "--format", "jsonl")
        assert code == 0
        first = json.loads(out.strip().splitlines()[0])
        assert first["degree"] == 4 and first["order"] == 8

    @pytest.mark.parametrize("cpus, jobs, size", [
        (3, "64", 3), (3, "2", 2), (None, "64", None), (3, None, None)])
    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch, cpus, jobs, size):
        # A stand-in Pool records its size and maps in process: no worker starts.
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def imap(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

            def close(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        extra = ("--jobs", jobs) if jobs else ()
        code, out, _ = run(capsys, "census", "--family", "circulant", "10", "4", *extra)
        assert code == 0 and out.endswith("# classes: 1\n")
        assert sizes == ([size] if size else [])


@pytest.mark.parametrize("argv", [
    ("construct", "14", "8", "--budget", "0"),
    ("census", "--family", "circulant", "8", "4", "--budget", "-1"),
    ("census", "--family", "circulant", "8", "4", "--budget", "0"),
    ("census", "--family", "circulant", "8", "4", "--jobs", "0"),
    ("census", "--family", "circulant", "8", "4", "--jobs", "two"),
])
def test_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("exists", "0", "4"), "expected a positive integer"),
    (("construct", "8", "-2"), "expected a non-negative integer"),
    (("census", "--family", "circulant", "0", "4"), "expected a positive integer"),
    (("census", "--family", "dihedral", "8", "-1"), "expected a non-negative integer"),
])
def test_order_and_degree_arguments(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_parser_import_stays_light():
    # The start-up cost is importing the CLI and building its parser; the
    # rational and process-pool modules load only when used.
    code = ("import sys; import nutforge.cli; nutforge.cli.build_parser(); "
            "print(sorted({'fractions', 'multiprocessing'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
