"""Tests of the benchmark itself: seeded inputs, independent checks and the
traced run."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run as bench
import speed
from checks import CHECKS, decode_graph6, encode_graph6, nullity_bound, adjacency
from workloads import WORKLOADS, construct_pairs, make_requests

cli = bench.load_program()


def _rewriting(rewrite):
    """cli.main with its stdout passed through `rewrite`."""
    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        print(rewrite(buf.getvalue()), end="")
        return code
    return main


def _request(workload, argv_prefix):
    reqs, _ = make_requests(workload, 0, "inputs")
    return next(r for r in reqs if r.argv[:len(argv_prefix)] == argv_prefix)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first, again, other = (make_requests(workload, seed, "inputs") for seed in (5, 5, 6))
    assert [(r.argv, r.expect) for r in first[0]] == [(r.argv, r.expect) for r in again[0]]
    assert first[1] == again[1]
    if workload == "verify":
        assert other[1] != first[1]
    else:  # the seed only orders a fixed request set
        assert sorted(r.argv for r in other[0]) == sorted(r.argv for r in first[0])


def test_request_counts():
    direct, search = construct_pairs()
    assert (len(direct), len(search)) == (57, 71)
    assert max(n for n, _ in direct) == 120
    sizes = {w: len(make_requests(w, 0, "inputs")[0]) for w in WORKLOADS}
    assert sizes == {"lemmas": 4, "construct": 128, "census": 11, "verify": 100}
    verify = make_requests("verify", 0, "inputs")[0]
    assert 20 <= sum(r.expect["shift"] for r in verify) <= 30
    assert sum(r.expect["witness"] for r in verify) == 50


def test_graph6_matches_the_program():
    from nutforge.graphs import CirculantSpec, build_circulant, to_graph6

    g = build_circulant(CirculantSpec(70, {1, 3, 35}))
    rows = list(g.adjacency_rows())
    assert encode_graph6(rows) == to_graph6(g)
    assert decode_graph6(to_graph6(g)) == rows


def test_modular_nullity():
    from nutforge.graphs import CirculantSpec, build_circulant

    # The cycle C_n has eigenvalues 2cos(2 pi k / n): 0 is one of them (twice)
    # iff 4 | n, and -1 (twice) iff 3 | n.
    for n, zero, minus_one in ((12, 2, 2), (9, 0, 2), (10, 0, 0)):
        rows = list(build_circulant(CirculantSpec(n, {1})).adjacency_rows())
        assert nullity_bound(adjacency(rows)) == zero
        assert nullity_bound(adjacency(rows, 1)) == minus_one


def test_correct_outputs_pass():
    for workload, prefix in (("construct", ("construct", "8", "4")),
                             ("census", ("census", "--family", "circulant", "10", "4")),
                             ("lemmas", ("lemmas", "--family", "Q"))):
        req = _request(workload, prefix)
        result = bench.run_pass(cli.main, [req], CHECKS[workload])
        assert result.failed == set(), workload


def test_corrupted_kernel_vector_is_a_failure():
    req = _request("construct", ("construct", "8", "4"))

    def corrupt(out):
        payload = json.loads(out)
        payload["kernel_vector"][0] = str(int(payload["kernel_vector"][0]) + 1)
        return json.dumps(payload) + "\n"

    result = bench.run_pass(_rewriting(corrupt), [req, req], CHECKS["construct"])
    assert result.failed == {0, 1}
    assert len(result.latencies) == 2


def test_wrong_census_count_is_a_failure():
    req = _request("census", ("census", "--family", "circulant", "10", "4"))
    wrong = _rewriting(lambda out: out.replace("# classes: 1", "# classes: 2"))
    assert bench.run_pass(wrong, [req], CHECKS["census"]).failed == {0}


def test_exception_is_a_failure_and_the_run_goes_on():
    reqs = [_request("census", ("census", "--family", "circulant", "8", "4")),
            _request("census", ("census", "--family", "circulant", "10", "4"))]
    calls = []

    def flaky(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return cli.main(argv)

    assert bench.run_pass(flaky, reqs, CHECKS["census"]).failed == {0}
    assert len(calls) == 2


def test_timed_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    reqs = [_request("census", ("census", "--family", "circulant", "8", "4")),
            _request("census", ("census", "--family", "dihedral", "12", "6"))]
    metrics, attempted, failed = bench.timed_run(cli.main, reqs, CHECKS["census"], 0.5)
    assert set(metrics) == set(bench.declared_metrics()["end_to_end"])
    assert all(value > 0 for value in metrics.values())
    # the warm-up, at least one whole pass, and top-up rounds for the cheap request
    assert failed == 0 and attempted > 2 * len(reqs)
    assert metrics["req_p50_ms"] <= metrics["req_p90_ms"]


def test_middle_mean():
    assert bench.middle_mean([5.0]) == 5.0
    assert bench.middle_mean([1.0, 3.0]) == 2.0
    assert bench.middle_mean([1.0, 2.0, 90.0]) == 2.0  # the median of three
    assert bench.middle_mean([1.0, 2.0, 4.0, 90.0]) == 3.0
    assert bench.middle_mean([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 90.0]) == 3.0


def test_calibration_work_is_fixed():
    # Every reported time is scaled by this work; changing it rescales them all.
    assert speed.interpreter_work() == 40370637424010164395374043958
    assert speed.array_work() == 68351028725


def test_speed_track_scales_by_the_calls_near_a_sample():
    track = speed.SpeedTrack()
    for at, seconds in ((0.0, 1.0), (10.0, 2.0), (20.0, 4.0)):
        track.times += [at + k / 100 for k in range(6)]
        track.seconds += [seconds] * 6
    assert track.local(0.2, 0.3) == 1.0
    assert track.local(10.1, 10.2) == 2.0
    # No call within the window: it widens to take in both neighbours.
    assert track.local(15.0, 15.5) == 3.0
    assert track.scale(10.1, 10.2) == track.reference / 2.0


def test_speed_points_grow_with_the_time_they_cover():
    track = speed.SpeedTrack()
    track.point()
    assert len(track.seconds) == speed.MIN_CALLS
    track.point(force=False)  # the last point is fresh: none taken
    assert len(track.seconds) == speed.MIN_CALLS
    track.point(ahead=0.5, force=False)
    assert len(track.seconds) == speed.MIN_CALLS + round(speed.SHARE * 0.5 / track.reference)


def test_traced_run_matches_untraced(tmp_path, monkeypatch):
    import nutforge.verify

    monkeypatch.setattr(bench, "OUT", tmp_path)
    verify, files = make_requests("verify", 0, str(tmp_path))
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    cases = {
        "construct": [_request("construct", ("construct", "8", "4")),
                      _request("construct", ("construct", "14", "4"))],
        "census": [_request("census", ("census", "--family", "dihedral", "10", "4"))],
        "lemmas": [_request("lemmas", ("lemmas", "--family", "Q"))],
        "verify": [min((r for r in verify if r.expect["input"] == kind and
                        r.expect["shift"] == shift), key=lambda r: len(r.expect["rows"]))
                   for kind, shift in (("spec", 0), ("spec", 1), ("graph6", 0))],
    }
    original = nutforge.verify.nut_check_direct
    metrics = {}
    for workload, reqs in cases.items():
        got, attempted, failed = bench.traced_run(cli.main, reqs, CHECKS[workload], workload)
        assert (attempted, failed) == (3 * len(reqs), 0), workload
        assert set(bench.declared_metrics()["per_layer"]) <= set(got)
        # Every span's self time together accounts for the traced wall time.
        assert 0 <= got["trace.unaccounted_s"] < 0.05 * got["trace.wall_s"]
        assert (tmp_path / f"spans-{workload}.jsonl").is_file()
        metrics[workload] = got
    assert nutforge.verify.nut_check_direct is original
    assert metrics["construct"]["constructions.search.candidates"] > 0
    assert metrics["census"]["constructions.canonical_form.calls"] > 0
    assert metrics["lemmas"]["modeval.sweep_zero_parameters.residues"] > 0
    assert metrics["verify"]["verify.nut_check_spectral.calls"] > 0
    assert metrics["verify"]["graphs.parse.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
