#!/usr/bin/env python3
"""Benchmark of the nutforge command line.

Runs one workload as a closed loop with a single client: each request is a
real command line passed to ``nutforge.cli.main`` in this process, with
stdout captured, and the next request starts when the previous one returns.
Each output is checked after its request, outside the timed window; a failed
check counts as a failed request and never stops the run.

Every run starts with an untimed warm-up pass over the workload's requests,
which also checks every output. With ``--trace 0`` the run then spends
``--seconds`` on timed sends, in whole passes and then in top-up rounds of
the requests that still fit, and reports the end-to-end metrics. With ``--trace 1`` it runs
one untraced and one traced pass and reports the per-layer metrics; both
must print what the warm-up printed. The metric names and units come from
BENCHMARK.json.

    python3 nutbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it, starting with '#', describe the run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import CHECKS
from speed import STARTUP_CODE, STARTUP_REFERENCE_S, SpeedTrack
from tracer import ROOT, Tracer, layer_metrics, summarize
from workloads import CALIBRATION, WORKLOADS, make_requests

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
# lemmas reports carry their own wall time, which differs between any two runs.
_WALL_TIME = re.compile(r'"wall_time": [-+0-9.e]+')
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import nutforge.cli; nutforge.cli.build_parser()")


def load_program():
    """Import nutforge.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "nutforge" / "cli.py").is_file():
        raise SystemExit(f"error: no nutforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nutforge.cli

    if Path(nutforge.cli.__file__).resolve().parent != (SRC / "nutforge").resolve():
        raise SystemExit(f"error: nutforge was imported from {nutforge.cli.__file__}")
    return nutforge.cli


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def percentile(values: list[float], q: float) -> float:
    """Percentile interpolated between the two nearest ranks (the 50th is
    the median), so a noisy request next to the rank moves it only in part."""
    ordered = sorted(values)
    position = q / 100 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def middle_mean(values: list[float]) -> float:
    """Mean of about the middle half of the values; the median of up to
    three. As robust to a burst of noise as the median, but where a
    request's samples fall into a fast and a slow mode, it moves smoothly
    with their mix instead of jumping from one mode to the other."""
    ordered = sorted(values)
    cut = (len(ordered) + 1) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def call(main, argv, tracer: Tracer | None = None):
    """One request: (start, latency in seconds, exit code, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = main(list(argv))
            else:
                with tracer.span(ROOT):
                    code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code, error = None, traceback.format_exc(limit=4)
    return start, perf_counter() - start, code, out.getvalue(), error


@dataclass
class Pass:
    """Start, latency, output and failure of each request sent, by request index."""

    starts: dict[int, float] = field(default_factory=dict)
    latencies: dict[int, float] = field(default_factory=dict)
    outputs: dict[int, tuple] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)

    @property
    def wall(self) -> float:
        return sum(self.latencies.values())


def run_pass(main, requests, check, tracer: Tracer | None = None,
             verified: dict | None = None, indices=None,
             speed: SpeedTrack | None = None, expected: dict | None = None) -> Pass:
    """Send each request once (only those in `indices`, if given); time each
    call, then check its output.

    `verified` maps a request's index to an output that already passed its
    check; an identical output on a later pass needs no second check. With
    `speed`, calibration points are taken between requests and after the
    last one, sized by the `expected` latency of the next request.
    """
    verified = {} if verified is None else verified
    result = Pass()
    for i in range(len(requests)) if indices is None else indices:
        req = requests[i]
        if tracer is not None:
            tracer.request = i
        if speed is not None:
            speed.point(ahead=(expected or {}).get(i, 0.0), force=False)
        # Start each request with empty young generations, as a fresh process
        # would, so that one request's garbage is not collected in another's time.
        gc.collect()
        start, latency, code, out, error = call(main, req.argv, tracer)
        output = (code, _WALL_TIME.sub("", out))
        result.starts[i] = start
        result.latencies[i] = latency
        result.outputs[i] = output
        if error is None and verified.get(i) == output:
            continue
        try:
            reason = error or check(req.expect, code, out)
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=2)
        if reason:
            result.failed.add(i)
            print(f"# FAILED {' '.join(req.argv)}: {reason.strip()}", file=sys.stderr)
        else:
            verified.setdefault(i, output)
    if speed is not None:
        speed.point()
    return result


def time_interpreter(code: str, *args: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], check=True,
                   stdout=subprocess.DEVNULL, cwd=REPO)
    return perf_counter() - start


def measure_setup(runs: int) -> tuple[float, float]:
    """Median time of a fresh interpreter importing nutforge.cli and building
    the parser: the set-up every command-line call pays.

    Each is paired with a fresh interpreter that runs the fixed start-up
    reference of speed.py, the same kind of work. Returns the median set-up
    time scaled by the reference's time at reference speed over its median
    time here, and the median as measured.
    """
    times, references = [], []
    for _ in range(runs):
        references.append(time_interpreter(STARTUP_CODE))
        times.append(time_interpreter(SETUP_CODE, str(SRC)))
    raw = statistics.median(times)
    return raw * STARTUP_REFERENCE_S / statistics.median(references), raw


def timed_run(main, requests, check, seconds: float, calibration: str = "interpreter"):
    """A warm-up pass, then timed sends until `seconds` are used up.

    The warm-up pass lets caches and the allocator settle, and its outputs
    get the full check, so later sends only compare outputs. The timed sends
    are whole passes, as many as fit (at least one), and top-up rounds that
    spend the time they leave: each re-sends, cheapest first, the requests
    whose latencies still fit, so short requests gather more samples. Half
    of the top-up time, as the warm-up pass predicts it, comes before the
    whole passes and the rest after, so that a slow spell of the machine
    does not meet all samples of the short requests at once. Calibration
    points of the given kind between requests scale every sample to
    reference seconds (see speed.py). A request's latency is the middle mean
    of its scaled samples, and wall_s adds those up: the time of one pass,
    with bursts of machine noise voted out and drift of the machine's speed
    scaled out.
    """
    setup, setup_raw = measure_setup(SETUP_RUNS)
    verified: dict = {}
    warm = run_pass(main, requests, check, verified=verified)
    speed = SpeedTrack(calibration)
    samples: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(requests))}
    sends: list[Pass] = []

    def typical(i: int) -> float:
        """Raw latency of request i: the median of its timed samples, or its
        warm-up latency while it has none."""
        if not samples[i]:
            return warm.latencies[i]
        return statistics.median(latency for _, latency in samples[i])

    def send(indices=None) -> None:
        sent = run_pass(main, requests, check, verified=verified, indices=indices,
                        speed=speed, expected=warm.latencies)
        sends.append(sent)
        for i, latency in sent.latencies.items():
            samples[i].append((sent.starts[i], latency))

    def top_up(until: float) -> int:
        """Send top-up rounds until `until`; returns how many were sent."""
        rounds = 0
        while True:
            left = until - perf_counter()
            batch, total = [], 0.0
            for i in sorted(samples, key=typical):
                total += typical(i)
                if total > left:
                    break
                batch.append(i)
            if not batch:
                return rounds
            send(batch)
            rounds += 1

    start = perf_counter()
    # Half the time the whole passes will leave goes to top-up rounds before
    # them, so that short requests are sampled all through the run.
    fit = max(1, int(seconds // warm.wall))
    rounds = top_up(start + (seconds - fit * warm.wall) / 2)
    passes = 0
    while True:
        began = perf_counter()
        send()
        passes += 1
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    rounds += top_up(start + seconds)
    latencies = [middle_mean([latency * speed.scale(began, began + latency)
                              for began, latency in samples[i]])
                 for i in range(len(requests))]
    metrics = {
        "wall_s": sum(latencies),
        "req_p50_ms": percentile(latencies, 50) * 1e3,
        "req_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    counts = [len(v) for v in samples.values()]
    raw = [typical(i) for i in range(len(requests))]
    print(f"# warm-up pass: {warm.wall:.3f} s; whole timed passes: {passes}; top-up "
          f"rounds: {rounds}; latency samples: {len(latencies)} requests, "
          f"each from {min(counts)} to {max(counts)} timed sends")
    print(f"# calibration: {calibration} work, {len(speed.times)} calls, mean "
          f"{speed.mean() * 1e3:.4f} ms per call; as measured: wall_s {sum(raw):.4f} s, "
          f"req_p50_ms {percentile(raw, 50) * 1e3:.4f} ms, req_p90_ms "
          f"{percentile(raw, 90) * 1e3:.4f} ms, setup_s {setup_raw:.4f} s")
    attempted = len(requests) + sum(counts)
    return metrics, attempted, len(warm.failed) + sum(len(p.failed) for p in sends)


def traced_run(main, requests, check, workload: str):
    """A warm-up pass that checks every output, then one untraced and one
    traced pass whose outputs must equal the warm-up's."""
    verified: dict = {}
    warm = run_pass(main, requests, check, verified=verified)
    base = run_pass(main, requests, check, verified=verified)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(main, requests, check, tracer, verified)
    finally:
        tracer.restore()
    for i, output in base.outputs.items():
        if traced.outputs[i] != output:
            traced.failed.add(i)
            print(f"# FAILED {' '.join(requests[i].argv)}: traced output differs",
                  file=sys.stderr)
    rows = summarize(tracer.spans)
    cyclotomic = sys.modules.get("nutforge.cyclotomic")
    metrics = layer_metrics(tracer.spans, rows, len(getattr(cyclotomic, "_PHI_CACHE", ())))
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - base.wall
    metrics["trace.unaccounted_s"] = traced.wall - sum(row["self_s"] for row in rows.values())
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.jsonl"))
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# self time {name}: {row['self_s']:.4f} s "
              f"({100 * row['self_s'] / traced.wall:.1f}% of traced wall)")
    failed = len(warm.failed) + len(base.failed) + len(traced.failed)
    return metrics, 3 * len(requests), failed


def environment() -> dict:
    modeval = sys.modules.get("nutforge._modeval")
    backend = getattr(modeval, "active_backend", None)
    return {"sweep_backend": backend() if callable(backend) else "none",
            "python": platform.python_version(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nutforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    cli = load_program()
    print(f"# env: {json.dumps(environment())}")
    OUT.mkdir(exist_ok=True)
    input_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        requests, files = make_requests(args.workload, args.seed, input_dir)
        for name, text in files.items():
            Path(input_dir, name).write_text(text + "\n")
        gc.collect()
        gc.freeze()  # the per-request collections need not scan long-lived objects
        check = CHECKS[args.workload]
        if args.trace:
            metrics, attempted, failed = traced_run(cli.main, requests, check, args.workload)
            units = declared["per_layer"]
        else:
            metrics, attempted, failed = timed_run(cli.main, requests, check, args.seconds,
                                                  CALIBRATION[args.workload])
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    print(f"# fail_frac: {failed / attempted} ({failed} of {attempted} requests)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
