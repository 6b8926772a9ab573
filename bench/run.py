"""Benchmark of the horizon-teleport command line.

Run from the root of a checkout:

    python3 bench/run.py --workload simulate-strong --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in worker processes of its own (``worker.py``), one at
a time, so peak RSS belongs to that workload.  Every worker calls
``horizon_teleport.cli.main(argv)`` in a closed loop with one client: one
call at a time, the next starting when the previous returns.  With
``--trace 0`` it starts WORKERS workers in turn, each timing its set-up
and then a share of ``--seconds``, then (when set-up is cheap) a few that
only set up, and reports the end-to-end metrics.
With ``--trace 1`` one worker runs the calls with every layer traced and a
second replays the same calls untraced; the outputs must be byte-identical,
and the traced run reports the per-layer metrics and its own overhead.

Every call's output is checked against closed forms computed here (see
``workloads.py``).  The human-readable report goes to stdout; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report, with the environment, is also written to
``.bench_out/`` in the checkout, and a traced run writes the spans of its
last call there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

# timed worker processes per untraced run
WORKERS = 3
# Set-up-only workers follow while the median set-up so far fits in what is
# left of this share of --seconds, up to MAX_SETUPS set-ups in all: a cheap
# set-up is noisy and gets more samples, a costly one gets the three the
# timed workers give.
EXTRA_SETUP_SHARE = 0.1
MAX_SETUPS = 9
# workers still running this long after the run started are killed
RUN_TIMEOUT_S = 170.0
ENV_VARS = ("HORIZON_TELEPORT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are fewer than 21 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn(spec: dict, root: str, deadline: float) -> tuple[float, dict]:
    """Run one worker, killed at ``deadline`` (a perf_counter time);
    return (seconds to its ready line, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=root,
    )
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith('{"event": "ready"') or not lines:
        raise RuntimeError(f"worker for {spec['workload']} failed with exit code {code}")
    return setup, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, root: str) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    base = {
        "src": os.path.join(root, "src"),
        "workload": name,
        "seed": seed,
        "size": size,
        "workdir": workdir,
        "trace": False,
        "replay": None,
        "spans_file": None,
    }
    results: list[dict] = []
    setup_only: list[dict] = []
    setups: list[float] = []
    try:
        if trace:
            traced_spec = dict(base, trace=True, start_index=0, warmup_index=-1, seconds=seconds / 2)
            traced_spec["spans_file"] = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
            _, traced = spawn(traced_spec, root, deadline)
            replay = [c["index"] for c in traced["calls"]]
            replay_spec = dict(base, start_index=0, warmup_index=-1, seconds=0, replay=replay)
            _, plain = spawn(replay_spec, root, deadline)
            results = [traced, plain]
        else:
            next_index = 0
            for k in range(WORKERS):
                spec = dict(base, start_index=next_index, warmup_index=-1 - k, seconds=seconds / WORKERS)
                setup, result = spawn(spec, root, deadline)
                setups.append(setup)
                results.append(result)
                next_index += len(result["calls"])
            budget = EXTRA_SETUP_SHARE * seconds
            while len(setups) < MAX_SETUPS and statistics.median(setups) <= budget:
                spec = dict(base, start_index=0, warmup_index=-1 - len(setups), seconds=0, replay=[])
                setup, result = spawn(spec, root, deadline)
                budget -= setup
                setups.append(setup)
                setup_only.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_calls = [r["warmup"] for r in results + setup_only] + [c for r in results for c in r["calls"]]
    failures = [c for c in all_calls if c["errors"]]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "loop": "closed, one client, one call at a time",
        "env": dict(
            results[0]["env"],
            nproc=os.cpu_count(),
            commit=git_commit(root),
            **{var: os.environ.get(var) for var in ENV_VARS},
        ),
        "attempted": len(all_calls),
        "failed": len(failures),
        "error_rate": len(failures) / len(all_calls),
        "errors": [f"call {c['index']}: {e}" for c in failures[:5] for e in c["errors"]],
    }
    if trace:
        report.update(_per_layer(*results))
        report["correct"] = not failures and report["byte_identical"]
    else:
        report.update(_end_to_end(results, setups))
        report["correct"] = not failures
    with open(os.path.join(out_dir, f"report-{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def _end_to_end(results: list[dict], setups: list[float]) -> dict:
    latencies = [c["latency"] for r in results for c in r["calls"]]
    points = sum(c["points"] for r in results for c in r["calls"])
    tail, pct = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "points_per_s": points / sum(latencies),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results),
    }
    return {
        "metrics": {m: {"value": values[m], "unit": u} for m, u in END_TO_END},
        "samples": len(latencies),
        "latencies_s": latencies,
        "tail_percentile": pct,
        "setups_s": setups,
        "worker_peak_rss_mb": [r["maxrss_mb"] for r in results],
    }


def _per_layer(traced: dict, plain: dict) -> dict:
    calls = traced["calls"]
    t_lat = statistics.median(c["latency"] for c in calls)
    p_lat = statistics.median(c["latency"] for c in plain["calls"])
    values = dict(traced["layers"])
    values["analysis.sweep.simulated_frac"] = sum(c["simulated"] for c in calls) / sum(
        c["points"] for c in calls
    )
    values["cli.output_bytes"] = statistics.mean(c["output_bytes"] for c in calls)
    values["trace.overhead_frac"] = t_lat / p_lat - 1.0
    by_layer: dict[str, float] = {}
    for fn, (_, self_s) in traced["functions"].items():
        layer = fn.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    return {
        "metrics": {m: {"value": values[m], "unit": u} for m, u, _ in LAYER_METRICS},
        "byte_identical": [c["sha256"] for c in calls] == [c["sha256"] for c in plain["calls"]],
        "traced_calls": len(calls),
        "traced_p50_s": t_lat,
        "layer_self_s": by_layer,
        "functions": traced["functions"],
    }


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={report['trace']}  size={report['size']}  ({report['loop']})")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in report["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"(p{report['tail_percentile']:.1f} of {report['samples']} calls)"
        elif name == "latency_p50_s":
            note = f"({report['samples']} calls)"
        elif name == "setup_s":
            note = "(median of " + ", ".join(f"{s:.3f}" for s in report["setups_s"]) + ")"
        elif name == "peak_rss_mb":
            note = "(median of " + ", ".join(f"{m:.1f}" for m in report["worker_peak_rss_mb"]) + ")"
        print(f"   {name:34s} {metric['value']:14.6g} {metric['unit']:6s} {note}")
    print(f"   {'error_rate':34s} {report['error_rate']:14.6g} {'ratio':6s} "
          f"({report['failed']} of {report['attempted']} calls failed)")
    if report["trace"]:
        print(f"   byte-identical to the untraced replay: {report['byte_identical']} "
              f"({report['traced_calls']} calls)")
        shares = ", ".join(
            f"{layer} {s:.4g} s ({100 * s / report['traced_p50_s']:.0f}%)"
            for layer, s in sorted(report["layer_self_s"].items(), key=lambda kv: -kv[1])
        )
        print(f"   self time per call by layer (summed over pool threads), against the "
              f"traced p50 of {report['traced_p50_s']:.4g} s: {shares}")
    for line in report["errors"]:
        print(f"   FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "horizon_teleport", "cli.py")):
        sys.stderr.write("error: run from the root of a horizon-teleport checkout "
                         "(src/horizon_teleport/cli.py not found)\n")
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, root)
        print_report(report)
        reports.append(report)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in reports for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
