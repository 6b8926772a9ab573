"""One workload process of the benchmark.

Started by ``run.py`` with a JSON spec as its only argument.  It imports
the package from the checkout's ``src``, makes one untimed warm-up call,
prints a ``ready`` line (the parent times set-up up to that line), then
calls ``horizon_teleport.cli.main(argv)`` in a closed loop: one call at a
time, the next starting when the previous returns, until its share of the
run time is spent or its replay list is done.  Each call's output is
checked and hashed outside the timed region.  The last line it prints is
its result as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as exc:  # the config layout differs across numpy versions
        return f"unknown ({type(exc).__name__})"


def environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path[:0] = [spec["src"], BENCH_DIR]
    from horizon_teleport import cli

    import workloads
    from spans import Tracer

    def run_call(index: int) -> dict:
        call = workloads.make_call(spec["workload"], spec["seed"], index, spec["workdir"], spec["size"])
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(call.argv)
        except (Exception, SystemExit) as exc:  # a crash is one failed call
            code, error = -1, "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = time.perf_counter() - start
        text = buf.getvalue()
        errors = [error] if error else []
        if code != 0:
            errors.append(f"exit code {code}")
        else:
            if call.out_file is not None:
                try:
                    with open(call.out_file, encoding="utf-8", newline="") as fh:
                        text = fh.read()
                except OSError as exc:
                    errors.append(f"output file unreadable: {exc}")
            errors += workloads.check(call, text)
        data = text.encode("utf-8")
        return {
            "index": index,
            "latency": latency,
            "points": call.points,
            "errors": errors[:3],
            "output_bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "simulated": workloads.count_simulated(call, text) if spec["trace"] else 0,
        }

    warmup = run_call(spec["warmup_index"])
    _emit({"event": "ready"})

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    records = []
    if spec["replay"] is not None:
        for index in spec["replay"]:
            records.append(run_call(index))
    else:
        start, index = time.perf_counter(), spec["start_index"]
        while not records or time.perf_counter() - start < spec["seconds"]:
            records.append(run_call(index))
            if tracer is not None:
                tracer.fold()
            index += 1

    result = {
        "event": "done",
        "warmup": warmup,
        "calls": records,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["functions"] = tracer.all_self_s()
        if spec.get("spans_file"):
            with open(spec["spans_file"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
