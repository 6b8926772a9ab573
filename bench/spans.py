"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of the package's layers
wherever its name is bound: in the defining module and in every module
that imported it, so ``teleport.project`` and ``fock.project`` are the
same span, named after the defining module (``fock.project``).  Nothing in
the package changes; ``uninstall`` puts the originals back.

Each span records (id, parent id, name, start, end, thread).  Every thread
keeps its own stack.  A span that opens on a thread with an empty stack
(a sweep pool worker) takes as parent the innermost open span of the
thread that installed the tracer, so pool work is charged to the
``analysis.sweep`` call that scheduled it.

Spans stay in memory.  ``fold`` turns the spans of one finished CLI call
into per-layer totals, and keeps that call's raw spans for ``dump``, so a
long run does not hold millions of span records.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import types
from collections import defaultdict

LAYERS = ("fock", "channel", "teleport", "analysis", "cli")

# functions whose per-call span count and self time are reported
SPAN_METRICS = (
    "fock.apply_local_map",
    "fock.reduced_density",
    "fock.tensor",
    "fock.project",
    "teleport.correction",
    "teleport.bell_resource",
    "channel.embed_one",
    "channel.embed_zero",
    "teleport.run_protocol",
    "analysis.sweep",
    "channel.squeeze_param",
    "channel.required_cutoff",
    "teleport.fidelity_analytic",
    "cli.main",
)

# (name, unit, better) of every metric the traced run reports
LAYER_METRICS = tuple(
    (f"{fn}.{kind}", unit, "lower")
    for fn in SPAN_METRICS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("analysis.sweep.busy_frac", "ratio", "higher"),
    ("analysis.sweep.simulated_frac", "ratio", "higher"),
    ("cli.output_bytes", "B", "lower"),
    ("fock.state_amplitudes_max", "count", "lower"),
    ("fock.bytes_computed", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _output_arrays(result):
    """(is_state, array) for each FockVector / DensityOperator returned."""
    for item in result if isinstance(result, tuple) else (result,):
        amplitudes = getattr(item, "amplitudes", None)
        if amplitudes is not None:
            yield True, amplitudes
        matrix = getattr(item, "matrix", None)
        if matrix is not None:
            yield False, matrix


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Wraps the layers of ``package`` and folds spans into totals."""

    def __init__(self, package: str = "horizon_teleport"):
        self._package = package
        self._modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        ]
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._ids = itertools.count(1)
        self._spans: list[tuple] = []
        self.last_spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sweep_busy = 0.0  # sum of child span time of sweeps
        self.sweep_capacity = 0.0  # sum of sweep wall time x threads used
        self.bytes_computed = 0
        self.state_amplitudes_max = 0
        self.folded_calls = 0

    def install(self) -> None:
        self._local.stack = self._owner_stack
        wrappers: dict[types.FunctionType, types.FunctionType] = {}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__
                layer = origin.rpartition(".")[2]
                if not origin.startswith(self._package + ".") or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, ids, owner = self._spans, self._ids, self._owner_stack
        measure_arrays = name.startswith("fock.")

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = owner[-1] if owner else 0
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            nbytes = amps = 0
            if measure_arrays:
                for is_state, array in _output_arrays(result):
                    nbytes += array.nbytes
                    if is_state:
                        amps = max(amps, array.size)
            spans.append((span_id, parent, name, start, end, threading.get_ident(), nbytes, amps))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def fold(self) -> None:
        """Add the spans recorded since the last fold to the totals.

        Call it between CLI calls, when no span is open."""
        spans = list(self._spans)
        del self._spans[:]
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        for span_id, _, name, start, end, _, nbytes, amps in spans:
            kids = children.get(span_id, ())
            covered = _union_length([(k[3], k[4]) for k in kids], start, end)
            self.calls[name] += 1
            self.self_s[name] += (end - start) - covered
            self.bytes_computed += nbytes
            self.state_amplitudes_max = max(self.state_amplitudes_max, amps)
            if name == "analysis.sweep" and kids:
                threads = len({k[5] for k in kids})
                self.sweep_busy += sum(k[4] - k[3] for k in kids)
                self.sweep_capacity += (end - start) * threads
        self.last_spans = spans
        self.folded_calls += 1

    def metrics(self) -> dict[str, float]:
        """Per-CLI-call means of the span totals, plus the ratios."""
        n = max(self.folded_calls, 1)
        out: dict[str, float] = {}
        for fn in SPAN_METRICS:
            out[f"{fn}.calls"] = self.calls.get(fn, 0) / n
            out[f"{fn}.self_s"] = self.self_s.get(fn, 0.0) / n
        out["analysis.sweep.busy_frac"] = (
            self.sweep_busy / self.sweep_capacity if self.sweep_capacity else 0.0
        )
        out["fock.state_amplitudes_max"] = float(self.state_amplitudes_max)
        out["fock.bytes_computed"] = self.bytes_computed / n
        return out

    def all_self_s(self) -> dict[str, tuple[float, float]]:
        """(calls, self_s) per CLI call for every traced function."""
        n = max(self.folded_calls, 1)
        return {name: (self.calls[name] / n, self.self_s[name] / n) for name in sorted(self.calls)}

    def dump(self) -> list[dict]:
        """The raw spans of the last folded call, start times relative to it."""
        if not self.last_spans:
            return []
        t0 = min(s[3] for s in self.last_spans)
        threads: dict[int, int] = {}
        return [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "thread": threads.setdefault(thread, len(threads)),
            }
            for span_id, parent, name, start, end, thread, _, _ in sorted(
                self.last_spans, key=lambda s: s[3]
            )
        ]
