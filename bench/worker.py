"""One workload in one process: the child that ``run.py`` starts.

``worker.py --workload W --setup`` times one set-up (imports plus input
construction) in this fresh interpreter. Without ``--setup`` it runs reps of
the workload's public call until ``--seconds`` have passed, checks every
rep's outputs, and with ``--trace`` adds one rep with span wrappers
installed. It prints one JSON object on stdout; ``run.py`` aggregates.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

from spans import Patcher, SpanRecorder, layer_metrics, self_times_ns
from spans import snapshot_targets, write_chrome_trace
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: the first rep pays one-time costs (lazy imports, first page faults) and
#: is checked but not timed; at least this many timed reps follow it
MIN_TIMED_REPS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist it is used."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"error: no program sources at {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC_DIR:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC_DIR}")


def _setup(w: Workload, seed: int, smoke: bool) -> dict:
    t0 = time.perf_counter()
    _import_program()
    importlib.import_module(w.entry)
    w.build(seed, smoke)
    return {"setup_s": time.perf_counter() - t0}


def _rep(w: Workload, seed: int, smoke: bool) -> "tuple[float, object, object]":
    inputs = w.build(seed, smoke)
    t0 = time.perf_counter()
    result = w.call(inputs)
    return time.perf_counter() - t0, inputs, result


def _run(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Untraced reps: timings, outputs and checks."""
    _import_program()
    times: "list[float]" = []
    failures: "list[str]" = []
    attempted = failed = 0
    reference: "dict | None" = None
    start = time.perf_counter()
    while len(times) < MIN_TIMED_REPS or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            wall, inputs, result = _rep(w, seed, smoke)
            problems = w.check(inputs, result)
            outputs = w.outputs(inputs, result)
        except Exception:
            # A rep that raises ends the loop: later reps would only repeat it.
            traceback.print_exc(file=sys.stderr)
            failed += 1
            failures.append(f"rep {attempted} raised")
            break
        if reference is None:
            reference = outputs
        elif outputs != reference:
            problems.append(f"outputs differ from rep 1: {outputs} != {reference}")
        failures += [f"rep {attempted}: {p}" for p in problems]
        failed += bool(problems)
        if attempted > 1:
            times.append(wall)
        del inputs, result
    return {
        "times": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": reference or {},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def _traced(w: Workload, seed: int, smoke: bool, reference: dict,
            trace_out: "str | None") -> dict:
    """One rep with span wrappers on every layer, then the originals back."""
    recorder = SpanRecorder()
    before = snapshot_targets()
    with Patcher(recorder):
        wall, inputs, result = _rep(w, seed, smoke)
    failures = []
    restored = all(a is b for a, b in zip(before, snapshot_targets()))
    if not restored:
        failures.append("traced pass left a wrapper installed")
    outputs = w.outputs(inputs, result)
    if outputs != reference:
        failures.append(f"traced outputs differ: {outputs} != {reference}")
    failures += [f"traced rep: {p}" for p in w.check(inputs, result)]
    spans = recorder.spans
    per_layer = layer_metrics(spans)
    per_layer.update(w.counters(result))
    for key in ("component_solves", "flows_resolved"):
        per_layer[f"sim.solver.{key}"] = recorder.solver_stats[key]
    # The entry point is not a span, so this is the share of the rep the
    # named layers explain.
    per_layer["trace.coverage"] = sum(self_times_ns(spans)) / 1e9 / wall
    if trace_out:
        write_chrome_trace(trace_out, spans, w.name)
    return {
        "traced_wall_s": wall,
        "traced_outputs": outputs,
        "per_layer": per_layer,
        "restored": restored,
        "failures": failures,
    }


def measure(w: Workload, seed: int, seconds: float, smoke: bool, trace: bool,
            trace_out: "str | None") -> dict:
    """The untraced reps, then with ``trace`` the traced one unless a rep failed."""
    out = _run(w, seed, seconds, smoke)
    if trace and not out["failed"]:
        traced = _traced(w, seed, smoke, out["outputs"], trace_out)
        out["attempted"] += 1
        out["failed"] += bool(traced["failures"])
        out["failures"] += traced.pop("failures")
        out.update(traced)
    return out


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup", action="store_true", help="time one set-up and exit")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out")
    a = p.parse_args(argv)
    w = WORKLOADS[a.workload]
    if a.setup:
        out = _setup(w, a.seed, a.smoke)
    else:
        out = measure(w, a.seed, a.seconds, a.smoke, a.trace, a.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
