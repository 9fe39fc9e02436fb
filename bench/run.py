"""Host-time benchmark of the coupled-workflow simulator, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME]... [--seed S] [--trace [0|1]]
                         [--smoke] [--out FILE] [--trace-out FILE]

Each workload runs in its own child process (``bench/worker.py``), one at
a time, closed loop with one client: a rep starts when the previous one
has finished. Each workload measures for ``run_seconds`` of
``BENCHMARK.json`` (none with ``--smoke``). Set-up time is probed in
separate fresh interpreters.

Every line printed reads ``workload metric value unit``, timings followed
by n, median and quartiles. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace`` (one more,
traced rep per workload) its per-layer metrics. A workload that fails is
reported and the next one runs; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: fresh-interpreter set-up probes per workload; setup_s is their median
SETUP_PROBES = 11
#: single-threaded numerics, so one rep uses one core whatever the host
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(samples: "list[float]") -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med,) * 3
    return {"value": med, "n": len(samples), "median": med, "q1": q1, "q3": q3,
            "samples": samples}


def _child(args: "list[str]", timeout: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, **CHILD_ENV), timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, smoke: bool, trace: bool,
                 trace_out: "str | None") -> dict:
    """Measure one workload: metrics, outputs and check results.

    A workload whose reps failed has ``failed > 0``, and lacks the metrics
    it could not measure: ``end_to_end`` when no rep was timed,
    ``per_layer`` when the traced rep did not run.
    """
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = [_child(common + ["--setup"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    args = common + ["--seconds", str(seconds)]
    if trace:
        args += ["--trace"] + (["--trace-out", trace_out] if trace_out else [])
    res = _child(args, 120 + 2 * seconds)
    out = {
        "workload": name,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "outputs": res["outputs"],
    }
    if res["times"]:
        out["end_to_end"] = {
            "run_s": summarize(res["times"]),
            "setup_s": summarize(setups),
            "peak_rss_mb": summarize([res["peak_rss_mb"]]),
        }
    if "per_layer" in res and "end_to_end" in out:
        per_layer = res["per_layer"]
        run_s = out["end_to_end"]["run_s"]["median"]
        per_layer["trace.overhead_frac"] = res["traced_wall_s"] / run_s - 1
        out.update(per_layer=per_layer, traced_outputs=res["traced_outputs"],
                   restored=res["restored"])
    return out


def report(results: "list[dict]", spec: dict, trace: bool) -> dict:
    """Print one line per (workload, metric); return the final JSON object."""
    metrics: "dict[str, dict]" = {}
    for r in results:
        w = r["workload"]
        prefix = "" if len(results) == 1 else w + "."
        for m in spec["end_to_end"] if "end_to_end" in r else ():
            s = r["end_to_end"][m["name"]]
            print(f"{w} {m['name']} {s['value']:.6g} {m['unit']}  n={s['n']} "
                  f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g}")
            if not trace:
                metrics[prefix + m["name"]] = {"value": s["value"], "unit": m["unit"]}
        for m in spec["per_layer"] if trace and "per_layer" in r else ():
            v = r["per_layer"][m["name"]]
            print(f"{w} {m['name']} {v:.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": v, "unit": m["unit"]}
        for f in r["failures"]:
            print(f"{w} FAILED {f}")
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="run only this workload (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    # The run length is not a knob: it is BENCHMARK.json's run_seconds, so
    # a parent and a change are always measured alike. The option exists
    # because the benchmark harness passes that value on the command line.
    p.add_argument("--seconds", type=float,
                   help=f"must equal run_seconds of BENCHMARK.json ({spec['run_seconds']})")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="add a traced rep and report the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="toy input sizes, no timed loop")
    p.add_argument("--out", help="write every metric, sample and check here (JSON)")
    p.add_argument("--trace-out", help="write the traced reps as Chrome trace JSON")
    a = p.parse_args(argv)
    if a.seconds is not None and a.seconds != spec["run_seconds"]:
        p.error(f"--seconds {a.seconds:g} differs from run_seconds {spec['run_seconds']}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    seconds = 0.0 if a.smoke else spec["run_seconds"]
    names = a.workload or list(WORKLOADS)
    parts = []
    results = []
    for i, name in enumerate(names):
        part = None
        if a.trace and a.trace_out:
            part = a.trace_out if len(names) == 1 else f"{a.trace_out}.{i}.part"
        try:
            results.append(run_workload(name, a.seed, seconds, a.smoke, bool(a.trace), part))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            results.append({"workload": name, "attempted": 1, "failed": 1,
                            "failures": [f"worker: {exc}"], "outputs": {}})
        if part and os.path.exists(part):
            parts.append(part)
    if len(names) > 1 and parts:
        _merge_traces(a.trace_out, parts)
    summary = report(results, spec, bool(a.trace))
    if a.out:
        with open(a.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": a.seed, "seconds": seconds, "smoke": a.smoke,
                       "workloads": results}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _merge_traces(path: str, parts: "list[str]") -> None:
    """Concatenate per-workload traces, one Chrome process per workload."""
    events = []
    for pid, part in enumerate(parts, start=1):
        with open(part, encoding="utf-8") as fh:
            for ev in json.load(fh)["traceEvents"]:
                ev["pid"] = pid
                events.append(ev)
        os.remove(part)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


if __name__ == "__main__":
    sys.exit(main())
