"""Compare two ``run.py --out`` files, one row per (workload, end-to-end metric).

Usage (from the repository root)::

    python3 bench/compare.py A.json B.json

A is the baseline (the parent commit), B the change; both must come from
the same host. Each row gives both medians with their quartiles and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``same`` -- B's median is within the bound of A's, either way;
* ``worse`` / ``better`` -- it is further than the bound from A's;
* ``unresolved`` -- the run-to-run spread (quartile distance over median)
  of A or B exceeds the bound, so the bound cannot be resolved, unless
  every sample of B beats every sample of A (then ``better``).

When both files used the same seed and sizes, the deterministic simulation
outputs (``sim_*``) must also be bit-identical. The exit code is 1 when a
row reads ``worse`` or an output differs.
"""

from __future__ import annotations

import json
import sys

from run import load_spec


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        beats = all(sign * (x - y) < 0 for x in b["samples"] for y in a["samples"])
        return "better" if beats else "unresolved"
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict) -> "tuple[list[str], bool]":
    """Report lines and whether B is acceptable against A."""
    lines = [f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'change':>8}  verdict"]
    ok = True
    a_by = {w["workload"]: w for w in a["workloads"]}
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    for wb in b["workloads"]:
        name = wb["workload"]
        wa = a_by.get(name)
        if wa is None:
            lines.append(f"{name:<14} missing from A")
            continue
        if "end_to_end" not in wa or "end_to_end" not in wb:
            lines.append(f"{name:<14} not measured: a rep failed")
            ok = False
            continue
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = verdict(ma, mb, m["bound"], m["better"] == "lower")
            ok &= v != "worse"
            change = mb["median"] / ma["median"] - 1
            lines.append(
                f"{name:<14} {m['name']:<12} {_stat(ma):<30} {_stat(mb):<30} "
                f"{change:>+8.2%}  {v}"
            )
        if same_inputs:
            diff = sorted(k for k in wa["outputs"].keys() | wb["outputs"].keys()
                          if wa["outputs"].get(k) != wb["outputs"].get(k))
            ok &= not diff
            lines.append(f"{name:<14} {'sim_*':<12} "
                         + ("bit-identical" if not diff else "DIFFER: " + ", ".join(diff)))
    return lines, ok


def _stat(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    lines, ok = compare(runs[0], runs[1], load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
