"""Tests of the benchmark itself, at toy sizes: ``pytest bench/ -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from run import load_spec  # noqa: E402
from spans import Patcher, SpanRecorder, self_times_ns, snapshot_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def subtree_tiling(spans: list) -> "list[tuple[float, float]]":
    """Per top-level span: (its duration, the self times summed over its subtree)."""
    own = self_times_ns(spans)
    root_of: "list[int]" = []
    for i, s in enumerate(spans):
        root_of.append(i if s[3] < 0 else root_of[s[3]])
    totals: "dict[int, float]" = {}
    for i, o in enumerate(own):
        totals[root_of[i]] = totals.get(root_of[i], 0) + o
    return [(spans[r][2] - spans[r][1], totals[r]) for r in sorted(totals)]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke --trace`` over every workload."""
    tmp = tmp_path_factory.mktemp("smoke")
    out, trace = tmp / "out.json", tmp / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--trace",
         "--out", str(out), "--trace-out", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        "stdout": proc.stdout.strip().splitlines(),
        "out": json.loads(out.read_text()),
        "trace": json.loads(trace.read_text()),
    }


def test_printed_metric_names_match_spec(smoke):
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed: "dict[str, set[str]]" = {}
    for line in smoke["stdout"][:-1]:
        workload, metric = line.split()[:2]
        printed.setdefault(workload, set()).add(metric)
    assert printed == {w: expected for w in WORKLOADS}
    summary = json.loads(smoke["stdout"][-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in spec["per_layer"]
    }


def test_all_checks_pass(smoke):
    summary = json.loads(smoke["stdout"][-1])
    assert summary["correct"] and summary["failed"] == 0
    for w in smoke["out"]["workloads"]:
        assert w["failures"] == [], w["workload"]
        assert w["attempted"] >= 5


def test_traced_pass_gives_same_outputs(smoke):
    for w in smoke["out"]["workloads"]:
        assert w["traced_outputs"] == w["outputs"], w["workload"]
        assert w["per_layer"]["transport.bytes.network"] == w["outputs"]["sim_net_bytes"]
        assert w["per_layer"]["transport.bytes.shm"] == w["outputs"]["sim_shm_bytes"]


def test_wrappers_restored_after_traced_pass(smoke):
    assert all(w["restored"] for w in smoke["out"]["workloads"])
    before = snapshot_targets()
    w = WORKLOADS["seq_policies"]
    with Patcher(SpanRecorder()):
        assert all(a is not b for a, b in zip(before, snapshot_targets()))
        w.call(w.build(0, True))
    assert all(a is b for a, b in zip(before, snapshot_targets()))


def test_self_times_tile_top_level_spans(smoke):
    events = [e for e in smoke["trace"]["traceEvents"] if e["ph"] == "X"]
    assert events
    assert {w["workload"] for w in smoke["out"]["workloads"]} == set(WORKLOADS)
    for pid in {e["pid"] for e in events}:
        mine = sorted((e for e in events if e["pid"] == pid), key=lambda e: e["args"]["id"])
        spans = [
            [e["name"], e["ts"], e["ts"] + e["dur"], e["args"]["parent"], e["args"]["run"]]
            for e in mine
        ]
        assert all(s[4] == 1 for s in spans)
        for s in spans:
            if s[3] >= 0:
                parent = spans[s[3]]
                assert parent[1] <= s[1] <= s[2] <= parent[2], (s, parent)
        tiles = subtree_tiling(spans)
        assert tiles
        for duration, self_sum in tiles:
            assert self_sum == pytest.approx(duration, rel=0.01)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_failures_reach_the_summary(monkeypatch, capsys, trace):
    """A failed check and a crashed worker are counted, and the other
    workloads still run and report."""
    forced = dataclasses.replace(WORKLOADS["seq_dht"], check=lambda inputs, result: ["forced"])

    def child(args, timeout):
        name = args[args.index("--workload") + 1]
        if "--setup" in args:
            return {"setup_s": 0.1}
        if name == "conc_direct":
            raise RuntimeError("worker exited with 1")
        w = forced if name == "seq_dht" else WORKLOADS[name]
        return worker.measure(w, 0, 0.0, True, "--trace" in args, None)

    monkeypatch.setattr(run, "_child", child)
    code = run.main(["--smoke", "--trace", trace, "--workload", "seq_dht",
                     "--workload", "conc_direct", "--workload", "jaguar_scale"])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert code == 1
    assert summary["correct"] is False
    # seq_dht: all four reps fail the check; conc_direct: one crashed worker
    assert summary["failed"] == 5
    assert summary["attempted"] == 4 + 1 + 4 + int(trace)
    assert any(line.startswith("seq_dht FAILED rep 2: forced") for line in lines)
    assert any(line.startswith("conc_direct FAILED worker:") for line in lines)
    spec = load_spec()
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {f"jaguar_scale.{m['name']}" for m in expected} <= set(summary["metrics"])


def test_run_length_is_not_a_knob():
    with pytest.raises(SystemExit) as exc:
        run.main(["--seconds", "3"])
    assert exc.value.code == 2


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seq_dht", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
