"""Characterization of the workflow engine's retry table, rung by rung.

A one-app DAG on a 4-node cluster gets a routine that raises one error
class on chosen launches. The tests pin the exact observable behaviour of
each rung — launch counts, trace events and details, counters, ledger
kinds and fields, fault-trace records, the final sim clock and the
critical-path categories — so a change to how retries are implemented
cannot silently change what they do.
"""

from collections import Counter

import pytest

from repro.core.mapping.roundrobin import RoundRobinMapper
from repro.core.task import AppSpec
from repro.domain.descriptor import DecompositionDescriptor
from repro.errors import (
    DataLostError,
    LookupError_,
    MemoryPressureError,
    NetworkPartitionError,
    QuorumError,
    ScheduleError,
    StaleWriteError,
    WorkflowError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NetworkPartition
from repro.hardware.cluster import Cluster
from repro.hardware.spec import generic_multicore
from repro.obs.critpath import SpanGraph, critical_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceLedger
from repro.obs.tracer import Tracer
from repro.workflow.dag import WorkflowDAG
from repro.workflow.engine import WorkflowEngine

#: the retry delay every rung uses
DELAY = 0.05


def clock_after(retries: int) -> float:
    """The sim clock after ``retries`` back-to-back DELAY hops from 0."""
    t = 0.0
    for _ in range(retries):
        t = t + DELAY
    return t


def make_engine(fails, exc_type, tracer=None, plan=None):
    """One 4-task app whose routine raises ``exc_type`` on every launch
    for which ``fails(launch_number)`` is true (launches count from 1)."""
    dag = WorkflowDAG([AppSpec(
        app_id=1, name="app1",
        descriptor=DecompositionDescriptor.uniform((8, 8), (2, 2)),
    )])
    registry = MetricsRegistry()
    ledger = ProvenanceLedger(ring=1 << 16)
    eng = WorkflowEngine(
        dag, Cluster(4, machine=generic_multicore(4)),
        injector=FaultInjector(plan or FaultPlan()), tracer=tracer,
        registry=registry, provenance=ledger,
    )
    ledger.clock = lambda: eng.sim.now
    launches = []

    def routine(ctx):
        launches.append(ctx.generation)
        if fails(len(launches)):
            raise exc_type(f"boom {len(launches)}")
        return 1.0

    eng.set_routine(1, routine)
    return eng, launches


def events(eng) -> Counter:
    return Counter(ev.event for ev in eng.trace)


def kinds(eng) -> Counter:
    return Counter(r["kind"] for r in eng.provenance.ring.records)


def count(eng, name):
    reg = eng.registry
    return int(reg[name].total()) if name in reg else 0


def faults(eng) -> list[str]:
    return [ev.kind for ev in eng.injector.trace()]


class TestExhaustion:
    """A bundle that never stops failing walks its rung, then data loss."""

    @pytest.mark.parametrize("exc_type, event, kind, retries, escalations", [
        (MemoryPressureError, "bundle_memory_wait", "bundle.memory_wait",
         "workflow.memory.retries", "workflow.memory.escalations"),
        (QuorumError, "bundle_partition_wait", "bundle.partition_wait",
         "workflow.quorum.retries", "workflow.partition.escalations"),
        (NetworkPartitionError, "bundle_partition_wait",
         "bundle.partition_wait", "workflow.partition.retries",
         "workflow.partition.escalations"),
    ])
    def test_wait_rung_then_data_loss(
        self, exc_type, event, kind, retries, escalations
    ):
        eng, launches = make_engine(lambda n: True, exc_type)
        with pytest.raises(WorkflowError) as info:
            eng.run()
        assert isinstance(info.value.__cause__, exc_type)
        assert len(launches) == 73
        assert launches == list(range(73))  # one generation per launch
        ev = events(eng)
        assert ev["bundle_launched"] == 73
        assert ev[event] == 64
        assert ev["bundle_data_loss_retry"] == 8
        assert ev["app_started"] == 0
        assert eng.sim.now == clock_after(72)
        assert eng.sim.now == pytest.approx(3.60)
        assert count(eng, retries) == 73
        assert count(eng, escalations) == 9
        k = kinds(eng)
        assert k["bundle.dispatch"] == 73
        assert k[kind] == 64
        assert k["bundle.data_loss_retry"] == 8
        escalate = (
            "bundle.memory_escalate" if exc_type is MemoryPressureError
            else "bundle.partition_escalate"
        )
        assert k[escalate] == 9
        assert faults(eng) == [
            "memory_wait_escalated" if exc_type is MemoryPressureError
            else "partition_wait_escalated"
        ] * 9

    def test_data_loss_only(self):
        eng, launches = make_engine(lambda n: True, DataLostError)
        with pytest.raises(WorkflowError) as info:
            eng.run()
        assert isinstance(info.value.__cause__, DataLostError)
        assert len(launches) == 9
        ev = events(eng)
        assert ev["bundle_launched"] == 9
        assert ev["bundle_data_loss_retry"] == 8
        assert eng.sim.now == clock_after(8)
        assert eng.sim.now == pytest.approx(0.40)
        assert faults(eng) == []
        assert set(eng.registry.names()) == set()

    def test_retry_trace_details(self):
        eng, _ = make_engine(lambda n: n <= 2, MemoryPressureError)
        eng.run()
        waits = [ev for ev in eng.trace if ev.event == "bundle_memory_wait"]
        assert [ev.detail for ev in waits] == [
            "attempt=1 (boom 1)", "attempt=2 (boom 2)",
        ]
        assert [ev.time for ev in waits] == [0.0, DELAY]
        recs = [
            r for r in eng.provenance.ring.records
            if r["kind"] == "bundle.memory_wait"
        ]
        assert [
            {k: v for k, v in r.items() if k not in ("id", "t", "cause")}
            for r in recs
        ] == [
            {"kind": "bundle.memory_wait", "bundle": 0, "gen": 1,
             "attempt": 1, "error": "MemoryPressureError"},
            {"kind": "bundle.memory_wait", "bundle": 0, "gen": 2,
             "attempt": 2, "error": "MemoryPressureError"},
        ]

    def test_partition_wait_ledger_fields(self):
        eng, _ = make_engine(lambda n: n == 1, QuorumError)
        eng.run()
        (rec,) = [
            r for r in eng.provenance.ring.records
            if r["kind"] == "bundle.partition_wait"
        ]
        assert list(rec)[-4:] == ["gen", "attempt", "quorum", "error"]
        assert (rec["gen"], rec["attempt"], rec["quorum"], rec["error"]) == (
            1, 1, True, "QuorumError",
        )


class TestPartitionDeadline:
    def test_deadline_escalates_to_data_loss(self):
        """Past the deadline every further cut failure escalates at once."""
        eng, launches = make_engine(lambda n: n <= 7, NetworkPartitionError)
        eng.partition_deadline = 0.2
        eng.run()
        assert len(launches) == 8
        ev = events(eng)
        assert ev["bundle_partition_wait"] == 4
        assert ev["bundle_data_loss_retry"] == 3
        assert ev["app_completed"] == 1
        assert count(eng, "workflow.partition.retries") == 7
        assert count(eng, "workflow.partition.escalations") == 3
        esc = [
            r for r in eng.provenance.ring.records
            if r["kind"] == "bundle.partition_escalate"
        ]
        assert [r["attempts"] for r in esc] == [5, 6, 7]
        assert esc[0]["waited"] == pytest.approx(0.2)
        assert list(esc[0])[-2:] == ["waited", "attempts"]
        (first, *_) = eng.injector.trace()
        assert first.kind == "partition_wait_escalated"
        assert first.detail == (
            f"bundle=0 waited={esc[0]['waited']:.6g}s attempts=5"
        )
        assert eng.makespan == clock_after(7) + 1.0

    def test_no_deadline_waits_by_count(self):
        eng, _ = make_engine(lambda n: n <= 7, NetworkPartitionError)
        eng.run()
        ev = events(eng)
        assert ev["bundle_partition_wait"] == 7
        assert ev["bundle_data_loss_retry"] == 0
        assert count(eng, "workflow.partition.escalations") == 0


class TestStaleWrite:
    def test_current_generation_relaunches(self):
        eng, launches = make_engine(lambda n: n == 1, StaleWriteError)
        eng.run()
        assert launches == [0, 1]
        stale = [ev for ev in eng.trace if ev.event == "bundle_stale_abandoned"]
        assert [ev.detail for ev in stale] == ["gen=0 (boom 1)"]
        assert count(eng, "workflow.partition.stale_abandons") == 1
        assert faults(eng) == ["stale_bundle_abandoned"]
        assert eng.makespan == DELAY + 1.0
        (rec,) = [
            r for r in eng.provenance.ring.records
            if r["kind"] == "bundle.stale_abandon"
        ]
        assert (rec["gen"], rec["error"]) == (0, "StaleWriteError")

    def test_superseded_generation_stands_down(self):
        """A fenced instance that a re-enactment already superseded does
        not relaunch: the newer generation is the live one."""
        eng, _ = make_engine(lambda n: False, StaleWriteError)
        calls = []

        def routine(ctx):
            calls.append(ctx.generation)
            if len(calls) == 1:
                eng.reenact_bundle(0, "superseded")
                raise StaleWriteError("fenced")
            return 1.0

        eng.set_routine(1, routine)
        eng.run()
        assert calls == [0, 1]
        assert [ev.event for ev in eng.trace] == [
            "bundle_launched", "bundle_reenacted", "bundle_stale_abandoned",
            "bundle_launched", "app_started", "app_completed",
        ]
        assert eng.reenactments == {0: 1}
        assert eng.makespan == 1.0
        assert count(eng, "workflow.partition.stale_abandons") == 1


class TestCritpathCategories:
    @pytest.mark.parametrize("exc_type, category, retries", [
        (MemoryPressureError, "mem.wait", 3),
        (QuorumError, "quorum.degraded", 3),
        (NetworkPartitionError, "partition.wait", 3),
        (DataLostError, "recovery", 3),
        (StaleWriteError, "partition.wait", 1),
    ])
    def test_retry_hops_tile_the_makespan(self, exc_type, category, retries):
        tracer = Tracer()
        eng, _ = make_engine(lambda n: n <= retries, exc_type, tracer=tracer)
        eng.run()
        attr = critical_path(SpanGraph.from_tracer(tracer)).attribution()
        assert attr[category] == pytest.approx(retries * DELAY)
        assert attr["compute"] == pytest.approx(1.0)
        assert sum(attr.values()) == pytest.approx(eng.makespan)
        assert eng.makespan == clock_after(retries) + 1.0


class TestBudgetReset:
    """Wait budgets reset when the bundle completes; data loss does not."""

    def _twice(self, exc_type, fails_per_round):
        eng, launches = make_engine(lambda n: False, exc_type)
        rounds = {"n": 0}

        def routine(ctx):
            launches.append(ctx.generation)
            rounds["n"] += 1
            if rounds["n"] <= fails_per_round:
                raise exc_type(f"boom {len(launches)}")
            rounds["n"] = 0
            return 1.0

        eng.set_routine(1, routine)
        eng.sim.schedule(100.0, eng.reenact_bundle, 0, "again")
        return eng, launches

    @pytest.mark.parametrize("exc_type, retries", [
        (MemoryPressureError, "workflow.memory.retries"),
        (NetworkPartitionError, "workflow.partition.retries"),
    ])
    def test_wait_budget_resets(self, exc_type, retries):
        eng, launches = self._twice(exc_type, 40)
        eng.run()  # 40 + 40 > 64: only a reset budget survives both rounds
        assert len(launches) == 82
        assert count(eng, retries) == 80
        assert events(eng)["bundle_data_loss_retry"] == 0
        assert events(eng)["app_completed"] == 2

    def test_partition_wait_clock_resets(self):
        """A cut hitting the bundle again much later starts a fresh wait:
        the old window must not pre-expire the deadline."""
        eng, _ = self._twice(NetworkPartitionError, 5)
        eng.partition_deadline = 1.0
        eng.run()
        assert count(eng, "workflow.partition.escalations") == 0
        assert events(eng)["bundle_partition_wait"] == 10

    def test_data_loss_budget_does_not_reset(self):
        eng, launches = self._twice(DataLostError, 5)
        with pytest.raises(WorkflowError):
            eng.run()  # 5 + 4 > 8 retries across both rounds
        assert events(eng)["app_completed"] == 1
        assert events(eng)["bundle_data_loss_retry"] == 8
        assert len(launches) == 6 + 4


class TestClassifier:
    """Which failures count as a cut, at launch and at mapping time."""

    CUT = NetworkPartition(start=0.0, duration=0.12, groups=((0,), (1, 2, 3)))

    def _cut_engine(self, fails, exc_type):
        return make_engine(
            fails, exc_type, plan=FaultPlan(partitions=(self.CUT,))
        )

    @pytest.mark.parametrize("exc_type", [ScheduleError, LookupError_])
    def test_missing_coverage_during_cut_waits(self, exc_type):
        eng, launches = self._cut_engine(lambda n: n <= 3, exc_type)
        eng.run()
        assert len(launches) == 4
        assert events(eng)["bundle_partition_wait"] == 3
        assert count(eng, "workflow.partition.retries") == 3
        assert eng.makespan == clock_after(3) + 1.0

    @pytest.mark.parametrize("exc_type", [ScheduleError, LookupError_])
    def test_missing_coverage_without_cut_raises(self, exc_type):
        eng, _ = make_engine(lambda n: True, exc_type)
        with pytest.raises(exc_type):
            eng.run()
        assert events(eng)["bundle_partition_wait"] == 0

    def test_missing_coverage_after_heal_raises(self):
        eng, launches = self._cut_engine(lambda n: True, ScheduleError)
        with pytest.raises(ScheduleError):
            eng.run()
        assert len(launches) == 4  # t = 0, .05, .10 in the cut; .15 healed
        assert events(eng)["bundle_partition_wait"] == 3

    @pytest.mark.parametrize("exc_type, counter", [
        (QuorumError, "workflow.quorum.retries"),
        (NetworkPartitionError, "workflow.partition.retries"),
    ])
    def test_mapping_time_cut_waits(self, exc_type, counter):
        eng, launches = make_engine(lambda n: False, exc_type)
        calls = []

        class CutMapper(RoundRobinMapper):
            def map_bundle(self, apps, cluster, **ctx):
                calls.append(eng.sim.now)
                if len(calls) <= 2:
                    raise exc_type("lookup crossed the cut")
                return super().map_bundle(apps, cluster, **ctx)

        eng.set_bundle_mapper(0, CutMapper())
        eng.run()
        assert len(calls) == 3 and len(launches) == 1
        assert launches == [2]
        assert count(eng, counter) == 2
        assert events(eng)["bundle_partition_wait"] == 2

    @pytest.mark.parametrize("exc_type", [
        DataLostError, MemoryPressureError, StaleWriteError,
    ])
    def test_mapping_time_other_failures_raise(self, exc_type):
        eng, _ = make_engine(lambda n: False, exc_type)

        class FailingMapper(RoundRobinMapper):
            def map_bundle(self, apps, cluster, **ctx):
                raise exc_type("mapper failed")

        eng.set_bundle_mapper(0, FailingMapper())
        with pytest.raises(exc_type):
            eng.run()
