"""Golden tests for the ``explain`` query engine.

The fixture run is the acceptance scenario from the provenance issue: a
sequential workflow that rides through a network partition (healed before
the deadline) and then loses a node that held consumer state, so the
consumer bundle's why-chain must name the partition wait, the
recovery-ladder rung, and the re-dispatch — and its per-hop sim-time
deltas must telescope exactly to the bundle's end-to-end latency.
"""

import pytest

from repro.analysis.experiments import DATA_CENTRIC, run_scenario
from repro.apps.scenarios import small_sequential
from repro.errors import ReproError
from repro.faults.plan import FaultPlan, NetworkPartition, NodeCrash
from repro.obs.explain import (
    Ledger,
    category_of,
    explain_bundle,
    explain_object,
    explain_slowest,
)
from repro.obs.provenance import ProvenanceLedger
from repro.obs.timeline import JsonlStreamSink
from repro.resilience.manager import ResilienceConfig


@pytest.fixture(scope="module")
def faulty_ledger(tmp_path_factory):
    """One crash + one healed partition; returns the loaded Ledger."""
    path = str(tmp_path_factory.mktemp("prov") / "ledger.jsonl")
    ledger = ProvenanceLedger(sinks=(JsonlStreamSink(path),))
    plan = FaultPlan(
        seed=1,
        node_crashes=(NodeCrash(node=5, time=0.35),),
        partitions=(NetworkPartition(
            start=0.15, duration=0.1, groups=((0, 1, 2), (3, 4, 5)),
        ),),
    )
    result = run_scenario(
        small_sequential(consumer_tasks=(16, 32)), DATA_CENTRIC,
        fault_plan=plan,
        resilience=ResilienceConfig(replication=2, partition_deadline=5.0),
        write_quorum=2, read_quorum=1,
        producer_compute=0.2, consumer_compute=0.3,
        provenance=ledger,
    )
    ledger.close()
    loaded = Ledger.load(path)
    loaded.makespan = result.engine.sim.now
    return loaded


class TestWhyChain:
    def test_chain_is_rooted_and_linear(self, faulty_ledger):
        term = faulty_ledger.terminal_of(1)
        chain = faulty_ledger.why_chain(term["id"])
        assert chain[0]["kind"] == "workflow.submit"
        assert chain[0]["cause"] is None
        assert chain[-1] is term
        for parent, child in zip(chain, chain[1:]):
            assert child["cause"] == parent["id"]

    def test_chain_names_partition_wait_and_recovery_rung(self, faulty_ledger):
        term = faulty_ledger.terminal_of(1)
        kinds = [r["kind"] for r in faulty_ledger.why_chain(term["id"])]
        assert "bundle.partition_wait" in kinds
        assert "bundle.reenact" in kinds
        # The re-dispatch after the crash-driven re-enactment.
        i = kinds.index("bundle.reenact")
        assert "bundle.dispatch" in kinds[i:]

    def test_deltas_telescope_to_end_to_end_latency(self, faulty_ledger):
        term = faulty_ledger.terminal_of(1)
        chain = faulty_ledger.why_chain(term["id"])
        own = [r for r in chain if r.get("bundle") == 1]
        hops = sum(b["t"] - a["t"] for a, b in zip(own, own[1:]))
        assert hops == pytest.approx(term["t"] - own[0]["t"])

    def test_rendered_tree_names_the_decisions(self, faulty_ledger):
        text = explain_bundle(faulty_ledger, 1)
        assert "why bundle 1 completed" in text
        assert "bundle.partition_wait" in text
        assert "rung=redispatch" in text
        assert "bundle.complete" in text
        assert "deltas sum to" in text
        assert "stall attribution along the chain:" in text
        # Categories align with the critical-path vocabulary.
        assert "[partition.wait " in text
        assert "[recovery " in text

    def test_ledger_also_carries_rereplication_rung(self, faulty_ledger):
        ladder = [
            r for r in faulty_ledger.records if r["kind"] == "recovery.ladder"
        ]
        assert any(r["rung"] == "rereplication" for r in ladder)
        # Each rung cause-links to the detector verdict that fired it.
        verdicts = {
            r["id"] for r in faulty_ledger.records
            if r["kind"] == "detector.verdict"
        }
        assert all(r["cause"] in verdicts for r in ladder)

    def test_unknown_bundle_rejected_with_hint(self, faulty_ledger):
        with pytest.raises(ReproError, match="completed bundles"):
            explain_bundle(faulty_ledger, 99)


class TestExplainObject:
    def test_object_history_lists_puts_and_failovers(self, faulty_ledger):
        text = explain_object(faulty_ledger, "coupled")
        assert "object 'coupled'" in text
        assert "object.put" in text
        assert "failover=crash" in text
        assert "replica failovers" in text

    def test_unknown_object_rejected_with_candidates(self, faulty_ledger):
        with pytest.raises(ReproError, match="objects seen"):
            explain_object(faulty_ledger, "no-such-var")


class TestExplainSlowest:
    def test_ranking_is_latency_descending(self, faulty_ledger):
        text = explain_slowest(faulty_ledger, n=10)
        assert text.index("bundle 1:") < text.index("bundle 0:")
        assert "dominant stall" in text
        assert "drill down with" in text

    def test_n_limits_rows(self, faulty_ledger):
        text = explain_slowest(faulty_ledger, n=1)
        assert "slowest 1 of 2" in text

    def test_invalid_n_rejected(self, faulty_ledger):
        with pytest.raises(ReproError, match=">= 1"):
            explain_slowest(faulty_ledger, n=0)


class TestCategories:
    def test_known_kinds_map_to_critpath_vocabulary(self):
        from repro.obs.critpath import (
            CATEGORIES,
            GRAY_CATEGORIES,
            MEMORY_CATEGORIES,
            PARTITION_CATEGORIES,
        )

        allowed = (
            set(CATEGORIES) | set(GRAY_CATEGORIES)
            | set(PARTITION_CATEGORIES) | set(MEMORY_CATEGORIES)
        )
        from repro.obs.explain import KIND_CATEGORY
        from repro.workflow.engine import RETRY_TABLE

        assert set(KIND_CATEGORY.values()) <= allowed
        # No retry hop falls back to ``wait``: every ledger kind a retry
        # rung emits (retry and escalation records) has an entry.
        for rung in RETRY_TABLE:
            assert rung.kind in KIND_CATEGORY, rung.kind
            if rung.escalation is not None:
                assert rung.escalation[2] in KIND_CATEGORY, rung.escalation
        assert KIND_CATEGORY["bundle.memory_wait"] == "mem.wait"
        assert KIND_CATEGORY["bundle.memory_escalate"] == "mem.wait"

    def test_fault_kinds_default_to_recovery(self):
        assert category_of("fault.node_crash") == "recovery"
        assert category_of("never.seen.before") == "wait"
