"""End-to-end data integrity and hedged pulls in the shared space.

Every object carries a content checksum from put time; deliveries are
verified at the consumer and a mismatch — wire corruption or a poisoned
at-rest copy — transparently re-fetches from a surviving replica. Slowed
sources race a hedged backup pull against the deadline budget. All of it
is deterministic per fault-plan seed.
"""

import pytest

from repro.cods.space import CoDS
from repro.domain.box import Box
from repro.errors import DataIntegrityError, SpaceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DataCorruption,
    DuplicateDelivery,
    FaultPlan,
    NetworkPartition,
    SlowNode,
)
from repro.hardware.cluster import Cluster
from repro.hardware.spec import generic_multicore
from repro.resilience.replication import ReplicaPlacer
from repro.sim.engine import SimEngine
from repro.transport.hybriddart import HybridDART

DOMAIN = (8, 8, 8)
VAR = "u"


def make_cluster():
    return Cluster(num_nodes=4, machine=generic_multicore(4))


def make_space(plan=None, replication=2, hedge_factor=None):
    cluster = make_cluster()
    injector = FaultInjector(plan) if plan is not None else None
    return CoDS(
        cluster, DOMAIN,
        dart=HybridDART(cluster, injector=injector),
        replication=replication,
        placer=ReplicaPlacer(cluster, 0) if replication > 1 else None,
        hedge_factor=hedge_factor,
    )


def put_domain(space, core=0, app_id=1):
    return space.put_seq(
        core, VAR, Box.from_extents(DOMAIN), element_size=8,
        version=0, app_id=app_id,
    )


def replica_of(space, primary=0):
    """The (single) replica copy of the primary's logical object."""
    (rc,) = space._replicas[(VAR, 0, primary)]
    return space._stores[rc].get(VAR, 0, of=primary)


def count(space, name):
    reg = space.dart.registry
    return int(reg[name].total()) if name in reg else 0


class TestChecksums:
    def test_put_attaches_verifiable_checksum(self):
        space = make_space()
        obj = put_domain(space)
        assert obj.checksum is not None
        assert obj.verify_checksum()

    def test_replica_shares_primary_checksum(self):
        space = make_space()
        obj = put_domain(space)
        rep = replica_of(space)
        assert rep.checksum == obj.checksum
        assert rep.verify_checksum()

    def test_hedge_factor_validated(self):
        with pytest.raises(SpaceError):
            make_space(hedge_factor=1.0)
        with pytest.raises(SpaceError):
            make_space(hedge_factor=-2.0)


class TestCorruptedPulls:
    def plan_corrupting_link(self, node_a, node_b):
        return FaultPlan(
            seed=11,
            corruptions=(
                DataCorruption(
                    src_node=node_a, dst_node=node_b, probability=0.99
                ),
            ),
        )

    def test_corrupted_delivery_refetched_from_replica(self):
        # Only the primary->consumer link corrupts; the replica (placed on
        # a third node) serves the re-fetch cleanly.
        space = make_space(plan=self.plan_corrupting_link(0, 2))
        put_domain(space)
        sched, records = space.get_seq(
            8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2
        )
        assert len(records) == 1
        assert not records[0].corrupted
        assert count(space, "integrity.refetches") >= 1
        assert count(space, "integrity.unrecoverable") == 0
        # The winning record came from the replica, not core 0.
        assert records[0].src_core != 0

    def test_every_copy_corrupt_raises(self):
        # Wildcard corruption poisons the replica at put time AND corrupts
        # the pull plus its re-fetch: nothing clean is reachable.
        plan = FaultPlan(
            seed=11, corruptions=(DataCorruption(probability=0.99),)
        )
        space = make_space(plan=plan)
        put_domain(space)
        with pytest.raises(DataIntegrityError):
            space.get_seq(8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2)
        assert count(space, "integrity.unrecoverable") == 1

    def test_poisoned_replica_detected_on_delivery(self):
        """An at-rest poisoned copy served over a clean wire still fails
        delivery verification and triggers a re-fetch."""
        plan = FaultPlan(
            seed=11,
            # Probability 0 keeps gray mode on without wire corruption.
            slow_nodes=(SlowNode(node=3, start=5.0, duration=1.0),),
        )
        space = make_space(plan=plan)
        put_domain(space)
        space._poison_copy(replica_of(space))
        rc = replica_of(space).owner_core
        # Pull directly from the poisoned replica's core.
        from repro.cods.schedule import TransferPlan

        plan_ = TransferPlan(
            src_core=rc, dst_core=8, cells=64, nbytes=512, var=VAR
        )
        rec = space._pull(plan_, app_id=2)
        assert rec.src_core != rc
        assert count(space, "integrity.refetches") == 1


class TestDuplicateDeliveries:
    def test_duplicates_dropped_and_bytes_invariant(self):
        plan = FaultPlan(
            seed=12, duplications=(DuplicateDelivery(probability=0.99),)
        )
        dirty = make_space(plan=plan)
        clean = make_space()
        for space in (dirty, clean):
            put_domain(space)
            space.get_seq(8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2)
        assert count(dirty, "integrity.duplicates_dropped") >= 1
        # Each logical transfer is accounted exactly once.
        assert dirty.dart.metrics.as_dict() == clean.dart.metrics.as_dict()


class TestHedgedPulls:
    def slow_plan(self, factor=5.0):
        return FaultPlan(
            seed=13,
            slow_nodes=(
                SlowNode(node=0, start=0.0, duration=100.0, factor=factor),
            ),
        )

    def test_hedge_wins_against_badly_slowed_primary(self):
        space = make_space(plan=self.slow_plan(5.0), hedge_factor=2.0)
        put_domain(space)
        sched, records = space.get_seq(
            8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2
        )
        assert count(space, "hedge.issued") == 1
        assert count(space, "hedge.wins") == 1
        assert count(space, "hedge.redundant_bytes") == records[0].nbytes
        assert records[0].src_core != 0  # the backup replica served it

    def test_hedge_loses_when_deadline_barely_blown(self):
        # factor 2.5 blows the 2x deadline but the backup path (deadline +
        # one clean transfer = 3x) cannot beat the 2.5x primary.
        space = make_space(plan=self.slow_plan(2.5), hedge_factor=2.0)
        put_domain(space)
        sched, records = space.get_seq(
            8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2
        )
        assert count(space, "hedge.issued") == 1
        assert count(space, "hedge.wins") == 0
        assert records[0].src_core == 0

    def test_no_hedge_without_slowdown(self):
        plan = FaultPlan(
            seed=13,
            slow_nodes=(SlowNode(node=3, start=50.0, duration=1.0),),
        )
        space = make_space(plan=plan, hedge_factor=2.0)
        put_domain(space)
        space.get_seq(8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2)
        assert count(space, "hedge.issued") == 0

    def test_hedge_counts_deterministic(self):
        def run():
            space = make_space(plan=self.slow_plan(5.0), hedge_factor=2.0)
            put_domain(space)
            space.get_seq(8, VAR, Box.from_extents(DOMAIN), version=0, app_id=2)
            return {
                n: count(space, n)
                for n in ("hedge.issued", "hedge.wins", "hedge.redundant_bytes")
            }

        assert run() == run()


class TestScrub:
    def test_scrub_finds_and_repairs_poisoned_replica(self):
        space = make_space()
        put_domain(space)
        space._poison_copy(replica_of(space))
        assert not replica_of(space).verify_checksum()
        checked, corrupt, repaired = space.scrub(repair=True)
        assert checked >= 2
        assert corrupt == 1
        assert repaired == 1
        assert replica_of(space).verify_checksum()
        assert count(space, "integrity.scrub.corrupt_found") == 1
        assert count(space, "integrity.scrub.repaired") == 1

    def test_scrub_without_repair_only_reports(self):
        space = make_space()
        put_domain(space)
        space._poison_copy(replica_of(space))
        checked, corrupt, repaired = space.scrub(repair=False)
        assert corrupt == 1 and repaired == 0
        assert not replica_of(space).verify_checksum()

    def test_clean_space_scrubs_clean(self):
        space = make_space()
        put_domain(space)
        checked, corrupt, repaired = space.scrub()
        assert checked >= 2 and corrupt == 0 and repaired == 0

    def test_scrub_waits_out_a_cut_to_the_clean_source(self):
        """A repair never crosses an open cut: the corrupt replica stays,
        one copy is never lost, and the pass after the heal repairs it."""
        cluster = make_cluster()
        injector = FaultInjector(FaultPlan(partitions=(NetworkPartition(
            start=1.0, duration=2.0, groups=((0,), (1, 2, 3)),
        ),)))
        sim = SimEngine()
        injector.arm(sim)
        space = CoDS(
            cluster, DOMAIN,
            dart=HybridDART(cluster, injector=injector),
            replication=2, placer=ReplicaPlacer(cluster, 0),
        )
        put_domain(space)  # primary on node 0, replica across the cut
        space._poison_copy(replica_of(space))
        passes = []

        def scrub_pass():
            _, corrupt, repaired = space.scrub()
            kept = replica_of(space)
            passes.append((corrupt, repaired, kept.verify_checksum()))

        sim.schedule_at(2.0, scrub_pass)  # cut open
        sim.schedule_at(4.0, scrub_pass)  # healed at 3.0
        sim.run()
        assert passes == [(1, 0, False), (1, 1, True)]
        assert replica_of(space).verify_checksum()
        assert space.lost_objects() == []
        assert count(space, "integrity.scrub.repaired") == 1
