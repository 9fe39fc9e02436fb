"""Unit tests for graceful memory-pressure handling in the CoDS space.

Covers the admission gate (high watermark, hard cap, ``MemoryPressureError``
deferral), every rung of the reclaim ladder (consumer-count GC, quorum-safe
replica eviction, spill to the deep-memory tier), restore-on-demand with
failover when the spill copy is lost, deterministic ``MemoryPressure``
capacity-shrink windows, and the checkpoint guard for mid-spill spaces.

Geometry used throughout: 2 nodes x 2 cores, a (16, 16) domain at element
size 8, so the full domain is 2048 bytes and a half box is 1024 bytes.
With ``memory_per_node=4096`` each core's store caps at 2048 bytes and the
default 0.8 watermark trips at 1638.
"""

import pytest

from repro.cods.space import CoDS
from repro.domain.box import Box
from repro.errors import (
    CheckpointError,
    DataLostError,
    FaultPlanError,
    MemoryPressureError,
    ScheduleError,
    SpaceError,
    SpillError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, MemoryPressure
from repro.hardware.cluster import Cluster
from repro.hardware.spec import generic_multicore
from repro.resilience.replication import ReplicaPlacer
from repro.sim.engine import SimEngine
from repro.transport.hybriddart import HybridDART

DOMAIN = (16, 16)
FULL = Box(lo=(0, 0), hi=(16, 16))  # 2048 bytes at element size 8
HALF = Box(lo=(0, 0), hi=(8, 16))  # 1024 bytes
OTHER = Box(lo=(8, 0), hi=(16, 16))  # the complementary 1024 bytes


def make_enforced(memory_per_node=4096, **kw):
    cluster = Cluster(2, machine=generic_multicore(2))
    return CoDS(
        cluster, DOMAIN, enforce_memory=True,
        memory_per_node=memory_per_node, **kw,
    )


def count(space, name):
    reg = space.dart.registry
    return reg[name].total() if name in reg else 0


class TestConstructorValidation:
    @pytest.mark.parametrize("bad", [0, -4096])
    def test_memory_per_node_must_be_positive(self, bad):
        with pytest.raises(SpaceError):
            make_enforced(memory_per_node=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_high_watermark_must_be_a_fraction(self, bad):
        with pytest.raises(SpaceError):
            make_enforced(high_watermark=bad)

    def test_spill_capacity_must_be_non_negative(self):
        with pytest.raises(SpaceError):
            make_enforced(spill_capacity=-1)

    def test_enforcement_off_builds_no_spill_tiers(self):
        cluster = Cluster(2, machine=generic_multicore(2))
        space = CoDS(cluster, DOMAIN)
        assert not space.enforce_memory
        assert space._spill == {}
        assert space.spilled_bytes() == 0


class TestAdmission:
    def test_put_under_watermark_registers_no_memory_metrics(self):
        space = make_enforced()
        space.put_seq(0, "T", HALF, version=0)
        assert not any(
            n.startswith(("mem.", "spill."))
            for n in space.dart.registry.names()
        )

    def test_watermark_is_soft_hard_cap_is_not(self):
        """A put over the watermark but under the usable capacity is
        admitted: the watermark triggers reclamation, never rejection."""
        space = make_enforced()
        space.put_seq(0, "T", FULL, version=0)  # 2048 > 1638 watermark
        assert space.store_of(0).get("T", 0) is not None
        assert count(space, "mem.watermark") == 1
        assert count(space, "mem.stalls") == 0

    def test_unadmittable_put_defers_with_memory_pressure_error(self):
        space = make_enforced(spill_capacity=0)
        space.put_seq(0, "T", FULL, version=0)
        with pytest.raises(MemoryPressureError) as ei:
            space.put_seq(0, "T", FULL, version=1)
        assert isinstance(ei.value, SpaceError)
        assert "deferred" in str(ei.value)
        assert count(space, "mem.stalls") == 1
        # The resident object was not harmed by the failed admission.
        assert space.store_of(0).get("T", 0) is not None
        assert space.store_of(0).get("T", 1) is None


class TestGCRung:
    def test_fully_consumed_primary_is_collected(self):
        space = make_enforced(spill_capacity=0)
        space.consumer_counts["T"] = 1
        space.put_seq(0, "T", FULL, version=0, app_id=1)
        space.get_seq(2, "T", FULL, version=0, app_id=7)
        # v0 has been read by its one expected consumer: the next put on
        # the same store reclaims it instead of stalling.
        space.put_seq(0, "T", FULL, version=1, app_id=1)
        store = space.store_of(0)
        assert store.get("T", 1) is not None
        assert store.get("T", 0) is None
        assert count(space, "mem.gc") == 1
        # The collected version is unregistered from the DHT: a fresh
        # reader (no cached schedule) can no longer locate it.
        with pytest.raises(ScheduleError):
            space.get_seq(3, "T", Box(lo=(0, 0), hi=(4, 4)), version=0,
                          app_id=8)

    def test_partially_consumed_primary_is_not_collected(self):
        space = make_enforced(spill_capacity=0)
        space.consumer_counts["T"] = 2
        space.put_seq(0, "T", FULL, version=0, app_id=1)
        space.get_seq(2, "T", FULL, version=0, app_id=7)  # 1 of 2 readers
        with pytest.raises(MemoryPressureError):
            space.put_seq(0, "T", FULL, version=1, app_id=1)
        assert space.store_of(0).get("T", 0) is not None
        assert count(space, "mem.gc") == 0


class TestReplicaEvictionRung:
    def _replicated(self, **kw):
        cluster = Cluster(2, machine=generic_multicore(2))
        return CoDS(
            cluster, DOMAIN, enforce_memory=True, memory_per_node=4096,
            replication=2, placer=ReplicaPlacer(cluster, 0), **kw,
        )

    def test_replica_evicted_when_quorum_keeps_a_copy(self):
        space = self._replicated()
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        key = ("T", 0, 0)
        (rcore,) = space._replicas[key]
        # A primary put on the replica's core squeezes it out: with no
        # write quorum one surviving copy (the primary) is enough.
        space.put_seq(rcore, "U", FULL, version=0, app_id=1)
        assert space._replicas[key] == ()
        assert count(space, "mem.evicted_replicas") == 1
        # The logical object is intact and still readable.
        assert not space.lost_objects()
        _, recs = space.get_seq(1, "T", HALF, version=0, app_id=9)
        assert sum(r.nbytes for r in recs) == 1024

    def test_write_quorum_blocks_replica_eviction(self):
        space = self._replicated(write_quorum=2, read_quorum=1)
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        key = ("T", 0, 0)
        (rcore,) = space._replicas[key]
        # Evicting the only replica would drop the object below its write
        # quorum of 2, so the ladder refuses and the put defers instead.
        with pytest.raises(MemoryPressureError):
            space.put_seq(rcore, "U", FULL, version=0, app_id=1)
        assert space._replicas[key] == (rcore,)
        assert count(space, "mem.evicted_replicas") == 0

    def test_replica_never_displaces_a_primary(self):
        """Best-effort replica admission: when the target store is full of
        unconsumed primaries the copy is skipped, not forced in."""
        space = self._replicated()
        space.put_seq(2, "A", FULL, version=0, app_id=1)
        rep = next(
            o
            for s in space._stores.values()
            for o in s.objects()
            if o.is_replica
        )
        # Core 2's store is exactly full with its own primary; the ladder
        # (spill=False for replicas) finds nothing it may evict.
        assert space._admit_replica(2, rep) is False
        assert count(space, "mem.replicas_skipped") == 1
        assert space.store_of(2).get("A", 0) is not None


class TestRePutAfterGCDuringReReplication:
    def test_re_put_retires_replicas_of_a_collected_primary(self):
        """GC inside re-replication can collect a primary the survey has
        already listed; the copy made from it leaves a replica bookkept for
        a primary that is gone. Re-putting that primary must retire the
        stale replica instead of colliding with it on the same target."""
        cluster = Cluster(4, machine=generic_multicore(2))
        space = CoDS(
            cluster, DOMAIN, enforce_memory=True, memory_per_node=4096,
            replication=2, placer=ReplicaPlacer(cluster, 0),
            spill_capacity=0,
        )
        space.consumer_counts.update(B=1, Y=1)
        quarter = Box(lo=(0, 0), hi=(8, 8))  # 512 bytes
        wide = Box(lo=(0, 0), hi=(12, 16))  # 1536 bytes
        space.put_seq(0, "A", FULL, version=0, app_id=1)  # replica on 2
        space.put_seq(4, "B", quarter, version=0, app_id=1)  # replica on 6
        # Y squeezes B's replica out of core 6: B is under-replicated.
        space.put_seq(6, "Y", wide, version=0, app_id=1)
        assert space._replicas[("B", 0, 4)] == ()
        space.get_seq(1, "B", quarter, version=0, app_id=7)
        space.get_seq(1, "Y", wide, version=0, app_id=7)
        # Node 1 takes A's replica down. Re-replicating A onto core 4 GCs
        # B's fully-read primary, then B is re-replicated from its stale
        # survey entry onto core 6.
        space.mark_node_dead(1)
        space.recover_node_crash(1)
        space.restore_replication()
        assert space.store_of(4).get("B", 0) is None
        assert space._replicas[("B", 0, 4)] == (6,)

        space.put_seq(4, "B", quarter, version=0, app_id=1)
        assert space._replicas[("B", 0, 4)] == (6,)
        copies = [
            o for s in space._stores.values() for o in s.objects()
            if (o.var, o.logical_owner) == ("B", 4)
        ]
        assert sorted(o.owner_core for o in copies) == [4, 6]
        assert not space.lost_objects()


class TestSpillAndRestore:
    def test_cold_primary_spills_and_restores_on_demand(self):
        space = make_enforced()
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        space.put_seq(0, "T", OTHER, version=1, app_id=1)  # trips watermark
        # The coldest (lowest-version) primary went to the deep tier; its
        # DHT registration stays, so it still logically exists.
        assert ("T", 0, 0) in space._spilled
        assert space.spilled_bytes() == 1024
        assert space.store_of(0).get("T", 0) is None
        assert space.store_of(0).get("T", 1) is not None
        assert not space.lost_objects()
        assert count(space, "mem.spills") == 1
        write, read = space.drain_spill_seconds()
        assert write > 0.0 and read == 0.0

        # A read routed through the spilled source restores it first.
        _, recs = space.get_seq(2, "T", HALF, version=0, app_id=9)
        assert sum(r.nbytes for r in recs) == 1024
        assert space.spilled_bytes() == 0
        restored = space.store_of(0).get("T", 0)
        assert restored is not None and restored.verify_checksum()
        assert count(space, "mem.restores") == 1
        write, read = space.drain_spill_seconds()
        assert write == 0.0 and read > 0.0
        assert space.drain_spill_seconds() == (0.0, 0.0)

    def test_spill_byte_counters_tally_both_directions(self):
        space = make_enforced()
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        space.put_seq(0, "T", OTHER, version=1, app_id=1)
        space.get_seq(2, "T", HALF, version=0, app_id=9)
        c = space.dart.registry.counter("spill.bytes", labelnames=("direction",))
        assert c.value(direction="write") == 1024
        assert c.value(direction="read") == 1024

    def test_full_spill_tier_means_no_spilling(self):
        space = make_enforced(spill_capacity=512)  # smaller than any object
        space.put_seq(0, "T", HALF, version=0)
        space.put_seq(0, "T", OTHER, version=1)  # fits the hard cap exactly
        with pytest.raises(MemoryPressureError):
            space.put_seq(0, "T", HALF, version=2)
        assert space.spilled_bytes() == 0
        assert count(space, "mem.spills") == 0

    def test_restore_swaps_the_hot_primary_out(self):
        """Restoring into a full store reclaims around the restored key:
        the resident primary spills so the requested one can come back."""
        space = make_enforced()
        space.put_seq(0, "T", FULL, version=0, app_id=1)
        space.put_seq(0, "T", FULL, version=1, app_id=1)  # spills v0
        assert ("T", 0, 0) in space._spilled
        space.get_seq(2, "T", FULL, version=0, app_id=9)
        assert space.store_of(0).get("T", 0) is not None
        assert ("T", 1, 0) in space._spilled
        assert count(space, "mem.spills") == 2
        assert count(space, "mem.restores") == 1

    def test_restore_defers_when_no_room_can_be_made(self):
        # The tier is exactly one object big: once v0 is parked there the
        # resident v1 has nowhere to spill, so the restore must defer.
        space = make_enforced(spill_capacity=2048)
        space.put_seq(0, "T", FULL, version=0, app_id=1)
        space.put_seq(0, "T", FULL, version=1, app_id=1)  # spills v0
        with pytest.raises(MemoryPressureError):
            space.get_seq(2, "T", FULL, version=0, app_id=9)
        # Nothing was lost: the spill copy is still parked.
        assert ("T", 0, 0) in space._spilled
        assert space.spilled_bytes() == 2048


class TestSpillLossFailover:
    def _spilled_space(self):
        space = make_enforced()
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        space.put_seq(0, "T", OTHER, version=1, app_id=1)
        assert ("T", 0, 0) in space._spilled
        return space

    def test_lost_spill_copy_surfaces_as_data_loss(self):
        space = self._spilled_space()
        space._spill[0].drop("T", 0, 0)
        with pytest.raises(SpillError) as ei:
            space.get_seq(2, "T", HALF, version=0, app_id=9)
        # SpillError rides the data-loss re-enactment ladder.
        assert isinstance(ei.value, DataLostError)

    def test_node_death_takes_its_spill_tier_along(self):
        space = self._spilled_space()
        lost = space.mark_node_dead(0)
        assert lost == 2  # the resident v1 plus the parked v0
        assert space.spilled_bytes() == 0
        # The _spilled key stays so a restore attempt surfaces the loss.
        assert ("T", 0, 0) in space._spilled
        assert {(v, ver) for v, ver, _ in space.lost_objects()} == {
            ("T", 0), ("T", 1),
        }


class TestPressureWindows:
    def _pressured(self, windows, **kw):
        cluster = Cluster(2, machine=generic_multicore(2))
        injector = FaultInjector(FaultPlan(memory_pressure=tuple(windows)))
        sim = SimEngine()
        injector.arm(sim)
        space = CoDS(
            cluster, DOMAIN,
            dart=HybridDART(cluster, injector=injector),
            enforce_memory=True, memory_per_node=4096, **kw,
        )
        space.arm_memory_pressure(injector)
        return space, sim

    def test_window_shrinks_capacity_and_restores_it(self):
        space, sim = self._pressured(
            [MemoryPressure(node=0, start=1.0, duration=1.0, factor=0.5)]
        )
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        sim.run(until=1.5)
        # The shrink stranded the 1024-byte resident over the new 819-byte
        # watermark, so the ladder proactively spilled it.
        assert space._capacity_factor == {0: 0.5}
        assert space._effective_capacity(0) == 1024
        assert space.spilled_bytes() == 1024
        sim.run(until=3.0)
        assert space._capacity_factor == {}
        assert space._effective_capacity(0) == 2048

    def test_put_defers_inside_the_window_and_lands_after(self):
        space, sim = self._pressured(
            [MemoryPressure(node=0, start=1.0, duration=1.0, factor=0.5)],
            spill_capacity=0,
        )
        out = {}

        def attempt(tag):
            try:
                space.put_seq(1, "U", FULL, version=0, app_id=1)
                out[tag] = "ok"
            except MemoryPressureError as exc:
                out[tag] = exc

        sim.schedule_at(1.2, lambda: attempt("during"))
        sim.run(until=1.2)
        assert isinstance(out["during"], MemoryPressureError)
        sim.schedule_at(2.5, lambda: attempt("after"))
        sim.run(until=2.5)
        assert out["after"] == "ok"

    def test_overlapping_windows_take_the_tightest_factor(self):
        space, sim = self._pressured(
            [
                MemoryPressure(node=0, start=0.0, duration=4.0, factor=0.75),
                MemoryPressure(node=0, start=1.0, duration=1.0, factor=0.5),
            ]
        )
        injector = space.dart.injector
        assert injector.memory_capacity_factor(0, 0.5) == 0.75
        assert injector.memory_capacity_factor(0, 1.5) == 0.5
        assert injector.memory_capacity_factor(0, 2.5) == 0.75
        assert injector.memory_capacity_factor(0, 4.5) == 1.0
        assert injector.memory_capacity_factor(1, 1.5) == 1.0
        sim.run(until=2.5)  # inner window over, outer still active
        assert space._capacity_factor == {0: 0.75}


class TestPlanSerialization:
    def test_json_round_trip_preserves_pressure_windows(self):
        plan = FaultPlan(
            seed=9,
            memory_pressure=(
                MemoryPressure(node=0, start=0.5, duration=1.0),
                MemoryPressure(node=1, start=2.0, duration=0.5, factor=0.25),
            ),
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan
        assert back.has_memory_pressure
        assert back.memory_pressure[0].factor == 0.5  # default survives

    @pytest.mark.parametrize(
        "kw",
        [
            {"node": -1, "start": 0.0, "duration": 1.0},
            {"node": 0, "start": -0.1, "duration": 1.0},
            {"node": 0, "start": 0.0, "duration": 0.0},
            {"node": 0, "start": 0.0, "duration": 1.0, "factor": 0.0},
            {"node": 0, "start": 0.0, "duration": 1.0, "factor": 1.0},
            {"node": 0, "start": 0.0, "duration": 1.0, "factor": 1.5},
        ],
    )
    def test_invalid_windows_rejected(self, kw):
        with pytest.raises(FaultPlanError):
            MemoryPressure(**kw)


class TestCheckpointGuard:
    def test_manifest_refuses_a_mid_spill_space(self):
        space = make_enforced()
        space.put_seq(0, "T", HALF, version=0, app_id=1)
        space.put_seq(0, "T", OTHER, version=1, app_id=1)  # spills v0
        with pytest.raises(CheckpointError):
            space.manifest()
        # Restoring drains the tier; the manifest works again.
        space.get_seq(2, "T", HALF, version=0, app_id=9)
        assert space.spilled_bytes() == 0
        assert isinstance(space.manifest(), dict)
