"""CoDS — the co-located DataSpaces shared-space facade.

Implements the paper's four data-sharing operators (Table I):

=================  ============================================================
``put_seq``        store coupled data in the distributed in-memory space
                   (sequential coupling; data outlives the producer app)
``get_seq``        retrieve a region from the space — DHT lookup, schedule
                   computation (cached), receiver-driven pulls
``put_cont``       expose a producer task's region for direct transfer to a
                   concurrently running consumer
``get_cont``       pull a region directly from the producer tasks' memory
                   (no staging through the space)
=================  ============================================================

All pulls go through HybridDART, which picks shared memory for intra-node
endpoints and the network otherwise — so the in-situ benefit of a good task
mapping appears directly in the transfer metrics.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

from repro.cods.dht import ObjectLocation, SpatialDHT
from repro.cods.lookup import DataLookupService
from repro.cods.objects import (
    DataObject,
    ObjectStore,
    RegionProduct,
    region_bounding_box,
    region_from_box,
)
from repro.cods.schedule import (
    BundleScheduleCache,
    CommSchedule,
    ScheduleCache,
    compute_schedule,
    producer_schedule,
)
from repro.cods.spill import SpillTier
from repro.domain.box import Box
from repro.domain.intervals import IntervalSet
from repro.errors import (
    CheckpointError,
    DataIntegrityError,
    DataLostError,
    MemoryPressureError,
    NetworkPartitionError,
    QuorumError,
    SpaceError,
    StaleWriteError,
)
from repro.hardware.cluster import Cluster
from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import NULL_TRACER
from repro.sfc.linearize import DomainLinearizer
from repro.transport.hybriddart import HybridDART
from repro.transport.message import TransferKind, TransferRecord

__all__ = ["CoDS"]


class CoDS:
    """A shared space spanning all cores of a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        domain_extents: tuple[int, ...],
        dart: HybridDART | None = None,
        linearizer: DomainLinearizer | None = None,
        use_schedule_cache: bool = True,
        use_bundle_cache: bool = False,
        enforce_memory: bool = False,
        memory_per_node: "int | None" = None,
        high_watermark: "float | None" = None,
        spill_capacity: "int | None" = None,
        replication: int = 1,
        placer: "object | None" = None,
        hedge_factor: "float | None" = None,
        write_quorum: "int | None" = None,
        read_quorum: "int | None" = None,
        provenance: "object | None" = None,
    ) -> None:
        self.cluster = cluster
        self.dart = dart if dart is not None else HybridDART(cluster)
        if self.dart.cluster is not cluster:
            raise SpaceError("DART and CoDS must share the same cluster")
        self.linearizer = (
            linearizer
            if linearizer is not None
            else DomainLinearizer(domain_extents)
        )
        if self.linearizer.extents != tuple(domain_extents):
            raise SpaceError("linearizer extents do not match domain extents")
        self.domain = Box.from_extents(domain_extents)
        # One DHT core per compute node: the node's first core.
        dht_cores = [cluster.cores_of_node(n)[0] for n in cluster.nodes()]
        self.dht = SpatialDHT(self.linearizer, dht_cores, self.dart)
        self.lookup = DataLookupService(self.dht, cluster)
        self.schedule_cache: ScheduleCache | None = (
            ScheduleCache(registry=self.dart.registry)
            if use_schedule_cache
            else None
        )
        # Opt-in (default off): enabling it changes which counters the run
        # touches, and the seed's metric streams must stay byte-identical.
        self.bundle_cache: BundleScheduleCache | None = (
            BundleScheduleCache(registry=self.dart.registry)
            if use_bundle_cache
            else None
        )
        # -- memory enforcement (inert when off: no watermark, no tiers) --
        self.enforce_memory = enforce_memory
        if memory_per_node is not None and memory_per_node <= 0:
            raise SpaceError(
                f"memory per node must be positive, got {memory_per_node}"
            )
        if high_watermark is not None and not 0.0 < high_watermark <= 1.0:
            raise SpaceError(
                f"high watermark must be in (0, 1], got {high_watermark}"
            )
        if spill_capacity is not None and spill_capacity < 0:
            raise SpaceError(
                f"spill capacity must be non-negative, got {spill_capacity}"
            )
        node_memory = (
            memory_per_node
            if memory_per_node is not None
            else cluster.machine.node.memory_bytes
        )
        per_core_capacity = (
            node_memory // cluster.cores_per_node if enforce_memory else None
        )
        #: puts admit against this fraction of (pressure-adjusted) capacity;
        #: crossing it runs the reclaim ladder before the put lands
        self.high_watermark = 0.8 if high_watermark is None else high_watermark
        #: per-node deep-memory spill tiers (empty dict when enforcement off)
        self._spill: dict[int, SpillTier] = (
            {n: SpillTier(n, spill_capacity) for n in cluster.nodes()}
            if enforce_memory
            else {}
        )
        #: node -> usable-capacity fraction under active MemoryPressure
        #: windows (absent = 1.0, the clean default)
        self._capacity_factor: dict[int, float] = {}
        #: (var, primary core) -> app ids that read the core's share; feeds
        #: the GC rung once every expected consumer has read
        self._consumed: dict[tuple[str, int], set[int]] = {}
        #: var -> expected reader count (set by the experiment driver from
        #: the scenario DAG; unknown vars never GC — the safe default)
        self.consumer_counts: dict[str, int] = {}
        # spill.bytes{direction} labeled counter, created on first spill
        self._m_spill_bytes = None
        #: logical (var, version, primary core) currently parked in a spill
        #: tier — the restore path's bookkeeping (a key whose tier copy is
        #: gone surfaces as SpillError at restore time)
        self._spilled: set[tuple[str, int, int]] = set()
        # deep-memory seconds accrued since the last drain (the engine
        # drains per app routine and stretches the app over them, so spill
        # traffic shows up in the makespan under its own categories)
        self._pending_spill_write = 0.0
        self._pending_spill_read = 0.0
        self._stores: dict[int, ObjectStore] = {
            core: ObjectStore(core, per_core_capacity) for core in cluster.cores()
        }
        # var -> [(core, region)], element size; for the concurrent path.
        self._producers: dict[str, list[tuple[int, RegionProduct]]] = {}
        self._producer_esize: dict[str, int] = {}
        # -- resilience state (inert at replication=1 with no crashes) --
        if not 1 <= replication <= cluster.num_nodes:
            raise SpaceError(
                f"replication factor {replication} needs {replication} distinct "
                f"nodes; cluster has {cluster.num_nodes}"
            )
        self.replication = replication
        self._placer = placer
        self._dead_nodes: set[int] = set()
        # logical (var, version, primary core) -> replica cores
        self._replicas: dict[tuple[str, int, int], tuple[int, ...]] = {}
        # logical (var, version, primary core) -> producing app id
        self._produced_by: dict[tuple[str, int, int], int] = {}
        # resilience.failover.reads counter; bound by the resilience manager
        self._m_failover = None
        # (var, holding core) -> producing put span/instant (tracing only);
        # pulls link back to it so traces carry put -> transfer causality
        self._put_spans: dict[tuple[str, int], object] = {}
        # -- gray-failure hardening (inert unless armed) --
        if hedge_factor is not None and hedge_factor <= 1.0:
            raise SpaceError(
                f"hedge factor must be > 1 (deadline = expected x factor), "
                f"got {hedge_factor}"
            )
        #: pulls slower than ``expected x hedge_factor`` race a backup pull
        #: from another replica holder (None disables hedging)
        self.hedge_factor = hedge_factor
        self._cost_model = None  # built on first hedged pull
        # Lazy gray counters: clean runs register no integrity/hedge metrics,
        # keeping their snapshots and checkpoints byte-identical to the seed.
        self._gray_counters: dict[str, object] = {}
        # -- partition tolerance (inert unless quorums/partitions armed) --
        for qname, q in (("write_quorum", write_quorum),
                         ("read_quorum", read_quorum)):
            if q is not None and not 1 <= q <= replication:
                raise SpaceError(
                    f"{qname} must be in [1, replication={replication}], "
                    f"got {q}"
                )
        #: a put acknowledges only once this many of its k copies (primary
        #: included) landed on nodes reachable from the writer (None = no
        #: quorum enforcement, the seed behaviour)
        self.write_quorum = write_quorum
        #: a read needs this many reachable copies of each logical object
        #: before it picks a source (None = any reachable copy serves)
        self.read_quorum = read_quorum
        # logical (var, version, primary core) -> highest accepted write
        # generation; writes carrying an older generation are fenced off so
        # a healed minority cannot commit stale work
        self._object_gen: dict[tuple[str, int, int], int] = {}
        # -- causal provenance (inert behind one `enabled` check) --
        #: decision ledger; NULL_LEDGER keeps unledgered runs byte-identical
        self.provenance = provenance if provenance is not None else NULL_LEDGER
        # (var, version) -> producing object.put record id, so replica
        # selections and fences cause-link back to the write they concern
        self._prov_puts: dict[tuple[str, int], int] = {}

    def _gray_count(self, name: str, value: float = 1) -> None:
        """Bump a lazily created integrity/hedge counter."""
        c = self._gray_counters.get(name)
        if c is None:
            c = self._gray_counters[name] = self.dart.registry.counter(name)
        c.inc(value)

    # Partition/quorum counters share the lazy-creation discipline: a run
    # with no declared partitions registers no partition.* or quorum.* cell.
    _partition_count = _gray_count
    # So do the memory-pressure counters: enforcement-off runs register not
    # a single mem.* or spill.* cell (the perf guard pins it).
    _mem_count = _gray_count

    def _spill_bytes_count(self, direction: str, nbytes: int) -> None:
        """Bump the lazily created ``spill.bytes{direction}`` counter."""
        c = self._m_spill_bytes
        if c is None:
            c = self._m_spill_bytes = self.dart.registry.counter(
                "spill.bytes", labelnames=("direction",)
            )
        c.inc(nbytes, direction=direction)

    def _partitions_armed(self) -> bool:
        injector = self.dart.injector
        return injector is not None and injector.plan.has_partitions

    @property
    def placer(self):
        """Replica placer (SFC-successor default, built on first use)."""
        if self._placer is None:
            from repro.resilience.replication import ReplicaPlacer

            self._placer = ReplicaPlacer(self.cluster)
        return self._placer

    def bind_resilience_metrics(self, registry) -> None:
        """Mirror failover reads into the ``resilience.*`` counters."""
        self._m_failover = registry.counter("resilience.failover.reads")
        self._m_failover.touch()

    def _node_alive(self, node: int) -> bool:
        return node not in self._dead_nodes

    def dead_nodes(self) -> frozenset[int]:
        return frozenset(self._dead_nodes)

    # -- helpers ----------------------------------------------------------------

    @property
    def tracer(self):
        """The span tracer shared with the transport (no-op by default)."""
        return self.dart.tracer

    def store_of(self, core: int) -> ObjectStore:
        try:
            return self._stores[core]
        except KeyError:
            raise SpaceError(f"core {core} is not part of this space") from None

    def _as_region(self, region: "Box | RegionProduct") -> RegionProduct:
        if isinstance(region, Box):
            if not self.domain.contains_box(region):
                raise SpaceError(f"region {region} outside domain {self.domain}")
            return region_from_box(region)
        return tuple(region)

    def _check_box(self, box: Box) -> None:
        if not self.domain.contains_box(box):
            raise SpaceError(f"requested box {box} outside domain {self.domain}")

    def _execute(
        self, schedule: CommSchedule, app_id: int
    ) -> list[TransferRecord]:
        """Receiver-driven pulls: one transfer per plan entry.

        When traced, each pull links back to the put that stored the data
        on its source core (the producer-put → transfer leg of the flow
        chain; the transfer → consumer-get leg is the span nesting).

        Under gray faults the per-plan path grows teeth: hedged source
        selection, checksum verification on delivery, and transparent
        re-fetch from surviving replicas (see :meth:`_pull`). The plain
        fast paths below stay byte-identical for clean runs.
        """
        if self.enforce_memory:
            self._restore_for_schedule(schedule)
            if app_id >= 0 and schedule.var in self.consumer_counts:
                for p in schedule.plans:
                    self._consumed.setdefault(
                        (schedule.var, p.src_core), set()
                    ).add(app_id)
        injector = self.dart.injector
        if injector is not None and injector.plan.has_gray_faults:
            return [self._pull(p, app_id) for p in schedule.plans]
        if not self.dart.tracer.enabled:
            return [
                self.dart.transfer(
                    src_core=p.src_core,
                    dst_core=p.dst_core,
                    nbytes=p.nbytes,
                    kind=TransferKind.COUPLING,
                    app_id=app_id,
                    var=p.var,
                )
                for p in schedule.plans
            ]
        return [
            self.dart.transfer(
                src_core=p.src_core,
                dst_core=p.dst_core,
                nbytes=p.nbytes,
                kind=TransferKind.COUPLING,
                app_id=app_id,
                var=p.var,
                link_from=self._put_spans.get((p.var, p.src_core)),
            )
            for p in schedule.plans
        ]

    # -- gray-failure pull path --------------------------------------------------

    def _alternate_holders(self, var: str, src_core: int) -> "list[int]":
        """Other live cores holding a copy of ``src_core``'s logical object.

        Walks the replica bookkeeping for groups ``src_core`` belongs to
        (as primary or as replica holder) and keeps holders whose node is
        alive and whose store still carries the variable. Sorted for
        deterministic re-fetch and hedge ordering.
        """
        out: set[int] = set()
        for (v, _ver, primary), reps in self._replicas.items():
            if v != var:
                continue
            holders = (primary, *reps)
            if src_core in holders:
                out.update(holders)
        out.discard(src_core)
        return sorted(
            c for c in out
            if self.cluster.node_of_core(c) not in self._dead_nodes
            and self._stores[c].has_var(var)
        )

    def _source_poisoned(self, var: str, core: int) -> bool:
        """Does ``core`` hold a checksum-failing copy of ``var`` at rest?

        A pull served from such a copy delivers the flipped bits even when
        the wire itself behaved, so the delivery-time verification treats
        it exactly like transport corruption and re-fetches elsewhere.
        """
        store = self._stores.get(core)
        if store is None:
            return False
        return any(
            obj.var == var and not obj.verify_checksum()
            for obj in store.objects()
        )

    @property
    def cost_model(self):
        """Contention-free transfer-time estimator (hedge deadlines)."""
        if self._cost_model is None:
            from repro.transport.costmodel import CostModel

            self._cost_model = CostModel(self.cluster.machine)
        return self._cost_model

    def _maybe_hedge(self, plan, src: int) -> "tuple[int, object | None]":
        """Hedged source selection for one pull.

        The pull's deadline budget is the cost model's expected time times
        ``hedge_factor``. When the chosen source sits on a slowed node and
        its degraded service time blows the deadline, a backup pull is
        issued to another replica holder and the first valid response wins:
        the backup when even ``deadline + backup_time`` beats the slowed
        primary, the primary otherwise. Either way the loser's bytes are
        redundant work, accounted in ``hedge.redundant_bytes``.

        Returns ``(winning source core, hedge instant for flow links)``.
        """
        injector = self.dart.injector
        if injector is None or not injector.plan.slow_nodes:
            return src, None
        src_node = self.cluster.node_of_core(src)
        slowdown = injector.slowdown_factor(src_node)
        if slowdown <= 1.0:
            return src, None
        dst_node = self.cluster.node_of_core(plan.dst_core)
        expected = self.cost_model.transfer_time(plan.nbytes, src_node, dst_node)
        deadline = expected * self.hedge_factor
        actual = expected * slowdown
        if actual <= deadline:
            return src, None
        alts = self._alternate_holders(plan.var, src)
        if not alts:
            return src, None
        # Prefer a backup on the least-slowed node; core id breaks ties.
        backup = min(
            alts,
            key=lambda c: (
                injector.slowdown_factor(self.cluster.node_of_core(c)), c
            ),
        )
        backup_node = self.cluster.node_of_core(backup)
        backup_time = (
            self.cost_model.transfer_time(plan.nbytes, backup_node, dst_node)
            * injector.slowdown_factor(backup_node)
        )
        win = deadline + backup_time < actual
        self._gray_count("hedge.issued")
        self._gray_count("hedge.redundant_bytes", plan.nbytes)
        injector.record(
            "hedge_issued",
            f"{plan.var} {src}->{plan.dst_core} backup={backup} "
            f"win={'backup' if win else 'primary'}",
        )
        inst = None
        tracer = self.dart.tracer
        if tracer.enabled:
            inst = tracer.instant(
                "hedge.issue",
                var=plan.var, primary=src, backup=backup,
                deadline=deadline, win="backup" if win else "primary",
            )
        if win:
            self._gray_count("hedge.wins")
            return backup, inst
        return src, inst

    def _pull(self, plan, app_id: int) -> TransferRecord:
        """One gray-hardened pull: hedge, verify, re-fetch, deduplicate."""
        tracer = self.dart.tracer
        src = plan.src_core
        hedge_inst = None
        if self.hedge_factor is not None:
            src, hedge_inst = self._maybe_hedge(plan, src)

        def issue(from_core: int) -> TransferRecord:
            link = (
                self._put_spans.get((plan.var, from_core))
                if tracer.enabled else None
            )
            if hedge_inst is not None and from_core != plan.src_core:
                with tracer.span(
                    "hedge.pull", var=plan.var, src=from_core,
                    dst=plan.dst_core, nbytes=plan.nbytes,
                ) as sp:
                    tracer.link(hedge_inst, sp, "hedge")
                    return self.dart.transfer(
                        src_core=from_core, dst_core=plan.dst_core,
                        nbytes=plan.nbytes, kind=TransferKind.COUPLING,
                        app_id=app_id, var=plan.var, link_from=link,
                    )
            return self.dart.transfer(
                src_core=from_core, dst_core=plan.dst_core,
                nbytes=plan.nbytes, kind=TransferKind.COUPLING,
                app_id=app_id, var=plan.var, link_from=link,
            )

        rec = issue(src)
        hedge_inst = None  # only the winning first pull is the hedge leg
        if rec.duplicated:
            # The replayed copy is dropped on the floor by (var, version,
            # owner) identity — it never reaches the consumer or the
            # delivered-bytes metrics a second time.
            self._gray_count("integrity.duplicates_dropped")
        tried = {src}
        # A delivery is bad when the wire flipped bits (rec.corrupted) OR
        # the source copy was already poisoned at rest (a replica written
        # over a corrupting link that the scrubber hasn't repaired yet) —
        # the consumer-side checksum catches both the same way.
        while rec.corrupted or self._source_poisoned(plan.var, src):
            self._gray_count("integrity.corrupted_deliveries")
            alts = [
                c for c in self._alternate_holders(plan.var, src)
                if c not in tried
            ]
            if not alts:
                self._gray_count("integrity.unrecoverable")
                raise DataIntegrityError(
                    f"every reachable copy of {plan.var!r} for core "
                    f"{plan.dst_core} failed checksum verification"
                )
            nxt = alts[0]
            tried.add(nxt)
            self._gray_count("integrity.refetches")
            if tracer.enabled:
                with tracer.span(
                    "integrity.refetch", var=plan.var, src=nxt,
                    dst=plan.dst_core, nbytes=plan.nbytes,
                ):
                    rec = issue(nxt)
            else:
                rec = issue(nxt)
            if rec.duplicated:
                self._gray_count("integrity.duplicates_dropped")
            src = nxt
        return rec

    # -- memory pressure: admission, reclaim ladder, spill tier ----------------------

    def _effective_capacity(self, core: int) -> int:
        """Usable bytes of ``core``'s store under active pressure windows."""
        cap = self._stores[core].capacity_bytes
        factor = self._capacity_factor.get(
            self.cluster.node_of_core(core), 1.0
        )
        return int(cap * factor)

    def _admit(self, store: ObjectStore, obj: DataObject) -> None:
        """Admission-controlled insert: the high-watermark check plus the
        reclaim ladder, raising :class:`MemoryPressureError` (a deferral,
        not a loss) when the ladder cannot make enough room."""
        core = store.core
        cap = self._effective_capacity(core)
        limit = int(cap * self.high_watermark)
        if store.used_bytes + obj.nbytes > limit:
            self._mem_count("mem.watermark")
            self._reclaim(
                core,
                store.used_bytes + obj.nbytes - limit,
                exclude={(obj.var, obj.version, core)},
            )
            if store.used_bytes + obj.nbytes > cap:
                self._mem_count("mem.stalls")
                injector = self.dart.injector
                if injector is not None:
                    injector.record(
                        "memory_stall",
                        f"{obj.var} v{obj.version} core={core} "
                        f"used={store.used_bytes} need={obj.nbytes} "
                        f"usable={cap}",
                    )
                if self.provenance.enabled:
                    self.provenance.record(
                        "mem.stall", var=obj.var, version=obj.version,
                        core=core, need=obj.nbytes,
                        used=store.used_bytes, usable=cap,
                    )
                raise MemoryPressureError(
                    f"put of {obj.var!r} v{obj.version} on core {core} not "
                    f"admitted: {store.used_bytes}+{obj.nbytes} bytes exceeds "
                    f"the {cap}-byte usable capacity (high watermark "
                    f"{self.high_watermark:g}) and the reclaim ladder "
                    f"(GC, replica eviction, spill) could not make room; "
                    f"the put is deferred until consumers free space"
                )
        store.insert(obj)

    def _admit_replica(self, core: int, rep: DataObject) -> bool:
        """Best-effort admission for a replica copy.

        Replicas are the first thing the reclaim ladder throws away, so
        writing one never spills a primary and never blocks the workflow:
        if GC and replica eviction cannot make room on the target core the
        copy is simply *skipped* (heal-time reconciliation tops it back up
        once consumers free space). Returns whether the copy fits.
        """
        store = self._stores[core]
        cap = self._effective_capacity(core)
        if store.used_bytes + rep.nbytes > cap:
            self._reclaim(
                core,
                store.used_bytes + rep.nbytes - cap,
                exclude={(rep.var, rep.version, rep.logical_owner)},
                spill=False,
            )
        if store.used_bytes + rep.nbytes > cap:
            self._mem_count("mem.replicas_skipped")
            return False
        return True

    def _reclaim(
        self,
        core: int,
        need: int,
        exclude: "set | frozenset" = frozenset(),
        spill: bool = True,
    ) -> int:
        """Run the reclamation ladder on ``core``'s store.

        Rungs, cheapest first: (1) garbage-collect primaries every expected
        consumer has read, (2) evict replica copies whose logical object
        keeps at least ``write_quorum`` (or one) other copies, (3) spill
        cold primaries — lowest version first — to the node's deep-memory
        tier. Stops as soon as ``need`` bytes are freed; ``exclude`` names
        logical keys the ladder must not touch (the object being admitted
        or restored); ``spill=False`` stops after rung 2 (replica writes
        never displace a primary). Returns the bytes actually freed.
        """
        store = self._stores[core]
        freed = 0
        # Rung 1: GC fully-consumed primaries.
        if self.consumer_counts:
            for obj in sorted(
                (o for o in store.objects() if not o.is_replica),
                key=lambda o: o.key(),
            ):
                if freed >= need:
                    break
                if (obj.var, obj.version, core) in exclude:
                    continue
                want = self.consumer_counts.get(obj.var)
                readers = self._consumed.get((obj.var, core))
                if want is None or readers is None or len(readers) < want:
                    continue
                store.evict(obj.var, obj.version)
                self.dht.unregister(obj.var, obj.version, core)
                self._drop_replicas(obj.var, obj.version, core)
                self._produced_by.pop((obj.var, obj.version, core), None)
                self._consumed.pop((obj.var, core), None)
                freed += obj.nbytes
                self._mem_count("mem.gc")
                if self.provenance.enabled:
                    self.provenance.record(
                        "mem.gc",
                        cause=self._prov_puts.get((obj.var, obj.version)),
                        var=obj.var, version=obj.version, core=core,
                        nbytes=obj.nbytes, readers=len(readers),
                    )
        if freed >= need:
            return freed
        # Rung 2: evict replica copies that keep their quorum intact.
        min_copies = 1 if self.write_quorum is None else self.write_quorum
        for obj in sorted(
            (o for o in store.objects() if o.is_replica),
            key=lambda o: o.key(),
        ):
            if freed >= need:
                break
            owner = obj.logical_owner
            key = (obj.var, obj.version, owner)
            if key in exclude:
                continue
            pstore = self._stores.get(owner)
            copies = len(self._replicas.get(key, ()))
            if pstore is not None and pstore.get(obj.var, obj.version) is not None:
                copies += 1
            if copies - 1 < min_copies:
                continue
            store.evict(obj.var, obj.version, of=owner)
            self.dht.unregister(obj.var, obj.version, core, of=owner)
            self._replicas[key] = tuple(
                c for c in self._replicas.get(key, ()) if c != core
            )
            freed += obj.nbytes
            self._mem_count("mem.evicted_replicas")
            if self.provenance.enabled:
                self.provenance.record(
                    "mem.evict_replica",
                    cause=self._prov_puts.get((obj.var, obj.version)),
                    var=obj.var, version=obj.version, core=core,
                    owner=owner, nbytes=obj.nbytes, copies_left=copies - 1,
                )
        if freed >= need or not spill:
            return freed
        # Rung 3: spill cold primaries to the node's deep-memory tier.
        tier = self._spill[self.cluster.node_of_core(core)]
        for obj in sorted(
            (o for o in store.objects() if not o.is_replica),
            key=lambda o: (o.version, o.var),
        ):
            if freed >= need:
                break
            if (obj.var, obj.version, core) in exclude:
                continue
            if not tier.has_room(obj.nbytes):
                continue
            self._spill_out(core, obj, tier)
            freed += obj.nbytes
        return freed

    def _spill_out(self, core: int, obj: DataObject, tier: SpillTier) -> None:
        """Park one cold primary in the deep-memory tier.

        The store frees the bytes but the DHT registration and producer
        bookkeeping stay — the object still logically exists and restores
        on demand when a schedule routes a pull through this core.
        """
        tracer = self.dart.tracer
        if tracer.enabled:
            with tracer.span(
                "spill.write", var=obj.var, core=core, nbytes=obj.nbytes
            ):
                self.dart.transfer(
                    src_core=core, dst_core=core, nbytes=obj.nbytes,
                    kind=TransferKind.SPILL, var=obj.var,
                )
        else:
            self.dart.transfer(
                src_core=core, dst_core=core, nbytes=obj.nbytes,
                kind=TransferKind.SPILL, var=obj.var,
            )
        self._stores[core].evict(obj.var, obj.version)
        tier.store(obj)
        self._spilled.add((obj.var, obj.version, core))
        self._pending_spill_write += self.cost_model.spill_time(obj.nbytes)
        self._mem_count("mem.spills")
        self._spill_bytes_count("write", obj.nbytes)
        if self.provenance.enabled:
            self.provenance.record(
                "mem.spill",
                cause=self._prov_puts.get((obj.var, obj.version)),
                var=obj.var, version=obj.version, core=core,
                nbytes=obj.nbytes,
            )

    def _restore_for_schedule(self, schedule: CommSchedule) -> None:
        """Read spilled sources of a schedule back before its pulls issue."""
        if not self._spilled:
            return
        srcs = {p.src_core for p in schedule.plans}
        keys = sorted(
            k for k in self._spilled
            if k[0] == schedule.var and k[2] in srcs
        )
        for var, version, owner in keys:
            self._restore_spilled(var, version, owner)

    def _restore_spilled(self, var: str, version: int, owner: int) -> None:
        """Restore one spilled primary into its store (restore-on-demand).

        Raises :class:`~repro.errors.SpillError` — riding the data-loss
        re-enactment ladder — when the tier copy is gone, and
        :class:`MemoryPressureError` when the store cannot take the object
        back even after reclaiming around it.
        """
        tier = self._spill[self.cluster.node_of_core(owner)]
        store = self.store_of(owner)
        probe = tier.peek(var, version, owner)
        if probe is not None:
            cap = self._effective_capacity(owner)
            if store.used_bytes + probe.nbytes > cap:
                self._reclaim(
                    owner,
                    store.used_bytes + probe.nbytes - cap,
                    exclude={(var, version, owner)},
                )
            if store.used_bytes + probe.nbytes > cap:
                self._mem_count("mem.stalls")
                raise MemoryPressureError(
                    f"cannot restore spilled {var!r} v{version} to core "
                    f"{owner}: its store is still over the usable capacity "
                    f"after the reclaim ladder; the read is deferred"
                )
        obj = tier.take(var, version, owner)  # SpillError when the copy is gone
        self._spilled.discard((var, version, owner))
        tracer = self.dart.tracer
        if tracer.enabled:
            with tracer.span(
                "spill.read", var=var, core=owner, nbytes=obj.nbytes
            ):
                self.dart.transfer(
                    src_core=owner, dst_core=owner, nbytes=obj.nbytes,
                    kind=TransferKind.SPILL, var=var,
                )
        else:
            self.dart.transfer(
                src_core=owner, dst_core=owner, nbytes=obj.nbytes,
                kind=TransferKind.SPILL, var=var,
            )
        store.insert(obj)
        self._pending_spill_read += self.cost_model.spill_time(obj.nbytes)
        self._mem_count("mem.restores")
        self._spill_bytes_count("read", obj.nbytes)
        if self.provenance.enabled:
            self.provenance.record(
                "mem.restore",
                cause=self._prov_puts.get((var, version)),
                var=var, version=version, core=owner, nbytes=obj.nbytes,
            )

    def arm_memory_pressure(self, injector) -> None:
        """Subscribe this space to the plan's MemoryPressure windows.

        A window opening shrinks the node's usable capacity (and proactively
        runs the reclaim ladder on stores the shrink stranded over the
        watermark); a window closing restores it. No-op unless enforcement
        is on and the plan declares windows.
        """
        if not self.enforce_memory or not injector.plan.has_memory_pressure:
            return

        def update(window) -> None:
            factor = injector.memory_capacity_factor(window.node)
            if factor < 1.0:
                self._capacity_factor[window.node] = factor
            else:
                self._capacity_factor.pop(window.node, None)

        def shrink(window) -> None:
            update(window)
            for core in self.cluster.cores_of_node(window.node):
                store = self._stores[core]
                limit = int(
                    self._effective_capacity(core) * self.high_watermark
                )
                if store.used_bytes > limit:
                    self._mem_count("mem.watermark")
                    self._reclaim(core, store.used_bytes - limit)

        injector.add_memory_pressure_start_listener(shrink)
        injector.add_memory_pressure_end_listener(update)

    def drain_spill_seconds(self) -> tuple[float, float]:
        """Deep-memory (write, read) seconds accrued since the last drain.

        The workflow engine drains after each app routine and stretches the
        app over the result, so spill traffic occupies real simulated time
        under the ``spill.write``/``spill.read`` critical-path categories.
        """
        out = (self._pending_spill_write, self._pending_spill_read)
        self._pending_spill_write = 0.0
        self._pending_spill_read = 0.0
        return out

    def spilled_bytes(self) -> int:
        """Bytes currently parked across every node's spill tier."""
        return sum(t.used_bytes for t in self._spill.values())

    # -- sequential coupling ---------------------------------------------------------

    def put_seq(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        element_size: int = 8,
        version: int = 0,
        data: "object | None" = None,
        app_id: int = -1,
        generation: int = 0,
    ) -> DataObject:
        """Store a region of ``var`` in the space (owner = ``core``).

        ``data`` optionally attaches the actual values (an array shaped like
        the region); consumers can then :meth:`fetch_seq` assembled arrays.
        When given, its itemsize overrides ``element_size``.

        Re-putting an existing ``(var, version)`` from the same core
        replaces the stored object (latest wins) — bundle re-enactment after
        a fault re-issues its puts idempotently.

        With ``replication > 1``, k-1 replica copies are written to distinct
        live nodes (SFC-successor placement) and registered alongside the
        primary. ``app_id`` records the producing application so the
        recovery ladder can re-enact the right bundle if every copy is lost.

        ``generation`` is the writer's dispatch generation (the workflow
        engine bumps it on every re-dispatch). A write older than the
        object's fence is rejected with :class:`StaleWriteError` — a healed
        minority cannot overwrite majority-side work. With a
        ``write_quorum`` configured, the put raises :class:`QuorumError`
        unless at least that many of its k copies landed on nodes reachable
        from the writer.
        """
        tracer = self.dart.tracer
        if not tracer.enabled:
            return self._put_seq(
                core, var, region, element_size, version, data, app_id,
                generation,
            )
        with tracer.span("cods.put_seq", var=var, core=core, version=version) as sp:
            obj = self._put_seq(
                core, var, region, element_size, version, data, app_id,
                generation,
            )
            # The put span covers every core now holding a copy (primary +
            # replicas), so failover pulls still link to their producer.
            self._put_spans[(var, core)] = sp
            for rc in self._replicas.get((var, version, core), ()):
                self._put_spans[(var, rc)] = sp
            return obj

    def _put_seq(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        element_size: int,
        version: int,
        data: "object | None",
        app_id: int = -1,
        generation: int = 0,
    ) -> DataObject:
        if generation or self._object_gen:
            fence = self._object_gen.get((var, version, core), 0)
            if generation < fence:
                self._partition_count("partition.fenced_writes")
                injector = self.dart.injector
                if injector is not None:
                    injector.record(
                        "stale_write_fenced",
                        f"{var} v{version} core={core} "
                        f"generation={generation} fence={fence}",
                    )
                if self.provenance.enabled:
                    self.provenance.record(
                        "object.fence",
                        cause=self._prov_puts.get((var, version)),
                        var=var, version=version, core=core,
                        generation=generation, fence=fence,
                    )
                raise StaleWriteError(
                    f"write of {var!r} v{version} from core {core} carries "
                    f"generation {generation}, fenced at {fence}"
                )
            if generation > fence:
                self._object_gen[(var, version, core)] = generation
        if data is not None:
            import numpy as np

            data = np.asarray(data)
            element_size = data.itemsize
        obj = DataObject(
            var=var,
            version=version,
            region=self._as_region(region),
            owner_core=core,
            element_size=element_size,
            payload=data,
        )
        store = self.store_of(core)
        if store.get(var, version) is not None:
            store.evict(var, version)
            self.dht.unregister(var, version, core)
            self._drop_replicas(var, version, core)
        elif self._spilled and (var, version, core) in self._spilled:
            # Re-put of a spilled object (re-enactment after its deep-memory
            # copy was lost): retire the tier copy and its still-standing
            # registration before the fresh primary takes over.
            self._spill[self.cluster.node_of_core(core)].drop(
                var, version, core
            )
            self.dht.unregister(var, version, core)
            self._drop_replicas(var, version, core)
            self._spilled.discard((var, version, core))
        elif (var, version, core) in self._replicas:
            # Re-put of a primary that is gone while its replicas are still
            # bookkept (GC'd mid re-replication, or lost before its crash
            # was detected): retire them before the fresh primary
            # re-replicates onto the same deterministic targets.
            self.dht.unregister(var, version, core)
            self._drop_replicas(var, version, core)
        if self.enforce_memory:
            self._admit(store, obj)
        else:
            store.insert(obj)
        self.dht.register(obj)
        self._produced_by[(var, version, core)] = app_id
        if self._dead_nodes:
            # A re-enacted producer lands on fresh cores. Retire this
            # (var, version)'s dead logical objects: bookkeeping when every
            # copy died with its node, and — when replicas outlived a dead
            # primary — any surviving copies of the *same region*, which the
            # new object supersedes (leaving them would double-cover the
            # region in consumer schedules).
            for key in [
                k for k in self._produced_by
                if k[0] == var and k[1] == version and k[2] != core
            ]:
                pcore = key[2]
                survivors = []  # (holding core, copy) pairs still stored
                pstore = self._stores.get(pcore)
                if pstore is not None:
                    prim = pstore.get(var, version)
                    if prim is not None:
                        survivors.append((pcore, prim))
                for rc in self._replicas.get(key, ()):
                    rstore = self._stores.get(rc)
                    rep = (
                        rstore.get(var, version, of=pcore)
                        if rstore is not None else None
                    )
                    if rep is not None:
                        survivors.append((rc, rep))
                if survivors:
                    if survivors[0][1].region != obj.region:
                        continue  # a different rank's share — keep it
                    for rc, _copy in survivors:
                        self._stores[rc].evict(var, version, of=pcore)
                        self.dht.unregister(var, version, rc, of=pcore)
                del self._produced_by[key]
                self._replicas.pop(key, None)
        if self.replication > 1:
            skipped = self._replicate(obj)
        else:
            skipped = 0
        if self.write_quorum is not None:
            acks = 1 + len(
                self._replicas.get((var, version, core), ())
            )
            if acks < self.write_quorum:
                self._partition_count("quorum.failed_writes")
                if self.provenance.enabled:
                    self.provenance.record(
                        "object.quorum_fail",
                        cause=self._prov_puts.get((var, version)),
                        var=var, version=version, core=core,
                        acks=acks, quorum=self.write_quorum,
                    )
                raise QuorumError(
                    f"write of {var!r} v{version} from core {core} reached "
                    f"{acks}/{self.replication} copies; write quorum is "
                    f"{self.write_quorum}"
                )
            if skipped:
                # Acknowledged, but short of full replication: the heal-time
                # reconciliation tops the missing copies back up.
                self._partition_count("quorum.degraded_writes")
        if self.provenance.enabled:
            self._prov_puts[(var, version)] = self.provenance.record(
                "object.put", var=var, version=version, core=core,
                copies=1 + len(self._replicas.get((var, version, core), ())),
                degraded=bool(skipped), app=app_id,
            )
        return obj

    def _replicate(self, obj: DataObject) -> int:
        """Write k-1 replicas of a freshly put primary to distinct nodes.

        With partitions declared, a replica whose holder is unreachable
        from the writer is *skipped* (never half-written): the copy simply
        does not exist until reconciliation re-replicates it. Returns the
        number of skipped targets (0 on the partition-free path).
        """
        targets = self.placer.replica_cores(
            obj.owner_core, self.replication - 1, alive=self._node_alive
        )
        partitions = self._partitions_armed()
        placed: list[int] = []
        skipped = 0
        for t in targets:
            rep = _dc_replace(obj, owner_core=t, primary_core=obj.owner_core)
            if self.enforce_memory and not self._admit_replica(t, rep):
                skipped += 1
                continue
            if partitions:
                # Transfer first: an unreachable target must not leave a
                # ghost copy in its store or the DHT tables.
                try:
                    rec = self.dart.transfer(
                        src_core=obj.owner_core,
                        dst_core=t,
                        nbytes=rep.nbytes,
                        kind=TransferKind.REPLICATION,
                        var=obj.var,
                    )
                except NetworkPartitionError:
                    skipped += 1
                    self._partition_count("quorum.replicas_skipped")
                    continue
                self.store_of(t).insert(rep)
                self.dht.register(rep)
            else:
                self.store_of(t).insert(rep)
                self.dht.register(rep)
                rec = self.dart.transfer(
                    src_core=obj.owner_core,
                    dst_core=t,
                    nbytes=rep.nbytes,
                    kind=TransferKind.REPLICATION,
                    var=obj.var,
                )
            if rec.corrupted:
                self._poison_copy(rep)
            placed.append(t)
        key = (obj.var, obj.version, obj.owner_core)
        if partitions:
            # Stale holders kept across the cut (see _drop_replicas) stay
            # in the bookkeeping so heal-time reconciliation finds them.
            placed = sorted(set(placed) | set(self._replicas.get(key, ())))
        self._replicas[key] = tuple(placed)
        return skipped

    def _poison_copy(self, rep: DataObject) -> None:
        """Mark a freshly stored copy as corrupted-in-flight.

        The copy's stored checksum is flipped so :meth:`DataObject.
        verify_checksum` (and the scrubber) detect it, modelling a replica
        whose bits were damaged by the REPLICATION transfer that wrote it.
        """
        store = self.store_of(rep.owner_core)
        store.evict(rep.var, rep.version, of=rep.logical_owner)
        store.insert(_dc_replace(rep, checksum=rep.checksum ^ 0x1))
        self._gray_count("integrity.corrupted_replicas")

    def _drop_replicas(self, var: str, version: int, primary: int) -> None:
        """Evict and unregister every replica of one logical object.

        Under an active partition a holder unreachable from the primary
        cannot process the eviction: its stale copy survives — still
        registered, so minority-side reads may serve it — until heal-time
        :meth:`reconcile_partition` repairs it by checksum against the
        primary.
        """
        partitions = self._partitions_armed()
        injector = self.dart.injector
        pnode = self.cluster.node_of_core(primary)
        kept: list[int] = []
        for rc in self._replicas.pop((var, version, primary), ()):
            if partitions and not injector.reachable(
                pnode, self.cluster.node_of_core(rc)
            ):
                kept.append(rc)
                self._partition_count("partition.stale_replicas")
                continue
            rstore = self._stores.get(rc)
            if rstore is not None and rstore.get(var, version, of=primary) is not None:
                rstore.evict(var, version, of=primary)
            self.dht.unregister(var, version, rc, of=primary)
        if kept:
            self._replicas[(var, version, primary)] = tuple(kept)

    def get_seq(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        version: int | None = None,
        app_id: int = -1,
    ) -> tuple[CommSchedule, list[TransferRecord]]:
        """Retrieve a region of ``var`` from the space onto ``core``.

        ``region`` may be a bounding box or an exact interval product (the
        paper's geometric descriptors). Returns the (possibly cached)
        communication schedule and the transfer records of the pulls it
        issued.
        """
        tracer = self.dart.tracer
        if not tracer.enabled:
            return self._get_seq(
                core, var, region, version, app_id, NULL_TRACER
            )
        with tracer.span("cods.get_seq", var=var, core=core) as span:
            schedule, records = self._get_seq(
                core, var, region, version, app_id, tracer, span
            )
            span.set(plans=len(schedule.plans), nbytes=schedule.total_bytes)
            return schedule, records

    def _get_seq(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        version: int | None,
        app_id: int,
        tracer,
        span=None,
    ) -> tuple[CommSchedule, list[TransferRecord]]:
        from repro.cods.objects import region_cells

        qregion = self._as_region(region)
        if region_cells(qregion) == 0:
            # Nothing requested: empty schedule, no lookup, no transfers.
            return CommSchedule(var=var, dst_core=core, region=qregion), []
        bbox = region_bounding_box(qregion)
        self._check_box(bbox)
        schedule: CommSchedule | None = None
        if self.schedule_cache is not None:
            schedule = self.schedule_cache.get(var, core, qregion)
            if schedule is not None and not self._schedule_alive(schedule):
                # The cached schedule references evicted or crashed sources;
                # recompute and replace it (latest wins).
                schedule = None
        if span is not None:
            span.set(cache_hit=schedule is not None)
        if schedule is None:
            if tracer.enabled:
                with tracer.span("schedule.compute", var=var, core=core):
                    locations = self.lookup.locate(core, var, bbox, version)
                    locations = self._select_copies(core, locations, var)
                    schedule = compute_schedule(var, core, qregion, locations)
            else:
                locations = self.lookup.locate(core, var, bbox, version)
                locations = self._select_copies(core, locations, var)
                schedule = compute_schedule(var, core, qregion, locations)
            if self.schedule_cache is not None:
                self.schedule_cache.put(schedule)
        return schedule, self._execute(schedule, app_id)

    def _schedule_alive(self, schedule: CommSchedule) -> bool:
        """Whether every source of a cached schedule still holds the var.

        Guards the seq cache against dangling sources: an evicted object or
        a crashed node leaves stale cache entries behind (entries are keyed
        without a version, so eviction cannot target them directly).
        """
        for p in schedule.plans:
            store = self._stores.get(p.src_core)
            if store is None or not store.has_var(schedule.var):
                return False
        return True

    def _select_copies(
        self, dst_core: int, locations, var: str
    ) -> "list[ObjectLocation]":
        """Pick exactly one live copy per logical object before scheduling.

        With replication every logical object resolves to several locations
        (primary + replicas) covering the same region; feeding them all to
        ``compute_schedule`` would double-cover. The primary wins while its
        node is alive; otherwise the read fails over to a replica, preferring
        one on the destination's node (shared-memory pull), then the lowest
        core id for determinism. No live copy left ⇒ :class:`DataLostError`.

        Under an active partition the pool additionally shrinks to copies
        *reachable* from the destination: unreachable-but-alive holders are
        never failed over to a dead-node path (the data still exists), the
        read instead stalls with :class:`NetworkPartitionError` when no copy
        is reachable, or fails the configured ``read_quorum``. A reachable
        replica standing in for an alive-but-cut-off primary counts as a
        ``partition.failover_reads``, distinct from crash failover.

        Identity transform when ``replication == 1`` and no node has died —
        and skipped entirely on the default path (see the caller's gate).
        """
        partitions = self._partitions_armed()
        if not self._dead_nodes and self.replication == 1 and not partitions:
            return list(locations)
        injector = self.dart.injector
        groups: dict[tuple[int, int], list] = {}
        for loc in locations:
            groups.setdefault((loc.version, loc.logical_owner), []).append(loc)
        dst_node = self.cluster.node_of_core(dst_core)
        chosen = []
        for (version, owner), copies in groups.items():
            live = [
                c for c in copies
                if self.cluster.node_of_core(c.owner_core) not in self._dead_nodes
            ]
            if not live:
                raise DataLostError(
                    f"every copy of {var!r} v{version} (owner core {owner}) "
                    "is on a crashed node"
                )
            had_primary = any(not c.is_replica for c in live)
            pool = live
            if partitions:
                pool = [
                    c for c in live
                    if injector.reachable(
                        dst_node, self.cluster.node_of_core(c.owner_core)
                    )
                ]
                if not pool:
                    self._partition_count("partition.stalled_reads")
                    raise NetworkPartitionError(
                        f"every live copy of {var!r} v{version} (owner core "
                        f"{owner}) is across an active network cut from core "
                        f"{dst_core}"
                    )
                if (self.read_quorum is not None
                        and len(pool) < self.read_quorum):
                    self._partition_count("quorum.failed_reads")
                    raise QuorumError(
                        f"read of {var!r} v{version} from core {dst_core} "
                        f"reaches {len(pool)}/{len(live)} live copies; read "
                        f"quorum is {self.read_quorum}"
                    )
                if len(pool) < len(live):
                    self._partition_count("quorum.degraded_reads")
            primary = next((c for c in pool if not c.is_replica), None)
            if primary is not None:
                chosen.append(primary)
                continue
            pick = min(
                pool,
                key=lambda c: (
                    self.cluster.node_of_core(c.owner_core) != dst_node,
                    c.owner_core,
                ),
            )
            if partitions and had_primary:
                # The primary is alive but cut off — partition failover,
                # not the crash-failover the resilience counter tracks.
                self._partition_count("partition.failover_reads")
            elif self._m_failover is not None:
                self._m_failover.inc()
            if self.provenance.enabled:
                self.provenance.record(
                    "object.replica_select",
                    cause=self._prov_puts.get((var, version)),
                    var=var, version=version, core=pick.owner_core,
                    reader=dst_core, pool=len(pool),
                    failover=(
                        "partition" if partitions and had_primary
                        else "crash"
                    ),
                )
            chosen.append(pick)
        chosen.sort(key=lambda c: (c.version, c.owner_core))
        return chosen

    def fetch_seq(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        version: int | None = None,
        app_id: int = -1,
    ):
        """Like :meth:`get_seq`, but also assembles and returns the values.

        Every contributing object must carry a payload (stored with
        ``put_seq(..., data=...)``). Returns ``(array, schedule, records)``
        where ``array`` has the region's per-dimension measures as its shape.

        Assembly materializes per-dimension index arrays, so this is meant
        for demo/validation domains (up to ~10^6 cells), not the paper-scale
        accounting runs — those never touch values.
        """
        import numpy as np

        qregion = self._as_region(region)
        schedule, records = self.get_seq(core, var, qregion, version, app_id)

        qcoords = [s.to_array() for s in qregion]
        shape = tuple(len(c) for c in qcoords)
        out: "np.ndarray | None" = None
        for plan in schedule.plans:
            store = self.store_of(plan.src_core)
            # Find this owner's payload objects for the variable.
            objs = [
                o for o in store.objects()
                if o.var == var and (version is None or o.version == version)
            ]
            if version is None and objs:
                newest = max(o.version for o in objs)
                objs = [o for o in objs if o.version == newest]
            for obj in objs:
                if obj.payload is None:
                    raise SpaceError(
                        f"object {obj.key()} has no payload; fetch_seq needs "
                        "data stored with put_seq(..., data=...)"
                    )
                inter = [
                    q.intersection(r) for q, r in zip(qregion, obj.region)
                ]
                if any(not s for s in inter):
                    continue
                if out is None:
                    out = np.zeros(shape, dtype=np.asarray(obj.payload).dtype)
                icoords = [s.to_array() for s in inter]
                qpos = [
                    np.searchsorted(qc, ic) for qc, ic in zip(qcoords, icoords)
                ]
                ocoords = [s.to_array() for s in obj.region]
                opos = [
                    np.searchsorted(oc, ic) for oc, ic in zip(ocoords, icoords)
                ]
                out[np.ix_(*qpos)] = np.asarray(obj.payload)[np.ix_(*opos)]
        if out is None:
            raise SpaceError(f"no payload data found for {var!r}")
        return out, schedule, records

    # -- concurrent coupling -----------------------------------------------------------

    def put_cont(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        element_size: int = 8,
    ) -> None:
        """Expose a producer task's region of ``var`` for direct transfer."""
        tracer = self.dart.tracer
        if tracer.enabled:
            self._put_spans[(var, core)] = tracer.instant(
                "cods.put_cont", var=var, core=core
            )
        known = self._producer_esize.setdefault(var, element_size)
        if known != element_size:
            raise SpaceError(
                f"element size mismatch for {var!r}: {element_size} != {known}"
            )
        entry = (core, self._as_region(region))
        sources = self._producers.setdefault(var, [])
        # Latest wins: a re-enacted producer re-declares its region from a
        # fresh core; keeping the old declaration would double the coverage.
        kept = [s for s in sources if s[1] != entry[1]]
        if self.provenance.enabled:
            self.provenance.record(
                "object.expose", var=var, core=core,
                replaced=len(kept) != len(sources),
            )
        sources[:] = kept + [entry]

    def get_cont(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        app_id: int = -1,
    ) -> tuple[CommSchedule, list[TransferRecord]]:
        """Pull a region of ``var`` directly from the producer tasks."""
        tracer = self.dart.tracer
        if not tracer.enabled:
            return self._get_cont(core, var, region, app_id, NULL_TRACER)
        with tracer.span("cods.get_cont", var=var, core=core) as span:
            schedule, records = self._get_cont(
                core, var, region, app_id, tracer, span
            )
            span.set(plans=len(schedule.plans), nbytes=schedule.total_bytes)
            return schedule, records

    def _get_cont(
        self,
        core: int,
        var: str,
        region: "Box | RegionProduct",
        app_id: int,
        tracer,
        span=None,
    ) -> tuple[CommSchedule, list[TransferRecord]]:
        qregion = self._as_region(region)
        self._check_box(region_bounding_box(qregion))
        sources = self._producers.get(var)
        if not sources:
            raise SpaceError(f"no concurrent producer declared for {var!r}")
        schedule: CommSchedule | None = None
        if self.schedule_cache is not None:
            schedule = self.schedule_cache.get(var, core, qregion)
        if span is not None:
            span.set(cache_hit=schedule is not None)
        if schedule is None:
            if tracer.enabled:
                with tracer.span("schedule.compute", var=var, core=core):
                    schedule = producer_schedule(
                        var, core, qregion, sources, self._producer_esize[var]
                    )
            else:
                schedule = producer_schedule(
                    var, core, qregion, sources, self._producer_esize[var]
                )
            if self.schedule_cache is not None:
                self.schedule_cache.put(schedule)
        return schedule, self._execute(schedule, app_id)

    # -- bundle retrieval --------------------------------------------------------------

    def get_bundle(
        self,
        var: str,
        requests: "list[tuple[int, Box | RegionProduct]]",
        app_id: int = -1,
        mode: str = "cont",
        version: "int | None" = None,
    ) -> "list[tuple[CommSchedule, list[TransferRecord]]]":
        """Retrieve one whole coupling bundle: every consumer rank's region
        in one call, in request order.

        With the bundle cache enabled (``use_bundle_cache=True``), the full
        set of schedules is keyed by (bundle topology, placement) and a
        repeat coupling skips the per-rank DHT-query/schedule path in a
        single probe. Without it, this is exactly a loop over
        :meth:`get_seq` / :meth:`get_cont`.
        """
        if mode not in ("seq", "cont"):
            raise SpaceError(f"unknown bundle mode {mode!r}")
        if self.bundle_cache is None:
            if mode == "seq":
                return [
                    self.get_seq(core, var, region, version, app_id)
                    for core, region in requests
                ]
            return [
                self.get_cont(core, var, region, app_id)
                for core, region in requests
            ]
        reqs = tuple((core, self._as_region(r)) for core, r in requests)
        if mode == "cont":
            # Placement signature: the producer declarations feeding this
            # coupling. A producer landing elsewhere (re-enactment after a
            # crash) changes the signature and misses cleanly.
            sources_sig = tuple(self._producers.get(var, ()))
        else:
            sources_sig = version
        key = BundleScheduleCache.key_for(var, mode, reqs, sources_sig)
        scheds = self.bundle_cache.get(key)
        if scheds is not None and mode == "seq" and not all(
            self._schedule_alive(s) for s in scheds
        ):
            scheds = None  # sources evicted/crashed since; recompute
        if scheds is None:
            if mode == "seq":
                out = [
                    self.get_seq(core, var, region, version, app_id)
                    for core, region in reqs
                ]
            else:
                out = [
                    self.get_cont(core, var, region, app_id)
                    for core, region in reqs
                ]
            self.bundle_cache.put(key, tuple(s for s, _ in out))
            return out
        return [(s, self._execute(s, app_id)) for s in scheds]

    # -- fault recovery ----------------------------------------------------------------

    def fail_dht_core(self, core: int) -> int:
        """Fail one DHT core and fail over to its successor.

        The failed core's Hilbert interval is reassigned to the successor
        DHT core and every location table is rebuilt from the surviving
        per-core object stores, so subsequent ``get_seq`` queries keep
        resolving (the data itself was never on the DHT core). The schedule
        cache is cleared: cached schedules may reference pre-failover
        routing. Returns the successor's global core id.
        """
        successor = self.dht.fail_core(core)
        self.dht.rebuild(
            obj for store in self._stores.values() for obj in store.objects()
        )
        if self.schedule_cache is not None:
            self.schedule_cache.clear()
        if self.bundle_cache is not None:
            self.bundle_cache.clear()
        return successor

    def mark_node_dead(self, node: int) -> int:
        """The *physical* effect of a node crash, at crash time.

        Objects in the node's in-memory stores vanish and its concurrent-
        producer declarations are withdrawn — that is what actually happens
        the instant a node dies. DHT failover, cache invalidation, and
        re-replication are *recovery* actions that wait for the failure
        detector (:meth:`recover_node_crash`); until then, reads that touch
        the dead node fail over through :meth:`_select_copies`. Returns the
        number of data objects lost from the node's stores.
        """
        if not 0 <= node < self.cluster.num_nodes:
            raise SpaceError(f"node {node} out of range")
        crashed_cores = set(self.cluster.cores_of_node(node))
        self._dead_nodes.add(node)
        lost = 0
        for core in crashed_cores:
            store = self._stores.get(core)
            if store is not None:
                lost += len(store)
                store.clear()
        tier = self._spill.get(node)
        if tier is not None:
            # The deep-memory tier is node-local; it dies with the node.
            # The _spilled keys stay so restore attempts surface the loss.
            lost += tier.clear()
        self._withdraw_producers(crashed_cores)
        return lost

    def _withdraw_producers(self, crashed_cores: set[int]) -> None:
        for var, sources in list(self._producers.items()):
            kept = [(c, r) for c, r in sources if c not in crashed_cores]
            if kept:
                self._producers[var] = kept
            else:
                del self._producers[var]
                self._producer_esize.pop(var, None)

    def recover_node_crash(self, node: int) -> None:
        """Recovery actions once a node crash has been *detected*.

        The node's DHT core fails over to its successor (unless it is the
        last one standing), location tables rebuild from the surviving
        stores, the schedule cache drops (cached schedules may route via the
        dead node), and replica bookkeeping forgets copies that died with
        the node.
        """
        if not 0 <= node < self.cluster.num_nodes:
            raise SpaceError(f"node {node} out of range")
        crashed_cores = set(self.cluster.cores_of_node(node))
        node_dht_cores = crashed_cores & set(self.dht.dht_cores)
        for core in sorted(node_dht_cores):
            if len(self.dht.dht_cores) > 1:
                self.dht.fail_core(core)
        self.dht.rebuild(
            obj for store in self._stores.values() for obj in store.objects()
        )
        for key, cores in list(self._replicas.items()):
            kept = tuple(c for c in cores if c not in crashed_cores)
            if kept != cores:
                self._replicas[key] = kept
        if self.schedule_cache is not None:
            self.schedule_cache.clear()
        if self.bundle_cache is not None:
            self.bundle_cache.clear()

    def on_node_crash(self, node: int) -> int:
        """Crash plus immediate recovery, in one call.

        Legacy entry point for runs without a failure detector: the crash's
        physical effects and the recovery actions happen at the same
        simulated instant (zero detection latency). Returns the number of
        data objects lost.
        """
        lost = self.mark_node_dead(node)
        self.recover_node_crash(node)
        return lost

    def restore_replication(self) -> tuple[int, int]:
        """Re-replicate under-replicated objects after crashes.

        The logical owner core is an *identity*, not a location: it never
        changes, even once dead (re-keying a logical object under a new
        primary would collide with the new core's own primary of the same
        variable). Re-replication simply places additional copies — sourced
        from a surviving one, the primary if alive, else the lowest-core
        replica — until ``replication`` copies exist again, each costing one
        REPLICATION transfer. Objects with *no* surviving copy are not
        handled here; :meth:`lost_objects` reports them for the
        re-enactment rung of the recovery ladder.

        Returns ``(copies_created, bytes_copied)``.
        """
        if self.replication <= 1:
            return (0, 0)
        partitions = self._partitions_armed()
        # Survey the surviving copies of every logical object.
        groups: dict[tuple[str, int, int], list[DataObject]] = {}
        for store in self._stores.values():
            for obj in store.objects():
                key = (obj.var, obj.version, obj.logical_owner)
                groups.setdefault(key, []).append(obj)
        created = 0
        nbytes = 0
        for (var, version, owner), copies in sorted(groups.items()):
            copies.sort(key=lambda o: o.owner_core)
            holders = [o.owner_core for o in copies]
            missing = self.replication - len(holders)
            if missing <= 0:
                continue
            src = next((o for o in copies if not o.is_replica), copies[0])
            targets = self.placer.replica_cores(
                owner,
                missing,
                alive=self._node_alive,
                exclude_nodes=[self.cluster.node_of_core(c) for c in holders],
            )
            for t in targets:
                rep = _dc_replace(src, owner_core=t, primary_core=owner)
                if self.enforce_memory and not self._admit_replica(t, rep):
                    continue
                if partitions:
                    # Transfer first (cf. _replicate): a target across a
                    # still-open cut is skipped, never half-written.
                    try:
                        rec = self.dart.transfer(
                            src_core=src.owner_core,
                            dst_core=t,
                            nbytes=rep.nbytes,
                            kind=TransferKind.REPLICATION,
                            var=var,
                            link_from=self._put_spans.get((var, src.owner_core)),
                        )
                    except NetworkPartitionError:
                        self._partition_count("quorum.replicas_skipped")
                        continue
                    self.store_of(t).insert(rep)
                else:
                    self.store_of(t).insert(rep)
                    rec = self.dart.transfer(
                        src_core=src.owner_core,
                        dst_core=t,
                        nbytes=rep.nbytes,
                        kind=TransferKind.REPLICATION,
                        var=var,
                        link_from=self._put_spans.get((var, src.owner_core)),
                    )
                if rec.corrupted:
                    self._poison_copy(rep)
                sp = self._put_spans.get((var, src.owner_core))
                if sp is not None:  # new copy inherits its producer's span
                    self._put_spans[(var, t)] = sp
                holders.append(t)
                created += 1
                nbytes += rep.nbytes
            self._replicas[(var, version, owner)] = tuple(
                sorted(c for c in holders if c != owner)
            )
        if created:
            self.dht.rebuild(
                obj for store in self._stores.values() for obj in store.objects()
            )
            if self.schedule_cache is not None:
                self.schedule_cache.clear()
            if self.bundle_cache is not None:
                self.bundle_cache.clear()
        return created, nbytes

    def reconcile_partition(self) -> tuple[int, int]:
        """Heal-time reconciliation of replica sets divergent across a cut.

        While a partition is open, replica holders unreachable from their
        primary keep stale copies (see :meth:`_drop_replicas`) and quorum
        writes may land short of full replication (see :meth:`_replicate`).
        Once the cut heals, the resilience manager calls this to walk the
        replica bookkeeping and (1) rewrite every copy whose content
        checksum disagrees with its primary's — one REPLICATION transfer
        each, (2) top missing copies back up via
        :meth:`restore_replication`.

        Returns ``(divergent_copies_repaired, missing_copies_created)``.
        """
        repaired = 0
        for (var, version, owner), reps in sorted(self._replicas.items()):
            pstore = self._stores.get(owner)
            prim = pstore.get(var, version) if pstore is not None else None
            if prim is None:
                continue  # dead primary: restore_replication's concern
            for rc in reps:
                rstore = self._stores.get(rc)
                rep = (
                    rstore.get(var, version, of=owner)
                    if rstore is not None else None
                )
                if rep is None or rep.checksum == prim.checksum:
                    continue
                try:
                    self.dart.transfer(
                        src_core=owner,
                        dst_core=rc,
                        nbytes=prim.nbytes,
                        kind=TransferKind.REPLICATION,
                        var=var,
                        link_from=self._put_spans.get((var, owner)),
                    )
                except NetworkPartitionError:
                    continue  # still cut off; the next heal pass retries
                rstore.evict(var, version, of=owner)
                self.dht.unregister(var, version, rc, of=owner)
                fresh = _dc_replace(prim, owner_core=rc, primary_core=owner)
                rstore.insert(fresh)
                self.dht.register(fresh)
                repaired += 1
                self._partition_count("partition.reconciled")
        if self.dht.deferred_registrations:
            # Registrations that could not cross the cut left holes in the
            # location tables; the heal-time rebuild closes them (accounted
            # as real anti-entropy control traffic).
            self._partition_count(
                "partition.deferred_registrations",
                self.dht.deferred_registrations,
            )
            self.dht.deferred_registrations = 0
            self.dht.rebuild(
                obj for store in self._stores.values() for obj in store.objects()
            )
            if self.schedule_cache is not None:
                self.schedule_cache.clear()
            if self.bundle_cache is not None:
                self.bundle_cache.clear()
        created, _nbytes = self.restore_replication()
        if repaired and self.schedule_cache is not None:
            self.schedule_cache.clear()
        if repaired and self.bundle_cache is not None:
            self.bundle_cache.clear()
        return repaired, created

    def scrub(self, repair: bool = True) -> tuple[int, int, int]:
        """Re-verify every stored copy's checksum; repair from a clean copy.

        The integrity scrubber (:class:`repro.resilience.integrity.
        IntegrityScrubber`) calls this periodically on the sim clock so
        latent corruption — a replica poisoned by a corrupted REPLICATION
        write — is found *before* a consumer trips over it. A corrupt copy
        is repaired in place from any clean copy of the same logical object
        (one REPLICATION transfer) whose holder is reachable across any open
        network cut. The repair transfer lands before the corrupt copy is
        evicted, as in :meth:`_replicate`. With no reachable clean copy the
        corrupt one stays put: a later pass (after the heal) repairs it, or
        the recovery ladder's re-enactment rung regenerates the object.

        Returns ``(copies_checked, corrupt_found, repaired)``.
        """
        checked = corrupt = repaired = 0
        injector = self.dart.injector if self._partitions_armed() else None
        for core in sorted(self._stores):
            store = self._stores[core]
            for obj in sorted(store.objects(), key=lambda o: o.key()):
                checked += 1
                if obj.verify_checksum():
                    continue
                corrupt += 1
                self._gray_count("integrity.scrub.corrupt_found")
                if not repair:
                    continue
                owner = obj.logical_owner
                clean = None
                for c in (owner, *self._replicas.get(
                        (obj.var, obj.version, owner), ())):
                    if c == core:
                        continue
                    cstore = self._stores.get(c)
                    cand = (
                        cstore.get(obj.var, obj.version, of=owner)
                        if cstore is not None else None
                    )
                    if cand is None or not cand.verify_checksum():
                        continue
                    if injector is None or injector.reachable(
                        self.cluster.node_of_core(c),
                        self.cluster.node_of_core(core),
                    ):
                        clean = cand
                        break
                if clean is None:
                    continue  # no reachable clean source: retry next pass
                rec = self.dart.transfer(
                    src_core=clean.owner_core,
                    dst_core=core,
                    nbytes=clean.nbytes,
                    kind=TransferKind.REPLICATION,
                    var=obj.var,
                )
                store.evict(obj.var, obj.version, of=owner)
                fixed = _dc_replace(
                    clean,
                    owner_core=core,
                    primary_core=None if core == owner else owner,
                )
                if rec.corrupted:
                    # The repair write itself was damaged; the next scrub
                    # pass sees it again.
                    fixed = _dc_replace(fixed, checksum=fixed.checksum ^ 0x1)
                else:
                    repaired += 1
                    self._gray_count("integrity.scrub.repaired")
                store.insert(fixed)
        return checked, corrupt, repaired

    def lost_objects(self) -> "list[tuple[str, int, int]]":
        """Logical objects with *zero* surviving copies.

        Returns ``(var, version, producing app id)`` triples — the last rung
        of the recovery ladder re-enacts those apps' bundles. App id is -1
        when the producer did not identify itself.
        """
        alive: set[tuple[str, int, int]] = set()
        for store in self._stores.values():
            for obj in store.objects():
                alive.add((obj.var, obj.version, obj.logical_owner))
        for tier in self._spill.values():
            # A spilled primary still logically exists: it restores on
            # demand, so it is not lost.
            for obj in tier.objects():
                alive.add((obj.var, obj.version, obj.logical_owner))
        lost = []
        for (var, version, core), app_id in sorted(self._produced_by.items()):
            if (var, version, core) not in alive:
                lost.append((var, version, app_id))
        return lost

    # -- checkpoint manifest ---------------------------------------------------------

    def manifest(self) -> dict:
        """JSON-serializable snapshot of the space's logical state.

        Captures object descriptors (not payloads — checkpointing raw data
        arrays is out of scope and raises), producer declarations, replica
        bookkeeping, and failure state. :meth:`restore_manifest` rebuilds an
        equivalent space from it without re-accounting any transfers.
        """
        if any(len(t) for t in self._spill.values()):
            raise CheckpointError(
                "objects are parked in the deep-memory spill tier; "
                "checkpointing a space mid-spill is not supported — restore "
                "or drain the tier first"
            )
        objects = []
        for store in self._stores.values():
            for obj in store.objects():
                if obj.payload is not None:
                    raise CheckpointError(
                        f"object {obj.key()} carries a payload; checkpointing "
                        "value-bearing spaces is not supported"
                    )
                objects.append({
                    "var": obj.var,
                    "version": obj.version,
                    "owner_core": obj.owner_core,
                    "element_size": obj.element_size,
                    "primary_core": obj.primary_core,
                    "region": [list(s.intervals) for s in obj.region],
                })
        return {
            "replication": self.replication,
            "dead_nodes": sorted(self._dead_nodes),
            "failed_dht_cores": sorted(
                set(self.cluster.cores_of_node(n)[0] for n in self.cluster.nodes())
                - set(self.dht.dht_cores)
            ),
            "objects": objects,
            "producers": {
                var: [
                    [core, [list(s.intervals) for s in region]]
                    for core, region in sources
                ]
                for var, sources in self._producers.items()
            },
            "producer_esize": dict(self._producer_esize),
            "produced_by": [
                [var, version, core, app_id]
                for (var, version, core), app_id in sorted(
                    self._produced_by.items()
                )
            ],
            "replicas": [
                [var, version, core, list(cores)]
                for (var, version, core), cores in sorted(self._replicas.items())
            ],
        }

    def restore_manifest(self, manifest: dict) -> None:
        """Rebuild logical state from :meth:`manifest` (fresh space only)."""
        if any(len(s) for s in self._stores.values()) or self._producers:
            raise CheckpointError("restore_manifest needs an empty space")
        if manifest.get("replication", 1) != self.replication:
            raise CheckpointError(
                f"checkpoint was taken at replication="
                f"{manifest.get('replication', 1)}, space is at "
                f"{self.replication}"
            )
        # Failure state first, so DHT routing matches the checkpoint's.
        for core in manifest.get("failed_dht_cores", ()):
            if core in self.dht.dht_cores and len(self.dht.dht_cores) > 1:
                self.dht.fail_core(core)
        self._dead_nodes = set(manifest.get("dead_nodes", ()))
        objs = []
        for rec in manifest["objects"]:
            region = tuple(
                IntervalSet([tuple(p) for p in pairs])
                for pairs in rec["region"]
            )
            obj = DataObject(
                var=rec["var"],
                version=rec["version"],
                region=region,
                owner_core=rec["owner_core"],
                element_size=rec["element_size"],
                primary_core=rec.get("primary_core"),
            )
            self.store_of(obj.owner_core).insert(obj)
            objs.append(obj)
        self.dht.rebuild(objs, account=False)
        self._producers = {
            var: [
                (
                    core,
                    tuple(
                        IntervalSet([tuple(p) for p in pairs])
                        for pairs in region
                    ),
                )
                for core, region in sources
            ]
            for var, sources in manifest.get("producers", {}).items()
        }
        self._producer_esize = dict(manifest.get("producer_esize", {}))
        self._produced_by = {
            (var, version, core): app_id
            for var, version, core, app_id in manifest.get("produced_by", ())
        }
        self._replicas = {
            (var, version, core): tuple(cores)
            for var, version, core, cores in manifest.get("replicas", ())
        }

    # -- maintenance ----------------------------------------------------------------------

    def evict(self, core: int, var: str, version: int = 0) -> DataObject:
        """Drop an object from its store and the DHT location tables.

        Evicting a primary also drops its replicas and retires the
        producer bookkeeping — an evicted object is gone on purpose, not
        lost. Cached schedules that referenced the object are rejected on
        their next cache hit (``_schedule_alive``), so a ``get_seq`` after
        the last covering object is evicted raises :class:`ScheduleError`
        instead of silently pulling from an empty store.
        """
        obj = self.store_of(core).evict(var, version)
        self.dht.unregister(var, version, core)
        self._drop_replicas(var, version, core)
        self._produced_by.pop((var, version, core), None)
        return obj

    def reset_concurrent(self, var: str | None = None) -> None:
        """Forget concurrent producer declarations (all vars by default)."""
        if var is None:
            self._producers.clear()
            self._producer_esize.clear()
        else:
            self._producers.pop(var, None)
            self._producer_esize.pop(var, None)

    def stored_bytes(self) -> int:
        return sum(s.used_bytes for s in self._stores.values())
