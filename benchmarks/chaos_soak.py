#!/usr/bin/env python
"""Chaos soak: seeded random fault plans over the Fig 8 scenario.

Each seed derives a deterministic fault plan — one node crash at a random
mid-flight instant, sometimes a DHT-core failure on top — and runs the
sequential coupling scenario with k-way replication and heartbeat failure
detection. The soak passes only if every run upholds the resilience
invariants:

* zero failed gets: every consumer assembled its full requested region
  (a lost read raises and fails the seed),
* no logical object lost every copy (k=2 absorbs any single crash), and
* the replication factor is restored by the end of the run.

One seed additionally runs with tracing and a metrics registry attached;
the emitted files are validated with benchmarks/check_trace.py, so the
chaos path keeps producing balanced spans and well-formed snapshots.

``--partition`` soaks network partitions: each seed derives a
deterministic two-island cut (sometimes flapping) and runs with quorum
writes/reads armed (W=2, R=1 over k=2 replication); half the seeds also
arm a partition deadline so the waited-out and escalated recovery paths
both soak. The partition invariants:

* zero split-brain commits: every acknowledged write survives — no logical
  object loses every copy, and after the final heal every surviving copy
  of an object carries the primary's checksum (divergent minority replicas
  must have been reconciled),
* every consumer assembled its full requested region, and
* the whole run is deterministic: seed 0 runs twice and both runs must
  produce identical partition counters.

``--oom`` soaks memory pressure: each seed derives one or two
deterministic capacity-shrink windows and runs with a node memory budget
of about two coupled objects per core, so the admission-controlled put
path, the reclaim ladder (GC, replica eviction, spill), backpressure
waits, and on-demand restores all engage. The OOM invariants:

* the run completes — a put that cannot be admitted defers on
  backpressure, it never deadlocks or raises SpaceError,
* zero acknowledged objects lost (spilled copies included) and zero
  escalations out of the backpressure retry budget,
* every resident primary still verifies its checksum (spill/restore
  round-trips the bytes intact), and
* the whole run is deterministic: seed 0 runs twice and both runs must
  produce identical memory counters.

``--gray`` soaks gray failures: each seed derives a plan combining a slow-
node window, wildcard delivery corruption, and wildcard duplicate
delivery, and runs with hedged pulls, straggler speculation, and periodic
integrity scrubbing armed. The gray invariants:

* zero corrupted values reach a consumer — every corrupted delivery is
  caught by its checksum and re-fetched (``integrity.unrecoverable`` == 0,
  and any unrecoverable pull would have raised and failed the seed),
* every primary copy verifies its checksum at rest (corrupting REPLICATION
  writes may poison replicas, never primaries), and
* the whole run is deterministic: seed 0 runs twice and both runs must
  produce identical gray counters.

The class flags compose (no flag means ``--crash``): ``--crash --gray``
merges both classes' draws into one plan per seed, each from its own RNG
stream, and arms, tallies and checks the union of their knobs, counters
and invariants.

Usage:  python benchmarks/chaos_soak.py [--seeds N] [--replication K]
            [--crash] [--gray] [--partition] [--oom] [--verbose]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, fields
from functools import reduce
from typing import Any, Callable

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from check_trace import check_metrics, check_trace  # noqa: E402

from repro.analysis.experiments import run_scenario  # noqa: E402
from repro.apps.scenarios import CoupledScenario, layout_for  # noqa: E402
from repro.core.task import AppSpec  # noqa: E402
from repro.domain.descriptor import DecompositionDescriptor  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    DataCorruption,
    DHTCoreFailure,
    DuplicateDelivery,
    FaultPlan,
    MemoryPressure,
    NetworkPartition,
    NodeCrash,
    SlowNode,
)
from repro.hardware.cluster import Cluster  # noqa: E402
from repro.hardware.spec import generic_multicore  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.resilience.manager import ResilienceConfig  # noqa: E402

#: producer/consumer simulated compute (run window [0, ~1.1] s)
PRODUCER_COMPUTE = 1.0
CONSUMER_COMPUTE = 0.1

#: soak workload: 32 producer tasks on a 10-node/40-core cluster, so a
#: whole node's worth of spare cores survives any single crash and
#: re-dispatched bundles always fit
PRODUCER_TASKS = 32
CONSUMER_TASKS = (8, 16)
SPARE_NODES = 2
TASK_SIDE = 8


def soak_scenario(spares: int = SPARE_NODES) -> CoupledScenario:
    """Fig 8-shaped sequential coupling with spare nodes for re-dispatch."""
    machine = generic_multicore(4)
    cluster = Cluster(num_nodes=PRODUCER_TASKS // 4 + spares, machine=machine)
    playout = layout_for(PRODUCER_TASKS)
    domain = tuple(p * TASK_SIDE for p in playout)

    def app(app_id, name, ntasks):
        return AppSpec(
            app_id=app_id, name=name,
            descriptor=DecompositionDescriptor.uniform(
                domain, layout_for(ntasks), "blocked", 4
            ),
            element_size=8, var="coupled",
        )

    return CoupledScenario(
        name="chaos-soak", mode="seq", cluster=cluster, domain=domain,
        producer=app(1, "SAP1", PRODUCER_TASKS),
        consumers=[
            app(2 + i, f"SAP{2 + i}", n)
            for i, n in enumerate(CONSUMER_TASKS)
        ],
    )


def plan_for_seed(seed: int, cluster) -> FaultPlan:
    """Deterministic single-crash (sometimes +DHT-failure) plan."""
    rng = random.Random(seed)
    node = rng.randrange(cluster.num_nodes)
    crash_time = round(rng.uniform(0.05, 1.05), 4)
    dht_failures = ()
    if rng.random() < 0.3:
        # A DHT core on a *different* node stops answering too (each node's
        # first core serves a DHT interval).
        other = rng.choice(
            [n for n in range(cluster.num_nodes) if n != node]
        )
        dht_failures = (
            DHTCoreFailure(
                core=cluster.cores_of_node(other)[0],
                time=round(rng.uniform(0.05, 1.05), 4),
            ),
        )
    return FaultPlan(
        seed=seed,
        node_crashes=(NodeCrash(node=node, time=crash_time),),
        dht_failures=dht_failures,
    )


def gray_plan_for_seed(seed: int, cluster) -> FaultPlan:
    """Deterministic slow-node + corruption + duplication plan.

    Corruption stays under 8 % per delivery so a pull and its single
    replica re-fetch (k=2) failing together stays rare enough for the
    bundle-retry ladder to always recover within its retry budget.
    """
    rng = random.Random(f"{seed}/gray")
    node = rng.randrange(cluster.num_nodes)
    return FaultPlan(
        seed=seed,
        slow_nodes=(
            # The window spans the consumers' pull phase (which lands past
            # t=1.1 and later still when the producer itself is slowed), so
            # hedging and speculation actually engage.
            SlowNode(
                node=node,
                start=round(rng.uniform(0.0, 0.5), 4),
                duration=round(rng.uniform(2.0, 6.0), 4),
                factor=round(rng.uniform(2.0, 6.0), 2),
            ),
        ),
        corruptions=(
            DataCorruption(probability=round(rng.uniform(0.01, 0.08), 3)),
        ),
        duplications=(
            DuplicateDelivery(probability=round(rng.uniform(0.02, 0.15), 3)),
        ),
    )


def partition_plan_for_seed(
    seed: int, cluster
) -> "tuple[FaultPlan, float | None]":
    """Deterministic two-island cut plus the deadline knob for this seed.

    The minority island holds one or two nodes and never the monitor
    (node 0): with a fixed monitor there is no re-election, and losing at
    most two nodes to a deadline escalation leaves enough spare cores for
    any bundle re-dispatch to fit (the same capacity budget the crash soak
    uses). Half the seeds run with a partition deadline so both recovery
    paths — waiting the cut out and fencing the minority off — soak.
    """
    rng = random.Random(f"{seed}/partition")
    minority_size = rng.choice((1, 2))
    minority = tuple(sorted(rng.sample(
        range(1, cluster.num_nodes), minority_size
    )))
    majority = tuple(
        n for n in range(cluster.num_nodes) if n not in minority
    )
    flap = round(rng.uniform(0.2, 0.5), 4) if rng.random() < 0.3 else None
    plan = FaultPlan(
        seed=seed,
        partitions=(
            NetworkPartition(
                start=round(rng.uniform(0.0, 0.9), 4),
                duration=round(rng.uniform(0.3, 1.5), 4),
                groups=(majority, minority),
                flap_period=flap,
            ),
        ),
    )
    deadline = 0.4 if rng.random() < 0.5 else None
    return plan, deadline


def oom_plan_for_seed(seed: int, cluster) -> FaultPlan:
    """Deterministic memory-pressure plan: 1-2 capacity-shrink windows.

    Factors below 0.5 shrink a core's store under one coupled object, so
    puts on that node must wait the window out on backpressure; factors
    above it leave room for the reclaim ladder to spill/evict its way
    through. Window starts straddle the producer put phase (t=1.0).
    """
    rng = random.Random(f"{seed}/oom")
    nodes = rng.sample(range(cluster.num_nodes), rng.choice((1, 2)))
    return FaultPlan(
        seed=seed,
        memory_pressure=tuple(
            MemoryPressure(
                node=node,
                start=round(rng.uniform(0.0, 0.9), 4),
                duration=round(rng.uniform(0.3, 1.5), 4),
                factor=rng.choice((0.4, 0.5, 0.6, 0.75)),
            )
            for node in sorted(nodes)
        ),
    )


#: OOM-mode node budget: 4 cores x 2 coupled objects (4096 B each), so a
#: primary plus one replica fill a core's store to the brim and every put
#: runs the reclaim ladder
OOM_MEMORY_PER_NODE = 4 * 2 * 4096

#: memory counters compared across the seed-0 determinism re-run
OOM_COUNTERS = (
    "mem.watermark",
    "mem.stalls",
    "mem.gc",
    "mem.evicted_replicas",
    "mem.replicas_skipped",
    "mem.spills",
    "mem.restores",
    "spill.bytes",
    "workflow.memory.retries",
    "workflow.memory.escalations",
)

#: gray-mode knobs (all armed so every subsystem soaks together)
GRAY_KNOBS = dict(hedge_factor=2.0, speculation_threshold=1.5, scrub_period=0.1)

#: gray counters compared across the seed-0 determinism re-run
GRAY_COUNTERS = (
    "transport.corrupted_deliveries",
    "transport.duplicate_deliveries",
    "integrity.corrupted_deliveries",
    "integrity.refetches",
    "integrity.duplicates_dropped",
    "integrity.corrupted_replicas",
    "integrity.scrub.corrupt_found",
    "integrity.scrub.repaired",
    "hedge.issued",
    "hedge.wins",
    "hedge.redundant_bytes",
    "workflow.speculation.launched",
    "workflow.speculation.wins",
    "workflow.speculation.cancelled",
)

#: partition-mode quorum knobs (over the soak's k=2 replication)
PARTITION_WRITE_QUORUM = 2
PARTITION_READ_QUORUM = 1

#: partition counters compared across the seed-0 determinism re-run
PARTITION_COUNTERS = (
    "transport.partitioned_transfers",
    "partition.stalled_reads",
    "partition.failover_reads",
    "partition.fenced_writes",
    "partition.stale_replicas",
    "partition.reconciled",
    "partition.deferred_registrations",
    "quorum.degraded_writes",
    "quorum.failed_writes",
    "quorum.degraded_reads",
    "quorum.failed_reads",
    "quorum.replicas_skipped",
    "workflow.partition.retries",
    "workflow.quorum.retries",
    "workflow.partition.escalations",
    "workflow.partition.stale_abandons",
    "resilience.partition.suspected",
    "resilience.partition.waited_out",
    "resilience.partition.deadline_exceeded",
    "resilience.partition.heals",
)


def verify_crash(result, replication: int) -> list[str]:
    problems = []
    space = result.space
    lost = space.lost_objects()
    if lost:
        problems.append(f"objects lost every copy: {lost}")
    # Replication factor restored for every surviving logical object.
    copies: dict[tuple, int] = {}
    for store in space._stores.values():
        for obj in store.objects():
            key = (obj.var, obj.version, obj.logical_owner)
            copies[key] = copies.get(key, 0) + 1
    for key in space._produced_by:
        if copies.get(key, 0) != replication:
            problems.append(
                f"{key}: {copies.get(key, 0)} copies, want {replication}"
            )
    s = result.resilience
    if s["detections_node"] != 1:
        problems.append(f"crash not detected: {s}")
    return problems


def verify_gray(result, replication: int) -> list[str]:
    problems = []
    # The invariant: no corrupted value ever reached a consumer. A pull
    # with every copy corrupt raises (failing the run); the counter covers
    # the window where the exception was swallowed by a retry ladder.
    n = int(result.registry.counter_total("integrity.unrecoverable"))
    if n:
        problems.append(f"{n} unrecoverable corrupted pull(s)")
    # Corrupting REPLICATION writes may poison replicas (the scrubber's
    # job); primaries are written locally and must always verify.
    problems.extend(_corrupt_primaries(result.space, "at rest"))
    return problems


def verify_partition(result, replication: int) -> list[str]:
    problems = []
    space = result.space
    # Acknowledged-write durability: an acked put (W reachable holders)
    # must survive the cut — losing every copy is a split-brain commit.
    lost = space.lost_objects()
    if lost:
        problems.append(f"acknowledged writes lost every copy: {lost}")
    # Post-heal convergence: every surviving copy of a logical object must
    # carry the primary's content checksum — a divergent replica means the
    # heal-time reconciliation missed a stale minority copy.
    primaries: dict[tuple, int] = {}
    for store in space._stores.values():
        for obj in store.objects():
            if not obj.is_replica:
                key = (obj.var, obj.version, obj.logical_owner)
                primaries[key] = obj.checksum
    for store in space._stores.values():
        for obj in store.objects():
            key = (obj.var, obj.version, obj.logical_owner)
            want = primaries.get(key)
            if want is not None and obj.checksum != want:
                problems.append(
                    f"replica of {key} diverges from primary after heal"
                )
    return problems


def verify_oom(result, replication: int) -> list[str]:
    problems = []
    # Durability under pressure: eviction and spill must never drop the
    # last copy of an acknowledged object (spilled copies count as alive).
    lost = result.space.lost_objects()
    if lost:
        problems.append(f"acknowledged objects lost every copy: {lost}")
    # Backpressure must always resolve within its retry budget in this
    # configuration — an escalation here means the ladder wedged.
    n = int(result.registry.counter_total("workflow.memory.escalations"))
    if n:
        problems.append(f"{n} backpressure escalation(s) to data loss")
    # Spill/restore round-trips the bytes intact: every resident primary
    # still verifies its content checksum.
    problems.extend(_corrupt_primaries(result.space, "after spill/restore"))
    return problems


def _corrupt_primaries(space, when: str) -> list[str]:
    problems = []
    for var, version, owner in space._produced_by:
        store = space._stores.get(owner)
        obj = store.get(var, version, of=owner) if store is not None else None
        if obj is not None and not obj.verify_checksum():
            problems.append(
                f"primary copy of {(var, version, owner)} corrupt {when}"
            )
    return problems


@dataclass(frozen=True)
class Mode:
    """One fault class of the soak, declared once."""

    name: str
    #: (seed, cluster, replication) -> the class's plan and the
    #: run_scenario / ResilienceConfig knobs it arms
    draw: Callable[[int, Cluster, int], "tuple[FaultPlan, dict[str, Any]]"]
    #: registry counters tallied per seed and compared on the seed-0 re-run
    counters: tuple[str, ...]
    #: (result, replication) -> invariant violations
    verify: Callable[[Any, int], list[str]]
    #: (plan, result, failed) -> the seed's tag in its ok / failure line
    describe: Callable[[FaultPlan, Any, bool], str]
    #: totals -> the class's clause of the final summary line
    summary: Callable[[dict], str]
    #: most nodes one plan of the class takes out of service
    removes: int


def _describe_crash(plan: FaultPlan, result, failed: bool) -> str:
    crash = plan.node_crashes[0]
    tag = f"node {crash.node} @ {crash.time}"
    return tag if failed else f"{tag}, {result.resilience}"


def _describe_partition(plan: FaultPlan, result, failed: bool) -> str:
    part = plan.partitions[0]
    tag = f"cut {part.groups[1]} @ {part.start}"
    return f"{tag} for {part.duration}" if failed else tag


def _draw_partition(seed: int, cluster, replication: int):
    plan, deadline = partition_plan_for_seed(seed, cluster)
    return plan, dict(
        partition_deadline=deadline,
        write_quorum=min(PARTITION_WRITE_QUORUM, replication),
        read_quorum=min(PARTITION_READ_QUORUM, replication),
    )


#: every fault class, in the order a composed seed draws, verifies and
#: reports them
MODES = (
    Mode(
        name="crash",
        draw=lambda seed, cluster, k: (plan_for_seed(seed, cluster), {}),
        counters=(),
        verify=verify_crash,
        describe=_describe_crash,
        summary=lambda t: (
            f"{t['failover_reads']} failover reads, {t['rereplication_copies']}"
            f" copies re-replicated, {t['reenactments']} re-enactments, "
            f"{t['detections_dht']} DHT detections"
        ),
        removes=1,
    ),
    Mode(
        name="gray",
        draw=lambda seed, cluster, k: (
            gray_plan_for_seed(seed, cluster), GRAY_KNOBS
        ),
        counters=GRAY_COUNTERS,
        verify=verify_gray,
        describe=lambda plan, result, failed: "",
        summary=lambda t: (
            f"{t['integrity.refetches']} integrity re-fetches, "
            f"{t['integrity.duplicates_dropped']} duplicates dropped, "
            f"{t['hedge.issued']}/{t['hedge.wins']} hedges issued/won, "
            f"{t['workflow.speculation.launched']}/"
            f"{t['workflow.speculation.wins']} speculations launched/won, "
            f"{t['integrity.scrub.repaired']} replicas scrubbed clean"
        ),
        removes=0,
    ),
    Mode(
        name="partition",
        draw=_draw_partition,
        counters=PARTITION_COUNTERS,
        verify=verify_partition,
        describe=_describe_partition,
        summary=lambda t: (
            f"{t['transport.partitioned_transfers']} stalled transfers, "
            f"{t['workflow.partition.retries']}+{t['workflow.quorum.retries']}"
            f" partition/quorum retries, "
            f"{t['resilience.partition.waited_out']} waited out, "
            f"{t['resilience.partition.deadline_exceeded']} deadline "
            f"escalations, {t['partition.fenced_writes']} fenced writes, "
            f"{t['partition.reconciled']} copies reconciled"
        ),
        # A deadline escalation fences the minority island: 1-2 nodes.
        removes=2,
    ),
    Mode(
        name="oom",
        draw=lambda seed, cluster, k: (oom_plan_for_seed(seed, cluster), dict(
            enforce_memory=True, memory_per_node=OOM_MEMORY_PER_NODE,
        )),
        counters=OOM_COUNTERS,
        verify=verify_oom,
        describe=lambda plan, result, failed: ", ".join(
            f"node {w.node} x{w.factor} @ {w.start}"
            for w in plan.memory_pressure if failed
        ),
        summary=lambda t: (
            f"{t['mem.watermark']} watermark hits, {t['mem.stalls']} stalls, "
            f"{t['workflow.memory.retries']} backpressure retries, "
            f"{t['mem.gc']} GCs, {t['mem.evicted_replicas']} replicas "
            f"evicted, {t['mem.spills']}/{t['mem.restores']} spills/restores"
        ),
        removes=0,
    ),
)

_RESILIENCE_KNOBS = frozenset(f.name for f in fields(ResilienceConfig))


def run_modes(modes, seed: int, replication: int, tracer=None,
              registry=None):
    """One seed: the union of the classes' plans and knobs, run once on a
    cluster with spares for every drawn class's removals (at least 2)."""
    scenario = soak_scenario(max(SPARE_NODES, sum(m.removes for m in modes)))
    draws = [m.draw(seed, scenario.cluster, replication) for m in modes]
    plan = reduce(FaultPlan.merged, (p for p, _ in draws))
    knobs = {k: v for _, armed in draws for k, v in armed.items()}
    resilience = {k: knobs.pop(k) for k in list(knobs)
                  if k in _RESILIENCE_KNOBS}
    result = run_scenario(
        scenario,
        fault_plan=plan,
        tracer=tracer,
        registry=registry,
        resilience=ResilienceConfig(replication=replication, **resilience),
        producer_compute=PRODUCER_COMPUTE,
        consumer_compute=CONSUMER_COMPUTE,
        **knobs,
    )
    return plan, result


def counter_snapshot(result, names) -> dict[str, int]:
    """The named counters the run registered (absent ones are omitted)."""
    reg = result.registry
    return {name: int(reg.counter_total(name)) for name in names if name in reg}


def soak(modes, seeds: int, replication: int, verbose: bool = False) -> int:
    """Run ``seeds`` composed seeds of ``modes``; returns the exit status."""
    counters = tuple(dict.fromkeys(n for m in modes for n in m.counters))
    failures = 0
    totals: Counter[str] = Counter()
    for seed in range(seeds):
        tracer = registry = None
        if seed == 0:
            tracer, registry = Tracer(), MetricsRegistry()
        try:
            plan, result = run_modes(modes, seed, replication, tracer, registry)
        except Exception as exc:  # noqa: BLE001 — any failure fails the seed
            ops = "PUT/GET" if any(m.name == "oom" for m in modes) else "GET"
            print(f"seed {seed}: FAILED {ops} / run error: {exc}")
            failures += 1
            continue
        # Every consumer performed its gets (a failed get raises earlier),
        # then the union of the drawn classes' invariants.
        problems = [
            f"consumer {app_id} has no schedules"
            for app_id in result.consumer_ids
            if not result.schedules.get(app_id)
        ]
        for mode in modes:
            problems.extend(mode.verify(result, replication))
        snap = counter_snapshot(result, counters)
        for key, val in [*result.resilience.items(), *snap.items()]:
            if isinstance(val, (int, float)):
                totals[key] += val
        tags = [t for t in (m.describe(plan, result, bool(problems))
                            for m in modes) if t]
        if problems:
            failures += 1
            where = f" ({'; '.join(tags)})" if tags else ""
            print(f"seed {seed}{where}: " + "; ".join(problems))
        elif verbose:
            shown = ", ".join(tags + [str(snap)] * bool(counters))
            print(f"seed {seed}: ok ({shown})")
        if seed != 0:
            continue
        prefix = ""
        if counters:
            # Determinism: the same seed re-run must reproduce every
            # counter exactly (stalls, retries, hedges, spills, heals...).
            _, again = run_modes(modes, seed, replication)
            snap2 = counter_snapshot(again, counters)
            if snap != snap2:
                failures += 1
                print(f"seed 0: NON-DETERMINISTIC counters:\n"
                      f"  first:  {snap}\n  second: {snap2}")
            prefix = "deterministic, "
        with tempfile.TemporaryDirectory() as tmp:
            tpath = os.path.join(tmp, "trace.json")
            mpath = os.path.join(tmp, "metrics.json")
            tracer.write_chrome(tpath)
            registry.write_json(mpath)
            try:
                nevents = check_trace(tpath)
                ncells = check_metrics(mpath)
            except Exception as exc:  # noqa: BLE001
                print(f"seed 0: trace/metrics validation failed: {exc}")
                failures += 1
            else:
                print(f"seed 0: {prefix}trace balanced ({nevents} events), "
                      f"metrics well-formed ({ncells} cells)")

    title = "+".join(m.name for m in modes) if len(modes) > 1 else (
        "chaos" if modes[0].name == "crash" else modes[0].name
    )
    print(f"\n{title} soak: {seeds - failures}/{seeds} seeds clean; "
          + "; ".join(m.summary(totals) for m in modes))
    if failures:
        print(f"{title} soak FAILED: {failures} seed(s) violated invariants")
        return 1
    return 0


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=200,
                    help="number of seeded fault plans to run (default 200)")
    ap.add_argument("--replication", type=int, default=2)
    ap.add_argument("--crash", action="store_true",
                    help="soak crash-stop faults (a node crash, sometimes "
                         "plus a DHT-core failure); the default class")
    ap.add_argument("--gray", action="store_true",
                    help="soak gray failures (slow node + corruption + "
                         "duplication)")
    ap.add_argument("--partition", action="store_true",
                    help="soak network partitions (two-island cuts with "
                         "quorum writes/reads)")
    ap.add_argument("--oom", action="store_true",
                    help="soak memory pressure (capacity-shrink windows "
                         "over a ~2-objects-per-core budget)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    modes = tuple(m for m in MODES if getattr(args, m.name))
    return soak(modes or MODES[:1], args.seeds, args.replication,
                args.verbose)


if __name__ == "__main__":
    sys.exit(main())
