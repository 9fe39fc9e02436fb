"""Command-line interface: run the paper's scenarios and print the figures.

Examples::

    repro-insitu concurrent --mapper data-centric
    repro-insitu sequential --mapper round-robin --stencil 2 --time
    repro-insitu compare --scenario concurrent --dist blocked
    repro-insitu dag path/to/workflow.dag
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.experiments import DATA_CENTRIC, ROUND_ROBIN, run_scenario
from repro.analysis.report import format_table, mib, ms, reduction
from repro.errors import FaultPlanError
from repro.faults.plan import (
    DataCorruption,
    DuplicateDelivery,
    FaultPlan,
    MemoryPressure,
    NetworkPartition,
    SlowNode,
)
from repro.apps.scenarios import (
    paper_concurrent,
    paper_sequential,
    small_concurrent,
    small_sequential,
)
from repro.transport.message import TransferKind
from repro.workflow.parser import build_workflow, parse_dag, write_dag

__all__ = ["main", "build_parser"]


# -- argparse type validators (reject bad values at parse time) ----------------


def _probability(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a probability, got {text!r}")
    if not 0.0 <= p < 1.0:
        raise argparse.ArgumentTypeError(
            f"probability must be in [0, 1), got {text}"
        )
    return p


def _hedge_factor(text: str) -> float:
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if f <= 1.0:
        raise argparse.ArgumentTypeError(
            f"hedge factor must be > 1 (a multiple of the expected pull "
            f"time), got {text}"
        )
    return f


def _speculation_threshold(text: str) -> float:
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if f < 1.0:
        raise argparse.ArgumentTypeError(
            f"speculation threshold must be >= 1 (a multiple of the peer "
            f"median), got {text}"
        )
    return f


def _positive_seconds(text: str) -> float:
    try:
        s = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}")
    if s <= 0:
        raise argparse.ArgumentTypeError(f"period must be positive, got {text}")
    return s


def _writable_path(text: str) -> str:
    """An output path whose parent directory exists and is writable."""
    parent = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"directory {parent!r} does not exist"
        )
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"directory {parent!r} is not writable"
        )
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _slow_node_spec(text: str) -> SlowNode:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected NODE:START:DURATION[:FACTOR], got {text!r}"
        )
    try:
        node = int(parts[0])
        start = float(parts[1])
        duration = float(parts[2])
        factor = float(parts[3]) if len(parts) == 4 else 2.0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODE:START:DURATION[:FACTOR] with numeric fields, "
            f"got {text!r}"
        )
    try:
        return SlowNode(node=node, start=start, duration=duration, factor=factor)
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_spec(text: str) -> NetworkPartition:
    """``GROUP/GROUP[/...]@START:DUR[:FLAP]`` with GROUP = ``n,n,...``.

    Example: ``0,1/2,3@1.5:2.5`` cuts nodes {0,1} from {2,3} between
    t=1.5 and t=4.0; an optional trailing ``:FLAP`` makes the cut flap
    with that period inside the window.
    """
    head, sep, tail = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected GROUP/GROUP@START:DUR[:FLAP], got {text!r}"
        )
    try:
        groups = tuple(
            tuple(int(n) for n in grp.split(","))
            for grp in head.split("/")
        )
        window = tail.split(":")
        if len(window) not in (2, 3):
            raise ValueError
        start = float(window[0])
        duration = float(window[1])
        flap = float(window[2]) if len(window) == 3 else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected GROUP/GROUP@START:DUR[:FLAP] with numeric fields, "
            f"got {text!r}"
        )
    try:
        return NetworkPartition(
            start=start, duration=duration, groups=groups, flap_period=flap
        )
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _memory_pressure_spec(text: str) -> MemoryPressure:
    """``NODE@START:DUR[:FACTOR]`` — shrink NODE's memory to FACTOR
    (default 0.5) of capacity between START and START+DUR."""
    head, sep, tail = text.partition("@")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NODE@START:DUR[:FACTOR], got {text!r}"
        )
    try:
        node = int(head)
        window = tail.split(":")
        if len(window) not in (2, 3):
            raise ValueError
        start = float(window[0])
        duration = float(window[1])
        factor = float(window[2]) if len(window) == 3 else 0.5
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODE@START:DUR[:FACTOR] with numeric fields, "
            f"got {text!r}"
        )
    try:
        return MemoryPressure(
            node=node, start=start, duration=duration, factor=factor
        )
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_bytes(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected bytes, got {text!r}")
    if n <= 0:
        raise argparse.ArgumentTypeError(
            f"byte count must be positive, got {text}"
        )
    return n


def _watermark(text: str) -> float:
    try:
        w = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a fraction, got {text!r}")
    if not 0.0 < w <= 1.0:
        raise argparse.ArgumentTypeError(
            f"high watermark must be in (0, 1], got {text}"
        )
    return w


def _quorum(text: str) -> int:
    try:
        q = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if q < 1:
        raise argparse.ArgumentTypeError(f"quorum must be >= 1, got {text}")
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-insitu",
        description="In-situ coupled-workflow framework (IPDPS 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mapper", choices=[DATA_CENTRIC, ROUND_ROBIN],
            default=DATA_CENTRIC, help="task-mapping strategy",
        )
        p.add_argument(
            "--scale", choices=["small", "paper"], default="small",
            help="workload scale (paper = 512+ cores, slower)",
        )
        p.add_argument(
            "--dist", default="blocked",
            help="data distribution for both apps (blocked/cyclic/block_cyclic)",
        )
        p.add_argument(
            "--stencil", type=int, default=0, metavar="N",
            help="intra-app stencil iterations to simulate",
        )
        p.add_argument(
            "--time", action="store_true",
            help="fluid-simulate transfer times (slower)",
        )
        p.add_argument(
            "--fault-plan", metavar="PATH", default=None,
            help="JSON fault plan: inject crashes/degradation deterministically",
        )
        p.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write a Chrome trace_event JSON of the run "
                 "(open in Perfetto / chrome://tracing, or feed to trace-report)",
        )
        p.add_argument(
            "--trace-stream", action="store_true",
            help="stream trace events to --trace-out as they happen "
                 "(bounded memory: only open spans are retained)",
        )
        p.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write a JSON snapshot of the run's metrics registry",
        )
        p.add_argument(
            "--timeline-out", metavar="PATH", default=None,
            type=_writable_path,
            help="stream a utilization timeline (JSONL) of the run: "
                 "per-node-group busy cores, queue depth, resident bytes, "
                 "coupling link occupancy; render with "
                 "'repro-insitu timeline PATH'",
        )
        p.add_argument(
            "--sample-period", type=_positive_seconds, default=0.25,
            metavar="S",
            help="simulated seconds between timeline samples (default 0.25)",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="report live progress (sim time, events/sec, ETA) on stderr",
        )
        p.add_argument(
            "--replication", type=int, default=1, metavar="K",
            help="store K copies of every object on K distinct nodes "
                 "(K>1 enables the resilience subsystem)",
        )
        p.add_argument(
            "--checkpoint-out", metavar="PATH", default=None,
            help="periodically checkpoint workflow + data-space state "
                 "(implies the resilience subsystem)",
        )
        p.add_argument(
            "--checkpoint-interval", type=float, default=0.25, metavar="S",
            help="simulated seconds between checkpoints (default 0.25)",
        )
        p.add_argument(
            "--restore-from", metavar="PATH", default=None,
            help="resume a previous run from its checkpoint file",
        )
        p.add_argument(
            "--heartbeat-period", type=float, default=0.05, metavar="S",
            help="failure-detector sweep period (default 0.05)",
        )
        p.add_argument(
            "--heartbeat-timeout", type=float, default=0.15, metavar="S",
            help="silence before a node is declared dead (default 0.15)",
        )
        p.add_argument(
            "--compute-seconds", type=float, default=0.0, metavar="S",
            help="simulated compute time per app (gives mid-flight faults "
                 "and checkpoints a window; default 0)",
        )
        p.add_argument(
            "--slow-node", action="append", type=_slow_node_spec, default=None,
            metavar="NODE:START:DUR[:FACTOR]",
            help="gray fault: node NODE runs FACTOR x slower (default 2) "
                 "from START for DUR simulated seconds (repeatable)",
        )
        p.add_argument(
            "--corruption", type=_probability, default=None, metavar="P",
            help="gray fault: each network delivery arrives bit-flipped with "
                 "probability P; checksum verification re-fetches from a "
                 "surviving replica",
        )
        p.add_argument(
            "--duplication", type=_probability, default=None, metavar="P",
            help="gray fault: each network delivery is replayed with "
                 "probability P; duplicates are dropped at the consumer",
        )
        p.add_argument(
            "--hedge-factor", type=_hedge_factor, default=None, metavar="X",
            help="hedge a pull with a backup from another replica holder "
                 "once it runs X times over the cost-model expected time "
                 "(X > 1; needs --replication > 1 to have alternates)",
        )
        p.add_argument(
            "--speculation-threshold", type=_speculation_threshold,
            default=None, metavar="X",
            help="speculatively re-enact an app running X times over the "
                 "median of its bundle peers on a slowed node (X >= 1)",
        )
        p.add_argument(
            "--scrub-period", type=_positive_seconds, default=None, metavar="S",
            help="re-verify replica checksums every S simulated seconds and "
                 "repair corrupt copies (enables the resilience subsystem)",
        )
        p.add_argument(
            "--partition", action="append", type=_partition_spec, default=None,
            metavar="GROUPS@START:DUR[:FLAP]",
            help="network partition: cut node GROUPS (comma-separated nodes, "
                 "'/' between islands, e.g. 0,1/2,3) from START for DUR "
                 "simulated seconds; optional FLAP period makes the cut "
                 "oscillate (repeatable)",
        )
        p.add_argument(
            "--write-quorum", type=_quorum, default=None, metavar="W",
            help="acknowledge a put only once W of the K replica holders "
                 "accepted it (needs --replication K >= W)",
        )
        p.add_argument(
            "--read-quorum", type=_quorum, default=None, metavar="R",
            help="require R reachable replica holders before serving a read "
                 "(needs --replication K >= R)",
        )
        p.add_argument(
            "--partition-deadline", type=_positive_seconds, default=None,
            metavar="S",
            help="wait out a suspected network partition for S simulated "
                 "seconds before treating the unreachable side as dead "
                 "(default: wait until it heals)",
        )
        p.add_argument(
            "--enforce-memory", action="store_true",
            help="treat per-core store capacity as a hard budget: puts over "
                 "the high watermark run the reclaim ladder (GC, replica "
                 "eviction, spill to deep memory) and block on backpressure "
                 "instead of crashing",
        )
        p.add_argument(
            "--memory-per-node", type=_positive_bytes, default=None,
            metavar="BYTES",
            help="override each node's memory budget in bytes (default: "
                 "the machine spec's per-node memory; needs "
                 "--enforce-memory)",
        )
        p.add_argument(
            "--high-watermark", type=_watermark, default=None, metavar="F",
            help="store fill fraction that triggers reclamation "
                 "(0 < F <= 1, default 0.8; needs --enforce-memory)",
        )
        p.add_argument(
            "--spill-capacity", type=_positive_bytes, default=None,
            metavar="BYTES",
            help="per-node deep-memory spill tier size in bytes "
                 "(default: unbounded; needs --enforce-memory)",
        )
        p.add_argument(
            "--memory-pressure", action="append",
            type=_memory_pressure_spec, default=None,
            metavar="NODE@START:DUR[:FACTOR]",
            help="fault: shrink node NODE's usable memory to FACTOR "
                 "(default 0.5) of capacity from START for DUR simulated "
                 "seconds (repeatable; needs --enforce-memory)",
        )
        p.add_argument(
            "--provenance-out", metavar="PATH", default=None,
            type=_writable_path,
            help="record every scheduling and recovery decision as a "
                 "cause-linked provenance ledger (JSONL); query with "
                 "'repro-insitu explain bundle <id> --ledger PATH'",
        )
        p.add_argument(
            "--runs-db", metavar="PATH", default=None,
            type=_writable_path,
            help="append this run (config hash, seed, headline metrics, "
                 "critical-path attribution) to a SQLite run registry; "
                 "inspect with 'repro-insitu runs list --db PATH'",
        )

    for name, help_ in (
        ("concurrent", "run the online-data-processing scenario (CAP1/CAP2)"),
        ("sequential", "run the climate-modeling scenario (SAP1-3)"),
    ):
        p = sub.add_parser(name, help=help_)
        add_scenario_args(p)

    p = sub.add_parser("compare", help="round-robin vs data-centric side by side")
    p.add_argument("--scenario", choices=["concurrent", "sequential"],
                   default="concurrent")
    add_scenario_args(p)

    p = sub.add_parser(
        "sweep", help="sweep distribution patterns (Figs 8-9 in one command)"
    )
    p.add_argument("--scenario", choices=["concurrent", "sequential"],
                   default="concurrent")
    p.add_argument("--scale", choices=["small", "paper"], default="small")
    p.add_argument("--time", action="store_true",
                   help="include fluid-simulated retrieval times")

    p = sub.add_parser(
        "trace-report", help="profile a --trace-out file (timeline, hot spans, ...)"
    )
    p.add_argument("trace", help="path to a Chrome trace_event JSON file")
    p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="join a --metrics-out snapshot (exact cache/transfer counters)",
    )
    p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the hot-span table (default 10)",
    )

    p = sub.add_parser(
        "timeline",
        help="render a --timeline-out file as per-node-group heat strips "
             "plus a link-occupancy summary",
    )
    p.add_argument("path", help="path to a --timeline-out JSONL file")
    p.add_argument(
        "--width", type=int, default=60, metavar="COLS",
        help="time-axis width of the heat strips (default 60)",
    )

    p = sub.add_parser(
        "perf",
        help="perf history: run the canonical Fig 8/9/16 and jaguar-scale "
             "scenarios, print critical-path attribution and events/sec, "
             "diff against the last BENCH_<n>.json",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the fresh snapshot here (conventionally BENCH_<n>.json)",
    )
    p.add_argument(
        "--dir", dest="directory", metavar="PATH", default=".",
        help="directory holding the BENCH_*.json history (default: cwd)",
    )
    p.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this canonical scenario (repeatable); "
             "fig08_concurrent, fig09_sequential, fig16_weak_scaling, "
             "jaguar_scale",
    )
    p.add_argument(
        "--label", default="", help="free-form label stored in the snapshot"
    )
    p.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when any metric regresses past its tolerance band",
    )
    p.add_argument(
        "--utilization", action="store_true",
        help="append a sampled utilization summary per scenario (separate "
             "timeline-instrumented runs; the regression profiles stay "
             "byte-identical)",
    )

    p = sub.add_parser(
        "explain",
        help="answer why-questions over a --provenance-out ledger "
             "(bundle why-chains, object history, slowest bundles)",
    )
    p.add_argument(
        "what", choices=["bundle", "object", "slowest"],
        help="query kind: a bundle's causal why-chain, an object's "
             "placement history, or the slowest completed bundles",
    )
    p.add_argument(
        "target", nargs="?", default=None,
        help="bundle id ('explain bundle') or object name "
             "('explain object')",
    )
    p.add_argument(
        "--ledger", metavar="PATH", required=True,
        help="path to a --provenance-out JSONL ledger",
    )
    p.add_argument(
        "-n", "--top", type=int, default=3, metavar="N",
        help="rows in the 'slowest' ranking (default 3)",
    )

    p = sub.add_parser(
        "runs",
        help="query a --runs-db run registry (list / show / diff)",
    )
    p.add_argument(
        "action", choices=["list", "show", "diff"],
        help="list all runs, show one run's metrics, or diff two runs "
             "metric by metric",
    )
    p.add_argument(
        "ids", nargs="*", type=int,
        help="one run id for 'show', two for 'diff'",
    )
    p.add_argument(
        "--db", metavar="PATH", required=True,
        help="path to a --runs-db SQLite registry",
    )

    p = sub.add_parser("dag", help="validate and echo a workflow description file")
    p.add_argument("path", help="path to a Listing-1 style .dag file")
    return parser


def _build(scenario_name: str, scale: str, dist: str):
    if scenario_name == "concurrent":
        if scale == "paper":
            return paper_concurrent(producer_dist=dist, consumer_dist=dist)
        return small_concurrent(producer_dist=dist, consumer_dist=dist)
    if scale == "paper":
        return paper_sequential(producer_dist=dist, consumer_dist=dist)
    return small_sequential(producer_dist=dist, consumer_dist=dist)


def _load_fault_plan(args: argparse.Namespace) -> "FaultPlan | None":
    path = getattr(args, "fault_plan", None)
    plan = FaultPlan.load(path) if path else None
    corruption = getattr(args, "corruption", None)
    duplication = getattr(args, "duplication", None)
    # Flag-injected faults stack on top of whatever the JSON plan
    # declares; the probabilities become wildcard (any-link) faults.
    flags = FaultPlan(
        slow_nodes=getattr(args, "slow_node", None) or (),
        corruptions=(
            (DataCorruption(probability=corruption),) if corruption else ()
        ),
        duplications=(
            (DuplicateDelivery(probability=duplication),) if duplication else ()
        ),
        partitions=getattr(args, "partition", None) or (),
        memory_pressure=getattr(args, "memory_pressure", None) or (),
    )
    if flags.is_empty and corruption is None and duplication is None:
        return plan
    return (plan or FaultPlan()).merged(flags)


def _print_fault_summary(result) -> None:
    injector = result.injector
    if injector is None:
        return
    print()
    print(f"fault injection (seed={injector.plan.seed}): "
          f"{injector.retries_issued} retries issued, "
          f"{len(injector.crashed_nodes())} node(s) crashed")
    trace = injector.format_trace()
    if trace:
        print(trace)


def _make_resilience(args: argparse.Namespace):
    """A ResilienceConfig when any resilience flag departs from defaults."""
    if (getattr(args, "replication", 1) <= 1
            and not getattr(args, "checkpoint_out", None)
            and not getattr(args, "restore_from", None)
            and getattr(args, "scrub_period", None) is None
            and getattr(args, "partition_deadline", None) is None):
        return None
    from repro.resilience.manager import ResilienceConfig

    return ResilienceConfig(
        replication=args.replication,
        heartbeat_period=args.heartbeat_period,
        heartbeat_timeout=args.heartbeat_timeout,
        checkpoint_path=args.checkpoint_out,
        checkpoint_interval=args.checkpoint_interval,
        restore_from=args.restore_from,
        scrub_period=getattr(args, "scrub_period", None),
        partition_deadline=getattr(args, "partition_deadline", None),
    )


def _print_resilience_summary(result) -> None:
    if result.resilience is None:
        return
    s = result.resilience
    print()
    print(f"resilience: replication={s['replication']}, "
          f"detections={s['detections_node']} node / {s['detections_dht']} dht, "
          f"failover reads={s['failover_reads']}, "
          f"re-replicated={s['rereplication_copies']} copies "
          f"({s['rereplication_bytes']} B), "
          f"re-enactments={s['reenactments']}")
    if "scrub" in s:
        sc = s["scrub"]
        print(f"scrub: {sc['passes']} passes, "
              f"{sc['copies_checked']} copies checked, "
              f"{sc['corrupt_found']} corrupt found, "
              f"{sc['repaired']} repaired")


def _print_gray_summary(result) -> None:
    """Hedge / speculation / integrity counters for gray-failure runs."""
    injector = result.injector
    reg = result.registry
    if injector is None or reg is None or not injector.plan.has_gray_faults:
        return

    count = reg.counter_total

    print()
    print("gray failures: "
          f"corrupted deliveries={count('transport.corrupted_deliveries')}, "
          f"duplicates dropped={count('integrity.duplicates_dropped')}, "
          f"integrity re-fetches={count('integrity.refetches')}")
    print(f"hedged pulls: {count('hedge.issued')} issued, "
          f"{count('hedge.wins')} won, "
          f"{count('hedge.redundant_bytes')} redundant bytes")
    print(f"speculation: {count('workflow.speculation.launched')} launched, "
          f"{count('workflow.speculation.wins')} won, "
          f"{count('workflow.speculation.cancelled')} cancelled")


def _print_partition_summary(result) -> None:
    """Partition-tolerance counters for runs whose plan declared cuts."""
    injector = result.injector
    reg = result.registry
    if injector is None or reg is None or not injector.plan.has_partitions:
        return

    count = reg.counter_total

    print()
    print("network partitions: "
          f"stalled transfers={count('transport.partitioned_transfers')}, "
          f"suspected nodes={count('resilience.partition.suspected')}, "
          f"waited out={count('resilience.partition.waited_out')}, "
          f"deadline escalations="
          f"{count('resilience.partition.deadline_exceeded')}")
    print(f"quorum: degraded writes={count('quorum.degraded_writes')}, "
          f"failed writes={count('quorum.failed_writes')}, "
          f"degraded reads={count('quorum.degraded_reads')}, "
          f"failed reads={count('quorum.failed_reads')}, "
          f"fenced writes={count('partition.fenced_writes')}")
    print(f"heal: {count('resilience.partition.heals')} heals, "
          f"{count('partition.reconciled')} stale copies reconciled, "
          f"{count('partition.deferred_registrations')} deferred "
          f"registrations replayed")


def _print_memory_summary(result) -> None:
    """Memory-pressure counters for runs with --enforce-memory."""
    reg = result.registry
    space = result.space
    if reg is None or space is None:
        return
    if not getattr(space, "enforce_memory", False):
        return

    count = reg.counter_total

    print()
    print("memory pressure: "
          f"watermark hits={count('mem.watermark')}, "
          f"stalls={count('mem.stalls')}, "
          f"backpressure retries={count('workflow.memory.retries')}, "
          f"escalations={count('workflow.memory.escalations')}")
    print(f"reclaim ladder: gc={count('mem.gc')}, "
          f"replicas evicted={count('mem.evicted_replicas')}, "
          f"replicas skipped={count('mem.replicas_skipped')}, "
          f"spills={count('mem.spills')}, "
          f"restores={count('mem.restores')}")
    spill_bytes = count("spill.bytes")
    print(f"spill tier: {spill_bytes} bytes moved, "
          f"{space.spilled_bytes()} bytes resident at exit")


def _make_tracer(args: argparse.Namespace):
    if not getattr(args, "trace_out", None):
        return None
    if getattr(args, "trace_stream", False):
        from repro.obs.tracer import StreamingTracer

        return StreamingTracer(args.trace_out)
    from repro.obs.tracer import Tracer

    return Tracer()


def _make_timeline(args: argparse.Namespace, cluster):
    if not getattr(args, "timeline_out", None):
        return None
    from repro.obs.timeline import JsonlStreamSink, TimelineCollector

    return TimelineCollector(
        cluster,
        sample_period=args.sample_period,
        sinks=(JsonlStreamSink(args.timeline_out),),
    )


def _make_progress(args: argparse.Namespace):
    if not getattr(args, "progress", False):
        return None
    from repro.obs.timeline import ProgressReporter

    return ProgressReporter()


def _make_provenance(args: argparse.Namespace):
    if not getattr(args, "provenance_out", None):
        return None
    from repro.obs.provenance import ProvenanceLedger
    from repro.obs.timeline import JsonlStreamSink

    return ProvenanceLedger(sinks=(JsonlStreamSink(args.provenance_out),))


def _print_provenance_summary(result) -> None:
    """Counts-by-kind block for runs that carried a provenance ledger."""
    ledger = result.provenance
    if ledger is None or not ledger.enabled:
        return
    summary = ledger.summary()
    print()
    print(f"provenance: {sum(summary.values())} decision records "
          f"across {len(summary)} kinds")
    for kind, count in sorted(summary.items()):
        print(f"  {kind:<26} {count}")


#: arguments naming where observation artifacts are written: they change
#: no computed value, so the run registry's config hash leaves them out
#: (--checkpoint-out stays in: it arms the resilience manager)
_ARTIFACT_ARGS = frozenset({
    "trace_out", "metrics_out", "timeline_out", "provenance_out", "runs_db",
})


def _record_run(args: argparse.Namespace, result, tracer) -> None:
    """Append the run to the --runs-db registry, if one was requested."""
    db_path = getattr(args, "runs_db", None)
    if not db_path:
        return
    from repro.analysis.runs import RunRegistry

    # The config is what the run computes: every scalar argument except
    # where artifacts land, with the --fault-plan path replaced by the
    # effective plan (which also carries the list-valued fault flags).
    config = {
        k: v for k, v in sorted(vars(args).items())
        if isinstance(v, (str, int, float, bool, type(None)))
        and k not in _ARTIFACT_ARGS
    }
    injector = result.injector
    config["fault_plan"] = injector.plan.to_dict() if injector else None
    m = result.metrics
    metrics = {
        "sim.events": float(result.sim_events),
        "net.coupling_bytes": float(m.network_bytes(TransferKind.COUPLING)),
        "shm.coupling_bytes": float(m.shm_bytes(TransferKind.COUPLING)),
    }
    for app_id, t in sorted((result.retrieval_times or {}).items()):
        metrics[f"retrieval.app{app_id}"] = float(t)
    attribution = None
    # Critical-path attribution needs the full in-memory span graph; a
    # streaming tracer has already shipped its spans to disk.
    if tracer is not None and hasattr(tracer, "all_spans"):
        from repro.obs.critpath import SpanGraph, critical_path

        attribution = critical_path(
            SpanGraph.from_tracer(tracer)
        ).attribution()
    with RunRegistry(db_path) as registry:
        run_id = registry.record_run(
            command=args.command,
            scenario=getattr(args, "scenario", None) or args.command,
            mapper=result.mapper_name,
            config=config,
            seed=(result.injector.plan.seed
                  if result.injector is not None else 0),
            makespan=(result.engine.sim.now
                      if result.engine is not None else None),
            metrics=metrics,
            attribution=attribution,
            ledger_path=getattr(args, "provenance_out", None),
            trace_path=getattr(args, "trace_out", None),
        )
    print(f"run #{run_id} recorded in {db_path}; inspect with: "
          f"repro-insitu runs show {run_id} --db {db_path}")


def _write_obs(args: argparse.Namespace, result, tracer, timeline=None,
               ledger=None) -> None:
    if tracer is not None:
        if hasattr(tracer, "write_chrome"):
            tracer.write_chrome(args.trace_out)
            n = len(tracer.chrome_events())
        else:
            # Streaming tracer: events are already on disk, just close out.
            tracer.close()
            n = tracer.events_written
        print(f"\ntrace written to {args.trace_out} "
              f"({n} events); "
              f"inspect with: repro-insitu trace-report {args.trace_out}")
    if timeline is not None:
        timeline.close()
        print(f"timeline written to {args.timeline_out} "
              f"({timeline.samples} samples, {timeline.link_samples} link "
              f"samples); render with: repro-insitu timeline "
              f"{args.timeline_out}")
    if ledger is not None:
        ledger.close()
        print(f"provenance ledger written to {args.provenance_out} "
              f"({ledger.records_written} records); query with: "
              f"repro-insitu explain slowest --ledger {args.provenance_out}")
    if getattr(args, "metrics_out", None) and result.registry is not None:
        result.registry.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


def _run_one(args: argparse.Namespace, scenario_name: str) -> int:
    scenario = _build(scenario_name, args.scale, args.dist)
    print(scenario.describe())
    tracer = _make_tracer(args)
    timeline = _make_timeline(args, scenario.cluster)
    ledger = _make_provenance(args)
    result = run_scenario(
        scenario, args.mapper,
        stencil_iterations=args.stencil, time_transfers=args.time,
        fault_plan=_load_fault_plan(args), tracer=tracer,
        resilience=_make_resilience(args),
        producer_compute=args.compute_seconds,
        consumer_compute=args.compute_seconds,
        hedge_factor=args.hedge_factor,
        speculation_threshold=args.speculation_threshold,
        write_quorum=args.write_quorum,
        read_quorum=args.read_quorum,
        timeline=timeline,
        progress=_make_progress(args),
        provenance=ledger,
        enforce_memory=args.enforce_memory,
        memory_per_node=args.memory_per_node,
        high_watermark=args.high_watermark,
        spill_capacity=args.spill_capacity,
    )
    m = result.metrics
    rows = []
    for kind in (TransferKind.COUPLING, TransferKind.INTRA_APP, TransferKind.CONTROL):
        rows.append(
            [kind.value, mib(m.network_bytes(kind)), mib(m.shm_bytes(kind))]
        )
    print()
    print(format_table(
        ["kind", "network MiB", "shm MiB"], rows,
        title=f"transfer volumes under {args.mapper} mapping",
    ))
    if args.time and result.retrieval_times:
        print()
        rows = [
            [result.scenario.apps[0].name if app_id == 1 else
             next(a.name for a in result.scenario.apps if a.app_id == app_id),
             ms(t)]
            for app_id, t in sorted(result.retrieval_times.items())
        ]
        print(format_table(["consumer", "retrieval ms"], rows))
    _print_fault_summary(result)
    _print_gray_summary(result)
    _print_partition_summary(result)
    _print_memory_summary(result)
    _print_resilience_summary(result)
    _print_provenance_summary(result)
    _write_obs(args, result, tracer, timeline, ledger)
    _record_run(args, result, tracer)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    rows = []
    last_result = None
    last_tracer = None
    last_timeline = None
    last_ledger = None
    for mapper in (ROUND_ROBIN, DATA_CENTRIC):
        scenario = _build(args.scenario, args.scale, args.dist)
        # Trace, timeline, and ledger stream to one file each, so only
        # the data-centric run — the paper's contribution — is
        # instrumented.
        instrument = mapper == DATA_CENTRIC
        tracer = _make_tracer(args) if instrument else None
        timeline = (
            _make_timeline(args, scenario.cluster) if instrument else None
        )
        ledger = _make_provenance(args) if instrument else None
        result = run_scenario(
            scenario, mapper,
            stencil_iterations=args.stencil, time_transfers=args.time,
            fault_plan=_load_fault_plan(args), tracer=tracer,
            resilience=_make_resilience(args),
            producer_compute=args.compute_seconds,
            consumer_compute=args.compute_seconds,
            hedge_factor=args.hedge_factor,
            speculation_threshold=args.speculation_threshold,
            write_quorum=args.write_quorum,
            read_quorum=args.read_quorum,
            timeline=timeline,
            progress=_make_progress(args),
            provenance=ledger,
            enforce_memory=args.enforce_memory,
            memory_per_node=args.memory_per_node,
            high_watermark=args.high_watermark,
            spill_capacity=args.spill_capacity,
        )
        last_result = result
        last_tracer = tracer
        last_timeline = timeline
        last_ledger = ledger
        m = result.metrics
        row = [
            mapper,
            mib(m.network_bytes(TransferKind.COUPLING)),
            mib(m.shm_bytes(TransferKind.COUPLING)),
        ]
        if args.time:
            row.append(ms(max(result.retrieval_times.values(), default=0.0)))
        rows.append(row)
    headers = ["mapper", "coupling net MiB", "coupling shm MiB"]
    if args.time:
        headers.append("retrieval ms")
    print(format_table(headers, rows, title=f"{args.scenario} scenario ({args.dist})"))
    red = reduction(rows[0][1], rows[1][1])
    print(f"\nnetwork coupled-data reduction: {red:.0%}")
    if last_result is not None:
        _print_fault_summary(last_result)
        _print_gray_summary(last_result)
        _print_partition_summary(last_result)
        _print_memory_summary(last_result)
        _print_resilience_summary(last_result)
        _print_provenance_summary(last_result)
        _write_obs(args, last_result, last_tracer, last_timeline, last_ledger)
        _record_run(args, last_result, last_tracer)
    return 0


def _run_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import TraceReport

    report = TraceReport.from_files(args.trace, args.metrics)
    print(report.format(top=args.top))
    return 0


def _run_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.ascii import heat_strip, sparkline
    from repro.errors import ReproError
    from repro.obs.timeline import read_timeline

    try:
        header, records = read_timeline(args.path)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        samples = [r for r in records if r.get("kind") == "sample"]
        links = [r for r in records if r.get("kind") == "links"]
        num_nodes = int(header["num_nodes"])
        cpn = int(header["cores_per_node"])
        groups = int(header["groups"])
        print(f"timeline {args.path}: {len(samples)} samples, "
              f"{len(links)} link samples")
        print(f"cluster: {num_nodes} nodes x {cpn} cores, "
              f"{groups} node groups, "
              f"sample period {header['sample_period']}s")
        if not samples:
            print("no samples to render")
            return 0
        t_lo, t_hi = samples[0]["t"], samples[-1]["t"]
        width = max(1, min(args.width, len(samples)))

        def columns(series: list) -> list:
            # Mean-pool the series into `width` time columns.
            n = len(series)
            out = []
            for c in range(width):
                lo = c * n // width
                hi = max(lo + 1, (c + 1) * n // width)
                chunk = series[lo:hi]
                out.append(sum(chunk) / len(chunk))
            return out

        group_size = [0] * groups
        for node in range(num_nodes):
            group_size[node * groups // num_nodes] += 1
        print()
        print(f"per-node-group busy fraction, "
              f"t = {t_lo:.3f}s .. {t_hi:.3f}s "
              f"(shades: ' ' idle .. '█' full)")
        for g in range(groups):
            cap = group_size[g] * cpn
            series = [
                min(1.0, r["busy"][g] / cap) if cap else 0.0 for r in samples
            ]
            print(f"  group {g:>4} |{heat_strip(columns(series))}|")
        print()
        print("  queue depth  "
              + sparkline(columns([r["queue"] for r in samples])))
        print("  resident B   "
              + sparkline(columns([r["resident"] for r in samples])))
        if links:
            net = [r["net_util"] for r in links]
            mem = [r["mem_util"] for r in links]
            print()
            print(f"link occupancy over {len(links)} coupling samples:")
            print(f"  net: mean {sum(net) / len(net):6.1%}  "
                  f"peak {max(net):6.1%}")
            print(f"  mem: mean {sum(mem) / len(mem):6.1%}  "
                  f"peak {max(mem):6.1%}")
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        print(f"error: malformed timeline record ({exc!r})", file=sys.stderr)
        return 1
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    from repro.analysis.perfhistory import run_history

    profiles, verdict, text = run_history(
        out=args.out,
        directory=args.directory,
        scenarios=args.scenario,
        label=args.label,
        utilization=args.utilization,
    )
    print(text, end="")
    if args.out:
        print(f"\nsnapshot written to {args.out}")
    if verdict is None:
        if args.out:
            print("\nno baseline: no previous BENCH_*.json snapshot in "
                  f"{args.directory!r}; recorded this run as the first one")
        else:
            print("\nno baseline: no previous BENCH_*.json snapshot in "
                  f"{args.directory!r}; pass --out BENCH_1.json to record "
                  "the first one")
    if args.fail_on_regression and verdict is not None and not verdict.passed:
        return 1
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.explain import (
        Ledger,
        explain_bundle,
        explain_object,
        explain_slowest,
    )

    if args.what == "bundle" and args.target is None:
        print("error: 'explain bundle' needs a bundle id", file=sys.stderr)
        return 2
    if args.what == "object" and args.target is None:
        print("error: 'explain object' needs an object name", file=sys.stderr)
        return 2
    try:
        ledger = Ledger.load(args.ledger)
        if args.what == "bundle":
            print(explain_bundle(ledger, int(args.target)))
        elif args.what == "object":
            print(explain_object(ledger, args.target))
        else:
            print(explain_slowest(ledger, n=args.top))
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_runs(args: argparse.Namespace) -> int:
    from repro.analysis.runs import RunRegistry
    from repro.errors import AnalysisError

    if args.action == "show" and len(args.ids) != 1:
        print("error: 'runs show' needs exactly one run id", file=sys.stderr)
        return 2
    if args.action == "diff" and len(args.ids) != 2:
        print("error: 'runs diff' needs exactly two run ids", file=sys.stderr)
        return 2
    if not os.path.isfile(args.db):
        print(f"error: no run registry at {args.db}", file=sys.stderr)
        return 1

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.6g}"

    try:
        with RunRegistry(args.db) as registry:
            if args.action == "list":
                rows = [
                    [str(r["id"]), r["command"], r["mapper"], str(r["seed"]),
                     fmt(r["makespan"]), r["config_hash"][:10], r["label"]]
                    for r in registry.list_runs()
                ]
                print(format_table(
                    ["id", "command", "mapper", "seed", "makespan",
                     "config", "label"],
                    rows,
                    title=f"{len(rows)} recorded run(s) in {args.db}",
                ))
            elif args.action == "show":
                run = registry.get_run(args.ids[0])
                print(f"run #{run['id']}: {run['command']} "
                      f"({run['mapper']}, seed={run['seed']})")
                print(f"  config hash: {run['config_hash']}")
                print(f"  makespan:    {fmt(run['makespan'])}s")
                for key in ("label", "ledger_path", "trace_path"):
                    if run[key]:
                        print(f"  {key.replace('_', ' ')}: {run[key]}")
                print(format_table(
                    ["metric", "value"],
                    [[name, fmt(value)]
                     for name, value in sorted(run["metrics"].items())],
                ))
            else:
                a, b = args.ids
                rows = [
                    [name, fmt(va), fmt(vb),
                     "-" if va is None or vb is None else f"{vb - va:+.6g}"]
                    for name, va, vb in registry.diff(a, b)
                ]
                print(format_table(
                    ["metric", f"run {a}", f"run {b}", "delta"], rows,
                    title=f"run {a} vs run {b}",
                ))
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_dag(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    dag = build_workflow(parse_dag(text))
    print(f"valid workflow: {len(dag.apps)} apps, {len(dag.edges)} edges, "
          f"{len(dag.bundles)} bundles")
    print(f"bundle schedule: {dag.bundle_schedule()}")
    print()
    from repro.workflow.visualize import render_dag

    print(render_dag(dag))
    print()
    print(write_dag(dag), end="")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import DIST_PATTERNS, run_sweep

    configs = [
        (f"{pd}/{cd}", lambda pd=pd, cd=cd: _build(args.scenario, args.scale, pd)
         if pd == cd else _build_pair(args.scenario, args.scale, pd, cd))
        for pd, cd in DIST_PATTERNS
    ]
    result = run_sweep(configs, time_transfers=args.time)
    print(f"{args.scenario} scenario, distribution-pattern sweep "
          f"({args.scale} scale)\n")
    print(result.reduction_table())
    if args.time:
        print()
        print(result.timing_table())
    return 0


def _build_pair(scenario_name: str, scale: str, pd: str, cd: str):
    if scenario_name == "concurrent":
        builder = paper_concurrent if scale == "paper" else small_concurrent
    else:
        builder = paper_sequential if scale == "paper" else small_sequential
    return builder(producer_dist=pd, consumer_dist=cd)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace_stream", False) and not args.trace_out:
        parser.error("--trace-stream requires --trace-out")
    for flag, name in (("write_quorum", "--write-quorum"),
                       ("read_quorum", "--read-quorum")):
        q = getattr(args, flag, None)
        if q is not None and q > getattr(args, "replication", 1):
            parser.error(
                f"{name} {q} exceeds --replication "
                f"{getattr(args, 'replication', 1)}: a quorum cannot "
                f"outnumber the copies"
            )
    if not getattr(args, "enforce_memory", False):
        for flag, name in (("memory_per_node", "--memory-per-node"),
                           ("high_watermark", "--high-watermark"),
                           ("spill_capacity", "--spill-capacity"),
                           ("memory_pressure", "--memory-pressure")):
            if getattr(args, flag, None) is not None:
                parser.error(
                    f"{name} has no effect without --enforce-memory"
                )
    if args.command in ("concurrent", "sequential"):
        return _run_one(args, args.command)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "trace-report":
        return _run_trace_report(args)
    if args.command == "timeline":
        return _run_timeline(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "runs":
        return _run_runs(args)
    return _run_dag(args)


if __name__ == "__main__":
    sys.exit(main())
