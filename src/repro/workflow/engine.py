"""The workflow engine: DAG enactment over the discrete-event simulator.

Responsibilities (paper §III-A): manage "the correct enactment and progress
of DAG-based scientific workflows", track client availability, allocate
clients to the component applications, and drive the initial distribution of
computation tasks.

Bundles launch when every parent application has completed. At launch the
engine runs the bundle's task mapper (round-robin by default; install a
data-centric mapper per bundle with :meth:`WorkflowEngine.set_bundle_mapper`),
forms per-application communicator groups via the ``comm_split`` emulation,
and invokes each application's registered routine — the analogue of the
paper's statically linked MPI subroutines. A routine returns its simulated
duration in seconds (or ``None`` for instantaneous), which schedules the
application's completion event.

Mapper context values may be zero-argument callables: they are resolved at
*launch* time, which lets a sequential consumer bundle reference the Data
Lookup service that only has content once the producer has run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.mapping.base import MappingResult, TaskMapper
from repro.core.mapping.roundrobin import RoundRobinMapper
from repro.core.task import AppSpec
from repro.errors import (
    CheckpointError,
    DataLostError,
    LookupError_,
    MemoryPressureError,
    NetworkPartitionError,
    QuorumError,
    RetryPolicy,
    ScheduleError,
    StaleWriteError,
    WorkflowError,
)
from repro.hardware.cluster import Cluster
from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import Span
from repro.sim.engine import SimEngine
from repro.workflow.clients import CommGroup, form_groups
from repro.workflow.dag import WorkflowDAG
from repro.workflow.server import WorkflowManagementServer

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs.tracer import NullTracer, Tracer

__all__ = ["AppContext", "AppRun", "TraceEvent", "WorkflowEngine"]


@dataclass(frozen=True)
class AppContext:
    """Everything an application routine can see when it runs."""

    app: AppSpec
    group: CommGroup
    mapping: MappingResult
    start_time: float
    engine: "WorkflowEngine"
    #: the bundle's dispatch generation at launch. Producers thread it into
    #: ``put_seq`` so stale-write fencing can reject a superseded (e.g.
    #: healed-minority) enactment's commits. 0 on the never-redispatched
    #: path, keeping clean runs byte-identical.
    generation: int = 0

    def core_of_rank(self, rank: int) -> int:
        return self.group.core(rank)


#: An application body: runs at launch, returns simulated duration (seconds).
AppRoutine = Callable[[AppContext], "float | None"]


@dataclass
class AppRun:
    """Execution record of one application."""

    app_id: int
    start: float = 0.0
    finish: float = 0.0
    mapping: MappingResult | None = None


@dataclass(frozen=True)
class TraceEvent:
    """One entry of the engine's execution trace."""

    time: float
    event: str          # "bundle_launched" | "app_started" | "app_completed"
    bundle: int
    app_id: int = -1
    detail: str = ""

    def __str__(self) -> str:
        who = f" app={self.app_id}" if self.app_id >= 0 else ""
        extra = f" ({self.detail})" if self.detail else ""
        return f"[t={self.time:10.6f}] {self.event} bundle={self.bundle}{who}{extra}"


@dataclass(frozen=True)
class RetryRung:
    """One row of :data:`RETRY_TABLE`: how a failed enactment is retried.

    A retry supersedes the failed enactment (bumped generation, aborted
    spans, released clients) and relaunches the bundle after
    ``policy.delay(attempt)`` sim-seconds, billed to ``category`` on the
    critical path. Rows with the same ``name`` share one per-bundle attempt
    budget; once it is spent the bundle moves to the ``escalate`` rung, or
    fails when there is none. Every rung waits a fixed 0.05 s (backoff 1.0:
    ``0.05 * 1.0 ** k == 0.05`` exactly, so retry delays never drift).
    """

    #: rung name; also the attempt-budget key and the exhaustion message word
    name: str
    errors: "tuple[type[Exception], ...]"
    #: attempt budget and delay; None for the fence row, which has no budget
    policy: "RetryPolicy | None"
    #: engine trace event, provenance kind and critpath category of a retry
    event: str
    kind: str
    category: str
    #: registry counter bumped on every failure of this class
    counter: "str | None" = None
    #: rung taking over once the budget is spent (None: the bundle fails)
    escalate: "RetryRung | None" = None
    #: (counter, fault-trace event, provenance kind) marking an escalation
    escalation: "tuple[str, str, str] | None" = None
    #: the budget resets when the bundle completes
    resets: bool = True
    #: the engine's ``partition_deadline`` also bounds the wait
    timed: bool = False
    #: extra provenance fields of a retry record
    fields: "tuple[tuple[str, Any], ...]" = ()


#: The data-loss rung: the resilience manager re-enacts the lost data's
#: producer in parallel, so a backed-off relaunch finds the space
#: repopulated. Its budget spans the bundle's whole life.
_DATA_LOSS = RetryRung(
    "data-loss", (DataLostError,), RetryPolicy(8, 0.05, 1.0),
    "bundle_data_loss_retry", "bundle.data_loss_retry", "recovery",
    resets=False,
)
#: An active cut blocked a put or get: the data (or its missing quorum
#: acks) still exists on the far side, so the bundle waits the cut out. Past
#: ``partition_deadline`` the manager has fenced the far side off and
#: re-replicated, so the data-loss rung repopulates from the majority.
_PARTITION = RetryRung(
    "partition", (NetworkPartitionError,), RetryPolicy(64, 0.05, 1.0),
    "bundle_partition_wait", "bundle.partition_wait", "partition.wait",
    counter="workflow.partition.retries", escalate=_DATA_LOSS,
    escalation=("workflow.partition.escalations", "partition_wait_escalated",
                "bundle.partition_escalate"),
    timed=True, fields=(("quorum", False),),
)
_QUORUM = replace(
    _PARTITION, errors=(QuorumError,), category="quorum.degraded",
    counter="workflow.quorum.retries", fields=(("quorum", True),),
)
#: A put (or spill restore) was not admitted: nothing is lost, the store is
#: over its watermark, so the bundle waits for consumers to drain space.
_MEMORY = RetryRung(
    "memory", (MemoryPressureError,), RetryPolicy(64, 0.05, 1.0),
    "bundle_memory_wait", "bundle.memory_wait", "mem.wait",
    counter="workflow.memory.retries", escalate=_DATA_LOSS,
    escalation=("workflow.memory.escalations", "memory_wait_escalated",
                "bundle.memory_escalate"),
)
#: The enactment's writes were fenced off: a higher write generation owns
#: the objects (the healed-minority case). A superseded instance stands
#: down; the bundle's latest generation relaunches to clear the fence.
_FENCED = RetryRung(
    "stale", (StaleWriteError,), None,
    "bundle_stale_abandoned", "bundle.stale_abandon", "partition.wait",
    counter="workflow.partition.stale_abandons",
)

#: Every failure class the engine retries, one row each.
RETRY_TABLE = (_DATA_LOSS, _PARTITION, _QUORUM, _MEMORY, _FENCED)

#: failures a network cut can cause at mapping time (missing coverage only
#: counts while a cut is open; see ``WorkflowEngine._rung_of``)
_CUT_ERRORS = (NetworkPartitionError, QuorumError, ScheduleError, LookupError_)

#: every failure a launch may retry
_RETRYABLE = (
    *(e for rung in RETRY_TABLE for e in rung.errors), ScheduleError, LookupError_
)


class WorkflowEngine:
    """Enacts one workflow DAG on a cluster."""

    def __init__(
        self,
        dag: WorkflowDAG,
        cluster: Cluster,
        server: WorkflowManagementServer | None = None,
        sim: SimEngine | None = None,
        injector: "FaultInjector | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        defer_crash_redispatch: bool = False,
        speculation_threshold: "float | None" = None,
        registry: "object | None" = None,
        provenance: "object | None" = None,
    ) -> None:
        self.dag = dag
        self.cluster = cluster
        self.server = server if server is not None else WorkflowManagementServer(cluster)
        self.server.register_all()
        if sim is not None:
            self.sim = sim
            if injector is not None and not injector.armed:
                injector.arm(sim)
        else:
            self.sim = SimEngine(fault_injector=injector, tracer=tracer)
        self.tracer = tracer if tracer is not None else self.sim.tracer
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = lambda: self.sim.now
        self.injector = injector
        # With a failure detector in the loop (resilience mode), crash
        # re-dispatch waits for *detection*: the resilience manager calls
        # handle_node_crash once the detector declares the node dead.
        if injector is not None and not defer_crash_redispatch:
            injector.add_node_crash_listener(self.handle_node_crash)
        self._routines: dict[int, AppRoutine] = {}
        self._mappers: dict[int, tuple[TaskMapper, dict[str, Any]]] = {}
        self.default_mapper: TaskMapper = RoundRobinMapper()
        self.runs: dict[int, AppRun] = {}
        self.trace: list[TraceEvent] = []
        #: bundle index -> number of post-fault re-enactments (degraded mode)
        self.reenactments: dict[int, int] = {}
        self._gen: dict[int, int] = {}
        #: (bundle, generation) pairs already enacted — two recovery paths
        #: scheduling a re-dispatch at the same instant (e.g. both nodes of
        #: a fenced minority declared dead together) must launch it once
        self._launched: set[tuple[int, int]] = set()
        self._completed: set[int] = set()
        #: per-bundle sim-time budget for waiting a cut out before escalating
        #: to the data-loss rung (None = only the retry-count budget applies;
        #: the resilience manager mirrors its configured deadline here)
        self.partition_deadline: "float | None" = None
        #: (bundle, rung name) -> attempts spent from that rung's budget
        self._attempts: dict[tuple[int, str], int] = {}
        #: bundle -> sim time its current partition wait began
        self._wait_since: dict[int, float] = {}
        #: zero-arg callable returning accrued deep-memory (write, read)
        #: seconds since the last call; the experiment driver binds it to
        #: ``CoDS.drain_spill_seconds`` so spill traffic stretches the app
        #: over real simulated time (None keeps launches byte-identical)
        self.spill_probe: "Callable[[], tuple[float, float]] | None" = None
        self._executed = False
        # Open async spans per enactment generation (tracing only).
        self._bundle_spans: dict[tuple[int, int], Span] = {}
        self._app_spans: dict[tuple[int, int], Span] = {}
        # Last *completed* span per bundle (tracing only): child bundle
        # launches link back to it, giving traces explicit DAG dep edges.
        self._done_bundle_spans: dict[int, Span] = {}
        # -- straggler speculation (inert unless a threshold is set) --
        if speculation_threshold is not None and speculation_threshold < 1.0:
            raise WorkflowError(
                f"speculation threshold must be >= 1, got {speculation_threshold}"
            )
        #: an app running beyond ``threshold x`` the median of its bundle
        #: peers on a slowed node is speculatively re-enacted on a spare
        #: core; the first finisher wins (None disables speculation)
        self.speculation_threshold = speculation_threshold
        self.registry = registry
        self._spec_spans: dict[tuple[int, int], Span] = {}
        # -- causal provenance (inert behind one `enabled` check) --
        #: decision ledger; NULL_LEDGER keeps unledgered runs byte-identical
        self.provenance = provenance if provenance is not None else NULL_LEDGER
        #: bundle -> id of its latest ledger record (linear why-chain tail)
        self._prov_last: dict[int, int] = {}
        #: the workflow.submit record id (root cause of first dispatches)
        self._prov_root: "int | None" = None
        #: bundles that already emitted their terminal bundle.complete
        self._prov_completed: set[int] = set()

    def _prov_chain(self, kind: str, bundle: int, **fields: Any) -> int:
        """Append a provenance record to ``bundle``'s linear why-chain."""
        rid = self.provenance.record(
            kind, cause=self._prov_last.get(bundle, self._prov_root),
            bundle=bundle, **fields,
        )
        self._prov_last[bundle] = rid
        return rid

    def _count(self, name: "str | None") -> None:
        """Bump registry counter ``name``, created on first use."""
        if self.registry is not None and name is not None:
            self.registry.counter(name).inc()

    # -- configuration ----------------------------------------------------------------

    def set_routine(self, app_id: int, routine: AppRoutine) -> None:
        if app_id not in self.dag.apps:
            raise WorkflowError(f"unknown app id {app_id}")
        self._routines[app_id] = routine

    def set_bundle_mapper(
        self, bundle_index: int, mapper: TaskMapper, **context: Any
    ) -> None:
        """Install a mapper (+ context) for one bundle. Context values that
        are zero-arg callables are resolved at launch time."""
        if not 0 <= bundle_index < len(self.dag.bundles):
            raise WorkflowError(f"bundle index {bundle_index} out of range")
        self._mappers[bundle_index] = (mapper, dict(context))

    def bundle_index_of(self, app_id: int) -> int:
        for i, b in enumerate(self.dag.bundles):
            if app_id in b:
                return i
        raise WorkflowError(f"unknown app id {app_id}")

    # -- enactment ----------------------------------------------------------------------

    def run(self, restore: "dict | None" = None) -> dict[int, AppRun]:
        """Execute the whole workflow; returns per-application run records.

        ``restore`` (a :meth:`checkpoint_state` dict) resumes a previously
        checkpointed enactment instead of starting fresh: completed work is
        replayed as bookkeeping, in-flight applications re-schedule their
        completion events (their routines' side effects are part of the
        checkpoint's space manifest, so they do not re-execute), and only
        not-yet-launched bundles run their routines from here on. The sim
        clock must already stand at the checkpoint's capture time.
        """
        if self._executed:
            raise WorkflowError("engine already ran; build a new one to re-run")
        self._executed = True
        n = len(self.dag.bundles)
        self._indeg = [len(self.dag.bundle_parents(i)) for i in range(n)]
        self._bundle_children: dict[int, set[int]] = {i: set() for i in range(n)}
        for i in range(n):
            for p in self.dag.bundle_parents(i):
                self._bundle_children[p].add(i)
        self._apps_pending: dict[int, int] = {}
        if self.provenance.enabled:
            self._prov_root = self.provenance.record(
                "workflow.submit", bundles=n, apps=len(self.dag.apps),
            )
        if restore is not None:
            self._restore(restore)
        else:
            for i in range(n):
                if self._indeg[i] == 0:
                    self.sim.schedule(0.0, self._launch_bundle, i)
        self.sim.run()
        missing = set(self.dag.apps) - set(self.runs)
        if missing:
            raise WorkflowError(f"apps never ran (broken DAG?): {sorted(missing)}")
        return self.runs

    @property
    def makespan(self) -> float:
        if not self.runs:
            return 0.0
        return max(r.finish for r in self.runs.values())

    # -- internals ------------------------------------------------------------------------

    def _resolve_context(self, context: dict[str, Any]) -> dict[str, Any]:
        return {k: (v() if callable(v) else v) for k, v in context.items()}

    def format_trace(self) -> str:
        """The execution trace as one line per event."""
        return "\n".join(str(ev) for ev in self.trace)

    def _launch_bundle(self, index: int) -> None:
        bundle = self.dag.bundles[index]
        apps = [self.dag.apps[a] for a in bundle.app_ids]
        gen = self._gen.setdefault(index, 0)
        if (index, gen) in self._launched:
            return  # a concurrent recovery path already enacted this gen
        self._launched.add((index, gen))
        # Dispatch is recorded before mapping, so a mapping-time partition
        # retry still has a dispatch ancestor in the why-chain.
        if self.provenance.enabled:
            self._prov_chain(
                "bundle.dispatch", index, gen=gen,
                apps=list(bundle.app_ids),
            )
        tracer = self.tracer
        if tracer.enabled:
            bspan = tracer.begin_async(
                "workflow.bundle", bundle=index, gen=gen,
                apps=list(bundle.app_ids),
            )
            self._bundle_spans[(index, gen)] = bspan
            for parent in sorted(self.dag.bundle_parents(index)):
                pspan = self._done_bundle_spans.get(parent)
                if pspan is not None:
                    tracer.link(pspan, bspan, "dep")
        self.trace.append(TraceEvent(
            time=self.sim.now, event="bundle_launched", bundle=index,
            detail=f"apps={list(bundle.app_ids)}",
        ))
        mapper, context = self._mappers.get(index, (self.default_mapper, {}))
        resolved = self._resolve_context(context)
        # Concurrent bundles must not collide: restrict to idle clients.
        resolved.setdefault("available_cores", self.server.idle_cores())
        try:
            if tracer.enabled:
                with tracer.span(
                    "workflow.map", bundle=index, mapper=type(mapper).__name__
                ):
                    mapping = mapper.map_bundle(apps, self.cluster, **resolved)
            else:
                mapping = mapper.map_bundle(apps, self.cluster, **resolved)
        except _CUT_ERRORS as exc:
            # Data-locality lookups cross the DHT; an active cut stalls the
            # mapping decision the same way it stalls the bundle body.
            self._retry(index, gen, exc)
            return
        if self.provenance.enabled:
            self._prov_chain(
                "bundle.place", index, gen=gen,
                mapper=type(mapper).__name__,
                nodes=sorted(mapping.nodes_used()),
                alternatives=len(resolved.get("available_cores") or ()),
            )
        groups = form_groups(apps, mapping)
        for app in apps:
            for rank in range(app.ntasks):
                self.server.assign_task(mapping.core_of(app.app_id, rank),
                                        app.app_id, rank)
        self._apps_pending[index] = len(apps)
        now = self.sim.now
        # Gray-failure bookkeeping for this launch: nominal and effective
        # (slow-node inflated) durations feed the straggler detector.
        slow = (
            self.injector is not None and bool(self.injector.plan.slow_nodes)
        )
        base_durs: dict[int, float] = {}
        eff_durs: dict[int, float] = {}
        try:
            for app in apps:
                self._completed.discard(app.app_id)
                ctx = AppContext(
                    app=app,
                    group=groups[app.app_id],
                    mapping=mapping,
                    start_time=now,
                    engine=self,
                    generation=gen,
                )
                if tracer.enabled:
                    aspan = tracer.begin_async(
                        "workflow.app", app=app.app_id, bundle=index, gen=gen,
                        app_name=app.name, tasks=app.ntasks,
                    )
                    self._app_spans[(app.app_id, gen)] = aspan
                    tracer.link(self._bundle_spans[(index, gen)], aspan,
                                "dispatch")
                routine = self._routines.get(app.app_id, lambda _ctx: 0.0)
                if tracer.enabled:
                    with tracer.span(
                        "workflow.routine", app=app.app_id, bundle=index
                    ) as rspan:
                        tracer.link(aspan, rspan, "execute")
                        duration = routine(ctx)
                else:
                    duration = routine(ctx)
                duration = 0.0 if duration is None else float(duration)
                if duration < 0:
                    raise WorkflowError(
                        f"routine of app {app.app_id} returned negative duration"
                    )
                spill_w = spill_r = 0.0
                if self.spill_probe is not None:
                    spill_w, spill_r = self.spill_probe()
                finish = now + duration
                if slow and duration > 0:
                    # Work on slowed nodes takes longer: walk the plan's
                    # slowdown windows for the app's node set.
                    app_nodes = {
                        self.cluster.node_of_core(c)
                        for c in mapping.cores_of_app(app.app_id).values()
                    }
                    finish = self.injector.slowed_finish(
                        app_nodes, now, duration
                    )
                    if finish > now + duration:
                        self.injector.record(
                            "slow_node_hit",
                            f"app={app.app_id} nominal={duration:.6g}s "
                            f"effective={finish - now:.6g}s",
                        )
                base_durs[app.app_id] = duration
                eff_durs[app.app_id] = finish - now
                self.runs[app.app_id] = AppRun(
                    app_id=app.app_id, start=now,
                    finish=finish + spill_w + spill_r,
                    mapping=mapping,
                )
                self.trace.append(TraceEvent(
                    time=now, event="app_started", bundle=index,
                    app_id=app.app_id,
                    detail=f"{app.ntasks} tasks on "
                           f"{len(mapping.nodes_used())} nodes",
                ))
                if spill_w or spill_r:
                    # Deep-memory traffic extends the app past its compute
                    # window: compute hop, then spill-write and read-back
                    # hops, each billed to its own critical-path category.
                    self.sim.schedule(
                        finish - now, self._advance_spill,
                        index, app.app_id, gen, spill_w, spill_r,
                        category="compute",
                    )
                else:
                    self.sim.schedule(
                        finish - now, self._complete_app,
                        index, app.app_id, gen,
                        category="compute",
                    )
            if self.speculation_threshold is not None and slow and len(apps) > 1:
                self._arm_speculation(index, gen, base_durs, eff_durs)
        except _RETRYABLE as exc:
            self._retry(index, gen, exc)

    def _rung_of(self, exc: Exception) -> "RetryRung | None":
        """The retry-table row covering ``exc``; None for a fatal failure.

        Degraded metadata during an active cut looks like missing coverage
        (registrations deferred on cut-off DHT cores), so a schedule or
        lookup failure while a cut is open waits the partition out.
        """
        for rung in RETRY_TABLE:
            if isinstance(exc, rung.errors):
                return rung
        if (
            isinstance(exc, (ScheduleError, LookupError_))
            and self.injector is not None
            and self.injector.plan.has_partitions
            and self.injector.partition_active()
        ):
            return _PARTITION
        return None

    def _retry(self, index: int, gen: int, exc: Exception) -> None:
        """Retry bundle ``index`` after its enactment ``gen`` raised ``exc``.

        Spends one attempt of the failure's :data:`RETRY_TABLE` rung,
        escalating while a budget is spent, then supersedes the enactment.
        A failure no row covers re-raises.
        """
        rung = self._rung_of(exc)
        if rung is None:
            raise exc
        self._count(rung.counter)
        if rung.policy is None:
            # Fenced: no budget. Only the bundle's latest generation
            # relaunches (after the partition delay) to clear the fence.
            if self.injector is not None:
                self.injector.record(
                    "stale_bundle_abandoned", f"bundle={index} gen={gen} ({exc})"
                )
            latest = gen == self._gen.get(index, 0)
            self._supersede(
                index, gen, rung.event, f"gen={gen} ({exc})", rung.kind,
                _PARTITION.policy.delay(1) if latest else None, rung.category,
                gen=gen, error=type(exc).__name__,
            )
            return
        now = self.sim.now
        chain = [rung.name]
        while True:
            key = (index, rung.name)
            attempts = self._attempts[key] = self._attempts.get(key, 0) + 1
            waited = deadline = None
            if rung.timed:
                waited = now - self._wait_since.setdefault(index, now)
                deadline = self.partition_deadline
            if attempts <= rung.policy.max_retries and (
                deadline is None or waited < deadline
            ):
                break
            if rung.escalate is None:
                raise WorkflowError(
                    f"bundle {index} gave up after {rung.policy.max_retries} "
                    f"{rung.name} retries ({' → '.join(chain)}, "
                    f"{type(exc).__name__}: {exc})"
                ) from exc
            counter, fault, kind = rung.escalation
            self._count(counter)
            extra = {} if waited is None else {"waited": waited}
            if self.injector is not None:
                note = "" if waited is None else f" waited={waited:.6g}s"
                self.injector.record(
                    fault, f"bundle={index}{note} attempts={attempts}"
                )
            if self.provenance.enabled:
                self._prov_chain(kind, index, **extra, attempts=attempts)
            rung = rung.escalate
            chain.append(rung.name)
        self._supersede(
            index, gen, rung.event, f"attempt={attempts} ({exc})", rung.kind,
            rung.policy.delay(attempts), rung.category,
            gen=gen + 1, attempt=attempts, **dict(rung.fields),
            error=type(exc).__name__,
        )

    def _supersede(
        self, index: int, old_gen: int, event: str, detail: str, kind: str,
        delay: "float | None", category: "str | None" = None,
        **fields: Any,
    ) -> None:
        """Abort enactment ``old_gen`` of bundle ``index``: close its spans,
        free its clients, log ``event`` and ledger ``kind``. With a ``delay``
        the generation bumps and the bundle relaunches after it, billed to
        ``category``; ``delay=None`` only stands the enactment down."""
        if delay is not None:
            self._gen[index] = old_gen + 1
        span = self._bundle_spans.pop((index, old_gen), None)
        if span is not None:
            self.tracer.end_async(span, aborted=True)
        for app_id in self.dag.bundles[index].app_ids:
            span = self._app_spans.pop((app_id, old_gen), None)
            if span is not None:
                self.tracer.end_async(span, aborted=True)
            self.server.release_app(app_id)
        self.trace.append(TraceEvent(
            time=self.sim.now, event=event, bundle=index, detail=detail,
        ))
        if self.provenance.enabled:
            self._prov_chain(kind, index, **fields)
        if delay is not None:
            self.sim.schedule(
                delay, self._launch_bundle, index, category=category
            )

    def _advance_spill(
        self, index: int, app_id: int, gen: int,
        spill_w: float, spill_r: float,
    ) -> None:
        """Walk an app's deep-memory tail: spill writes, then read-backs.

        Each hop is its own simulated event so the ``spill.write`` and
        ``spill.read`` intervals tile the app's extension exactly.
        """
        if spill_w:
            self.sim.schedule(
                spill_w, self._advance_spill, index, app_id, gen,
                0.0, spill_r, category="spill.write",
            )
            return
        if spill_r:
            self.sim.schedule(
                spill_r, self._complete_app, index, app_id, gen,
                category="spill.read",
            )
            return
        self._complete_app(index, app_id, gen)

    # -- straggler speculation -----------------------------------------------------

    def _arm_speculation(
        self,
        index: int,
        gen: int,
        base_durs: dict[int, float],
        eff_durs: dict[int, float],
    ) -> None:
        """Schedule straggler checks for a freshly launched bundle.

        An app whose effective (slow-node inflated) duration exceeds
        ``speculation_threshold x`` the median of its bundle peers is a
        straggler candidate: at the moment the threshold passes — when a
        healthy peer would long have finished — a speculative copy launches
        on a spare core and races the original (first finisher wins).
        """
        from statistics import median

        for app_id, eff in eff_durs.items():
            peers = [d for a, d in eff_durs.items() if a != app_id]
            med = median(peers)
            if med <= 0.0 or eff <= base_durs[app_id]:
                continue
            detect = self.speculation_threshold * med
            if eff <= detect:
                continue
            self.sim.schedule(
                detect, self._launch_speculation,
                index, app_id, gen, base_durs[app_id],
                category="speculation",
            )

    def _launch_speculation(
        self, index: int, app_id: int, gen: int, base_duration: float
    ) -> None:
        """Start the speculative copy of a straggling app, if still useful."""
        if gen != self._gen.get(index, 0) or app_id in self._completed:
            return
        idle = self.server.idle_cores()
        if not idle:
            return  # no spare capacity to speculate on
        # Prefer the least-slowed spare node; core id breaks ties.
        core = min(
            idle,
            key=lambda c: (
                self.injector.slowdown_factor(self.cluster.node_of_core(c)),
                c,
            ),
        )
        node = self.cluster.node_of_core(core)
        now = self.sim.now
        spec_finish = self.injector.slowed_finish([node], now, base_duration)
        self._count("workflow.speculation.launched")
        self.injector.record(
            "speculation_launched", f"app={app_id} core={core}"
        )
        self.trace.append(TraceEvent(
            time=now, event="speculation_launched", bundle=index,
            app_id=app_id, detail=f"core={core}",
        ))
        if self.provenance.enabled:
            self._prov_chain(
                "bundle.speculate", index, app=app_id, core=core, node=node,
            )
        if self.tracer.enabled:
            sspan = self.tracer.begin_async(
                "speculation.run", app=app_id, bundle=index, gen=gen, core=core,
            )
            orig = self._app_spans.get((app_id, gen))
            if orig is not None:
                self.tracer.link(orig, sspan, "speculate")
            self._spec_spans[(app_id, gen)] = sspan
        self.sim.schedule(
            spec_finish - now, self._complete_speculation, index, app_id, gen,
            category="speculation",
        )

    def _complete_speculation(self, index: int, app_id: int, gen: int) -> None:
        """The speculative copy finished; win the race unless the original
        already did (the loser is simply cancelled)."""
        if gen != self._gen.get(index, 0):
            return
        span = self._spec_spans.pop((app_id, gen), None)
        if app_id in self._completed:
            self._count("workflow.speculation.cancelled")
            self.trace.append(TraceEvent(
                time=self.sim.now, event="speculation_cancelled", bundle=index,
                app_id=app_id, detail="original finished first",
            ))
            if span is not None:
                self.tracer.end_async(span, aborted=True)
            return
        self._count("workflow.speculation.wins")
        self.injector.record("speculation_won", f"app={app_id}")
        run = self.runs.get(app_id)
        if run is not None:
            run.finish = self.sim.now
        self.trace.append(TraceEvent(
            time=self.sim.now, event="speculation_won", bundle=index,
            app_id=app_id,
        ))
        if self.provenance.enabled:
            self._prov_chain("bundle.speculation_won", index, app=app_id)
        if span is not None:
            self.tracer.end_async(span)
        self._complete_app(index, app_id, gen)

    def _complete_app(self, bundle_index: int, app_id: int, gen: int = 0) -> None:
        if gen != self._gen.get(bundle_index, 0):
            # Completion of an enactment superseded by a fault re-dispatch.
            return
        if app_id in self._completed:
            # The speculation race's first finisher already completed this
            # app; the straggling original is cancelled on arrival.
            return
        self._completed.add(app_id)
        self.trace.append(TraceEvent(
            time=self.sim.now, event="app_completed", bundle=bundle_index,
            app_id=app_id,
        ))
        span = self._app_spans.pop((app_id, gen), None)
        if span is not None:
            self.tracer.end_async(span)
        self.server.release_app(app_id)
        self._apps_pending[bundle_index] -= 1
        if self._apps_pending[bundle_index] == 0:
            # A later cut blocking this bundle again starts a fresh wait
            # window; the old one must not pre-expire its deadline.
            self._wait_since.pop(bundle_index, None)
            for rung in RETRY_TABLE:
                if rung.resets:
                    self._attempts.pop((bundle_index, rung.name), None)
            span = self._bundle_spans.pop((bundle_index, gen), None)
            if span is not None:
                self.tracer.end_async(span)
                self._done_bundle_spans[bundle_index] = span
            done_rid: "int | None" = None
            if self.provenance.enabled:
                # Exactly one terminal record per bundle: a bundle that
                # completes again after a post-completion re-enactment
                # (crash regenerated its output) is "regenerated".
                kind = (
                    "bundle.regenerated"
                    if bundle_index in self._prov_completed
                    else "bundle.complete"
                )
                self._prov_completed.add(bundle_index)
                done_rid = self._prov_chain(kind, bundle_index, gen=gen)
            for child in sorted(self._bundle_children[bundle_index]):
                self._indeg[child] -= 1
                if self._indeg[child] == 0:
                    # A child's first dispatch is caused by the parent
                    # completion that unblocked it.
                    if done_rid is not None and child not in self._prov_last:
                        self._prov_last[child] = done_rid
                    self.sim.schedule(0.0, self._launch_bundle, child)

    # -- checkpoint / restart --------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-serializable snapshot of enactment progress.

        Captures run records (with task placements), per-bundle generation
        and pending counters, and which applications have completed — enough
        for :meth:`run` with ``restore=`` to resume without re-executing any
        routine that already ran (their side effects live in the space
        manifest captured alongside this state).
        """
        if not self._executed:
            raise CheckpointError("cannot checkpoint before enactment starts")
        runs = []
        for app_id, run in sorted(self.runs.items()):
            placement = (
                sorted(run.mapping.cores_of_app(app_id).items())
                if run.mapping is not None else []
            )
            runs.append({
                "app_id": app_id,
                "bundle": self.bundle_index_of(app_id),
                "start": run.start,
                "finish": run.finish,
                "placement": placement,
                "done": app_id in self._completed,
            })
        return {
            "time": self.sim.now,
            "runs": runs,
            "gen": {str(i): g for i, g in self._gen.items()},
            "reenactments": {str(i): n for i, n in self.reenactments.items()},
            "apps_pending": {str(i): p for i, p in self._apps_pending.items()},
            "indeg": list(self._indeg),
        }

    def _restore(self, state: dict) -> None:
        now = self.sim.now
        if state["time"] > now + 1e-9:
            raise CheckpointError(
                f"checkpoint was captured at t={state['time']}, but the sim "
                f"clock stands at t={now}; build the SimEngine with "
                "start_time=checkpoint.time"
            )
        self._indeg = [int(v) for v in state["indeg"]]
        self._gen = {int(k): v for k, v in state["gen"].items()}
        self.reenactments = {
            int(k): v for k, v in state["reenactments"].items()
        }
        self._apps_pending = {
            int(k): v for k, v in state["apps_pending"].items()
        }
        # Pre-checkpoint crashes were armed as pre-existing state; their
        # execution clients must leave the pool the same way.
        if self.injector is not None:
            for node in sorted(self.injector.crashed_nodes()):
                for core in self.cluster.cores_of_node(node):
                    if self.server.is_registered(core):
                        self.server.unregister_client(core)
        for rec in state["runs"]:
            app_id = rec["app_id"]
            mapping = None
            if rec["placement"]:
                mapping = MappingResult(self.cluster)
                for rank, core in rec["placement"]:
                    mapping.assign((app_id, int(rank)), int(core))
            self.runs[app_id] = AppRun(
                app_id=app_id, start=rec["start"], finish=rec["finish"],
                mapping=mapping,
            )
            if rec["done"]:
                self._completed.add(app_id)
                continue
            # In flight at capture time: re-occupy its cores and re-schedule
            # the completion (the routine itself already ran pre-checkpoint).
            index = rec["bundle"]
            if mapping is not None:
                for rank, core in mapping.cores_of_app(app_id).items():
                    self.server.assign_task(core, app_id, rank)
            self.sim.schedule_at(
                max(rec["finish"], now), self._complete_app, index, app_id,
                self._gen.get(index, 0),
            )
        # Bundles whose parents completed but whose zero-delay launch event
        # was still queued at capture time never made it into the state:
        # launch anything unblocked and not yet launched.
        for i in range(len(self.dag.bundles)):
            if self._indeg[i] == 0 and i not in self._apps_pending:
                self.sim.schedule(0.0, self._launch_bundle, i)

    # -- fault handling -----------------------------------------------------------------

    def reenact_bundle(self, index: int, reason: str = "") -> None:
        """Re-enact one bundle, superseding any in-flight enactment.

        The last rung of the recovery ladder: when every replica of an
        object is gone, re-running the bundle that produced it regenerates
        the data. Completions of the superseded enactment are ignored via
        the generation counter; a completed bundle simply runs again (its
        puts are idempotent), without re-triggering its children.
        """
        if not 0 <= index < len(self.dag.bundles):
            raise WorkflowError(f"bundle index {index} out of range")
        if not hasattr(self, "_apps_pending"):
            raise WorkflowError("engine has not started enactment")
        old_gen = self._gen.get(index, 0)
        self.reenactments[index] = self.reenactments.get(index, 0) + 1
        self._supersede(
            index, old_gen, "bundle_reenacted", reason, "bundle.reenact", 0.0,
            gen=old_gen + 1, rung="reenactment", reason=reason,
        )

    def handle_node_crash(self, node: int) -> None:
        """Re-dispatch work hit by a node crash.

        The crashed node's execution clients leave the pool, and every
        bundle with an in-flight application that had tasks on the node is
        re-enacted: its mapper re-runs over the surviving idle cores (the
        paper's mapping machinery doubles as the re-dispatch policy) and all
        of its applications re-execute. Completions of the superseded
        enactment are ignored via a per-bundle generation counter.

        The fault injector calls this when the crash fires; in resilience
        mode (``defer_crash_redispatch=True``) the failure detector decides
        *when* the workflow learns of a crash instead, and the resilience
        manager calls this at detection time.
        """
        now = self.sim.now
        crashed = set(self.cluster.cores_of_node(node))
        self.trace.append(TraceEvent(
            time=now, event="node_crashed", bundle=-1, detail=f"node={node}",
        ))
        for core in sorted(crashed):
            if self.server.is_registered(core):
                self.server.unregister_client(core)
        if not hasattr(self, "_apps_pending"):
            return  # crash before enactment started: clients are gone, no re-dispatch
        for index, pending in list(self._apps_pending.items()):
            if pending <= 0:
                continue
            bundle = self.dag.bundles[index]
            hit = False
            for app_id in bundle.app_ids:
                run = self.runs.get(app_id)
                if run is None or run.finish <= now or run.mapping is None:
                    continue
                if not crashed.isdisjoint(run.mapping.cores_of_app(app_id).values()):
                    hit = True
                    break
            if not hit:
                continue
            old_gen = self._gen.get(index, 0)
            self.reenactments[index] = self.reenactments.get(index, 0) + 1
            self._supersede(
                index, old_gen, "bundle_reenacted",
                f"after crash of node {node}", "bundle.reenact", 0.0,
                gen=old_gen + 1, rung="redispatch",
                reason=f"crash of node {node}",
            )
