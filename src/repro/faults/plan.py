"""Deterministic fault schedules (the production-resilience layer).

The paper's evaluation assumes a failure-free Jaguar XT5 run; a production
deployment must keep answering ``get_seq``/``get_cont`` queries and
re-enacting bundles when nodes, links, or DHT cores misbehave. A
:class:`FaultPlan` describes *what goes wrong and when* as plain data:

* :class:`NodeCrash` — a compute node dies at simulated time ``t``; its
  execution clients and object stores are lost.
* :class:`DHTCoreFailure` — the DHT service on one core fails at time ``t``
  (the core's Hilbert interval is reassigned to its successor and the
  location tables are rebuilt from surviving stores).
* :class:`LinkDegradation` — a node pair's network path drops a fraction of
  transfer attempts (``loss_factor``) and/or delivers a fraction of its
  nominal bandwidth (``bandwidth_factor``).
* ``drop_probability`` / ``corrupt_probability`` — global per-attempt
  failure probabilities for network transfers (dropped and corrupted
  attempts are both retransmitted).

Gray failures — degradation instead of clean failure (SIM-SITU argues a
faithful in-situ model must include degraded resources):

* :class:`SlowNode` — a node computes and serves at a fraction of nominal
  speed over a time window (work inside the window takes ``factor`` times
  longer).
* :class:`DataCorruption` — deliveries over a link (or any link, when the
  endpoints are left as wildcards) arrive with flipped payload bits at some
  probability; the transport's checksum verification catches them.
* :class:`DuplicateDelivery` — a link replays messages: the same payload
  arrives twice and the receiver must deduplicate idempotently.
* :class:`NetworkPartition` — the interconnect splits into mutually
  unreachable islands (node groups or torus link groups) over a start/heal
  window, optionally flapping; every node stays alive, only reachability
  is cut.
* :class:`MemoryPressure` — a node's usable object-store memory shrinks to
  ``factor`` of nominal over a time window (a co-located tenant or OS
  balloon grabbing pages), forcing the space's reclaim ladder (GC, replica
  eviction, spill to the deep-memory tier) and ``mem.wait`` backpressure.

Everything is deterministic from ``seed``: replaying the same plan against
the same scenario yields byte-identical metrics and identical event traces.
Plans round-trip through JSON for the CLI's ``--fault-plan`` flag.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.errors import FaultPlanError, RetryPolicy

__all__ = [
    "NodeCrash",
    "DHTCoreFailure",
    "LinkDegradation",
    "SlowNode",
    "DataCorruption",
    "DuplicateDelivery",
    "NetworkPartition",
    "MemoryPressure",
    "FaultPlan",
]


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise FaultPlanError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class NodeCrash:
    """Compute node ``node`` crashes at simulated time ``time``."""

    node: int
    time: float

    def __post_init__(self) -> None:
        _non_negative("node", self.node)
        _non_negative("crash time", self.time)


@dataclass(frozen=True)
class DHTCoreFailure:
    """The DHT service on ``core`` fails at simulated time ``time``."""

    core: int
    time: float

    def __post_init__(self) -> None:
        _non_negative("core", self.core)
        _non_negative("failure time", self.time)


@dataclass(frozen=True)
class LinkDegradation:
    """Degraded connectivity between two nodes (symmetric).

    ``loss_factor`` is the probability one transfer attempt between the pair
    is lost and must be retransmitted; ``bandwidth_factor`` scales the
    effective bandwidth of the pair's path (1.0 = nominal).
    """

    src_node: int
    dst_node: int
    loss_factor: float = 0.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_factor < 1.0:
            raise FaultPlanError(
                f"loss_factor must be in [0, 1), got {self.loss_factor}"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultPlanError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )

    def matches(self, node_a: int, node_b: int) -> bool:
        return {node_a, node_b} == {self.src_node, self.dst_node}


@dataclass(frozen=True)
class _NodeWindow:
    """Shared shape of per-node degradations over ``[start, start+duration)``.

    Subclasses add a ``factor`` field and name themselves in ``_label`` so
    validation errors say which kind of window was malformed.
    """

    node: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        _non_negative("node", self.node)
        _non_negative(f"{self._label} start", self.start)
        if self.duration <= 0:
            raise FaultPlanError(
                f"{self._label} duration must be positive, got {self.duration}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class SlowNode(_NodeWindow):
    """Node ``node`` runs ``factor`` times slower during a time window.

    The slowdown is multiplicative on compute *and* service: work executed
    inside ``[start, start + duration)`` consumes wall-clock time at
    ``factor`` times its nominal rate, and pulls served by the node take
    ``factor`` times their modelled transfer time (which is what arms the
    hedging and speculation machinery).
    """

    factor: float = 2.0

    _label = "slowdown"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise FaultPlanError(
                f"slowdown factor must be > 1, got {self.factor}"
            )


@dataclass(frozen=True)
class _LinkFault:
    """Shared shape of per-link probabilistic gray faults.

    ``src_node``/``dst_node`` may be ``None`` as wildcards ("any link"),
    which is how the CLI's global ``--corruption``/``--duplication`` knobs
    are encoded. Matching is symmetric, like :class:`LinkDegradation`.
    """

    src_node: "int | None" = None
    dst_node: "int | None" = None
    probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("src_node", "dst_node"):
            if getattr(self, name) is not None:
                _non_negative(name, getattr(self, name))
        if not 0.0 <= self.probability < 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1), got {self.probability}"
            )

    def matches(self, node_a: int, node_b: int) -> bool:
        if self.src_node is None and self.dst_node is None:
            return True
        declared = {self.src_node, self.dst_node} - {None}
        return declared <= {node_a, node_b}


@dataclass(frozen=True)
class DataCorruption(_LinkFault):
    """Deliveries over a matching link arrive bit-flipped with ``probability``."""


@dataclass(frozen=True)
class DuplicateDelivery(_LinkFault):
    """Deliveries over a matching link are replayed with ``probability``."""


@dataclass(frozen=True)
class NetworkPartition:
    """The interconnect is cut into islands over ``[start, start+duration)``.

    Exactly one of two cut shapes must be declared:

    * ``groups`` — node-set cut: each group is an island. While the cut is
      active, nodes in different declared groups cannot reach each other,
      and (symmetric cuts only) declared groups cannot reach undeclared
      nodes either. Nodes sharing a group — or both undeclared — stay
      connected.
    * ``links`` — torus link-group cut: the listed directed torus links
      ``(node_a, node_b)`` go down; a node pair is unreachable while its
      dimension-ordered route crosses a cut link (routes are deterministic,
      so this is a fixed set of severed pairs per topology).

    ``symmetric=False`` makes the cut one-way: with groups it requires
    exactly two groups and severs only ``groups[0] -> groups[1]``; with
    links only the listed directions go down (a symmetric link cut severs
    both directions of each listed link).

    ``flap_period`` makes the partition flap: within the window the cut
    alternates ``flap_period`` seconds down, ``flap_period`` seconds up,
    starting down at ``start``.
    """

    start: float
    duration: float
    groups: tuple[tuple[int, ...], ...] = ()
    links: tuple[tuple[int, int], ...] = ()
    symmetric: bool = True
    flap_period: "float | None" = None

    def __post_init__(self) -> None:
        _non_negative("partition start", self.start)
        if self.duration <= 0:
            raise FaultPlanError(
                f"partition duration must be positive, got {self.duration}"
            )
        groups = tuple(tuple(int(n) for n in g) for g in self.groups)
        links = tuple((int(a), int(b)) for a, b in self.links)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "links", links)
        if bool(groups) == bool(links):
            raise FaultPlanError(
                "a partition must declare exactly one of groups or links"
            )
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise FaultPlanError("partition groups must be non-empty")
            for n in g:
                _non_negative("group node", n)
                if n in seen:
                    raise FaultPlanError(
                        f"node {n} appears in more than one partition group"
                    )
                seen.add(n)
        for a, b in links:
            if a < 0 or b < 0:
                raise FaultPlanError(
                    f"link endpoints must be non-negative, got ({a}, {b})"
                )
            if a == b:
                raise FaultPlanError(f"link ({a}, {b}) is a self-loop")
        if not self.symmetric and groups and len(groups) != 2:
            raise FaultPlanError(
                "an asymmetric group cut requires exactly two groups, "
                f"got {len(groups)}"
            )
        if self.flap_period is not None and self.flap_period <= 0:
            raise FaultPlanError(
                f"flap_period must be positive, got {self.flap_period}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, time: float) -> bool:
        """True while the cut is down at ``time`` (flap-aware)."""
        if not self.start <= time < self.end:
            return False
        if self.flap_period is None:
            return True
        # Flapping alternates down/up sub-windows, starting down.
        return int((time - self.start) // self.flap_period) % 2 == 0

    def cut_windows(self) -> tuple[tuple[float, float], ...]:
        """The ``[down, up)`` sub-windows in which the cut is active."""
        if self.flap_period is None:
            return ((self.start, self.end),)
        windows = []
        t = self.start
        while t < self.end:
            windows.append((t, min(t + self.flap_period, self.end)))
            t += 2 * self.flap_period
        return tuple(windows)

    def _group_of(self, node: int) -> "int | None":
        for i, g in enumerate(self.groups):
            if node in g:
                return i
        return None

    def severs(self, src_node: int, dst_node: int, time: float) -> bool:
        """True when this cut severs ``src -> dst`` at ``time``.

        Group cuts are fully resolved here; link cuts report only whether
        the *direct* link is down — callers holding a topology must test
        every link of the route (see ``FaultInjector.reachable``).
        """
        if src_node == dst_node or not self.active_at(time):
            return False
        if self.groups:
            gs, gd = self._group_of(src_node), self._group_of(dst_node)
            if gs == gd:
                return False
            if not self.symmetric:
                return gs == 0 and gd == 1
            # Symmetric: any crossing between distinct islands (one side
            # being the undeclared remainder counts as its own island).
            return True
        return self.link_down(src_node, dst_node, time)

    def link_down(self, node_a: int, node_b: int, time: float) -> bool:
        """True when the directed torus link ``a -> b`` is cut at ``time``."""
        if not self.links or not self.active_at(time):
            return False
        if (node_a, node_b) in self.links:
            return True
        return self.symmetric and (node_b, node_a) in self.links


@dataclass(frozen=True)
class MemoryPressure(_NodeWindow):
    """Node ``node``'s usable store memory shrinks during a time window.

    While ``[start, start + duration)`` is active, the per-core object
    stores of the node admit puts against ``factor`` times their nominal
    capacity (a co-located tenant, OS balloon, or burst of kernel pages
    eating into the in-situ budget). Shrinking below current residency
    triggers the space's reclaim ladder proactively; producers that still
    cannot fit block on the sim clock (``mem.wait`` backpressure) instead
    of crashing.
    """

    factor: float = 0.5

    _label = "pressure"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.factor < 1.0:
            raise FaultPlanError(
                f"pressure factor must be in (0, 1), got {self.factor}"
            )


#: metadata of fault classes added after the first plan format: their empty
#: tuples are omitted from ``to_dict`` so older plan files keep their bytes
_OMIT_EMPTY = "omit_empty"
_later_class = partial(field, default=(), metadata={_OMIT_EMPTY: True})

#: plan fields that tune how faults play out but inject nothing themselves
_KNOBS = ("seed", "max_retries", "retry_timeout", "retry_backoff")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seed-deterministic failure scenario.

    Serialization, emptiness, tuple normalisation and merging are derived
    from the dataclass fields: a new fault class is one frozen dataclass
    plus one ``tuple[...]`` field here.
    """

    seed: int = 0
    node_crashes: tuple[NodeCrash, ...] = ()
    dht_failures: tuple[DHTCoreFailure, ...] = ()
    link_degradations: tuple[LinkDegradation, ...] = ()
    slow_nodes: tuple[SlowNode, ...] = _later_class()
    corruptions: tuple[DataCorruption, ...] = _later_class()
    duplications: tuple[DuplicateDelivery, ...] = _later_class()
    partitions: tuple[NetworkPartition, ...] = _later_class()
    memory_pressure: tuple[MemoryPressure, ...] = _later_class()
    #: per-attempt probability any network transfer is dropped outright
    drop_probability: float = 0.0
    #: per-attempt probability a delivered transfer arrives corrupted
    corrupt_probability: float = 0.0
    #: failed transfers are re-issued up to this many times before giving up
    max_retries: int = 3
    #: first retry waits this long (seconds) ...
    retry_timeout: float = 1e-4
    #: ... and each further retry multiplies the wait by this factor
    retry_backoff: float = 2.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "corrupt_probability"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1), got {p}")
        _non_negative("max_retries", self.max_retries)
        _non_negative("retry_timeout", self.retry_timeout)
        if self.retry_backoff < 1.0:
            raise FaultPlanError(
                f"retry_backoff must be >= 1, got {self.retry_backoff}"
            )
        # Normalize list inputs to tuples so plans stay hashable/immutable.
        for name in _FAULT_FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (framework runs untouched)."""
        return all(
            getattr(self, f.name) == f.default
            for f in fields(self) if f.name not in _KNOBS
        )

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """This plan plus ``other``'s faults.

        Fault tuples concatenate (this plan's entries first); every scalar
        — seed, global probabilities, retry knobs — stays this plan's.
        """
        return replace(self, **{
            name: getattr(self, name) + getattr(other, name)
            for name in _FAULT_FIELDS
        })

    @property
    def has_gray_faults(self) -> bool:
        """True when any degraded-mode (non-crash-stop) fault is declared."""
        return bool(self.slow_nodes or self.corruptions or self.duplications)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The plan's transfer-retry knobs as one :class:`RetryPolicy`."""
        return RetryPolicy(
            max_retries=self.max_retries,
            timeout=self.retry_timeout,
            backoff=self.retry_backoff,
        )

    @property
    def has_partitions(self) -> bool:
        """True when any network partition is declared (gates every
        partition code path, keeping partition-free runs byte-identical)."""
        return bool(self.partitions)

    @property
    def has_memory_pressure(self) -> bool:
        """True when any memory-pressure window is declared (gates every
        capacity-shrink code path, keeping pressure-free runs untouched)."""
        return bool(self.memory_pressure)

    def capacity_factor(self, node: int, time: float) -> float:
        """Usable-capacity fraction of ``node`` at ``time`` (1.0 clean)."""
        return min(
            (m.factor for m in self.memory_pressure
             if m.node == node and m.active_at(time)),
            default=1.0,
        )

    def node_pair_severed(self, src_node: int, dst_node: int,
                          time: float) -> bool:
        """True when any declared *group* cut severs ``src -> dst``.

        Link-group cuts need the torus routes and are resolved by
        ``FaultInjector.reachable``; this plan-level check covers the
        topology-free part.
        """
        return any(
            p.severs(src_node, dst_node, time)
            for p in self.partitions if p.groups
        )

    def link_cut(self, node_a: int, node_b: int, time: float) -> bool:
        """True when any declared link cut downs torus link ``a -> b``."""
        return any(
            p.link_down(node_a, node_b, time)
            for p in self.partitions if p.links
        )

    @property
    def has_link_partitions(self) -> bool:
        return any(p.links for p in self.partitions)

    def loss_factor(self, node_a: int, node_b: int) -> float:
        """Worst loss factor declared for a node pair (0.0 when clean)."""
        return max(
            (d.loss_factor for d in self.link_degradations if d.matches(node_a, node_b)),
            default=0.0,
        )

    def bandwidth_factor(self, node_a: int, node_b: int) -> float:
        """Worst bandwidth factor declared for a node pair (1.0 when clean)."""
        return min(
            (
                d.bandwidth_factor
                for d in self.link_degradations
                if d.matches(node_a, node_b)
            ),
            default=1.0,
        )

    def slowdown(self, node: int, time: float) -> float:
        """Multiplicative slowdown active on ``node`` at ``time`` (1.0 clean)."""
        return max(
            (s.factor for s in self.slow_nodes
             if s.node == node and s.active_at(time)),
            default=1.0,
        )

    def slow_windows(self, node: int) -> "tuple[SlowNode, ...]":
        """The declared slowdown windows of one node, in start order."""
        return tuple(sorted(
            (s for s in self.slow_nodes if s.node == node),
            key=lambda s: (s.start, s.end, s.factor),
        ))

    def corruption_probability(self, node_a: int, node_b: int) -> float:
        """Worst payload-corruption probability declared for a node pair."""
        return max(
            (c.probability for c in self.corruptions if c.matches(node_a, node_b)),
            default=0.0,
        )

    def duplication_probability(self, node_a: int, node_b: int) -> float:
        """Worst message-replay probability declared for a node pair."""
        return max(
            (d.probability for d in self.duplications if d.matches(node_a, node_b)),
            default=0.0,
        )

    def attempt_failure_probability(self, node_a: int, node_b: int) -> float:
        """Probability one network attempt between the pair must be re-sent.

        Drops, corruption, and link loss are independent failure modes:
        ``p = 1 - (1-drop)(1-corrupt)(1-loss)``.
        """
        return 1.0 - (
            (1.0 - self.drop_probability)
            * (1.0 - self.corrupt_probability)
            * (1.0 - self.loss_factor(node_a, node_b))
        )

    # -- (de)serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if getattr(self, f.name) or not f.metadata.get(_OMIT_EMPTY)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data)}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys: {sorted(unknown)}")
        try:
            return _decode(cls, data)
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") from exc


#: the fault-tuple fields of :class:`FaultPlan`, in declaration order
_FAULT_FIELDS = tuple(f.name for f in fields(FaultPlan) if f.default == ())


def _plain(value: Any) -> Any:
    """JSON-ready form of a plan value: dataclasses become dicts (every
    field, in declaration order) and tuples become lists, recursively."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _coercer(hint: Any) -> "Callable[[Any], Any]":
    """How one JSON value becomes a field of type ``hint``.

    ``int``/``float``/``bool`` coerce; ``X | None`` keeps ``None`` (the
    wildcard endpoints); a tuple of fault dataclasses decodes each entry;
    anything else passes through for the dataclass's own ``__post_init__``
    to normalise (the partition ``groups``/``links`` tuples).
    """
    if hint in (int, float, bool):
        return hint
    args = get_args(hint)
    if type(None) in args:
        inner = _coercer(args[0])
        return lambda v: None if v is None else inner(v)
    if get_origin(hint) is tuple and is_dataclass(args[0]):
        return lambda v: tuple(_decode(args[0], item) for item in v)
    return lambda v: v


@cache
def _field_codecs(cls: type) -> "list[tuple[str, Callable, Any]]":
    hints = get_type_hints(cls)
    return [(f.name, _coercer(hints[f.name]), f.default) for f in fields(cls)]


def _decode(cls: type, data: dict) -> Any:
    """Build ``cls`` from a JSON object: required fields raise ``KeyError``
    when absent, defaulted ones fall back to the dataclass default."""
    return cls(**{
        name: coerce(data[name] if default is MISSING
                     else data.get(name, default))
        for name, coerce, default in _field_codecs(cls)
    })
