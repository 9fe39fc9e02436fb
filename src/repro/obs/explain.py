"""Query engine over a provenance ledger: answer *why* questions.

Loads a ``--provenance-out`` JSONL ledger (see
:mod:`repro.obs.provenance`) and renders three kinds of answers for the
``repro-insitu explain`` subcommand:

``explain bundle <id>``
    The completed bundle's why-chain — every decision record from the
    ``workflow.submit`` root through dispatches, partition waits,
    recovery re-dispatches, and retries to the terminal
    ``bundle.complete`` — as an ASCII tree with per-hop sim-time deltas.
    The deltas of the bundle's own hops telescope exactly to its
    end-to-end latency, and each hop is aligned with the critical-path
    category (:mod:`repro.obs.critpath`) its stall would be billed to.

``explain object <name>``
    The object's placement history: every put (copies, degraded
    quorums), replica-selection failover, and generation fence that
    concerned it, in sim-time order.

``explain slowest [-n N]``
    Completed bundles ranked by end-to-end latency (first dispatch to
    terminal record), with hop counts and the dominant stall category.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.obs.provenance import read_ledger


def _bar_chart(labels, values, unit=""):
    # Deferred: repro.analysis pulls in the experiment drivers (and
    # through them repro.cods), which import repro.obs — a module-level
    # import here would be circular.
    from repro.analysis.ascii import bar_chart

    return bar_chart(labels, values, unit=unit)

__all__ = [
    "KIND_CATEGORY",
    "Ledger",
    "category_of",
    "explain_bundle",
    "explain_object",
    "explain_slowest",
]

#: Provenance record kind -> the critical-path category its time would be
#: attributed to (:data:`repro.obs.critpath.CATEGORIES` plus the gray,
#: partition and memory extensions). The alignment lets a why-chain hop be
#: read next to a ``repro-insitu trace-report`` attribution line.
KIND_CATEGORY = {
    "workflow.submit": "wait",
    "bundle.dispatch": "wait",
    "bundle.place": "dht",
    "bundle.partition_wait": "partition.wait",
    "bundle.partition_escalate": "partition.wait",
    "bundle.stale_abandon": "partition.wait",
    "bundle.memory_wait": "mem.wait",
    "bundle.memory_escalate": "mem.wait",
    "bundle.data_loss_retry": "recovery",
    "bundle.reenact": "recovery",
    "bundle.speculate": "speculation",
    "bundle.speculation_won": "speculation",
    "bundle.complete": "compute",
    "bundle.regenerated": "compute",
    "object.put": "dht",
    "object.expose": "dht",
    "object.replica_select": "recovery",
    "object.fence": "partition.wait",
    "object.quorum_fail": "quorum.degraded",
    "detector.verdict": "recovery",
    "recovery.ladder": "recovery",
    "recovery.heal": "partition.heal",
}


def category_of(kind: str) -> str:
    """Critical-path category a record kind aligns with."""
    if kind in KIND_CATEGORY:
        return KIND_CATEGORY[kind]
    if kind.startswith("fault."):
        return "recovery"
    return "wait"


#: structural keys never echoed in a rendered hop
_STRUCTURAL = ("id", "t", "kind", "cause", "bundle")


def _fields_of(rec: dict[str, Any]) -> str:
    """A record's payload as compact ``k=v`` pairs."""
    parts = []
    for key, value in rec.items():
        if key in _STRUCTURAL:
            continue
        parts.append(f"{key}={value}")
    return " ".join(parts)


class Ledger:
    """A loaded provenance ledger with id-indexed causal navigation."""

    def __init__(
        self, header: dict[str, Any], records: list[dict[str, Any]]
    ) -> None:
        self.header = header
        self.records = records
        self.by_id = {r["id"]: r for r in records}

    @classmethod
    def load(cls, path: str) -> "Ledger":
        return cls(*read_ledger(path))

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def why_chain(self, rid: int) -> list[dict[str, Any]]:
        """The causal chain ending at record ``rid``, root first.

        Follows ``cause`` links back until a record with no cause (the
        ``workflow.submit`` root). Raises :class:`ReproError` on a
        dangling cause or a cycle (both impossible in a ledger that
        passed :func:`repro.obs.provenance.read_ledger`).
        """
        rec = self.by_id.get(rid)
        if rec is None:
            raise ReproError(f"no record with id {rid} in ledger")
        chain: list[dict[str, Any]] = []
        seen: set[int] = set()
        while rec is not None:
            if rec["id"] in seen:
                raise ReproError(f"cause cycle at record {rec['id']}")
            seen.add(rec["id"])
            chain.append(rec)
            cause = rec.get("cause")
            if cause is None:
                break
            rec = self.by_id.get(cause)
            if rec is None:
                raise ReproError(f"dangling cause {cause} in ledger")
        chain.reverse()
        return chain

    def terminal_of(self, bundle: int) -> "dict[str, Any] | None":
        """The bundle's single terminal ``bundle.complete`` record."""
        for rec in self.records:
            if rec["kind"] == "bundle.complete" and rec.get("bundle") == bundle:
                return rec
        return None

    def completed_bundles(self) -> list[int]:
        return sorted(
            rec["bundle"] for rec in self.records
            if rec["kind"] == "bundle.complete"
        )

    def span_of(self, bundle: int) -> "tuple[float, float] | None":
        """(first dispatch t, terminal t) of a completed bundle."""
        term = self.terminal_of(bundle)
        if term is None:
            return None
        first = next(
            rec for rec in self.records
            if rec["kind"] == "bundle.dispatch" and rec.get("bundle") == bundle
        )
        return first["t"], term["t"]


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

def explain_bundle(ledger: Ledger, bundle: int) -> str:
    """Render the why-chain of a completed bundle as an ASCII tree."""
    term = ledger.terminal_of(bundle)
    if term is None:
        done = ledger.completed_bundles()
        raise ReproError(
            f"bundle {bundle} has no terminal record in this ledger"
            + (f" (completed bundles: {done})" if done else "")
        )
    chain = ledger.why_chain(term["id"])
    own = [rec for rec in chain if rec.get("bundle") == bundle]
    t0, t1 = own[0]["t"], term["t"]
    lines = [
        f"why bundle {bundle} completed at t={t1:.6f}s "
        f"({len(chain)} hops, {t1 - t0:.6f}s end to end)"
    ]
    per_category: dict[str, float] = {}
    prev_t: "float | None" = None
    for depth, rec in enumerate(chain):
        cat = category_of(rec["kind"])
        delta = 0.0 if prev_t is None else rec["t"] - prev_t
        prev_t = rec["t"]
        if rec.get("bundle") == bundle and rec is not own[0]:
            per_category[cat] = per_category.get(cat, 0.0) + delta
        indent = "   " * depth
        fields = _fields_of(rec)
        lines.append(
            f"{indent}└─ t={rec['t']:.6f}  +{delta:.6f}s "
            f"[{cat:<15}] {rec['kind']}"
            + (f"  {fields}" if fields else "")
        )
    own_span = sum(
        own[i + 1]["t"] - own[i]["t"] for i in range(len(own) - 1)
    )
    lines.append(
        f"in-bundle hop deltas sum to {own_span:.6f}s "
        f"= bundle {bundle}'s end-to-end latency"
    )
    if per_category:
        cats = sorted(per_category)
        lines.append("")
        lines.append("stall attribution along the chain:")
        lines.append(_bar_chart(
            cats, [per_category[c] for c in cats], unit="s",
        ))
    return "\n".join(lines)


def explain_object(ledger: Ledger, name: str) -> str:
    """Render an object's placement / replica / fencing history."""
    hits = [rec for rec in ledger.records if rec.get("var") == name]
    if not hits:
        objects = sorted({
            rec["var"] for rec in ledger.records if "var" in rec
        })
        raise ReproError(
            f"no records for object {name!r} in this ledger"
            + (f" (objects seen: {objects})" if objects else "")
        )
    lines = [f"object {name!r}: {len(hits)} provenance records"]
    for rec in hits:
        fields = _fields_of(rec)
        lines.append(
            f"  t={rec['t']:.6f}  {rec['kind']:<22}"
            + (f" {fields}" if fields else "")
        )
    puts = sum(1 for rec in hits if rec["kind"] == "object.put")
    failovers = sum(
        1 for rec in hits if rec["kind"] == "object.replica_select"
    )
    fences = sum(1 for rec in hits if rec["kind"] == "object.fence")
    lines.append(
        f"  {puts} puts, {failovers} replica failovers, {fences} fenced writes"
    )
    return "\n".join(lines)


def explain_slowest(ledger: Ledger, n: int = 3) -> str:
    """Rank completed bundles by end-to-end latency."""
    if n < 1:
        raise ReproError(f"-n must be >= 1, got {n}")
    rows = []
    for bundle in ledger.completed_bundles():
        t0, t1 = ledger.span_of(bundle)
        term = ledger.terminal_of(bundle)
        chain = ledger.why_chain(term["id"])
        own = [rec for rec in chain if rec.get("bundle") == bundle]
        per_category: dict[str, float] = {}
        for prev, rec in zip(own, own[1:]):
            cat = category_of(rec["kind"])
            per_category[cat] = (
                per_category.get(cat, 0.0) + rec["t"] - prev["t"]
            )
        dominant = (
            max(sorted(per_category), key=lambda c: per_category[c])
            if per_category else "-"
        )
        rows.append((t1 - t0, bundle, len(chain), dominant))
    if not rows:
        raise ReproError("no completed bundles in this ledger")
    rows.sort(key=lambda r: (-r[0], r[1]))
    rows = rows[:n]
    lines = [f"slowest {len(rows)} of {len(ledger.completed_bundles())} "
             f"completed bundles (end-to-end latency):"]
    lines.append(_bar_chart(
        [f"bundle {b}" for _, b, _, _ in rows],
        [lat for lat, _, _, _ in rows],
        unit="s",
    ))
    for lat, bundle, hops, dominant in rows:
        lines.append(
            f"  bundle {bundle}: {lat:.6f}s end to end, {hops} hops, "
            f"dominant stall: {dominant}"
        )
    lines.append(
        "drill down with: repro-insitu explain bundle <id> --ledger <path>"
    )
    return "\n".join(lines)
