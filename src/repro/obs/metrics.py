"""A zero-dependency metrics registry: counters, gauges, histograms.

Metrics are named instruments with declared label names; each distinct
label-value combination is a *cell*. Cells keep raw Python values (ints,
floats, enums) as label values for cheap hot-path updates; values are only
stringified when a snapshot is exported.

::

    registry = MetricsRegistry()
    lookups = registry.counter("dht.lookups")
    lookups.inc()
    hops = registry.histogram("dht.hops", buckets=(1, 2, 4, 8, 16))
    hops.observe(3)
    bytes_ = registry.counter("transfer.bytes", labelnames=("transport",))
    bytes_.inc(4096, transport="shm")
    registry.snapshot()          # plain dict, JSON-serializable
    registry.write_json(path)    # the --metrics-out format

The registry is the storage backend of
:class:`repro.transport.metrics.TransferMetrics`, so every byte the
transport accounts is also visible here.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from typing import Any, Iterable, Sequence

from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "merge_registries"]

#: default histogram buckets: powers of four up to 16 MiB, covering the
#: full byte scale of one transfer (control messages through coupled
#: regions) as well as small counts (hops, retries)
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
    262144, 1048576, 4194304, 16777216,
)


def _label_key(labelnames: tuple[str, ...], labels: dict[str, Any]) -> tuple:
    if len(labels) != len(labelnames):
        raise ReproError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    try:
        return tuple(labels[n] for n in labelnames)
    except KeyError as exc:
        raise ReproError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        ) from exc


def _label_str(value: Any) -> str:
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


class _Metric:
    """Shared plumbing: name, label names, cell storage."""

    kind = "metric"

    def __init__(self, name: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.labelnames = tuple(labelnames)
        #: label-value tuple -> cell (type depends on the instrument)
        self.cells: dict[tuple, Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple:
        if not self.labelnames and not labels:
            return ()
        return _label_key(self.labelnames, labels)

    def labels_of(self, key: tuple) -> dict[str, Any]:
        return dict(zip(self.labelnames, key))

    def _cell_name(self, key: tuple) -> str:
        if not key:
            return self.name
        inner = ",".join(
            f"{n}={_label_str(v)}" for n, v in zip(self.labelnames, key)
        )
        return f"{self.name}{{{inner}}}"


class Counter(_Metric):
    """A monotonically increasing sum per cell."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: Any) -> None:
        if value < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self.cells[key] = self.cells.get(key, 0) + value

    def touch(self, **labels: Any) -> None:
        """Materialize a cell at zero without counting anything."""
        self.cells.setdefault(self._key(labels), 0)

    def value(self, **labels: Any) -> float:
        return self.cells.get(self._key(labels), 0)

    def total(self) -> float:
        return sum(self.cells.values())

    def snapshot_cells(self) -> dict[str, Any]:
        return {self._cell_name(k): v for k, v in self.cells.items()}


class Gauge(_Metric):
    """A point-in-time value per cell (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self.cells[self._key(labels)] = value

    def add(self, delta: float, **labels: Any) -> None:
        key = self._key(labels)
        self.cells[key] = self.cells.get(key, 0) + delta

    def value(self, **labels: Any) -> float:
        return self.cells.get(self._key(labels), 0)

    def snapshot_cells(self) -> dict[str, Any]:
        return {self._cell_name(k): v for k, v in self.cells.items()}


class Histogram(_Metric):
    """Fixed-bucket histogram per cell (cumulative-style buckets).

    A cell is ``[counts_per_bucket..., overflow, sum, count]``; bucket ``i``
    counts observations ``<= buckets[i]``, overflow counts the rest.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ReproError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
        cell[bisect_left(self.buckets, value)] += 1
        cell[-2] += value
        cell[-1] += 1

    def count(self, **labels: Any) -> int:
        cell = self.cells.get(self._key(labels))
        return 0 if cell is None else cell[-1]

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile of a cell's observations.

        Linear interpolation inside the bucket the quantile falls in,
        taking 0 as the lower edge of the first bucket (observations are
        non-negative counts/bytes here). Mass in the overflow bucket
        clamps to the last bound — the histogram cannot know how far
        beyond it the tail reaches. An empty cell estimates 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(
                f"quantile must be in [0, 1], got {q}"
            )
        cell = self.cells.get(self._key(labels))
        if cell is None or cell[-1] == 0:
            return 0.0
        target = q * cell[-1]
        cum = 0
        lo = 0.0
        for bound, n in zip(self.buckets, cell):
            if n:
                cum += n
                if cum >= target:
                    frac = 1.0 - (cum - target) / n
                    return lo + (bound - lo) * frac
            lo = bound
        return self.buckets[-1]

    def sum(self, **labels: Any) -> float:
        cell = self.cells.get(self._key(labels))
        return 0.0 if cell is None else cell[-2]

    def snapshot_cells(self) -> dict[str, Any]:
        out = {}
        for key, cell in self.cells.items():
            out[self._cell_name(key)] = {
                "buckets": list(self.buckets),
                "counts": list(cell[: len(self.buckets) + 1]),
                "sum": cell[-2],
                "count": cell[-1],
            }
        return out


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, name: str, cls: type, labelnames: Sequence[str], factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        elif metric.labelnames != tuple(labelnames):
            raise ReproError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}"
            )
        return metric

    def counter(self, name: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get(
            name, Counter, labelnames, lambda: Counter(name, labelnames)
        )

    def gauge(self, name: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get(name, Gauge, labelnames, lambda: Gauge(name, labelnames))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get(
            name, Histogram, labelnames,
            lambda: Histogram(name, buckets, labelnames),
        )

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counter_total(self, name: str) -> float:
        """Total of counter ``name`` over all its cells; 0 when unregistered.

        Read-only: unlike :meth:`counter` it never registers an instrument,
        so reporting on a lazy counter the run never touched leaves the
        registry (and every snapshot of it) unchanged.
        """
        metric = self._metrics.get(name)
        return 0 if metric is None else metric.total()

    def __getitem__(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ReproError(f"no metric named {name!r}") from None

    # -- aggregation --------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's cells into this one (in place).

        Counters and histogram cells add; gauges take the other's value
        (last write wins, matching their point-in-time semantics).
        """
        for name, theirs in other._metrics.items():
            if theirs.kind == "histogram":
                mine = self.histogram(name, theirs.buckets, theirs.labelnames)
            elif theirs.kind == "gauge":
                mine = self.gauge(name, theirs.labelnames)
            else:
                mine = self.counter(name, theirs.labelnames)
            if mine.labelnames != theirs.labelnames:
                raise ReproError(
                    f"cannot merge {name!r}: label names differ "
                    f"({mine.labelnames} vs {theirs.labelnames})"
                )
            for key, cell in theirs.cells.items():
                if theirs.kind == "histogram":
                    if mine.buckets != theirs.buckets:
                        raise ReproError(
                            f"cannot merge {name!r}: bucket bounds differ"
                        )
                    ours = mine.cells.get(key)
                    if ours is None:
                        mine.cells[key] = list(cell)
                    else:
                        for i, v in enumerate(cell):
                            ours[i] += v
                elif theirs.kind == "gauge":
                    mine.cells[key] = cell
                else:
                    mine.cells[key] = mine.cells.get(key, 0) + cell
        return self

    # -- checkpoint state ---------------------------------------------------------

    def dump_state(self, encode=None) -> dict[str, Any]:
        """Lossless, restorable export (unlike :meth:`snapshot`).

        Cells keep raw label values (ints, enums) for identity-sensitive
        hot-path reads, so a restore cannot go through the stringified
        snapshot. ``encode`` maps one label value to a JSON-serializable
        form; the caller supplies the matching ``decode`` to
        :meth:`load_state` (the checkpoint layer knows the enum types, this
        module does not). Default: identity.
        """
        if encode is None:
            encode = lambda v: v  # noqa: E731
        state: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            rec: dict[str, Any] = {
                "kind": metric.kind,
                "labelnames": list(metric.labelnames),
                "cells": [
                    [[encode(v) for v in key],
                     list(cell) if isinstance(cell, list) else cell]
                    for key, cell in metric.cells.items()
                ],
            }
            if metric.kind == "histogram":
                rec["buckets"] = list(metric.buckets)
            state[name] = rec
        return state

    def load_state(self, state: dict[str, Any], decode=None) -> None:
        """Recreate instruments and cells from :meth:`dump_state` output."""
        if decode is None:
            decode = lambda v: v  # noqa: E731
        for name, rec in state.items():
            labelnames = tuple(rec["labelnames"])
            if rec["kind"] == "histogram":
                metric = self.histogram(name, rec["buckets"], labelnames)
            elif rec["kind"] == "gauge":
                metric = self.gauge(name, labelnames)
            else:
                metric = self.counter(name, labelnames)
            for key, cell in rec["cells"]:
                decoded = tuple(decode(v) for v in key)
                metric.cells[decoded] = (
                    list(cell) if isinstance(cell, list) else cell
                )

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict export: ``kind -> {cell name -> value}``."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[metric.kind + "s"].update(metric.snapshot_cells())
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=1, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the snapshot (the ``--metrics-out`` format) to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def format_summary(self, max_rows: int | None = None) -> str:
        """Human-readable one-line-per-cell summary."""

        def num(v: Any) -> str:
            # Counts stay exact; only genuine fractions get the short form.
            return str(int(v)) if float(v).is_integer() else f"{v:g}"

        lines: list[str] = []
        snap = self.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            for cell, value in snap[kind].items():
                if isinstance(value, dict):  # histogram cell
                    lines.append(
                        f"{cell}: count={value['count']} sum={num(value['sum'])}"
                    )
                else:
                    lines.append(f"{cell}: {num(value)}")
        if max_rows is not None and len(lines) > max_rows:
            lines = lines[:max_rows] + [f"... ({len(lines) - max_rows} more)"]
        return "\n".join(lines)


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Combine independent registries into a fresh one."""
    out = MetricsRegistry()
    for reg in registries:
        out.merge(reg)
    return out
