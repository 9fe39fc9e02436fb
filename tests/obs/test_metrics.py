"""Tests for the metrics registry: counters, gauges, histograms, merge."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.transport.message import Transport


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value() == 5
        assert c.total() == 5

    def test_labels(self):
        c = Counter("bytes", labelnames=("transport",))
        c.inc(10, transport="shm")
        c.inc(20, transport="network")
        c.inc(5, transport="shm")
        assert c.value(transport="shm") == 15
        assert c.total() == 35

    def test_enum_labels_kept_raw_stringified_at_snapshot(self):
        c = Counter("bytes", labelnames=("transport",))
        c.inc(7, transport=Transport.SHM)
        assert (Transport.SHM,) in c.cells
        assert c.snapshot_cells() == {"bytes{transport=shm}": 7}

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Counter("hits").inc(-1)

    def test_missing_label_rejected(self):
        c = Counter("bytes", labelnames=("transport",))
        with pytest.raises(ReproError):
            c.inc(1)
        with pytest.raises(ReproError):
            c.inc(1, wrong="x")

    def test_touch_materializes_zero_cell(self):
        c = Counter("hits")
        c.touch()
        assert c.snapshot_cells() == {"hits": 0}


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(3)
        g.add(2)
        assert g.value() == 5
        g.set(1)
        assert g.value() == 1


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("hops", buckets=(1, 2, 4))
        for v in (1, 1, 2, 3, 100):
            h.observe(v)
        cell = h.cells[()]
        # counts per bucket (<=1, <=2, <=4) then overflow
        assert cell[:4] == [2, 1, 1, 1]
        assert h.count() == 5
        assert h.sum() == 107

    def test_buckets_must_increase(self):
        with pytest.raises(ReproError):
            Histogram("bad", buckets=(4, 2))
        with pytest.raises(ReproError):
            Histogram("bad", buckets=())

    def test_snapshot_shape(self):
        h = Histogram("hops", buckets=(1, 2))
        h.observe(2)
        snap = h.snapshot_cells()["hops"]
        assert snap["buckets"] == [1.0, 2.0]
        assert snap["counts"] == [0, 1, 0]
        assert snap["sum"] == 2 and snap["count"] == 1

    def test_default_buckets_span_the_byte_scale(self):
        # One transfer can be a 256 B control message or a multi-MiB
        # coupled region; the defaults must keep both off the overflow
        # slot.
        h = Histogram("nbytes")
        h.observe(256)
        h.observe(8 * 1024 * 1024)
        cell = h.cells[()]
        assert cell[len(h.buckets)] == 0  # nothing overflowed
        assert h.buckets[-1] >= 16 * 1024 * 1024

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("lat", buckets=(10, 20, 40))
        for v in (5, 15, 15, 35):
            h.observe(v)
        # Median: rank 2 of 4 lands at the top of the (10, 20] bucket's
        # first observation... interpolated linearly.
        assert h.quantile(0.5) == pytest.approx(15.0)
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(40.0)

    def test_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram("lat", buckets=(10, 20))
        h.observe(1000)
        assert h.quantile(0.99) == 20.0

    def test_quantile_empty_cell_is_zero(self):
        h = Histogram("lat", buckets=(10,))
        assert h.quantile(0.5) == 0.0

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("lat", buckets=(10,))
        with pytest.raises(ReproError):
            h.quantile(1.5)
        with pytest.raises(ReproError):
            h.quantile(-0.1)

    def test_quantile_respects_labels(self):
        h = Histogram("lat", buckets=(10, 20), labelnames=("kind",))
        h.observe(5, kind="a")
        h.observe(15, kind="b")
        assert h.quantile(1.0, kind="a") == pytest.approx(10.0)
        assert h.quantile(1.0, kind="b") == pytest.approx(20.0)


class TestRegistry:
    def test_get_or_create_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and reg["a"].kind == "counter"

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ReproError):
            reg.gauge("a")

    def test_labelnames_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a", labelnames=("x",))
        with pytest.raises(ReproError):
            reg.counter("a", labelnames=("y",))

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            MetricsRegistry()["nope"]

    def test_counter_total_reads_without_registering(self):
        reg = MetricsRegistry()
        assert reg.counter_total("lazy") == 0
        assert "lazy" not in reg and reg.snapshot() == MetricsRegistry().snapshot()
        reg.counter("bytes", labelnames=("dir",)).inc(3, dir="in")
        reg.counter("bytes", labelnames=("dir",)).inc(4, dir="out")
        assert reg.counter_total("bytes") == 7

    def test_snapshot_round_trips_through_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("depth").set(1.5)
        reg.histogram("hops", buckets=(1, 2)).observe(2)
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == reg.snapshot()
        assert loaded["counters"]["hits"] == 3
        assert loaded["gauges"]["depth"] == 1.5
        assert loaded["histograms"]["hops"]["count"] == 1

    def test_format_summary_exact_integers(self):
        reg = MetricsRegistry()
        reg.counter("bytes").inc(13631488)
        assert "bytes: 13631488" in reg.format_summary()


class TestRegistryMerge:
    def test_counters_add_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(1)
        b.counter("hits").inc(2)
        a.gauge("depth").set(10)
        b.gauge("depth").set(3)
        a.merge(b)
        assert a.counter("hits").value() == 3
        assert a.gauge("depth").value() == 3

    def test_histograms_add_cellwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("hops", buckets=(1, 2)).observe(1)
        b.histogram("hops", buckets=(1, 2)).observe(2)
        a.merge(b)
        h = a.histogram("hops", buckets=(1, 2))
        assert h.count() == 2 and h.sum() == 3

    def test_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("hops", buckets=(1, 2)).observe(1)
        b.histogram("hops", buckets=(1, 3)).observe(1)
        with pytest.raises(ReproError):
            a.merge(b)

    def test_merge_registries_helper(self):
        regs = []
        for _ in range(3):
            r = MetricsRegistry()
            r.counter("hits").inc(2)
            regs.append(r)
        out = merge_registries(regs)
        assert out.counter("hits").value() == 6
        for r in regs:  # inputs untouched
            assert r.counter("hits").value() == 2
