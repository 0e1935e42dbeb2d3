import math

import numpy as np
import pytest

from cluster_oracles import holders, recoverable
from liquidsim import erasure, rng
from liquidsim.cluster import ClusterState, _CumulativeReads
from liquidsim.errors import (CapacityError, ConfigError, InvariantViolation,
                              MissingFragmentError)


def small_cluster(N=4, capacity=100):
    return ClusterState(N=N, capacity=capacity)


def at(N, node, bits):
    """An (N,) read vector with bits at one node."""
    v = np.zeros(N, dtype=np.int64)
    v[node] = bits
    return v


class TestStoreReadFail:
    def test_store_and_read(self):
        c = small_cluster()
        c.store_fragment(0, "x0", 3, b"abc", 24, t=0.0)
        assert c.nodes[0].usedBits == 24
        assert c.nodes[0].fragments[("x0", 3)] == b"abc"
        assert c.meter_read_spread(at(4, 0, 24), 1.0, 1.0) == 24
        assert c.nodeBitsRead.tolist() == [24, 0, 0, 0]
        assert c.nodeBitsWritten.tolist() == [24, 0, 0, 0]

    def test_capacity_hard_error(self):
        c = small_cluster(capacity=50)
        c.store_fragment(0, "a", 0, b"x", 30, t=0.0)
        with pytest.raises(CapacityError):
            c.store_fragment(0, "b", 0, b"y", 30, t=0.0)

    def test_overwrite_same_slot(self):
        c = small_cluster()
        c.store_fragment(1, "a", 0, b"x", 16, t=0.0)
        c.store_fragment(1, "a", 0, b"y", 16, t=1.0)
        assert c.nodes[1].usedBits == 16  # unchanged
        assert c.nodeBitsWritten[1] == 32  # both writes metered
        assert c.nodes[1].fragments[("a", 0)] == b"y"

    def test_overwrite_length_change_rejected(self):
        c = small_cluster()
        c.store_fragment(1, "a", 0, b"xx", 16, t=0.0)
        with pytest.raises(ConfigError):
            c.store_fragment(1, "a", 0, b"y", 8, t=1.0)

    def test_missing_fragment(self):
        c = small_cluster()
        with pytest.raises(MissingFragmentError):
            c.delete_fragment(0, "nope", 0)

    def test_fail_node_erases_data_keeps_meters(self):
        c = small_cluster()
        c.store_fragment(2, "a", 0, b"x", 8, t=0.0)
        c.meter_read_spread(at(4, 2, 8), 0.5, 0.5)
        c.fail_node(2, t=1.0)
        assert c.nodes[2].usedBits == 0
        assert not c.nodes[2].fragments
        assert c.nodeBitsRead[2] == 8  # temporal erasure only
        assert c.nodeBitsWritten[2] == 8
        with pytest.raises(MissingFragmentError):
            c.delete_fragment(2, "a", 0)

    def test_node_count_stable(self):
        c = small_cluster(N=4)
        c.fail_node(3, t=0.0)
        assert len(c.nodes) == 4

    def test_delete_is_unmetered(self):
        c = small_cluster()
        c.store_fragment(0, "a", 0, b"x", 8, t=0.0)
        before = (c.nodeBitsRead.copy(), c.nodeBitsWritten.copy())
        c.delete_fragment(0, "a", 0)
        assert np.array_equal(c.nodeBitsRead, before[0])
        assert np.array_equal(c.nodeBitsWritten, before[1])
        assert c.nodes[0].usedBits == 0


class TestMeterExactness:
    def test_meter_counts_exactly_requested(self):
        c = small_cluster(N=8, capacity=10_000)
        g = rng.stream(1)
        expect_read = [0] * 8
        expect_written = [0] * 8
        for step in range(300):
            node = int(g.integers(0, 8))
            u = g.random()
            if u < 0.4:
                reads = g.integers(0, 3, 8) * 8 * g.integers(0, 2, 8)
                t0 = float(step)
                assert c.meter_read_spread(reads, t0, t0 + u) == reads.sum()
                for i in range(8):
                    expect_read[i] += int(reads[i])
            elif u < 0.7:
                ln = 8 * int(g.integers(1, 4))
                c.meter_write_bulk(node, ln, t=float(step))
                expect_written[node] += ln
            else:
                obj, efi, ln = f"o{step}", int(g.integers(0, 5)), 8 * int(g.integers(1, 4))
                c.store_fragment(node, obj, efi, bytes(ln // 8), ln, t=float(step))
                expect_written[node] += ln
            if g.random() < 0.05:
                c.fail_node(node, t=float(step))
        assert c.nodeBitsRead.tolist() == expect_read
        assert c.nodeBitsWritten.tolist() == expect_written
        assert c.phase_read["store"] == sum(expect_read)
        assert c.phase_written["store"] == sum(expect_written)

    def test_phase_buckets(self):
        c = small_cluster()
        c.store_fragment(0, "a", 0, b"x", 8, t=0.0)
        c.begin_phase("repair")
        c.store_fragment(0, "a", 1, b"y", 8, t=1.0)
        assert c.phase_written["store"] == 8
        assert c.phase_written["repair"] == 8

    def test_capacity_audit(self):
        c = small_cluster()
        c.store_fragment(0, "a", 0, b"x", 8, t=0.0)
        c.assert_capacity()
        c.nodes[0].usedBits += 1  # corrupt deliberately
        with pytest.raises(InvariantViolation):
            c.assert_capacity()


class TestCensus:
    """The node-store oracles the liquid tests check their layouts with."""

    def test_distinct_counts(self):
        c = small_cluster()
        c.store_fragment(0, "a", 0, None, 8, t=0.0)
        c.store_fragment(1, "a", 1, None, 8, t=0.0)
        c.store_fragment(2, "a", 1, None, 8, t=0.0)  # duplicate EFI elsewhere
        assert holders(c) == {"a": {0: {0}, 1: {1, 2}}}
        c.fail_node(1, t=1.0)
        assert holders(c) == {"a": {0: {0}, 1: {2}}}  # node 2 still holds EFI 1
        assert recoverable(c, k=2, objects=["a"])
        c.fail_node(2, t=2.0)
        assert holders(c) == {"a": {0: {0}}}
        assert not recoverable(c, k=2, objects=["a"])

    def test_recoverable_structural(self):
        c = small_cluster()
        for e in range(3):
            c.store_fragment(e, "a", e, None, 8, t=0.0)
        assert recoverable(c, k=3, objects=["a"])
        c.fail_node(0, t=1.0)
        assert not recoverable(c, k=3, objects=["a"])
        for e in (1, 2):
            c.fail_node(e, t=2.0)
        assert not recoverable(c, k=1, objects=["a"])  # nothing left at all

    def test_recoverable_byte_decode(self):
        p = erasure.make_codec(4, 2, 16, backend="byte")
        obj = b"\x01\x02\x03\x04"
        frags = erasure.encode(obj, range(4), p)
        c = small_cluster()
        for e in range(4):
            c.store_fragment(e, "a", e, frags[e], 16, t=0.0)
        assert recoverable(c, k=2, objects=["a"], codec=p, retained={"a": obj})
        # corrupt a stored payload; decode census must catch it
        c.nodes[0].fragments[("a", 0)] = b"\xff\xff"
        with pytest.raises(InvariantViolation):
            recoverable(c, k=2, objects=["a"], codec=p, retained={"a": obj})


class TestMeterWindow:
    def test_avg_rate(self):
        c = small_cluster()
        c.begin_phase("repair")
        c.store_fragment(0, "a", 0, b"xx", 16, t=0.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            c.meter_read_spread(at(4, 0, 16), t, t)
        bits, written, avg, peak = c.meter_window(0.0, 4.0, window=4.0)
        assert bits == 64
        assert avg == 16.0
        assert peak == 16.0

    def test_impulse_pair_window_semantics(self):
        # reads of B bits at t=0 and t=10; window 5 never catches both,
        # window 10 does
        log = [(0.0, 0.0, 100.0), (10.0, 10.0, 100.0)]
        cum = _CumulativeReads(log)
        assert cum.peak(0.0, 10.0, 5.0) == pytest.approx(100.0 / 5.0)
        assert cum.peak(0.0, 10.0, 10.0) == pytest.approx(200.0 / 10.0)
        # two impulses 2 apart: a width-5 window catches both
        log = [(0.0, 0.0, 100.0), (2.0, 2.0, 100.0)]
        cum = _CumulativeReads(log)
        assert cum.peak(0.0, 10.0, 5.0) == pytest.approx(200.0 / 5.0)

    def test_spread_entry_rate(self):
        # 100 bits paced over [0, 10]: any window of width 2 sees 20 bits
        cum = _CumulativeReads([(0.0, 10.0, 100.0)])
        assert cum.peak(0.0, 10.0, 2.0) == pytest.approx(10.0)
        assert cum.closed(10.0) - cum.open(0.0) == pytest.approx(100.0)

    def test_mixed_log_peak_at_overlap(self):
        # spread 0..4 at 25 b/s plus an impulse at 3.0 of 50 bits
        cum = _CumulativeReads([(0.0, 4.0, 100.0), (3.0, 3.0, 50.0)])
        # width-1 windows: best is [2..3] or [3..4] catching 25 + 50
        assert cum.peak(0.0, 4.0, 1.0) == pytest.approx(75.0)

    def test_read_log_sums_to_total(self):
        c = small_cluster()
        c.begin_phase("repair")
        c.store_fragment(0, "a", 0, b"x", 8, t=0.0)
        for t in range(1, 6):
            c.meter_read_spread(at(4, 0, 8), float(t), float(t))
        c.meter_read_spread(np.array([40, 0, 0, 0]), t0=6.0, t1=8.0)
        assert sum(b for (_, _, b) in c.read_log) == c.phase_read["repair"]

    def test_window_wider_than_span(self):
        cum = _CumulativeReads([(0.0, 0.0, 30.0)])
        # degenerate: window wider than the data span dilutes the rate
        assert cum.peak(0.0, 1.0, 10.0) == pytest.approx(3.0)
