import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_oracles import check_liquid_payloads, decodes, owned_bits
from liquidsim import advanced_liquid as adv
from liquidsim import cluster, liquid, rng
from liquidsim.cluster import ClusterState, ReadLog, _CumulativeReads
from liquidsim.errors import DecodeError, InvariantViolation


def small_cluster(N=4):
    return ClusterState(N=N)


def at(N, node, bits):
    """An (N,) read vector with bits at one node."""
    v = np.zeros(N, dtype=np.int64)
    v[node] = bits
    return v


def byte_liquid(N=10, beta=0.2, clen=160):
    k = round((1 - beta) * N)
    payload = rng.stream(7, substream=rng.SUB_PAYLOAD)
    return liquid.liquid_store(k * clen, N, clen, beta, backend="byte",
                               payload_rng=payload)


def byte_advanced(N=8, r=2):
    # one-byte fragments: clen is the divisor r*N + r(r+1)/2 times 8 bits
    return adv.advanced_store(N, (r * N + r * (r + 1) // 2) * 8, r,
                              backend="byte",
                              payload_rng=rng.stream(11, 0, rng.SUB_PAYLOAD))


class TestStoreReadFail:
    """ClusterState meters writes and reads; the payloads live in the
    repairers' arrays, which a failure zeroes and a wipe frees unmetered."""

    def test_store_and_read(self):
        c = small_cluster()
        c.meter_write_bulk(0, 24)
        assert c.meter_read_spread(at(4, 0, 24), 1.0, 1.0) == 24
        assert c.nodeBitsRead.tolist() == [24, 0, 0, 0]
        assert c.nodeBitsWritten.tolist() == [24, 0, 0, 0]
        # a byte store meters every fragment it puts in frags
        state, lay = byte_liquid()
        assert state.nodeBitsWritten.tolist() == (
            lay.held.sum(axis=0) * lay.flen).tolist()
        check_liquid_payloads(lay)

    def test_capacity_hard_error(self):
        state, layout = byte_advanced()
        adv.check_advanced_sync(layout)
        # object (3, 0) keeps helper label N only; give node 5 label N + 1
        layout.owner[3, 0, layout.N + 1] = 5
        with pytest.raises(InvariantViolation,
                           match=f"^node 5 holds {layout.clen + layout.flen} "
                                 f"bits, placement says {layout.clen} of "
                                 f"capacity {layout.clen}$"):
            adv.check_advanced_sync(layout)

    def test_overwrite_same_slot(self):
        # regenerating a whole staircase rewrites its slots in place: used
        # bits and payloads stay, and every write is metered again
        state, layout = byte_advanced()
        frags, owner = layout.frags.copy(), layout.owner.copy()
        written = state.nodeBitsWritten.copy()
        counts = adv.generate_helpers(state, layout, 2, t=1.0)
        assert counts.fragmentWrites == 3
        assert (state.nodeBitsWritten - written).tolist() == (
            [0, 0, 3 * layout.flen] + [0] * 5)
        assert np.array_equal(layout.frags, frags)
        assert np.array_equal(layout.owner, owner)
        assert (owned_bits(layout) == layout.clen).all()
        adv.check_advanced_sync(layout)

    def test_missing_fragment(self):
        # the donor no longer holds a helper its staircase promises
        state, layout = byte_advanced()
        adv.advanced_fail_node(state, layout, 1.0, 4)
        layout.begin_step(4)
        layout.owner[6, 1, layout.labels[layout.N]] = -1
        written = state.nodeBitsWritten.copy()
        with pytest.raises(InvariantViolation,
                           match="helper map out of sync at node 6"):
            adv.move_helpers(state, layout, range(6, 7), 4, t=1.1)
        assert (layout.heldLo[4], layout.heldHi[4]) == (0, 0)
        assert (layout.owner[6, 0, layout.labels[layout.N]] == 6)
        assert np.array_equal(state.nodeBitsWritten, written)

    def test_fail_node_erases_data_keeps_meters(self):
        state, lay = byte_liquid()
        state.meter_read_spread(at(10, 2, 8), 0.5, 0.5)
        written = state.nodeBitsWritten.copy()
        liquid.liquid_fail_node(state, lay, 1.0, 2)
        assert not lay.held[:, 2].any() and not lay.frags[:, 2].any()
        assert lay.frags[:, 3].any()
        check_liquid_payloads(lay)
        assert state.nodeBitsRead[2] == 8  # temporal erasure only
        assert np.array_equal(state.nodeBitsWritten, written)

        state, layout = byte_advanced()
        written = state.nodeBitsWritten.copy()
        assert (layout.owner == 2).any()
        adv.advanced_fail_node(state, layout, 1.0, 2)
        assert not (layout.owner == 2).any()
        assert not layout.frags[layout.owner < 0].any()
        assert owned_bits(layout)[2] == 0
        assert np.array_equal(state.nodeBitsWritten, written)

    def test_delete_is_unmetered(self):
        # a step's wipe of its target frees the slots without metering
        state, layout = byte_advanced()
        before = (state.nodeBitsRead.copy(), state.nodeBitsWritten.copy())
        adv._StepChain(state, layout, 3, 1.0)
        assert not (layout.owner == 3).any()
        assert owned_bits(layout)[3] == adv.node_used_bits(layout)[3] == 0
        assert np.array_equal(state.nodeBitsRead, before[0])
        assert np.array_equal(state.nodeBitsWritten, before[1])


class TestMeterExactness:
    def test_meter_counts_exactly_requested(self):
        c = small_cluster(N=8)
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
                c.meter_write_bulk(node, ln)
                expect_written[node] += ln
            else:
                # one count to each of distinct ids, or one count per node
                nodes = g.permutation(8)[: int(g.integers(0, 4))]
                ln = 8 * int(g.integers(1, 4))
                if u < 0.85:
                    c.meter_write_bulk(nodes, ln)
                    for i in nodes.tolist():
                        expect_written[i] += ln
                else:
                    bits = g.integers(0, 3, 8) * 8
                    c.meter_write_bulk(slice(None), bits)
                    for i in range(8):
                        expect_written[i] += int(bits[i])
            g.random()      # a spare draw keeps the cases this stream yields
        assert c.nodeBitsRead.tolist() == expect_read
        assert c.nodeBitsWritten.tolist() == expect_written
        assert c.phase_read["store"] == sum(expect_read)
        assert c.phase_written["store"] == sum(expect_written)

    def test_phase_buckets(self):
        c = small_cluster()
        c.meter_write_bulk(0, 8)
        c.begin_phase("repair")
        c.meter_write_bulk(0, 8)
        assert c.phase_written["store"] == 8
        assert c.phase_written["repair"] == 8

    def test_capacity_audit(self):
        state, layout = byte_advanced()
        adv.check_advanced_sync(layout)
        layout.owner[0, 1, 5] = -1  # node 5 loses a primary, unnoticed
        with pytest.raises(InvariantViolation,
                           match=f"^node 5 holds {layout.clen - layout.flen} "
                                 f"bits, placement says {layout.clen} "):
            adv.check_advanced_sync(layout)


class TestCensus:
    """Liquid's held-fragment census against the byte payload oracles."""

    def test_distinct_counts(self):
        # EFI e of every object lives at node e: a failure takes at most
        # one fragment of each object, and the same node again takes none
        state, lay = byte_liquid()
        assert lay.held.sum(axis=1).tolist() == [9, 10]
        liquid.liquid_fail_node(state, lay, 1.0, 9)
        assert lay.held.sum(axis=1).tolist() == [9, 9]
        liquid.liquid_fail_node(state, lay, 2.0, 9)
        liquid.liquid_fail_node(state, lay, 2.0, 0)
        assert lay.held.sum(axis=1).tolist() == [8, 8]
        check_liquid_payloads(lay)

    def test_recoverable_structural(self):
        state, lay = byte_liquid()
        for node in (0, 1):
            liquid.liquid_fail_node(state, lay, 1.0, node)
        assert lay.held.sum(axis=1).tolist() == [7, 8]   # k = 8
        with pytest.raises(DecodeError):
            liquid.liquid_repair_step(state, lay, t0=1.0, t1=2.0)
        decodes(lay, [1])
        lay.stepsDone = 1
        liquid.liquid_repair_step(state, lay, t0=1.0, t1=2.0)
        check_liquid_payloads(lay)

    def test_recoverable_byte_decode(self):
        state, lay = byte_liquid()
        decodes(lay, range(lay.objectCount))
        # corrupt a held payload; both oracles must catch it
        lay.frags[0, 0] ^= 0xFF
        with pytest.raises(InvariantViolation, match="object 0 EFI 0"):
            check_liquid_payloads(lay)
        with pytest.raises(InvariantViolation, match="object 0 decodes"):
            decodes(lay, range(lay.objectCount))


class TestMeterWindow:
    def test_avg_rate(self):
        c = small_cluster()
        c.begin_phase("repair")
        c.meter_write_bulk(0, 16)
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
        c.meter_write_bulk(0, 8)
        for t in range(1, 6):
            c.meter_read_spread(at(4, 0, 8), float(t), float(t))
        c.meter_read_spread(np.array([40, 0, 0, 0]), t0=6.0, t1=8.0)
        assert sum(b for (_, _, b) in c.read_log) == c.phase_read["repair"]

    def test_window_wider_than_span(self):
        cum = _CumulativeReads([(0.0, 0.0, 30.0)])
        # degenerate: window wider than the data span dilutes the rate
        assert cum.peak(0.0, 1.0, 10.0) == pytest.approx(3.0)


@st.composite
def read_logs(draw):
    """Logs as paced repairers write them: spreads back to back or
    overlapping, aborted ones ending early, and impulses, some sharing
    times; long enough to take the array path."""
    steps = draw(st.lists(st.tuples(
        st.sampled_from(["next", "next", "overlap", "impulse"]),
        st.integers(1, 10 ** 9), st.floats(0.0, 1.0),
        st.sampled_from([0.1, 1 / 3, 0.25, 2.0])),
        max_size=3 * cluster._SMALL_LOG))
    entries, t = [], 0.0
    for shape, bits, back, length in steps:
        if shape == "impulse":
            s0 = round(t * back, 1)
            entries.append((s0, s0, bits))
            continue
        s0 = t if shape == "next" else t * back
        entries.append((s0, s0 + length, bits))
        t = max(t, s0 + length)
    return entries


class TestReadLog:
    def test_columns_iteration_and_equality(self):
        log = ReadLog()
        log.add(0.0, 1.0, 5)
        log.add(1.0, 1.0, 0)                # no bits: left out
        log.add(np.array([1.0, 2.0, 2.0]), np.array([2.0, 2.0, 3.0]),
                np.array([7, 0, 9]))
        assert len(log) == 3
        assert list(log) == [(0.0, 1.0, 5), (1.0, 2.0, 7), (2.0, 3.0, 9)]
        assert (1.0, 2.0, 7) in log
        other = ReadLog()
        for entry in log:
            other.add(*entry)
        assert other == log
        other.add(3.0, 3.0, 1)
        assert other != log

    def test_grows_past_its_first_block(self):
        log = ReadLog()
        for i in range(100):
            log.add(float(i), float(i + 1), i + 1)
        log.add(np.arange(100.0, 200.0), np.arange(101.0, 201.0),
                np.arange(101, 201))
        t0, t1, bits = log.columns()
        assert len(log) == 200 and bits.tolist() == list(range(1, 201))
        assert (t1 - t0 == 1.0).all()

    @pytest.mark.parametrize("last", [0, 4])
    def test_run_matches_one_entry_at_a_time(self, last):
        # a split stream past the first block, its last entry left out at 0
        ends, bits = np.arange(1.0, 21.0), np.arange(1, 21)
        run, each = ReadLog(), ReadLog()
        run.add(0.0, 0.0, 3)
        run.add_run(0.0, ends, 21.0, bits, last)
        for entry in [(0.0, 0.0, 3), (0.0, 1.0, 1)] + [
                (ends[i - 1], ends[i], bits[i]) for i in range(1, 20)] + [
                (20.0, 21.0, last)]:
            each.add(*entry)
        assert run == each and len(run) == 21 + (last != 0)

    @settings(max_examples=150, deadline=None, database=None)
    @given(read_logs(), st.sampled_from([1, 5, 1 << 16]))
    def test_sweep_matches_walk_bit_for_bit(self, entries, chunk):
        # the golden CSVs pin avg and peak rates, so the array build must
        # make the Python walk's float additions in the same order
        log = ReadLog()
        for entry in entries:
            log.add(*entry)
        walk = cluster._walk(*log.columns())
        for a, b in zip(walk, cluster._sweep(*log.columns(), chunk=chunk)):
            assert np.array_equal(a, b)

    @settings(max_examples=100, deadline=None, database=None)
    @given(read_logs(), st.floats(0.05, 3.0))
    def test_queries_match_reference_walk(self, entries, w):
        # closed/open/peak against a direct evaluation of the walk
        cum = _CumulativeReads(entries)
        t, curve, slope = map(np.asarray, cluster._walk(*np.array(
            entries, dtype=float).reshape(-1, 3).T))
        for a in [0.0] + [e[0] for e in entries] + [e[1] for e in entries]:
            j = int(np.searchsorted(t, a, side="right")) - 1
            closed = 0.0 if j < 0 else curve[2 * j] + slope[j] * (a - t[j])
            assert cum.closed(a) == closed
            if j >= 0 and t[j] == a:
                assert cum.open(a) == (curve[2 * j - 1] if j else 0.0)
        if entries:
            end = max(e[1] for e in entries)
            cand = [0.0] + [c for c in np.concatenate((t, t - w))
                            if 0.0 <= c <= max(0.0, end - w)]
            best = max(cum.closed(c + w) - cum.open(c) for c in cand)
            assert cum.peak(0.0, end, w) == max(0.0, best) / w
