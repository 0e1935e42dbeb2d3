"""Helper-staircase repair: layout, labels, per-op counts, Poisson driving."""

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluster_oracles import owned_bits
from liquidsim import advanced_liquid as adv
from liquidsim import erasure, gf256, rng, sim_engine
from liquidsim.advanced_liquid import (
    AdvancedPoissonRepairer, advanced_fail_node, advanced_repair_step,
    advanced_schedule, advanced_store, assert_advanced_invariant, census,
    check_advanced_sync, generate_helpers, move_helpers, node_used_bits,
    recoverable_census, r_for_target_overhead, update_helpers)
from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.errors import (ConfigError, DecodeError, InvariantViolation,
                              MissingFragmentError)


def byte_cluster(N=8, r=2, seed=11, variant="periodic", eps=0.0):
    # divisor = r*N + r(r+1)/2; flen fixed at 8 bits so the byte codec engages
    divisor = r * N + r * (r + 1) // 2
    return advanced_store(N, divisor * 8, r, variant=variant, eps=eps,
                          backend="byte",
                          payload_rng=rng.stream(seed, 0, rng.SUB_PAYLOAD))


def symbolic_cluster(N=20, r=4, variant="periodic", eps=0.0):
    divisor = r * N + r * (r + 1) // 2
    return advanced_store(N, divisor, r, variant=variant, eps=eps,
                          backend="symbolic")


def one(group):
    """The range of one group, the unit the chain commits in a Poisson
    sub-operation."""
    return range(group, group + 1)


def holds(layout, node, group):
    """True when node holds the primaries of the group."""
    return bool(layout.heldLo[node] <= group < layout.heldHi[node])


def decode_all_from_primaries(layout):
    """Every object must decode to its source using primary fragments only,
    each one owned by the node holding the group."""
    from liquidsim import erasure
    for g in range(layout.N):
        for p in range(layout.r):
            frags = np.zeros_like(layout.frags[g, p])
            read = []
            for m in range(layout.N):
                if holds(layout, m, g):
                    efi = layout.labels[m]
                    assert layout.owner[g, p, efi] == m
                    frags[efi] = layout.frags[g, p, efi]
                    read.append(efi)
                    if len(read) == layout.k:
                        break
            erasure.decode_in_place(frags, read, layout.codec)
            assert np.array_equal(frags[:layout.k],
                                  layout.code[g, p, :layout.k])


class TestStore:
    def test_layout_parameters(self):
        state, layout = symbolic_cluster(N=100, r=20)
        assert layout.k == 99
        assert layout.beta == pytest.approx(23 / 221)
        assert layout.flen == 1          # clen was exactly the divisor 2210
        assert layout.clen == 2210
        assert layout.labels.dtype == np.int64
        assert layout.labels[:100].tolist() == list(range(100))
        assert layout.labels[100:].tolist() == list(range(100, 120))

    def test_per_node_fragment_count_fills_capacity(self):
        state, layout = byte_cluster(N=8, r=2)
        want = 8 * 2 + 3                 # N*r primaries + r(r+1)/2 helpers
        owner = layout.owner
        assert np.bincount(owner[owner >= 0]).tolist() == [want] * 8
        assert (owned_bits(layout) == layout.clen).all()
        assert (node_used_bits(layout) == layout.clen).all()
        assert state.nodeBitsWritten.tolist() == [layout.clen] * 8

    def test_store_is_census_clean_and_recoverable(self):
        state, layout = byte_cluster()
        assert census(layout) == list(range(8))
        assert recoverable_census(layout)
        assert_advanced_invariant(layout)
        check_advanced_sync(layout)
        decode_all_from_primaries(layout)

    def test_store_metering_symbolic(self):
        state, layout = symbolic_cluster(N=20, r=4)
        assert state.phase_written["store"] == 20 * layout.clen
        assert state.phase_read["store"] == 0
        assert layout.code is None and layout.frags is None
        assert layout.owner is None

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            advanced_store(10, 1001, 3, backend="symbolic")

    def test_periodic_rejects_eps(self):
        with pytest.raises(ConfigError):
            advanced_store(10, 65 * 2, 2, variant="periodic", eps=0.1)

    def test_poisson_cap_and_threshold(self):
        state, layout = symbolic_cluster(N=100, r=20, variant="poisson",
                                         eps=0.2)
        assert layout.counterCap == 11   # floor(0.1*100) + 1
        assert layout.k == 89
        assert layout.beta == pytest.approx((20 + 1 + 22) / 221)

    def test_large_N_overhead_matches_target(self):
        r = r_for_target_overhead(1000, 0.1)
        assert r == 222
        beta = (r + 3) / (2 * 1000 + r + 1)
        assert abs(beta - 0.1) / 0.1 < 0.05

    def test_byte_needs_payload_rng(self):
        with pytest.raises(ConfigError):
            advanced_store(8, 19 * 8, 2, backend="byte")

    @pytest.mark.parametrize("N,r,flen", [(8, 2, 8), (7, 3, 8), (5, 2, 24),
                                          (12, 4, 16)])
    def test_store_matches_one_object_at_a_time(self, N, r, flen):
        # the payload draw and the one product that encodes every object
        # against payload_rng.bytes and encode_rows per object
        state, layout = byte_cluster(N=N, r=r) if flen == 8 else \
            advanced_store(N, (r * N + r * (r + 1) // 2) * flen, r,
                           backend="byte",
                           payload_rng=rng.stream(11, 0, rng.SUB_PAYLOAD))
        k, fb = layout.k, layout.codec.flen_bytes
        draw = rng.stream(11, 0, rng.SUB_PAYLOAD)
        for g in range(N):
            for p in range(r):
                src = np.frombuffer(draw.bytes(k * fb), np.uint8)
                assert layout.code[g, p, :k].tobytes() == src.tobytes()
                frags = np.zeros((N + r, fb), np.uint8)
                frags[:k] = layout.code[g, p, :k]
                frags[k:] = erasure.encode_rows(frags, range(k, N + r),
                                                layout.codec)
                assert np.array_equal(layout.code[g, p], frags)
                frags[N + p + 1:] = 0       # helpers past its position
                assert np.array_equal(layout.frags[g, p], frags)
        check_advanced_sync(layout)

    def test_codeword_is_read_only(self):
        _, layout = byte_cluster()
        with pytest.raises(ValueError, match="read-only"):
            layout.code[0, 0, 0, 0] ^= 1
        with pytest.raises(ValueError, match="read-only"):
            layout.code.reshape(-1)[0] = 1

    def test_sync_catches_a_flipped_helper_byte(self):
        state, layout = byte_cluster()
        label = layout.labels[layout.N]
        assert layout.owner[2, 0, label] == 2
        layout.frags[2, 0, label, 0] ^= 1
        with pytest.raises(InvariantViolation,
                           match="a held slot differs from its codeword"):
            check_advanced_sync(layout)

    def test_placement_arrays_are_one_dimensional(self):
        N, r = 2000, r_for_target_overhead(2000, 0.1)
        _, layout = advanced_store(N, r * N + r * (r + 1) // 2, r,
                                   backend="symbolic")
        arrays = {f.name: getattr(layout, f.name)
                  for f in dataclasses.fields(layout)
                  if isinstance(getattr(layout, f.name), np.ndarray)}
        assert {"rot", "heldLo", "heldHi", "helperLo"} <= set(arrays)
        # the labels add the r helper labels to one per node
        assert {name: a.shape for name, a in arrays.items()} == {
            name: (N + r,) if name == "labels" else (N,) for name in arrays}


def with_labels(primaries, helpers):
    """A symbolic layout with N = len(primaries), r = len(helpers) and the
    given labels."""
    _, layout = symbolic_cluster(N=len(primaries), r=len(helpers))
    layout.labels[:] = primaries + helpers
    return layout


class TestEfiRotation:
    """The fragment labels (EFIs) rotate as one permutation array on the
    layout, with the step in flight beside them; assert_distinct checks it
    in full after each commit."""

    @pytest.mark.parametrize("primaries, helpers", [
        ([0, 1, 2, 1, 4], [5, 6, 7]),       # a repeated primary label
        ([0, 1, 2, 3, 4], [5, 7, 7]),       # a repeated helper label
        ([0, 1, 2, 3, 4], [5, 6, 0]),       # a helper repeating a primary
        ([0, 1, -1, 3, 4], [5, 6, 7]),      # a negative label
        ([0, 1, 2, 3, 4], [5, 6, -1]),      # -1 where N + r - 1 belongs
        ([0, 1, 2, 3, 4], [5, 6, 8]),       # a label >= N + r
        ([0, 1, 2, 3, 4], [5, 6, 800]),
    ])
    def test_assert_distinct_rejects(self, primaries, helpers):
        layout = with_labels(primaries, helpers)
        with pytest.raises(InvariantViolation, match="not a permutation"):
            layout.assert_distinct()
        # a commit moves labels without mending them, and checks them
        layout.begin_step(0)
        with pytest.raises(InvariantViolation, match="not a permutation"):
            layout.commit_step()

    def test_commit_moves_front_helper_in_and_old_label_back(self):
        layout = with_labels([3, 0, 4, 1, 2], [7, 5, 6])
        layout.assert_distinct()
        layout.begin_step(2)
        post = layout.post_helpers()
        assert post.tolist() == [5, 6, 4] and post.dtype == np.int64
        assert layout.post_helpers() is post    # built once per step
        layout.commit_step()
        assert layout.pendingNode is None and layout.postHelpers is None
        assert layout.labels[:5].tolist() == [3, 0, 7, 1, 2]
        assert layout.labels[5:].tolist() == post.tolist()
        layout.assert_distinct()
        layout.begin_step(0)
        assert layout.post_helpers().tolist() == [6, 4, 3]
        layout.commit_step()
        assert layout.labels.tolist() == [5, 0, 7, 1, 2, 6, 4, 3]

    def test_commit_needs_a_step_and_works_with_one_helper(self):
        layout = with_labels([0, 1], [2])
        with pytest.raises(InvariantViolation, match="no repair step"):
            layout.commit_step()
        assert layout.labels.tolist() == [0, 1, 2]
        layout.begin_step(1)
        layout.commit_step()
        assert layout.labels.tolist() == [0, 2, 1]

    def test_second_step_while_one_is_in_flight_raises(self):
        state, layout = symbolic_cluster(N=8, r=2)
        adv._StepChain(state, layout, 3, 1.0)
        with pytest.raises(InvariantViolation, match="already in flight"):
            adv._StepChain(state, layout, 5, 1.0)
        assert layout.pendingNode == 3
        assert (layout.heldLo[5], layout.heldHi[5]) == (0, 8)  # not wiped
        with pytest.raises(InvariantViolation, match="already in flight"):
            layout.begin_step(3)


def expand(layout):
    """(N, N) bool of the intervals: row n holds groups heldLo..heldHi-1."""
    groups = np.arange(layout.N)
    return ((groups >= layout.heldLo[:, None])
            & (groups < layout.heldHi[:, None]))


def reference_pick(column, group, phys, exclude, need):
    """The per-node loop the vectorised pick replaced."""
    picked = []
    for node, held in enumerate(column):
        if held and node != exclude:
            picked.append(node)
            if len(picked) == need:
                return picked
    raise DecodeError(
        f"object ({group},{phys}) has {len(picked)} primary sources, need {need}")


def assert_pick_matches(column, pick, group, phys, exclude, need):
    """pick() must return reference_pick's nodes, or raise its DecodeError."""
    try:
        want = reference_pick(column, group, phys, exclude, need)
    except DecodeError as e:
        with pytest.raises(DecodeError) as got:
            pick()
        assert str(got.value) == str(e)
        raise
    got = pick()
    assert got.tolist() == want
    return got


@st.composite
def interval_rows(draw, N):
    # one draw per row: two run ends in 0..N, in either order; -1 and -2
    # give more full rows (code N)
    codes = np.array(draw(st.lists(st.integers(-2, (N + 1) ** 2 - 1),
                                   min_size=N, max_size=N)), dtype=np.int64)
    codes[codes < 0] = N
    ends = np.sort(np.stack(np.divmod(codes, N + 1), axis=1), axis=1)
    empty = ends[:, 0] == ends[:, 1]
    ends[empty] = 0
    return SimpleNamespace(N=N, heldLo=ends[:, 0].copy(),
                           heldHi=ends[:, 1].copy())


@st.composite
def pick_cases(draw):
    N = draw(st.integers(2, 40))
    layout = draw(interval_rows(N))
    group = draw(st.integers(0, N - 1))
    exclude = draw(st.one_of(st.none(), st.integers(0, N - 1)))
    need = draw(st.integers(1, N))
    return layout, group, draw(st.integers(0, 7)), exclude, need


class TestPickPrimarySources:
    @settings(max_examples=300, deadline=None, database=None)
    @given(pick_cases())
    def test_matches_reference_loop(self, case):
        layout, group, phys, exclude, need = case
        try:
            assert_pick_matches(
                expand(layout)[:, group],
                lambda: adv._pick_primary_sources(layout, group, phys,
                                                  exclude, need),
                group, phys, exclude, need)
        except DecodeError:
            pass

    @settings(max_examples=150, deadline=None, database=None)
    @given(pick_cases())
    def test_holder_span_keeps_the_holder_set(self, case):
        layout, group, _, exclude, _ = case
        lo, hi = adv._holder_span(layout, group, exclude)
        assert 0 <= lo <= group < hi <= layout.N
        P = expand(layout)
        if exclude is not None:
            P[exclude] = False
        # the same holders across the span, and a change just outside it
        assert (P[:, lo:hi] == P[:, [group]]).all()
        for edge in (lo - 1, hi):
            if 0 <= edge < layout.N:
                assert not (P[:, edge] == P[:, group]).all()

    def test_short_column_message(self):
        # node 1 holds groups 3..5 and node 4 groups 0..1, so neither
        # holds group 2; node 0 is excluded
        layout = SimpleNamespace(N=6, heldLo=np.array([0, 3, 0, 0, 0, 0]),
                                 heldHi=np.array([6, 6, 6, 6, 2, 6]))
        assert [holds(layout, n, 2) for n in range(6)] == [
            True, False, True, True, False, True]
        with pytest.raises(DecodeError,
                           match=r"^object \(2,5\) has 3 primary sources, "
                                 r"need 4$"):
            adv._pick_primary_sources(layout, 2, 5, 0, 4)

    def test_periodic_step_picks_sources_once(self):
        state, layout = symbolic_cluster(N=20, r=4)
        advanced_fail_node(state, layout, 1.0, 7)
        with mock.patch.object(adv, "_pick_primary_sources",
                               wraps=adv._pick_primary_sources) as pick:
            rec = advanced_repair_step(state, layout, 7, t0=1.0, t1=2.0)
        # one holder set, the 19 full rows, serves the generate and all
        # 20 updates
        assert pick.call_count == 1
        assert len(rec.counts["update"]) == 20


class TestOpCounts:
    def test_periodic_step_per_invocation_identities(self):
        state, layout = symbolic_cluster(N=20, r=4)
        advanced_fail_node(state, layout, 1.0, 3)
        rec = advanced_repair_step(state, layout, 3, t0=1.0, t1=1.5)
        k, r, N = layout.k, layout.r, layout.N
        assert rec.counts["generate"] == [(k * r, r * (r + 1) // 2)]
        assert rec.counts["move"] == [(r, r)] * N
        assert rec.counts["update"] == [(k, r)] * N

    def test_periodic_step_read_write_totals(self):
        state, layout = symbolic_cluster(N=100, r=20)
        advanced_fail_node(state, layout, 0.0, 0)
        rec = advanced_repair_step(state, layout, 0, t0=0.0, t1=1.0)
        assert rec.counts["generate"] == [(1980, 210)]
        assert rec.bitsRead == 13880 * layout.flen
        # read bound is an inequality, write amount is an exact identity
        assert rec.bitsRead <= 100 * 140 / (20 * 110.5) * layout.clen
        assert rec.bitsWritten == 4210 * layout.flen
        assert rec.bitsWritten * 110.5 == pytest.approx(210.5 * layout.clen)

    def test_step_restores_full_invariant(self):
        state, layout = symbolic_cluster(N=20, r=4)
        advanced_fail_node(state, layout, 1.0, 7)
        assert len(census(layout)) == 19
        advanced_repair_step(state, layout, 7, t0=1.0, t1=2.0)
        assert_advanced_invariant(layout)
        assert (node_used_bits(layout) == layout.clen).all()
        layout.assert_distinct()

    def test_rotation_relabels_after_step(self):
        state, layout = symbolic_cluster(N=20, r=4)
        advanced_fail_node(state, layout, 1.0, 7)
        advanced_repair_step(state, layout, 7, t0=1.0, t1=2.0)
        assert layout.labels[7] == 20      # donated front helper label
        assert layout.labels[20:].tolist() == [21, 22, 23, 7]
        assert layout.labels[:20].tolist() == [*range(7), 20, *range(8, 20)]

    def test_reads_spread_over_step_window(self):
        state, layout = symbolic_cluster(N=20, r=4)
        advanced_fail_node(state, layout, 1.0, 3)
        rec = advanced_repair_step(state, layout, 3, t0=1.0, t1=3.0)
        assert (1.0, 3.0, rec.bitsRead) in state.read_log

    def test_byte_step_round_trips_real_data(self):
        state, layout = byte_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 5)
        advanced_repair_step(state, layout, 5, t0=1.0, t1=2.0)
        check_advanced_sync(layout)
        decode_all_from_primaries(layout)
        assert (owned_bits(layout) == layout.clen).all()

    def test_wiped_slot_fails_the_next_repair(self):
        # a slot that placement still counts as held, zeroed or dropped
        # from owner: the step reads it and must raise
        cases = (("payload", r"decode mismatch for object \(5,"),
                 ("owner", "primary map out of sync at node 0"),
                 ("helper", "helper map out of sync at node 2"))
        for wipe, message in cases:
            state, layout = byte_cluster(N=8, r=2)
            advanced_fail_node(state, layout, 1.0, 5)
            label = layout.labels[0]
            assert (layout.owner[5, :, label] == 0).all()
            if wipe == "payload":       # the generate for 5 decodes from it
                assert layout.frags[5, :, label].any()
                layout.frags[5, :, label] = 0
            elif wipe == "owner":
                layout.owner[5, :, label] = -1
            else:                       # helperLo[2] still says held
                layout.owner[2, 0, layout.labels[layout.N]] = -1
            with pytest.raises(InvariantViolation, match=message):
                advanced_repair_step(state, layout, 5, t0=1.0, t1=2.0)


class TestStandaloneOps:
    def test_generate_counts_and_meter(self):
        state, layout = byte_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 4)
        layout.begin_step(4)
        before = state.phase_read["store"]
        state.begin_phase("repair")
        counts = generate_helpers(state, layout, 4, t=1.0, exclude=4)
        assert counts == (layout.k * 2, 3)
        assert state.phase_read["repair"] == counts.fragmentReads * layout.flen
        assert state.phase_written["repair"] == counts.fragmentWrites * layout.flen
        assert layout.helperLo[4] == 0

    def test_move_conserves_used_bits(self):
        state, layout = byte_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 4)
        layout.begin_step(4)
        generate_helpers(state, layout, 4, t=1.0, exclude=4)
        frags = layout.frags.copy()
        donor_before, target_before = owned_bits(layout)[[6, 4]]
        counts = move_helpers(state, layout, one(6), 4, t=1.1)
        assert counts == (2, 2)
        assert owned_bits(layout)[6] == donor_before - 2 * layout.flen
        assert owned_bits(layout)[4] == target_before + 2 * layout.flen
        assert (layout.owner[6, :, layout.labels[layout.N]] == 4).all()
        assert np.array_equal(layout.frags, frags)      # no payload copy
        assert holds(layout, 4, 6) and layout.helperLo[6] == 1

    def test_move_that_splits_a_run_raises(self):
        state, layout = symbolic_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 4)
        layout.begin_step(4)
        move_helpers(state, layout, one(2), 4, t=1.1)
        move_helpers(state, layout, one(3), 4, t=1.1)
        assert (layout.heldLo[4], layout.heldHi[4]) == (2, 4)
        written = state.phase_written[state.phase]
        with pytest.raises(InvariantViolation, match="split the run"):
            move_helpers(state, layout, one(6), 4, t=1.2)
        assert (layout.heldLo[4], layout.heldHi[4]) == (2, 4)
        assert layout.helperLo[6] == 0
        assert state.phase_written[state.phase] == written

    def test_move_from_freshly_failed_donor_raises(self):
        state, layout = byte_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 4)
        advanced_fail_node(state, layout, 1.2, 6)
        layout.begin_step(4)
        with pytest.raises(MissingFragmentError):
            move_helpers(state, layout, one(6), 4, t=1.3)

    def test_update_on_wiped_anchor_raises(self):
        state, layout = byte_cluster(N=8, r=2)
        advanced_fail_node(state, layout, 1.0, 2)
        layout.begin_step(4)
        with pytest.raises(MissingFragmentError, match="node 2 holds no"):
            update_helpers(state, layout, one(2), t=1.0)
        assert layout.helperLo[2] == layout.r and layout.rot[2] == 0

    def test_update_requires_in_flight_step(self):
        state, layout = byte_cluster(N=8, r=2)
        with pytest.raises(InvariantViolation):
            update_helpers(state, layout, one(2), t=1.0)

    def test_update_shifts_group_order(self):
        state, layout = byte_cluster(N=8, r=3)
        front_before = layout.front_phys(2)
        advanced_fail_node(state, layout, 1.0, 0)
        advanced_repair_step(state, layout, 0, t0=1.0, t1=2.0)
        assert layout.front_phys(2) == (front_before + 1) % 3

    def test_group_order_returns_after_r_steps(self):
        state, layout = byte_cluster(N=8, r=3)
        for i, t in zip((0, 1, 2), (1.0, 2.0, 3.0)):
            advanced_fail_node(state, layout, t, i)
            advanced_repair_step(state, layout, i, t0=t, t1=t + 0.5)
        assert (layout.rot % 3 == 0).all()
        assert_advanced_invariant(layout)
        check_advanced_sync(layout)
        decode_all_from_primaries(layout)


class DenseStaircases:
    """The (N, r, r) bool model the helperLo integer replaced: H[g, p, m]
    is True when anchor g holds helper role m of object (g, p)."""

    def __init__(self, N, r):
        self.r = r
        self.tri = np.zeros((r, r, r), dtype=bool)
        for v in range(r):
            for p in range(r):
                self.tri[v, p, : (p - v) % r + 1] = True
        self.H = np.tile(self.tri[0], (N, 1, 1))

    def generate(self, g, rot):
        self.H[g] |= self.tri[rot % self.r]

    def move(self, g):
        self.H[g, :, 0] = False

    def update(self, g, p0):
        self.H[g, :, : self.r - 1] = self.H[g, :, 1:]
        self.H[g, :, self.r - 1] = False
        self.H[g, p0, :] = True

    def wipe(self, g):
        self.H[g] = False


class DensePlacement:
    """The (N, N) bool model the held-group intervals replaced: P[n, g] is
    True when node n holds the primaries of group g."""

    def __init__(self, N):
        self.P = np.ones((N, N), dtype=bool)

    def clear(self, node):
        self.P[node] = False

    def splits(self, fromNode, toNode):
        """Whether holding fromNode's group leaves toNode's row two runs."""
        row = self.P[toNode].copy()
        row[fromNode] = True
        return not one_run(row)

    def move(self, fromNode, toNode):
        self.P[toNode, fromNode] = True


def one_run(row):
    held = np.flatnonzero(row)
    return len(held) == 0 or held[-1] - held[0] + 1 == len(held)


def expand_staircases(layout):
    """(N, r, r) bool of helperLo with rot: anchor g holds helper role m of
    object (g, p)."""
    roles = np.arange(layout.r)
    position = (roles[None, :] - layout.rot[:, None]) % layout.r
    return ((roles >= layout.helperLo[:, None, None])
            & (roles <= position[:, :, None]))


def assert_closed_forms(layout, P, H, intact):
    """census, recoverable_census and node_used_bits against the dense
    placement P, staircases H and per-anchor staircase flags."""
    N, r, k = layout.N, layout.r, layout.k
    assert (layout.heldLo <= layout.heldHi).all()
    assert all(one_run(row) for row in P)
    assert np.array_equal(expand(layout), P)
    assert census(layout) == np.flatnonzero(P.all(axis=1) & intact).tolist()
    per_object = P.sum(axis=0)[:, None] + H.sum(axis=2)
    assert recoverable_census(layout) == bool(
        np.count_nonzero(P.all(axis=1)) >= k or per_object.min() >= k)
    assert np.array_equal(node_used_bits(layout),
                          (P.sum(axis=1) * r + H.reshape(N, -1).sum(axis=1))
                          * layout.flen)


def assert_matches_dense(layout, dense, place):
    assert np.array_equal(expand_staircases(layout), dense.H)
    intact = (dense.H == dense.tri[layout.rot % layout.r]).all(axis=(1, 2))
    assert_closed_forms(layout, place.P, dense.H, intact)


@st.composite
def staircase_runs(draw):
    N = draw(st.integers(2, 12))
    r = draw(st.integers(1, 6))
    eps = draw(st.sampled_from([0.0, 0.4, 0.8]))
    op = st.tuples(st.sampled_from(["fail", "generate", "moveupdate",
                                    "movestall"]),
                   st.integers(0, N - 1), st.integers(0, N - 1))
    return N, r, eps, draw(st.lists(op, max_size=30))


class TestStaircaseAgainstDenseModel:
    """helperLo with rot must expand to exactly the staircases the dense
    (N, r, r) rules produce, including the front-donated state that only a
    stalled update leaves behind; heldLo/heldHi must expand to the dense
    (N, N) placement, and a move that would split a run must raise."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(staircase_runs())
    def test_ops_match_dense_rules(self, run):
        N, r, eps, ops = run
        try:
            state, layout = symbolic_cluster(
                N=N, r=r, variant="poisson" if eps else "periodic", eps=eps)
        except (ConfigError, InvariantViolation):
            assume(False)
        dense, place = DenseStaircases(N, r), DensePlacement(N)
        assert_matches_dense(layout, dense, place)
        for t, (kind, a, b) in enumerate(ops, start=1):
            layout.pendingNode = b      # updates need a step in flight
            ctx = (state, layout)
            if kind == "fail":
                advanced_fail_node(state, layout, float(t), a)
                dense.wipe(a)
                place.clear(a)
            elif kind == "generate":
                try:
                    generate_helpers(*ctx, a, t=float(t), exclude=b)
                    dense.generate(a, layout.rot[a])
                except DecodeError:
                    pass
            elif not dense.H[a, :, 0].all():
                with pytest.raises(MissingFragmentError):
                    move_helpers(*ctx, one(a), b, t=float(t))
            elif place.splits(a, b):
                with pytest.raises(InvariantViolation, match="split"):
                    move_helpers(*ctx, one(a), b, t=float(t))
            else:
                move_helpers(*ctx, one(a), b, t=float(t))
                dense.move(a)
                place.move(a, b)
                if kind == "movestall":
                    with mock.patch.object(adv, "_pick_primary_sources",
                                           side_effect=DecodeError("forced")):
                        with pytest.raises(DecodeError):
                            update_helpers(*ctx, one(a), t=float(t),
                                           exclude=b)
                    assert layout.helperLo[a] == 1
                else:
                    p0 = layout.front_phys(a)
                    try:
                        update_helpers(*ctx, one(a), t=float(t), exclude=b)
                        dense.update(a, p0)
                    except DecodeError:
                        pass
            assert_matches_dense(layout, dense, place)


@st.composite
def poisson_chains(draw):
    N = draw(st.integers(6, 40))
    r = draw(st.integers(1, 4))
    eps = draw(st.sampled_from([0.3, 0.6, 0.9]))
    # after the first failure, each op processes some completions, fewer
    # than a whole chain's N + 1, then fails the step's target, the donor
    # of the in-flight sub-operation or any node, part way through it
    victim = st.one_of(st.sampled_from(["target", "donor"]),
                       st.integers(0, N - 1))
    op = st.tuples(st.integers(0, N), victim, st.floats(0.0, 1.0))
    return (N, r, eps, draw(st.integers(0, N - 1)),
            draw(st.lists(op, min_size=1, max_size=6)))


class TestChainAgainstDensePlacement:
    """Symbolic Poisson chains with donors and targets failing mid-step:
    after every event the intervals must expand to the dense (N, N)
    placement, the closed forms must match it, and every source pick the
    chain uses, reused or fresh, must be reference_pick on the dense model
    at that moment."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(poisson_chains())
    def test_chain_events_match_dense_placement(self, run):
        N, r, eps, first, ops = run
        try:
            state, layout, rep = poisson_fixture(N=N, r=r, eps=eps,
                                                 lam=1.0 / N)
        except (ConfigError, InvariantViolation):
            assume(False)
        place = DensePlacement(N)
        picks = []
        real_move, real_pick = adv._Window.move, adv._Window.pick

        def move(window, groups, toNode, items):
            real_move(window, groups, toNode, items)
            for group in groups:
                place.move(group, toNode)

        def pick(window, group, exclude, need):
            phys, got = layout.front_phys(group), []
            picks.append(group)
            assert_pick_matches(
                place.P[:, group],
                lambda: got.append(real_pick(window, group, exclude,
                                             need)) or got[0][0],
                group, phys, exclude, need)
            srcs, lo, hi = got[0]
            # every group of the span the pick serves must pick the same
            for g in range(lo, hi):
                assert reference_pick(place.P[:, g], g, phys, exclude,
                                      need) == srcs.tolist()
            return got[0]

        def event(call, *args):
            chain = rep.chain
            call(*args)
            if rep.chain is not None and rep.chain is not chain:
                place.clear(layout.pendingNode)  # a new step wiped its target
            intact = layout.helperLo == 0
            assert_closed_forms(layout, place.P,
                                expand_staircases(layout), intact)

        now = 0.0       # the last event's time

        def fail(t, node):
            nonlocal now
            now = t
            place.clear(node)
            event(rep.on_failure, t, node)

        def complete(count):
            nonlocal now
            for _ in range(count):
                if rep.subop is None:
                    return
                now = rep.next_completion()
                event(rep.on_subop_complete, now)

        with mock.patch.object(adv._Window, "move", move), \
                mock.patch.object(adv._Window, "pick", pick):
            try:
                fail(1.0, first)
                for count, victim, frac in ops:
                    complete(count)
                    sub = rep.subop
                    if sub is None:
                        t = now + 1.0
                    else:
                        t = sub.t0 + frac * (sub.t1 - sub.t0)
                    if victim == "target":
                        victim = layout.pendingNode if rep.chain else first
                    elif victim == "donor":
                        victim = sub.group if sub else first
                    fail(t, victim)
                complete(4 * N * N)
            except DecodeError:
                pass                # a stall ends the trial, as in sim_engine
        assert picks


class TestPeriodicRandomChurn:
    def test_invariant_and_bound_across_many_steps(self):
        state, layout = symbolic_cluster(N=20, r=4)
        state.begin_phase("repair")
        g = rng.stream(202, 0, rng.SUB_FAILURE_IDS)
        bound = layout.N * (layout.N + 2 * layout.r) * layout.flen
        t = 0.0
        for _ in range(200):
            t += 1.0
            victim = int(g.integers(layout.N))
            advanced_fail_node(state, layout, t, victim)
            assert recoverable_census(layout)
            rec = advanced_repair_step(state, layout, victim, t0=t,
                                       t1=t + 0.5)
            assert rec.bitsRead <= bound
            assert rec.bitsWritten == 4 * 5 // 2 * layout.flen + 2 * 20 * 4 * layout.flen
            assert_advanced_invariant(layout)
            assert (node_used_bits(layout) == layout.clen).all()
        layout.assert_distinct()


class TestPeriodicThroughRepairer:
    """The repairer's whole-step event and advanced_repair_step must do the
    same work on the same store."""

    def test_step_event_matches_synchronous_step(self):
        sync, paced = byte_cluster(N=8, r=2), byte_cluster(N=8, r=2)
        for state, _ in (sync, paced):
            state.begin_phase("repair")
        s_state, s_layout = sync
        p_state, p_layout = paced
        rep = AdvancedPoissonRepairer(p_state, p_layout, 0.5)
        for t, node in ((1.0, 3), (2.0, 3), (3.0, 6)):
            advanced_fail_node(s_state, s_layout, t, node)
            want = advanced_repair_step(s_state, s_layout, node, t0=t,
                                        t1=t + 0.5)
            rep.on_failure(t, node)
            assert rep.next_completion() == t + 0.5
            got = rep.on_subop_complete(t + 0.5)
            assert got == want
            assert rep.idle and rep.counter.value == 1
            for name in ("heldLo", "heldHi", "helperLo", "rot"):
                assert np.array_equal(getattr(p_layout, name),
                                      getattr(s_layout, name))
            assert np.array_equal(p_layout.labels, s_layout.labels)
            assert p_layout.pendingNode is s_layout.pendingNode is None
            assert p_state.read_log == s_state.read_log
            check_advanced_sync(p_layout)
        decode_all_from_primaries(p_layout)

    def test_failure_during_step_violates_contract(self):
        state, layout = byte_cluster(N=8, r=2)
        rep = AdvancedPoissonRepairer(state, layout, 0.5)
        rep.on_failure(1.0, 3)
        with pytest.raises(InvariantViolation):
            rep.on_failure(1.2, 5)


class TestPacedStepMatchesSynchronous:
    """On a Poisson store, a step the repairer paces one sub-operation at a
    time, each committed at its end time (all of them in one call given an
    infinite horizon), must do the work advanced_repair_step does at once:
    the same placement, labels, payloads, meters and record.  Only the read
    log differs, one entry per sub-operation against one per step."""

    @pytest.mark.parametrize("backend", ["byte", "symbolic"])
    @pytest.mark.parametrize("N, r, eps", [(10, 2, 0.4), (24, 4, 0.2),
                                           (40, 8, 0.9), (17, 3, 0.5)])
    def test_six_steps_agree(self, N, r, eps, backend):
        make = byte_cluster if backend == "byte" else symbolic_cluster
        (s_state, s_layout), (p_state, p_layout) = (
            make(N=N, r=r, variant="poisson", eps=eps) for _ in range(2))
        for state in (s_state, p_state):
            state.begin_phase("repair")
        rep = AdvancedPoissonRepairer(p_state, p_layout,
                                      poisson_pace(p_layout, 1.0 / N, eps))
        ids = rng.stream(31, 0, rng.SUB_FAILURE_IDS)
        t = 1.0
        for _ in range(6):
            node = int(ids.integers(N))
            rep.on_failure(t, node)
            got = rep.on_subop_complete(rep.next_completion(), math.inf)
            assert got is not None and rep.idle
            advanced_fail_node(s_state, s_layout, t, node)
            want = advanced_repair_step(s_state, s_layout, node, t0=t,
                                        t1=got.endTime)
            assert got == want
            for name in ("heldLo", "heldHi", "helperLo", "rot", "labels",
                         "owner", "frags"):
                assert np.array_equal(getattr(p_layout, name),
                                      getattr(s_layout, name)), name
            for name in ("nodeBitsRead", "nodeBitsWritten"):
                assert np.array_equal(getattr(p_state, name),
                                      getattr(s_state, name)), name
            assert (p_state.phase_read, p_state.phase_written) == (
                s_state.phase_read, s_state.phase_written)
            t = got.endTime + 1.0
        assert len(p_state.read_log) > len(s_state.read_log) == 6
        check_advanced_sync(p_layout)


def drop(layout, groups, labels):
    """Empty the byte slots of the groups' objects at labels."""
    if layout.owner is not None:
        slots = np.ix_(groups, range(layout.r), labels)
        layout.owner[slots] = -1
        layout.frags[slots] = 0


def cut_row(state, layout, node, lo, hi):
    """Shrink node's row to the groups it holds within lo..hi-1, dropping
    the other primaries from the byte arrays, as an interrupted chain
    leaves a row."""
    held = range(int(layout.heldLo[node]), int(layout.heldHi[node]))
    lo, hi = max(lo, held.start), min(hi, held.stop)
    drop(layout, [g for g in held if not lo <= g < hi],
         [layout.labels[node]])
    layout.heldLo[node], layout.heldHi[node] = (lo, hi) if lo < hi else (0, 0)


def drop_staircases(state, layout, anchors):
    """The fault hook's damage, helperLo = r, with the byte helper slots
    emptied to match."""
    drop(layout, anchors, layout.labels[layout.N:])
    layout.helperLo[anchors] = layout.r


@st.composite
def periodic_step_cases(draw):
    N = draw(st.integers(3, 12))
    # a row cut short, unless it is the target's, leaves some groups with
    # too few holders: the step stalls at the first pick that falls short
    cuts = st.tuples(st.integers(0, N - 1), st.integers(0, N),
                     st.integers(0, N))
    return SimpleNamespace(
        N=N, r=draw(st.integers(1, 3)), target=draw(st.integers(0, N - 1)),
        backend=draw(st.sampled_from(["byte", "symbolic"])),
        drop=draw(st.booleans()), cuts=draw(st.lists(cuts, max_size=2)))


class TestBatchedStepMatchesOneGroupAtATime:
    """_StepChain.run() commits the whole chain as one plan; replaying the
    step one sub-operation per commit, as a Poisson chain may, must leave the
    same placement, meters, counts and error, stall or not."""

    @staticmethod
    def build(case):
        make = byte_cluster if case.backend == "byte" else symbolic_cluster
        state, layout = make(N=case.N, r=case.r)
        state.begin_phase("repair")
        if case.drop:
            drop_staircases(state, layout, [0, 1])
        for node, a, b in case.cuts:
            cut_row(state, layout, node, min(a, b), max(a, b))
        advanced_fail_node(state, layout, 1.0, case.target)
        return state, layout

    @staticmethod
    def step(state, layout, target, batched):
        chain = adv._StepChain(state, layout, target, 1.0)
        try:
            if batched:
                return chain, chain.run(1.0, 2.0), None
            try:
                for kind, group in iter(chain.next_subop, None):
                    chain.commit(*chain.plan(kind, group, 0))
            finally:    # a stall still meters the reads committed before it
                chain.meter(1.0, 2.0)
            return chain, chain.finish(2.0), None
        except DecodeError as e:
            return chain, None, str(e)

    @settings(max_examples=150, deadline=None, database=None)
    @given(periodic_step_cases())
    def test_run_matches_single_group_commits(self, case):
        runs = []
        for batched in (True, False):
            state, layout = self.build(case)
            chain, rec, err = self.step(state, layout, case.target, batched)
            runs.append((state, layout, chain, rec, err))
            if err is None:
                check_advanced_sync(layout)
        (bs, bl, bc, brec, berr), (ss, sl, sc, srec, serr) = runs
        assert berr == serr and brec == srec
        for name in ("heldLo", "heldHi", "helperLo", "rot"):
            assert np.array_equal(getattr(bl, name), getattr(sl, name)), name
        for name in ("nodeBitsRead", "nodeBitsWritten"):
            assert np.array_equal(getattr(bs, name), getattr(ss, name)), name
        assert (bs.phase_read, bs.phase_written) == (ss.phase_read,
                                                     ss.phase_written)
        assert bs.read_log == ss.read_log
        assert bc.counts == sc.counts
        if case.backend == "byte":
            assert np.array_equal(bl.frags, sl.frags)
            assert np.array_equal(bl.owner, sl.owner)

    def test_stall_meters_committed_reads_over_the_step(self):
        # groups 0-2 already moved to node 5; with 6, 7 and 0 down too,
        # group 3 keeps 6 primary sources of the k = 7 it needs
        state, layout = advanced_store(
            10, (2 * 10 + 3) * 8, 2, variant="poisson", eps=0.5,
            backend="symbolic")
        assert (layout.k, layout.flen) == (7, 8)
        state.begin_phase("repair")
        advanced_fail_node(state, layout, 1.0, 5)
        move_helpers(state, layout, range(0, 3), 5, t=1.0)
        for node in (6, 7, 0):
            advanced_fail_node(state, layout, 1.0, node)
        read, written = (state.phase_read["repair"],
                         state.phase_written["repair"])
        logged = len(state.read_log)
        with pytest.raises(DecodeError, match=r"object \(3,"):
            advanced_repair_step(state, layout, 0, t0=2.0, t1=3.0)
        read = state.phase_read["repair"] - read
        assert state.phase_written["repair"] - written == 184
        assert read > 0
        assert list(state.read_log)[logged:] == [(2.0, 3.0, read)]

    def test_stall_leaves_the_short_group_moved(self):
        # node 2's row ends before group 5: groups 0..4 keep their N - 1
        # holders besides target 3, group 5 is one short of k = N - 1
        case = SimpleNamespace(N=8, r=2, target=3, backend="symbolic",
                               drop=False, cuts=[(2, 0, 5)])
        state, layout = self.build(case)
        chain, rec, err = self.step(state, layout, 3, True)
        assert rec is None and err.startswith("object (5,")
        assert layout.helperLo.tolist() == [0] * 5 + [1, 0, 0]
        assert (layout.heldLo[3], layout.heldHi[3]) == (0, 6)
        assert len(chain.counts["move"]) == 6
        assert len(chain.counts["update"]) == 5


def rebuild_in_one_window(layout, groups, phys, srcs, labels, width):
    """The rebuild as a sub-operation records it, a generate's staircase or
    an update's back objects at the store's labels, and its window settles
    it."""
    window = adv._Window(layout)
    if (width < layout.r).any():        # a staircase: one group, phys j
        window.generate(int(groups[0]), srcs, 0)
    else:       # an update rebuilds rot's object at the step's post labels
        layout.rot[groups] = phys
        layout.pendingNode, layout.postHelpers = 0, labels
        window.update(range(groups[0], groups[-1] + 1), srcs,
                      np.arange(len(groups)))
        layout.pendingNode = layout.postHelpers = None
    window.settle()


def rebuild_one_at_a_time(layout, groups, phys, srcs, labels, width):
    """The rebuild a window settles, one object per decode."""
    read = [layout.labels[m] for m in srcs.tolist()]
    for g, p, w in zip(groups.tolist(), phys.tolist(), width.tolist()):
        stray = layout.owner[g, p, read] != srcs
        if stray.any():
            raise InvariantViolation(
                f"primary map out of sync at node {srcs[stray.argmax()]}")
        obj = layout.frags[g, p].copy()
        erasure.decode_in_place(obj, read, layout.codec)
        helpers = erasure.encode_rows(obj, labels[:w], layout.codec)
        if not np.array_equal(obj[:layout.k], layout.code[g, p, :layout.k]):
            raise InvariantViolation(f"decode mismatch for object ({g},{p})")
        layout.frags[g, p, labels[:w]] = helpers
        layout.owner[g, p, labels[:w]] = g


@st.composite
def rebuild_cases(draw):
    N = draw(st.integers(3, 12))
    r = draw(st.integers(1, 4))
    staircase = draw(st.booleans())     # a generate's shape, else an update's
    if staircase:
        group = draw(st.integers(0, N - 1))
        groups, phys = np.full(r, group), np.arange(r)
        width = np.arange(1, r + 1)
    else:
        lo = draw(st.integers(0, N - 1))
        groups = np.arange(lo, draw(st.integers(lo + 1, N)))
        phys = np.array(draw(st.lists(st.integers(0, r - 1),
                                      min_size=len(groups),
                                      max_size=len(groups))))
        width = np.full(len(groups), r)
    # up to two objects get a primary zeroed or dropped from owner
    wipes = draw(st.lists(st.tuples(st.integers(0, len(groups) - 1),
                                    st.sampled_from(["payload", "owner"])),
                          max_size=2))
    return SimpleNamespace(N=N, r=r, groups=groups, phys=phys, width=width,
                           wipes=wipes, seed=draw(st.integers(0, 99)),
                           skip=draw(st.integers(0, N - 1)))


class TestBatchedRebuild:
    """_Window.settle decodes objects read at the same labels in one product
    and copies their helpers from the stored codewords; decoding and
    re-encoding each object with decode_in_place and encode_rows must write
    the same bytes and owners, and raise the same error after the same
    writes."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rebuild_cases())
    def test_matches_per_object_decodes(self, case):
        runs = []
        for rebuild in (rebuild_in_one_window, rebuild_one_at_a_time):
            state, layout = byte_cluster(N=case.N, r=case.r, seed=case.seed)
            labels = layout.labels[layout.N:]
            drop(layout, range(case.N), labels)   # so every write shows
            # sources: the first k nodes but one
            srcs = np.delete(np.arange(case.N), case.skip % case.N)[:layout.k]
            for i, wipe in case.wipes:
                g, p = case.groups[i], case.phys[i]
                label = layout.labels[srcs[-1]]
                if wipe == "payload":
                    layout.frags[g, p, label] = 0
                else:
                    layout.owner[g, p, label] = -1
            try:
                rebuild(layout, case.groups, case.phys, srcs, labels,
                        case.width)
                err = None
            except InvariantViolation as e:
                err = str(e)
            runs.append((layout, err))
        (bl, berr), (sl, serr) = runs
        assert berr == serr
        if any(wipe == "owner" for _, wipe in case.wipes):
            assert berr is not None
        assert np.array_equal(bl.frags, sl.frags)
        assert np.array_equal(bl.owner, sl.owner)

    def test_repair_steps_never_encode(self, monkeypatch):
        # the advanced-poisson-byte benchmark's trial: N = 40, r = 8,
        # eps = 0.9, 32-byte fragments, 18 failures; after the store build
        # every rebuild decodes and copies its helpers from the codewords
        N, r, eps, flen = 40, 8, 0.9, 256
        clen = flen * (r * N + r * (r + 1) // 2)
        cap = int(eps / 2 * N) + 1
        sc = sim_engine.Scenario(
            sysParams=SystemParams(N=N, clen=clen, xlen=(N - cap) * clen,
                                   lam=1.0 / N),
            repairer="advancedLiquid", variant="poisson", codecBackend="byte",
            eps=EpsilonSet(0.1, 0.1, eps), advancedR=r, failureCount=18,
            seed=5)
        calls = {"decode_in_place": 0, "encode_rows": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(erasure, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(erasure, name, counted)
        store, built = adv.advanced_store, []

        def store_then_count(*args, **kwargs):
            out = store(*args, **kwargs)
            built.append(calls["encode_rows"])
            calls["encode_rows"] = 0
            return out

        monkeypatch.setattr(adv, "advanced_store", store_then_count)
        res = sim_engine.run_trial(sc, 0)
        assert res.recoverableThroughout
        assert built == [1]             # the store's one stacked product
        assert calls["decode_in_place"] > 18
        assert calls["encode_rows"] == 0


def clear_row_by_mask(layout, node):
    """_clear_row's payload clear as one boolean mask over the store."""
    gone = layout.owner == node
    layout.owner[gone] = -1
    layout.frags[gone] = 0


class TestClearRow:
    """_clear_row zeroes a node's slots through flat indices; it must do
    what the boolean-mask clear does and touch no other node's slots."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(N=st.integers(3, 10), r=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16), node=st.integers(0, 9))
    def test_flat_clear_matches_mask(self, N, r, seed, node):
        node %= N
        _, layout = byte_cluster(N=N, r=r, seed=seed)
        # a random store: any node, or none, owns any slot
        g = np.random.default_rng(seed)
        layout.owner[...] = g.integers(-1, N, layout.owner.shape)
        layout.frags[...] = g.integers(0, 256, layout.frags.shape) * (
            layout.owner >= 0)[..., None]
        before = SimpleNamespace(owner=layout.owner.copy(),
                                 frags=layout.frags.copy())
        oracle = SimpleNamespace(owner=layout.owner.copy(),
                                 frags=layout.frags.copy())
        clear_row_by_mask(oracle, node)
        adv._clear_row(layout, node)
        assert np.array_equal(layout.owner, oracle.owner)
        assert np.array_equal(layout.frags, oracle.frags)
        others = before.owner != node
        assert np.array_equal(layout.owner[others], before.owner[others])
        assert np.array_equal(layout.frags[others], before.frags[others])
        assert not (layout.owner == node).any()
        assert (layout.heldLo[node], layout.heldHi[node]) == (0, 0)
        assert layout.helperLo[node] == r


def proof_rate(layout, lam, eps):
    return advanced_schedule(layout.counterCap, lam, layout.N, layout.beta,
                             eps, clen=layout.clen).rateProof


def poisson_pace(layout, lam, eps):
    """The (move+update, generate) durations sim_engine._pace gives: each
    sub-operation's read bits over the proof's read rate."""
    rate = proof_rate(layout, lam, eps)
    return tuple(bits / rate for bits, _ in
                 adv.subop_bits(layout.k, layout.r, layout.flen))


def poisson_fixture(N=40, r=8, eps=0.3, lam=1.0 / 40.0, backend="symbolic"):
    divisor = r * N + r * (r + 1) // 2
    if backend == "byte":
        state, layout = byte_cluster(N=N, r=r, variant="poisson", eps=eps)
    else:
        state, layout = advanced_store(N, divisor, r, variant="poisson",
                                       eps=eps, backend="symbolic")
    rep = AdvancedPoissonRepairer(state, layout,
                                  poisson_pace(layout, lam, eps))
    state.begin_phase("repair")
    return state, layout, rep


class TestSchedule:
    def test_rate_coefficients(self):
        s = advanced_schedule(3, 0.01, 100, 0.1, 0.02, clen=1000)
        lamN = 0.01 * 100
        base = 0.9 / 0.99 * lamN * 1000
        assert s.rateTheorem == pytest.approx(base * (1 + 1 / 0.18))
        assert s.rateProof == pytest.approx(base * (2 + 1 / 0.18))
        assert round(s.rateTheorem / (lamN * 1000), 2) == 5.96

    def test_zero_eps_gives_matched_step_time(self):
        s = advanced_schedule(1, 0.5, 10, 0.2, 0.0, clen=100)
        assert s.moveUpdateTimeBound == pytest.approx(1.0 / (0.5 * 10))
        assert s.genTimeBound == pytest.approx(1.0 / 5.0 * 0.4 / 1.4)

    def test_steps_time_bound(self):
        s = advanced_schedule(4, 0.1, 20, 0.25, 0.1, clen=60)
        m = 9
        want = (1 - 0.05) / 2.0 * (m - 4 / 1.5)
        assert s.steps_time_bound(m) == pytest.approx(want)

    def test_delta_formula(self):
        eps, beta, N = 0.1, 0.1, 1000
        s = advanced_schedule(2, 0.001, N, beta, eps, clen=10)
        want = math.exp(-eps ** 2 * (1 - eps / 2) * beta * N / (4 * (2 * beta + 1)))
        assert s.deltaTheorem == pytest.approx(want)

    def test_rejects_thin_overhead(self):
        with pytest.raises(ConfigError):
            advanced_schedule(1, 0.1, 10, 0.05, 0.2, clen=10)


class TestPoissonProtocol:
    def test_failure_when_idle_starts_generate_for_target(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        assert layout.pendingNode == 5
        sub = rep.subop
        assert sub.kind == "generate" and sub.group == 5
        want = (layout.k * layout.r * layout.flen
                / proof_rate(layout, 1.0 / 40.0, 0.3))
        assert sub.t1 == pytest.approx(1.0 + want)

    def test_chain_runs_to_completion_and_recovers(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        rec = None
        for _ in range(layout.N + 1):
            rec = rep.on_subop_complete(rep.next_completion())
            if rec is not None:
                break
        assert rec is not None and not rec.futile
        assert rec.counts["generate"] == [(layout.k * layout.r,
                                           layout.r * (layout.r + 1) // 2)]
        assert len(rec.counts["move"]) == layout.N
        assert rep.counter.value == rep.counter.cap
        assert rep.idle and not rep.queue
        assert_advanced_invariant(layout)

    def test_pacing_identity(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        while rep.subop is not None:
            rec = rep.on_subop_complete(rep.next_completion())
            if rec is not None:
                break
        assert rec.endTime - rec.startTime == pytest.approx(
            rec.bitsRead / proof_rate(layout, 1.0 / 40.0, 0.3))

    def test_donor_failure_mid_move_triggers_regenerate(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        rep.on_subop_complete(rep.next_completion())   # generate for 5
        sub = rep.subop
        assert sub.kind == "moveupdate" and sub.group == 0
        read_before = state.phase_read["repair"]
        t_mid = (sub.t0 + sub.t1) / 2.0
        rep.on_failure(t_mid, 0)
        # aborted pro-rata reads: about half of (r + k) fragments
        prorated = state.phase_read["repair"] - read_before
        assert 0 < prorated <= (layout.r + layout.k) * layout.flen
        sub = rep.subop
        assert sub.kind == "generate" and sub.group == 0
        rep.on_subop_complete(rep.next_completion())
        assert rep.subop.kind == "moveupdate" and rep.subop.group == 0

    def test_stalled_subop_meters_committed_move_reads(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        rep.on_subop_complete(rep.next_completion())   # generate for 5
        sub = rep.subop
        assert sub.kind == "moveupdate" and sub.group == 0
        for j, node in enumerate(range(30, 37)):       # halts the counter
            rep.on_failure(sub.t0 + (j + 1) * 1e-6, node)
        read0 = state.phase_read["repair"]
        written0 = state.phase_written["repair"]
        with pytest.raises(DecodeError):               # update's source pick
            rep.on_subop_complete(rep.next_completion())
        assert rep.subop is None
        # the move committed: its r helper writes and its r reads from the
        # donor are both metered
        moved = layout.r * layout.flen
        assert state.phase_written["repair"] - written0 == moved
        assert state.phase_read["repair"] - read0 == moved

    def test_target_failure_mid_step_is_futile_and_requeued(self):
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        rep.on_subop_complete(rep.next_completion())   # generate for 5
        for _ in range(3):
            rep.on_subop_complete(rep.next_completion())
        sub = rep.subop
        t_mid = (sub.t0 + sub.t1) / 2.0
        rep.on_failure(t_mid, 5)                       # target dies mid-step
        assert rep.chain.futile and rep.subop is sub         # chain not aborted
        rec = None
        while rec is None:
            rec = rep.on_subop_complete(rep.next_completion())
        assert rec.futile
        assert 5 not in census(layout)
        # oldest broken node is 5 itself, so its repair starts again
        assert layout.pendingNode == 5

    def test_counter_net_change_and_cap_clip(self):
        state, layout, rep = poisson_fixture()
        cap = rep.counter.cap
        rep.on_failure(1.0, 5)
        sub = rep.subop
        rep.on_failure(sub.t0 + sub.t1 * 1e-3, 11)     # queue a second node
        assert rep.counter.value == cap - 2
        rec = None
        while rec is None:
            rec = rep.on_subop_complete(rep.next_completion())
        assert rep.counter.value == cap - 1            # one completion back
        assert layout.pendingNode == 11             # next step chained on

    def test_failed_invariant_commits_the_due_subop_alone(self):
        # a run up to the horizon rests on the invariant holding at its
        # start; with two staircases dropped it does not, and the call
        # commits only the due generate, not the step's other 42
        state, layout, rep = poisson_fixture()
        rep.on_failure(1.0, 5)
        rep.inject_fault()
        rep.on_subop_complete(rep.next_completion(), math.inf)
        assert len(rep.done[0]) == 1

    def test_halt_latches_on_dip(self):
        state, layout, rep = poisson_fixture()
        cap = rep.counter.cap
        for j in range(cap + 1):
            rep.on_failure(1.0 + j * 1e-6, j)
        assert rep.counter.halted and rep.counter.minSeen == -1
        assert len(rep.queue) == cap            # step for node 0 in flight
        # the slack is tight: a dip below zero costs real recoverability
        assert not recoverable_census(layout)
        with pytest.raises(DecodeError):        # trial would end here
            while rep.subop is not None:
                rep.on_subop_complete(rep.next_completion())

    def test_witness_invariant_under_load(self):
        state, layout, rep = poisson_fixture()
        k = layout.k
        times = rng.stream(77, 0, rng.SUB_FAILURE_TIMES)
        ids = rng.stream(77, 0, rng.SUB_FAILURE_IDS)
        t, lost = 0.0, False
        for _ in range(400):
            t += float(times.exponential(1.0))         # lam*N = 1
            victim = int(ids.integers(layout.N))
            # completions due before this failure happen first
            while (not lost and rep.next_completion() is not None
                   and rep.next_completion() <= t):
                try:
                    rep.on_subop_complete(rep.next_completion())
                except DecodeError:
                    lost = True
                self_check(layout, rep, k)
            if lost or not recoverable_census(layout):
                lost = True
                break
            rep.on_failure(t, victim)
            self_check(layout, rep, k)
        if lost:
            assert rep.counter.minSeen < 0   # loss only after a dip

    @pytest.mark.parametrize("wipe", ["payload", "primary", "helper",
                                      "helper+payload", "payload+helper"])
    def test_wiped_slot_inside_a_run(self, wipe):
        # a slot damaged in the middle of the run the next call commits, of
        # group 4 and with a second kind of damage of group 6:
        # the run raises what one sub-operation per call raises, naming the
        # same node or object, and leaves the same payloads and owners (the
        # range's later moves may have committed to the placement arrays;
        # the trial ends there either way)
        messages, stores = [], []
        for coalesce in (True, False):
            state, layout = byte_cluster(N=8, r=2, variant="poisson",
                                         eps=0.3)
            rep = AdvancedPoissonRepairer(state, layout,
                                          poisson_pace(layout, 1.0 / 8, 0.3))
            state.begin_phase("repair")
            rep.on_failure(1.0, 5)
            rep.on_subop_complete(rep.next_completion())   # generate for 5
            for kind, group in zip(wipe.split("+"), (4, 6)):
                front, label = layout.front_phys(group), layout.labels[0]
                if kind == "payload":
                    layout.frags[group, front, label] = 0
                elif kind == "primary":
                    layout.owner[group, front, label] = -1
                else:
                    layout.owner[group, front, layout.labels[layout.N]] = -1
            with pytest.raises(InvariantViolation) as err:
                while True:
                    rep.on_subop_complete(rep.next_completion(),
                                          math.inf if coalesce else None)
            messages.append(str(err.value))
            stores.append(layout)
        assert np.array_equal(stores[0].frags, stores[1].frags)
        assert np.array_equal(stores[0].owner, stores[1].owner)
        # a failing update comes after its group's move, a failing move
        # stops before it: node 5 holds group 4's front helpers or none
        moved = layout.owner[4, :, layout.labels[layout.N]] == 5
        assert moved.all() or not moved.any()
        assert moved.all() != wipe.startswith("helper")
        assert messages[0] == messages[1] == {
            "payload": "decode mismatch for object (4,0)",
            "primary": "primary map out of sync at node 0",
            "helper": "helper map out of sync at node 4",
            "helper+payload": "helper map out of sync at node 4",
            "payload+helper": "decode mismatch for object (4,0)"}[wipe]

    def test_byte_poisson_round_trip(self):
        N, r, eps = 8, 2, 0.3
        state, layout = byte_cluster(N=N, r=r, variant="poisson", eps=eps)
        rep = AdvancedPoissonRepairer(state, layout,
                                      poisson_pace(layout, 1.0 / N, eps))
        state.begin_phase("repair")
        for t, victim in ((1.0, 3), (30.0, 6)):
            rep.on_failure(t, victim)
            rec = None
            while rec is None:
                rec = rep.on_subop_complete(rep.next_completion())
        assert rep.idle
        check_advanced_sync(layout)
        decode_all_from_primaries(layout)
        assert_advanced_invariant(layout)


@st.composite
def damaged_windows(draw):
    """A byte Poisson store whose step on node v runs with donor d failed,
    so its later window regenerates d's staircase mid-window, and one piece
    of damage, or two, at groups g of what that window reads or moves; a
    second one lands on the donor's group half the time, so the window
    must find the first failure in chain order among a pick's updates and
    the generate amid them."""
    N = draw(st.integers(8, 16))
    v = draw(st.integers(0, N - 1))
    d = draw(st.sampled_from([m for m in range(1, N) if m != v]))
    start = draw(st.integers(0, d - 1))     # groups moved before it
    damage = st.tuples(st.integers(start, N - 1),
                       st.sampled_from(["payload", "primary", "helper"]),
                       st.integers(0, N), st.integers(0, 7))
    first = draw(damage)
    second = draw(st.lists(st.one_of(damage.map(lambda x: (d, *x[1:])),
                                     damage), max_size=1))
    return SimpleNamespace(
        N=N, r=draw(st.integers(1, 3)), v=v, d=d, start=start,
        eps=draw(st.sampled_from([0.3, 0.45, 0.6])),
        seed=draw(st.integers(0, 99)),
        damage=[first] + [x for x in second if x[:2] != first[:2]])


@st.composite
def paced_runs(draw):
    """A Poisson store with a slack cap of 1 to 3 and a list of failures,
    each after a gap of up to three steps' worth of move+updates, of a
    node, the in-flight sub-operation's group or the step's target."""
    N = draw(st.integers(8, 16))
    victim = st.one_of(st.integers(0, N - 1),
                       st.sampled_from(["donor", "target"]))
    return SimpleNamespace(
        N=N, r=draw(st.integers(1, 3)),
        eps=draw(st.sampled_from([0.2, 0.3, 0.45])),
        backend=draw(st.sampled_from(["symbolic", "byte"])),
        seed=draw(st.integers(0, 99)),
        failures=draw(st.lists(st.tuples(st.floats(0.0, 3.0), victim),
                               min_size=1, max_size=12)))


def drive_paced(case, windowed):
    """Run case's failures through a Poisson repairer, the completions due
    before each failure in calls up to it as a horizon (windowed) or one
    sub-operation per call; a stall latches the counter as sim_engine's
    driver does.  Returns (state, layout, step records, stall message)."""
    kw = {"seed": case.seed} if case.backend == "byte" else {}
    make = byte_cluster if case.backend == "byte" else symbolic_cluster
    try:
        state, layout = make(N=case.N, r=case.r, variant="poisson",
                             eps=case.eps, **kw)
    except (ConfigError, InvariantViolation):
        assume(False)
    rep = AdvancedPoissonRepairer(
        state, layout, poisson_pace(layout, 1.0 / case.N, case.eps))
    state.begin_phase("repair")
    records, err, t = [], None, 0.0

    def complete(until):
        nonlocal err
        while (err is None and rep.next_completion() is not None
               and rep.next_completion() <= until):
            try:
                rec = rep.on_subop_complete(rep.next_completion(),
                                            until if windowed else None)
            except DecodeError as e:
                err = str(e)
                rep.counter.halted = True
            else:
                if rec is not None:
                    records.append(rec)

    for frac, victim in case.failures:
        t += frac * case.N * rep.pace[0]
        complete(t)
        if victim == "donor":
            victim = rep.subop.group if rep.subop is not None else 0
        elif victim == "target":
            victim = layout.pendingNode if rep.chain is not None else 0
        rep.on_failure(t, victim)
    complete(math.inf)
    return state, layout, records, err


class TestWindowMatchesOneSubOpPerCall:
    """A byte Poisson store driven with horizons, each call a window of
    many sub-operations whose byte work settles at its end, must hold the
    same payloads and owners at every failure as one driven one
    sub-operation per call, and decode each window's objects in one kernel
    call per source pick."""

    def test_same_bytes_and_one_decode_per_pick(self, monkeypatch):
        calls = {"decode": 0, "pick": 0}

        def counted(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        monkeypatch.setattr(gf256, "decode_check",
                            counted("decode", gf256.decode_check))
        monkeypatch.setattr(adv, "_pick_primary_sources",
                            counted("pick", adv._pick_primary_sources))
        # slack cap 19: no stall within 30 failures
        runs = [poisson_fixture(eps=0.9, backend="byte") for _ in range(2)]
        N = runs[0][1].N
        times = rng.stream(5, 0, rng.SUB_FAILURE_TIMES)
        ids = rng.stream(5, 0, rng.SUB_FAILURE_IDS)
        t, windows = 0.0, 0
        for _ in range(30):
            t += float(times.exponential(1.0))          # lam * N = 1
            for (state, layout, rep), horizon in zip(runs, (t, None)):
                while (rep.next_completion() is not None
                       and rep.next_completion() <= t):
                    before = dict(calls)
                    rep.on_subop_complete(rep.next_completion(), horizon)
                    decodes = calls["decode"] - before["decode"]
                    # the window's own picks and the one it kept
                    assert decodes <= calls["pick"] - before["pick"] + 1
                    windows += horizon is not None
                    check_sync(rep)
            (meters, coalesced, _), (single_meters, single, _) = runs
            assert np.array_equal(coalesced.frags, single.frags)
            assert np.array_equal(coalesced.owner, single.owner)
            # one write meter per window meters what one per call does
            for name in ("nodeBitsRead", "nodeBitsWritten"):
                assert np.array_equal(getattr(meters, name),
                                      getattr(single_meters, name)), name
            assert meters.phase_read == single_meters.phase_read
            assert meters.phase_written == single_meters.phase_written
            assert meters.read_log == single_meters.read_log
            victim = int(ids.integers(N))
            for _, _, rep in runs:
                rep.on_failure(t, victim)
                check_sync(rep)
        assert windows > 30 and calls["decode"] > 2 * windows
        assert len(runs[0][0].read_log) > 1000

    @settings(max_examples=200, deadline=None, database=None)
    @given(damaged_windows())
    def test_damage_inside_a_window_stops_where_one_call_does(self, case):
        # the window from group `start` on spans the mid-window generate of
        # the donor's group; damaged payload bytes, read primary owners or
        # front helper owners must raise the same error as one
        # sub-operation per call and leave the same payloads and owners
        runs = []
        for horizon in (math.inf, None):
            try:
                state, layout = byte_cluster(N=case.N, r=case.r,
                                             seed=case.seed,
                                             variant="poisson", eps=case.eps)
            except (ConfigError, InvariantViolation):
                assume(False)
            assume(layout.counterCap >= 2)      # two failures, no stall
            rep = AdvancedPoissonRepairer(
                state, layout, poisson_pace(layout, 1.0 / case.N, case.eps))
            state.begin_phase("repair")
            rep.on_failure(1.0, case.v)
            rep.on_failure(1.0 + 1e-9, case.d)
            rep.on_subop_complete(rep.next_completion())    # v's staircase
            while rep.chain.moved < case.start:
                rep.on_subop_complete(rep.next_completion())
            N = layout.N
            srcs = [m for m in range(N) if m not in (case.v, case.d)]
            for g, kind, source, byte in case.damage:
                p = layout.front_phys(g)    # read by g's generate or update
                label = layout.labels[srcs[source % layout.k]]
                if kind == "payload":
                    layout.frags[g, p, label,
                                 byte % layout.codec.flen_bytes] ^= 1
                elif kind == "primary":
                    layout.owner[g, p, label] = -1
                else:
                    layout.owner[g, byte % layout.r, layout.labels[N]] = -1
            err = None
            try:
                while rep.next_completion() is not None:
                    rep.on_subop_complete(rep.next_completion(), horizon)
            except (InvariantViolation, DecodeError) as e:
                err = f"{type(e).__name__}: {e}"
            runs.append((err, layout))
        (err, windowed), (single_err, single) = runs
        assert err == single_err
        # only a regenerated staircase rewrites a damaged front helper
        assert (err is None) == all(kind == "helper" and g == case.d
                                    for g, kind, _, _ in case.damage)
        assert np.array_equal(windowed.frags, single.frags)
        assert np.array_equal(windowed.owner, single.owner)

    @staticmethod
    def short_window(backend, horizon):
        """A step whose window reaches a group one source short: node 3's
        futile step leaves it holding groups 2..7, the next step, on node 6,
        starts, and nodes 4 and 5 fail during its first generate, which
        drives the counter below 0, so no census check stops the window.
        Group 6's pick, from 5 holders, serves groups 2..7; group 0 keeps 4
        of the k = 5 sources it needs."""
        make = byte_cluster if backend == "byte" else symbolic_cluster
        state, layout = make(N=8, r=2, variant="poisson", eps=0.5)
        assert (layout.k, layout.counterCap) == (5, 3)
        rep = AdvancedPoissonRepairer(state, layout,
                                      poisson_pace(layout, 1.0 / 8, 0.5))
        state.begin_phase("repair")

        def mid():
            return (rep.subop.t0 + rep.subop.t1) / 2.0

        rep.on_failure(1.0, 3)
        rep.on_failure(mid(), 6)
        for _ in range(3):              # node 3's staircase, groups 0 and 1
            rep.on_subop_complete(rep.next_completion())
        rep.on_failure(mid(), 3)        # futile: its row restarts at group 2
        while layout.pendingNode == 3:
            rep.on_subop_complete(rep.next_completion())
        assert layout.pendingNode == 6
        assert (layout.heldLo[3], layout.heldHi[3]) == (2, 8)
        for node in (4, 5):
            rep.on_failure(mid(), node)
        assert rep.counter.value < 0
        with pytest.raises(DecodeError) as err:
            while True:
                rep.on_subop_complete(rep.next_completion(), horizon)
        return state, layout, rep, str(err.value)

    @pytest.mark.parametrize("backend", ["symbolic", "byte"])
    def test_stall_leaves_the_short_group_moved(self, backend):
        # the windowed twin of the periodic step's: the window commits
        # node 6's staircase, then group 0's fresh pick falls short; group
        # 0 moves, is not updated, and the window stops there
        (state, layout, rep, msg), (s_state, s_layout, _, s_msg) = (
            self.short_window(backend, h) for h in (math.inf, None))
        assert msg == s_msg
        assert msg == (f"object (0,{layout.front_phys(0)}) has 4 primary "
                       f"sources, need 5")
        assert len(rep.done[0]) == 2        # the staircase, group 0's stall
        assert (layout.helperLo[0], layout.helperLo[6]) == (1, 0)
        assert (layout.heldLo[6], layout.heldHi[6]) == (0, 1)
        assert (rep.chain.moved, rep.chain.updated) == (1, 0)
        # the stalled sub-operation's log entry is its move's r reads
        assert list(state.read_log)[-1][2] == layout.r * layout.flen
        for name in ("heldLo", "heldHi", "helperLo", "rot", "labels"):
            assert np.array_equal(getattr(layout, name),
                                  getattr(s_layout, name)), name
        for name in ("nodeBitsRead", "nodeBitsWritten"):
            assert np.array_equal(getattr(state, name),
                                  getattr(s_state, name)), name
        assert (state.phase_read, state.phase_written) == (
            s_state.phase_read, s_state.phase_written)
        assert state.read_log == s_state.read_log
        if backend == "byte":
            assert np.array_equal(layout.frags, s_layout.frags)
            assert np.array_equal(layout.owner, s_layout.owner)

    @settings(max_examples=120, deadline=None, database=None)
    @given(paced_runs())
    def test_horizon_run_matches_one_subop_per_call(self, case):
        # small slack caps: failures abort sub-operations, hit the step's
        # target and stall chains; both drives must agree on everything
        runs = [drive_paced(case, windowed) for windowed in (True, False)]
        (state, layout, records, err), (s_state, s_layout, s_records,
                                        s_err) = runs
        assert err == s_err and records == s_records
        names = ["heldLo", "heldHi", "helperLo", "rot", "labels"]
        if case.backend == "byte":
            names += ["frags", "owner"]
        for name in names:
            assert np.array_equal(getattr(layout, name),
                                  getattr(s_layout, name)), name
        for name in ("nodeBitsRead", "nodeBitsWritten"):
            assert np.array_equal(getattr(state, name),
                                  getattr(s_state, name)), name
        assert (state.phase_read, state.phase_written) == (
            s_state.phase_read, s_state.phase_written)
        assert state.read_log == s_state.read_log

    def test_sync_after_every_call_through_stalls(self, monkeypatch):
        # the golden abort-stall scenario on the byte backend: trials 0 and
        # 4 abort sub-operations and stall, each after a move whose update
        # found no sources
        N, r, eps, flen = 30, 6, 0.2, 8
        clen = (r * N + r * (r + 1) // 2) * flen
        F = round((r + 1 + 2 * (int(eps / 2 * N + 1e-9) + 1))
                  / (2 * N + r + 1) * N)
        sc = sim_engine.Scenario(
            sysParams=SystemParams(N=N, clen=clen, xlen=(N - F) * clen + 1,
                                   lam=1.0 / N),
            repairer="advancedLiquid", variant="poisson",
            codecBackend="byte", eps=EpsilonSet(0.1, 0.1, eps), advancedR=r,
            failureCount=200, seed=23)
        seen = {"calls": 0, "midstep": 0, "stalls": 0}

        def checked(name):
            method = getattr(AdvancedPoissonRepairer, name)

            def call(rep, *args):
                seen["calls"] += 1
                try:
                    return method(rep, *args)
                except DecodeError:
                    seen["stalls"] += 1
                    raise
                finally:
                    check_sync(rep)
                    seen["midstep"] += not rep.idle and rep.chain.moved > 0
            return call

        for name in ("on_failure", "on_subop_complete"):
            monkeypatch.setattr(AdvancedPoissonRepairer, name, checked(name))
        for trial in (0, 4):
            sim_engine.run_trial(sc, trial)
        # 21 calls, 16 of them ending after the step in flight moved
        assert seen["stalls"] == 2 and seen["midstep"] > 10


def check_sync(rep):
    """check_advanced_sync with the labels of the step in flight, if any."""
    check_advanced_sync(rep.layout, 0 if rep.idle else rep.chain.updated)


def self_check(layout, rep, k):
    if rep.counter.value >= 0:
        assert len(census(layout)) >= k + rep.counter.value
