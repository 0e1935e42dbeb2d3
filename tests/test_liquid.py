import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_oracles import check_liquid_payloads, decodes
from liquidsim import liquid, rng, sim_engine
from liquidsim.advanced_liquid import advanced_store
from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.errors import ConfigError, DecodeError, InvariantViolation
from liquidsim.liquid import (RepairCounter, StepSchedule,
                              assert_liquid_invariant, liquid_fail_node,
                              liquid_on_failure, liquid_on_step_complete,
                              liquid_repair_step, liquid_store)


def store_periodic(N=10, beta=0.2, clen=100, backend="symbolic"):
    k = round((1 - beta) * N)
    payload = rng.stream(7, substream=rng.SUB_PAYLOAD)
    return liquid_store(k * clen, N, clen, beta, backend=backend,
                        payload_rng=payload if backend == "byte" else None)


class TestStore:
    def test_staggered_counts(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=160, backend="byte")
        assert lay.k == 8 and lay.objectCount == 2
        assert lay.held.shape == (2, 10)
        assert lay.held[0].tolist() == [True] * 9 + [False]
        assert lay.held[1].all()
        assert lay.flen == 80
        check_liquid_payloads(lay)
        decodes(lay, range(2))

    def test_placement_is_one_array(self):
        for backend in ("byte", "symbolic"):
            _, lay = store_periodic(N=10, beta=0.2, clen=160, backend=backend)
            for field in dataclasses.fields(lay):
                assert not isinstance(getattr(lay, field.name),
                                      (dict, set, list)), field.name
            assert lay.held.dtype == np.bool_ and lay.held.shape == (2, 10)
            if backend == "byte":
                for a in (lay.code, lay.frags):
                    assert a.dtype == np.uint8 and a.shape == (2, 10, 10)
            else:
                assert lay.code is None and lay.frags is None
            # the advanced layout too: placement and payloads are arrays
            _, group_lay, _ = advanced_store(
                8, 19 * 8, 2, backend=backend,
                payload_rng=rng.stream(7, substream=rng.SUB_PAYLOAD))
            for field in dataclasses.fields(group_lay):
                assert not isinstance(getattr(group_lay, field.name),
                                      (dict, set, list)), field.name

    def test_fragment_lives_on_matching_node(self):
        state, lay = store_periodic(clen=160, backend="byte")
        before = lay.frags.copy()
        liquid_fail_node(state, lay, 1.0, 4)
        # EFI e of every object lives at node e: the failure zeroes column 4
        assert not lay.frags[:, 4].any()
        assert np.array_equal(np.delete(lay.frags, 4, axis=1),
                              np.delete(before, 4, axis=1))

    def test_bad_xlen(self):
        with pytest.raises(ConfigError):
            liquid_store(801, 10, 100, 0.2)

    def test_non_integral_split(self):
        with pytest.raises(ConfigError):
            liquid_store(750, 10, 100, 0.25)

    def test_indivisible_clen(self):
        with pytest.raises(ConfigError):
            liquid_store(8 * 101, 10, 101, 0.2)

    def test_poisson_reduced_count(self):
        k = 80
        state, lay = liquid_store(k * 180, 100, 180, 0.2,
                                  variant="poisson", eps=0.2)
        # slack split: 20 objects become 18 plus a counter cap of 3
        assert lay.objectCount == 18
        assert lay.counterCap == 3
        assert lay.flen == 10
        assert lay.held.sum(axis=1).tolist() == [83 + j for j in range(18)]
        assert lay.held[17].all()  # back object full

    def test_poisson_non_integral_slack_logged(self, caplog):
        import logging
        with caplog.at_level(logging.INFO, logger="liquidsim.liquid"):
            _, lay = liquid_store(80 * 180, 100, 180, 0.2,
                                  variant="poisson", eps=0.15)
        assert lay.objectCount + lay.counterCap == 20  # r, not r+1
        assert any("non-integral" in r.message for r in caplog.records)

    def test_store_phase_metered(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        assert state.phase_written["store"] == 19 * 50
        assert state.phase_written["repair"] == 0
        assert state.nodeBitsWritten.tolist() == [100] * 9 + [50]
        # symbolic placement lives in lay.held alone
        assert lay.code is None and lay.frags is None


class TestRepairStep:
    def test_exact_read_write_counts(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=160, backend="byte")
        state.begin_phase("repair")
        liquid_fail_node(state, lay, 1.0, 3)
        assert not lay.held[:, 3].any()
        rec = liquid_repair_step(state, lay, t0=1.0, t1=1.5)
        assert rec.bitsRead == 8 * 80
        # front object had 8 fragments left, so 2 rewritten
        assert rec.bitsWritten == 2 * 80
        assert state.phase_written["repair"] == 2 * 80
        assert lay.held[0].all()
        assert lay.front == 1
        check_liquid_payloads(lay)

    def test_symbolic_step_meters_without_storing(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.begin_phase("repair")
        liquid_fail_node(state, lay, 1.0, 3)
        before = state.nodeBitsWritten.copy()
        rec = liquid_repair_step(state, lay, t0=1.0, t1=1.5)
        # object 0 lacked EFI 9 from the start and lost EFI 3
        assert rec.bitsWritten == state.phase_written["repair"] == 2 * 50
        assert (state.nodeBitsWritten - before).tolist() == (
            [0] * 3 + [50] + [0] * 5 + [50])
        assert lay.held[0].all()
        assert lay.frags is None

    def test_intact_object_writes_nothing(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.begin_phase("repair")
        lay.stepsDone = 1  # object 1 starts full
        rec = liquid_repair_step(state, lay, t0=0.0, t1=1.0)
        assert rec.bitsRead == 400
        assert rec.bitsWritten == 0

    def test_undecodable_raises(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        for node in range(3):
            liquid_fail_node(state, lay, 1.0, node)
        with pytest.raises(DecodeError):
            liquid_repair_step(state, lay, t0=1.0, t1=2.0)

    def test_byte_step_restores_real_payloads(self):
        g = rng.stream(7, substream=rng.SUB_PAYLOAD)
        state, lay = liquid_store(6 * 16, 8, 16, 0.25, backend="byte",
                                  payload_rng=g)
        state.begin_phase("repair")
        liquid_fail_node(state, lay, 1.0, 0)
        liquid_repair_step(state, lay, t0=1.0, t1=2.0)
        assert np.array_equal(lay.frags[0, 0], lay.code[0, 0])
        check_liquid_payloads(lay)
        decodes(lay, range(lay.objectCount))

    def test_efi_map_out_of_sync_raises(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=160, backend="byte")
        assert lay.held[0, 2] and lay.frags[0, 2].any()
        lay.frags[0, 2] = 0  # wiped, but held still counts EFI 2
        with pytest.raises(InvariantViolation,
                           match="object 0 decoded to wrong bytes"):
            liquid_repair_step(state, lay, t0=0.0, t1=1.0)

    def test_codeword_drift_raises(self):
        # step 0 re-encodes the parity and compares it with code; EFI 9
        # is neither held nor read
        state, lay = store_periodic(N=10, beta=0.2, clen=160, backend="byte")
        lay.code[0, 9, 0] ^= 1
        with pytest.raises(InvariantViolation,
                           match="object 0 codeword drift"):
            liquid_repair_step(state, lay, t0=0.0, t1=1.0)

    # one flipped byte must fail the step, over both word views of the
    # compare: 10-byte fragments (uint8) and 12-byte ones (uint32)
    @pytest.mark.parametrize("clen", [160, 192])
    def test_flipped_byte_in_held_source_row_raises(self, clen):
        # a parity node fails, so no source row is decoded: only the
        # compare of the held rows sees the flip
        state, lay = store_periodic(N=10, beta=0.2, clen=clen, backend="byte")
        liquid_fail_node(state, lay, 1.0, 8)
        lay.frags[0, 5, -1] ^= 0x80
        with pytest.raises(InvariantViolation,
                           match="object 0 decoded to wrong bytes"):
            liquid_repair_step(state, lay, t0=1.0, t1=2.0)

    @pytest.mark.parametrize("clen", [160, 192])
    def test_flipped_byte_in_stand_in_parity_row_raises(self, clen):
        # object 0 holds EFIs 0..8 of 10 with k = 8; after node 3 fails,
        # parity row 8 stands in for source row 3
        state, lay = store_periodic(N=10, beta=0.2, clen=clen, backend="byte")
        liquid_fail_node(state, lay, 1.0, 3)
        lay.frags[0, 8, 1] ^= 1
        with pytest.raises(InvariantViolation,
                           match="object 0 decoded to wrong bytes"):
            liquid_repair_step(state, lay, t0=1.0, t1=2.0)

    @pytest.mark.parametrize("clen", [160, 192])
    def test_flipped_parity_byte_on_hundredth_step_raises(self, clen):
        state, lay = store_periodic(N=10, beta=0.2, clen=clen, backend="byte")
        for step in range(100):
            liquid_fail_node(state, lay, step, step % 10)
            liquid_repair_step(state, lay, t0=step, t1=step + 0.5)
        check_liquid_payloads(lay)
        obj = lay.front
        lay.code[obj, 9, -1] ^= 4        # a parity row the step does not read
        with pytest.raises(InvariantViolation,
                           match=f"object {obj} codeword drift"):
            liquid_repair_step(state, lay, t0=100.0, t1=100.5)

    def test_byte_needs_payload_rng(self):
        with pytest.raises(ConfigError):
            liquid_store(6 * 16, 8, 16, 0.25, backend="byte")

    def test_reads_spread_over_interval(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.begin_phase("repair")
        liquid_repair_step(state, lay, t0=2.0, t1=4.0)
        assert (2.0, 4.0, 400) in state.read_log


class TestPeriodicInvariant:
    def test_invariant_random_failures(self):
        g = rng.stream(11)
        state, lay = store_periodic(N=20, beta=0.2, clen=32, backend="byte")
        state.begin_phase("repair")
        for m in range(400):
            node = int(g.integers(0, 20))
            liquid_fail_node(state, lay, float(m + 1), node)
            rec = liquid_repair_step(state, lay, t0=m + 1, t1=m + 1.5)
            assert rec.bitsRead == 16 * 8  # exact on every step
            assert rec.bitsWritten <= 4 * 8
            assert_liquid_invariant(lay, slack=1)
        check_liquid_payloads(lay)

    def test_invariant_assert_fires(self):
        _, lay = store_periodic(N=10, beta=0.2)
        lay.held[0, 5:] = False
        with pytest.raises(InvariantViolation,
                           match=r"^position 0 object 0: 5 < 8 \+ 1 \+ 0 "):
            assert_liquid_invariant(lay, slack=1)
        lay.stepsDone = 1      # object 0 now at position 1, still short
        with pytest.raises(InvariantViolation,
                           match=r"^position 1 object 0: 5 < 8 \+ 1 \+ 1 "):
            assert_liquid_invariant(lay, slack=1)


def poisson_fixture(backend="symbolic"):
    # 18 objects; 10-bit fragments, or 8-bit ones that bytes can carry
    clen = 180 if backend == "symbolic" else 144
    payload = rng.stream(5, substream=rng.SUB_PAYLOAD)
    state, lay = liquid_store(80 * clen, 100, clen, 0.2, variant="poisson",
                              eps=0.2, backend=backend, payload_rng=payload)
    state.begin_phase("repair")
    counter = RepairCounter.at_cap(lay.counterCap)
    dur = (1 - 0.1) / 1.0  # lambda*N = 1
    sched = StepSchedule(stepDuration=dur)
    return state, lay, counter, sched


class TestPoissonProtocol:
    def test_failure_starts_step_when_idle(self):
        state, lay, counter, sched = poisson_fixture()
        liquid_on_failure(state, lay, counter, sched, t=1.0, node=5)
        assert counter.value == 2
        assert sched.inProgress == (1.0, 1.9, lay.front)

    def test_sequential_steps_only(self):
        state, lay, counter, sched = poisson_fixture()
        liquid_on_failure(state, lay, counter, sched, t=1.0, node=5)
        first = sched.inProgress
        liquid_on_failure(state, lay, counter, sched, t=1.2, node=6)
        assert sched.inProgress == first  # no second step in flight

    def test_completion_reschedules_below_cap(self):
        state, lay, counter, sched = poisson_fixture()
        liquid_on_failure(state, lay, counter, sched, t=1.0, node=5)
        liquid_on_failure(state, lay, counter, sched, t=1.2, node=6)
        liquid_on_step_complete(state, lay, counter, sched, t=1.9)
        assert counter.value == 2
        assert sched.inProgress == (1.9, 2.8, lay.front)
        liquid_on_step_complete(state, lay, counter, sched, t=2.8)
        assert counter.value == 3  # back at cap
        assert sched.inProgress is None

    def test_counter_net_change_is_one_minus_m(self):
        state, lay, counter, sched = poisson_fixture()
        liquid_on_failure(state, lay, counter, sched, t=0.5, node=1)
        start = counter.value
        for m, node in enumerate((2, 3)):
            liquid_on_failure(state, lay, counter, sched, t=0.6 + m / 10,
                              node=node)
        liquid_on_step_complete(state, lay, counter, sched, t=1.4)
        assert counter.value == start + 1 - 2

    def test_counter_capped_at_b(self):
        state, lay, counter, sched = poisson_fixture()
        liquid_on_failure(state, lay, counter, sched, t=1.0, node=5)
        liquid_on_step_complete(state, lay, counter, sched, t=1.9)
        assert counter.value == counter.cap == 3

    def test_halt_latches_on_dip(self):
        state, lay, counter, sched = poisson_fixture()
        counter.value = 0
        liquid_on_failure(state, lay, counter, sched, t=1.0, node=5)
        assert counter.value == -1 and counter.halted
        # in-flight completion still lands but nothing new starts
        sched.inProgress = (0.5, 1.4, lay.front)
        liquid_on_step_complete(state, lay, counter, sched, t=1.4)
        assert sched.inProgress is None
        liquid_on_failure(state, lay, counter, sched, t=2.0, node=6)
        assert sched.inProgress is None
        assert counter.minSeen == -1

    def test_disabled_repair_never_schedules(self):
        state, lay, counter, _ = poisson_fixture()
        sched = StepSchedule(stepDuration=math.inf)
        for m in range(5):
            liquid_on_failure(state, lay, counter, sched, t=float(m + 1),
                              node=m)
        assert sched.inProgress is None
        assert counter.value == 3 - 5

    def test_ladder_invariant_under_simulated_load(self):
        g = rng.stream(23)
        state, lay, counter, sched = poisson_fixture(backend="byte")
        t = 0.0
        losses = 0
        for _ in range(2000):
            t_fail = t + float(g.exponential(1.0))  # lambda*N = 1
            while (sched.inProgress is not None
                   and sched.inProgress[1] <= t_fail):
                t_done = sched.inProgress[1]
                liquid_on_step_complete(state, lay, counter, sched, t=t_done)
                if counter.value >= 0:
                    assert_liquid_invariant(lay, slack=counter.value)
            t = t_fail
            node = int(g.integers(0, 100))
            liquid_on_failure(state, lay, counter, sched, t=t, node=node)
            if counter.value >= 0:
                assert_liquid_invariant(lay, slack=counter.value)
            if lay.held.sum(axis=1).min() < lay.k:
                losses += 1
                break
        # census loss is only reachable through a counter dip
        if losses:
            assert counter.minSeen < 0
        check_liquid_payloads(lay)


@st.composite
def byte_liquid_runs(draw):
    """A small byte-backend liquid driver and a random sequence of node
    failures (ints) and repair steps (None)."""
    variant = draw(st.sampled_from(["periodic", "poisson"]))
    N = draw(st.integers(3, 24))
    r = draw(st.integers(1, min(N - 1, 8)))
    eps = draw(st.sampled_from([0.3, 0.6, 0.9]))
    # one-byte fragments for every object count up to r
    clen = 8 * math.lcm(*range(1, r + 1))
    sp = SystemParams(N=N, clen=clen, xlen=(N - r) * clen, lam=0.1)
    scenario = sim_engine.Scenario(
        sysParams=sp, repairer="liquid", variant=variant,
        codecBackend="byte", eps=EpsilonSet(0.1, 0.1, eps),
        seed=draw(st.integers(0, 2 ** 32)))
    ops = draw(st.lists(st.one_of(st.none(), st.integers(0, N - 1)),
                        min_size=4, max_size=30))
    return sim_engine._LiquidDriver(scenario, 0), ops


class TestPlacementOracle:
    """held and the byte payloads against a directory of EFI sets kept
    beside them by the store and repair rules, EFI e at node e."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(byte_liquid_runs())
    def test_held_matches_node_stores(self, run):
        driver, ops = run
        state, lay = driver.state, driver.layout
        k, count, N = lay.k, lay.objectCount, state.N
        directory = [set(range(k + lay.counterCap + j)) for j in range(count)]
        state.begin_phase("repair")
        steps = 0
        for t, op in enumerate(ops, start=1):
            front = directory[steps % count]
            if op is not None:
                liquid_fail_node(state, lay, float(t), op)
                for efis in directory:
                    efis.discard(op)
            elif len(front) < k:
                with pytest.raises(DecodeError):
                    liquid_repair_step(state, lay, t0=t, t1=t)
            else:
                rec = liquid_repair_step(state, lay, t0=t, t1=t)
                assert rec.bitsRead == k * lay.flen
                assert rec.bitsWritten == (N - len(front)) * lay.flen
                front.update(range(N))
                steps += 1
            assert [set(np.flatnonzero(row).tolist())
                    for row in lay.held] == directory
            check_liquid_payloads(lay)
            assert driver.recoverable() == all(
                len(efis) >= k for efis in directory)
            have = [len(directory[(steps + j) % count]) for j in range(count)]
            for slack in (0, 1):
                holds = all(h >= k + slack + j for j, h in enumerate(have))
                try:
                    assert_liquid_invariant(lay, slack)
                    assert holds
                except InvariantViolation:
                    assert not holds
        assert lay.stepsDone == steps
        decodes(lay, [j for j in range(count) if len(directory[j]) >= k])
