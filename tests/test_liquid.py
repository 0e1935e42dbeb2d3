import math

import pytest

from cluster_oracles import check_layout_sync, recoverable
from liquidsim import liquid, rng
from liquidsim.errors import ConfigError, DecodeError, InvariantViolation
from liquidsim.liquid import (RepairCounter, StepSchedule,
                              assert_liquid_invariant, liquid_on_failure,
                              liquid_on_step_complete, liquid_repair_step,
                              liquid_store)


def store_periodic(N=10, beta=0.2, clen=100, backend="symbolic"):
    k = round((1 - beta) * N)
    return liquid_store(k * clen, N, clen, beta, backend=backend)


class TestStore:
    def test_staggered_counts(self):
        state, lay = store_periodic(N=10, beta=0.2)
        assert lay.k == 8 and lay.objectCount == 2
        assert len(lay.perObjectEfis[0]) == 9
        assert lay.perObjectEfis[0] == set(range(9))
        assert len(lay.perObjectEfis[1]) == 10
        assert lay.flen == 50
        assert recoverable(state, k=8, objects=lay.perObjectEfis)
        check_layout_sync(state, lay)

    def test_fragment_lives_on_matching_node(self):
        state, lay = store_periodic()
        for obj, efis in lay.perObjectEfis.items():
            for e in efis:
                assert (obj, e) in state.nodes[e].fragments

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
        for j in range(18):
            assert len(lay.perObjectEfis[j]) == 83 + j
        assert len(lay.perObjectEfis[17]) == 100  # back object full

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


class TestRepairStep:
    def test_exact_read_write_counts(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.begin_phase("repair")
        state.fail_node(3, t=1.0)
        for efis in lay.perObjectEfis.values():
            efis.discard(3)
        rec = liquid_repair_step(state, lay, t0=1.0, t1=1.5)
        assert rec.bitsRead == 8 * 50
        # front object had 8 fragments left, so 2 rewritten
        assert rec.bitsWritten == 2 * 50
        assert lay.perObjectEfis[0] == set(range(10))
        assert lay.objectOrder == [1, 0]
        check_layout_sync(state, lay)

    def test_intact_object_writes_nothing(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.begin_phase("repair")
        lay.objectOrder = [1, 0]  # object 1 starts full
        rec = liquid_repair_step(state, lay, t0=0.0, t1=1.0)
        assert rec.bitsRead == 400
        assert rec.bitsWritten == 0

    def test_undecodable_raises(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        for node in range(3):
            state.fail_node(node, t=1.0)
            for efis in lay.perObjectEfis.values():
                efis.discard(node)
        with pytest.raises(DecodeError):
            liquid_repair_step(state, lay, t0=1.0, t1=2.0)

    def test_byte_step_restores_real_payloads(self):
        g = rng.stream(7, substream=rng.SUB_PAYLOAD)
        state, lay = liquid_store(6 * 16, 8, 16, 0.25, backend="byte",
                                  payload_rng=g)
        state.begin_phase("repair")
        state.fail_node(0, t=1.0)
        for efis in lay.perObjectEfis.values():
            efis.discard(0)
        liquid_repair_step(state, lay, t0=1.0, t1=2.0)
        assert state.nodes[0].fragments[(0, 0)] == lay.tables[0][0]
        assert recoverable(state, k=6, objects=lay.perObjectEfis,
                           codec=lay.codec, retained=lay.sources)

    def test_efi_map_out_of_sync_raises(self):
        state, lay = store_periodic(N=10, beta=0.2, clen=100)
        state.delete_fragment(2, 0, 2)  # layout still lists EFI 2
        with pytest.raises(InvariantViolation, match="node 2"):
            liquid_repair_step(state, lay, t0=0.0, t1=1.0)

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
        state, lay = store_periodic(N=20, beta=0.2, clen=40)
        state.begin_phase("repair")
        for m in range(400):
            node = int(g.integers(0, 20))
            state.fail_node(node, t=float(m + 1))
            for efis in lay.perObjectEfis.values():
                efis.discard(node)
            rec = liquid_repair_step(state, lay, t0=m + 1, t1=m + 1.5)
            assert rec.bitsRead == 16 * 10  # exact on every step
            assert rec.bitsWritten <= 4 * 10
            assert_liquid_invariant(lay, slack=1)
        check_layout_sync(state, lay)

    def test_invariant_assert_fires(self):
        _, lay = store_periodic(N=10, beta=0.2)
        lay.perObjectEfis[0] = set(range(5))
        with pytest.raises(InvariantViolation):
            assert_liquid_invariant(lay, slack=1)


def poisson_fixture():
    state, lay = liquid_store(80 * 180, 100, 180, 0.2,
                              variant="poisson", eps=0.2)
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
        assert sched.inProgress == (1.0, 1.9, lay.objectOrder[0])

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
        assert sched.inProgress == (1.9, 2.8, lay.objectOrder[0])
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
        sched.inProgress = (0.5, 1.4, lay.objectOrder[0])
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
        state, lay, counter, sched = poisson_fixture()
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
            if min(len(e) for e in lay.perObjectEfis.values()) < lay.k:
                losses += 1
                break
        # census loss is only reachable through a counter dip
        if losses:
            assert counter.minSeen < 0
        check_layout_sync(state, lay)
