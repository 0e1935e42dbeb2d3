import dataclasses
import math
import random
import struct

import pytest

from liquidsim import bounds
from liquidsim.bounds import EpsilonSet, SystemParams
from liquidsim.errors import ConfigError


class TestLniLnd:
    def test_lni_zero(self):
        assert bounds.lni(0.0) == 0.0

    def test_lni_frozen(self):
        # ln(1.25) and ln(2), recomputed independently
        assert math.isclose(bounds.lni(0.2), 0.2231435513, rel_tol=1e-9)
        assert math.isclose(bounds.lni(0.5), 0.6931471806, rel_tol=1e-9)

    def test_lni_domain(self):
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(ConfigError):
                bounds.lni(bad)

    def test_lni_monotone_and_above_identity(self):
        prev = -1.0
        for i in range(100):
            z = i / 100
            v = bounds.lni(z)
            assert v >= z
            assert v > prev
            prev = v

    def test_lnd_zero(self):
        assert bounds.lnd(0.0) == 0.0

    def test_lnd_frozen(self):
        # 0.1 - ln(1.1) = 0.0046898202 to ten digits
        assert math.isclose(bounds.lnd(0.1), 0.0046898202, rel_tol=1e-8)

    def test_lnd_small_matches_half_square(self):
        v = bounds.lnd(0.001)
        assert math.isclose(v, 5.0e-7, rel_tol=1e-3)
        for z in (1e-3, 1e-4):
            assert abs(bounds.lnd(z) / (z * z / 2) - 1.0) < 0.002

    def test_lnd_nonnegative(self):
        for z in (-0.5, -0.01, 0.01, 0.5, 0.9):
            assert bounds.lnd(z) > 0.0

    def test_lnd_domain(self):
        with pytest.raises(ConfigError):
            bounds.lnd(-1.0)
        with pytest.raises(ConfigError):
            bounds.lnd(1.0)

    def test_lnd_series_joins_smoothly(self):
        # direct form just above the series cutoff agrees with the series
        lo, hi = 0.9999e-3, 1.0001e-3
        ratio = bounds.lnd(hi) / bounds.lnd(lo)
        assert math.isclose(ratio, (hi / lo) ** 2, rel_tol=1e-6)


class TestPhaseParams:
    def test_hand_example(self):
        sys = SystemParams(N=100, clen=1000, xlen=90000, vlen=0)
        p = bounds.derive_phase_params(sys)
        assert p.olen == 10001
        assert p.F == 11
        assert p.betaPrime == 0.11
        assert p.M == 22

    def test_degenerate_rejected(self):
        sys = SystemParams(N=10, clen=10, xlen=0, vlen=0)
        # olen = 101, F = 11, 2F = 22 >= 10
        with pytest.raises(ConfigError):
            bounds.derive_phase_params(sys)

    def test_practical_scale_gap(self):
        N, clen, vlen = 10 ** 5, 10 ** 16, 10 ** 13
        xlen = 9 * 10 ** 20  # beta = 0.1
        sys = SystemParams(N=N, clen=clen, xlen=xlen, vlen=vlen)
        p = bounds.derive_phase_params(sys)
        assert p.betaPrime - sys.beta <= 1e-7 + 1e-4

    def test_beta_prime_bracket_random(self):
        import random
        rnd = random.Random(20260814)
        for _ in range(1000):
            N = rnd.randint(20, 5000)
            clen = rnd.randint(100, 10 ** 9)
            beta = rnd.uniform(0.02, 0.4)
            vlen = rnd.randint(0, clen)
            xlen = int((1 - beta) * N * clen)
            sys = SystemParams(N=N, clen=clen, xlen=xlen, vlen=vlen)
            try:
                p = bounds.derive_phase_params(sys)
            except ConfigError:
                continue  # 2F >= N draws are legitimately rejected
            b = sys.beta
            assert b <= p.betaPrime + 1e-12
            assert p.betaPrime <= b + (vlen + 1) / (N * clen) + 1 / N + 1e-12

    def test_fprime_identity(self):
        sys, p = bounds.phase_from_overhead(N=1000, clen=10 ** 6, betaPrime=0.1)
        assert math.isclose(p.Fprime, bounds.lni(2 * p.betaPrime) * 1000, rel_tol=1e-12)

    def test_phase_from_overhead_exact(self):
        sys, p = bounds.phase_from_overhead(N=10 ** 5, clen=10 ** 16, betaPrime=0.1,
                                            vlen=10 ** 13)
        assert p.F == 10 ** 4
        assert p.betaPrime == 0.1


class TestCoreBounds:
    def setup_method(self):
        _, self.phase = bounds.phase_from_overhead(N=10 ** 5, clen=10 ** 16,
                                                   betaPrime=0.1, vlen=10 ** 13)

    def test_delta_core_frozen(self):
        _, dc1, _ = bounds.core_bounds(self.phase, 10 ** 16, EpsilonSet(epsC=0.1))
        # 2e4 * exp(-24.9); the commonly quoted 3e-7 is this value at one
        # significant figure
        assert math.isclose(dc1, 3.0697e-7, rel_tol=1e-4)
        assert float(f"{dc1:.0e}") == 3e-7

        _, dc2, _ = bounds.core_bounds(self.phase, 10 ** 16, EpsilonSet(epsC=0.2))
        assert math.isclose(dc2, 9.0874e-40, rel_tol=1e-4)
        assert dc2 <= 2e-39

    def test_rate_vanishes_at_full_eps(self):
        _, _, rate = bounds.core_bounds(self.phase, 10 ** 16, EpsilonSet(epsC=0.999999))
        assert rate < 1e-5 * 10 ** 16
        gamma, _, _ = bounds.core_bounds(self.phase, 100, EpsilonSet(epsC=0.0))
        assert gamma[0] > 0

    def test_gamma_table_shape_and_monotonicity(self):
        _, phase = bounds.phase_from_overhead(N=100, clen=1000, betaPrime=0.11)
        gamma, _, rate = bounds.core_bounds(phase, 1000, EpsilonSet(epsC=0.1))
        assert len(gamma) == 2 * phase.F - 1
        per_failure = [g / (i + 1) for i, g in enumerate(gamma)]
        for a, b in zip(per_failure, per_failure[1:]):
            assert a >= b - 1e-9  # allowance per failure never increases
        assert per_failure[-1] >= rate - 1e-9

    def test_gamma_table_matches_scalar_formula_bit_for_bit(self):
        # the scalar generator expression the table was first built with is
        # the oracle; clen past 2**53 rounds when it meets a double
        def oracle(phase, clen, eps_c):
            F = phase.F
            N = round(F / phase.betaPrime)
            two_f = 2 * F
            return tuple(
                (1.0 - eps_c) * i * (N - (i + 1) / 2) * clen / (two_f - 1)
                for i in range(1, two_f))

        def bits(values):
            return [struct.pack("<d", v) for v in values]

        g = random.Random(14)
        for _ in range(300):
            N = g.randrange(3, 3000)
            clen = g.choice([g.randrange(1, 10 ** 6),
                             g.randrange(2 ** 53, 2 ** 60 + 2),
                             2 ** 60 + 1])
            beta_prime = g.uniform(1.0 / N, 0.49)
            eps_c = g.choice([0.0, 0.1, g.random()])
            try:
                _, phase = bounds.phase_from_overhead(N, clen, beta_prime)
            except ConfigError:
                continue
            gamma, _, _ = bounds.core_bounds(phase, clen, EpsilonSet(epsC=eps_c))
            assert all(type(v) is float for v in gamma)
            assert bits(gamma) == bits(oracle(phase, clen, eps_c))


class TestPoissonBounds:
    def test_summary_is_asdict_without_gamma_table(self):
        # the form the run summary and `liquidsim bounds` print: the fields
        # in order, gammaTable replaced by its length at the end
        sys_p, phase = bounds.phase_from_overhead(1000, 10 ** 6, 0.1, lam=1e-3)
        rep = bounds.poisson_bounds(sys_p, phase, EpsilonSet())
        want = dataclasses.asdict(rep)
        want["gammaTableLen"] = len(want.pop("gammaTable"))
        assert list(rep.summary().items()) == list(want.items())
        assert rep.summary()["gammaTableLen"] == 2 * phase.F - 1

    def test_capacity_balance_point(self):
        assert bounds.capacity(5.0, 5.0, 10, 100) == 0.5 * 10 * 100

    def test_asymptotic_ratio_frozen(self):
        sys, phase = bounds.phase_from_overhead(N=1000, clen=10 ** 6, betaPrime=0.1,
                                                lam=1.0)
        rep = bounds.poisson_bounds(sys, phase, EpsilonSet())
        assert math.isclose(rep.asymptoticRatio, 4.0333, rel_tol=1e-4)

    def test_delta_window_frozen(self):
        sys, phase = bounds.phase_from_overhead(N=1000, clen=10 ** 6, betaPrime=0.1,
                                                lam=1.0 / 3.0)
        rep = bounds.poisson_bounds(sys, phase, EpsilonSet(epsD=0.01, eps=0.01))
        assert math.isclose(rep.DeltaWindow, 1.366, rel_tol=1e-3)

    def test_ratio_approaches_half_beta_inverse(self):
        sys, phase = bounds.phase_from_overhead(N=10 ** 4, clen=10 ** 6, betaPrime=0.01,
                                                lam=1.0)
        rep = bounds.poisson_bounds(sys, phase, EpsilonSet())
        target = 1 / (2 * 0.01)
        assert abs(rep.asymptoticRatio / target - 1.0) < 0.02
        assert rep.asymptoticRatio < target  # approaches from below

    def test_poisson_rate_scales_with_erosion(self):
        sys, phase = bounds.phase_from_overhead(N=1000, clen=10 ** 6, betaPrime=0.1,
                                                lam=2.0)
        eps = EpsilonSet(epsC=0.0, epsD=0.0, eps=0.0)
        rep = bounds.poisson_bounds(sys, phase, eps)
        erosion = 2.0 * 1000 * 10 ** 6
        assert math.isclose(rep.poissonRate, rep.asymptoticRatio * erosion, rel_tol=1e-12)

    def test_underflow_saturates(self):
        sys, phase = bounds.phase_from_overhead(N=10 ** 5, clen=10 ** 16, betaPrime=0.1,
                                                vlen=10 ** 13, lam=1.0)
        rep = bounds.poisson_bounds(sys, phase, EpsilonSet())
        assert 2.0 ** (-(10 ** 16)) == 0.0
        assert math.isfinite(rep.deltaUniform)

    def test_vacuous_flag(self):
        sys, phase = bounds.phase_from_overhead(N=50, clen=100, betaPrime=0.1, lam=1.0)
        rep = bounds.poisson_bounds(sys, phase, EpsilonSet(epsC=0.01, epsD=0.01, eps=0.01))
        assert rep.vacuous  # desk-scale deltas exceed 1
        assert rep.deltaPoisson > 1.0  # reported unclamped

    def test_report_is_pure(self):
        sys, phase = bounds.phase_from_overhead(N=1000, clen=10 ** 6, betaPrime=0.1,
                                                lam=0.5)
        a = bounds.poisson_bounds(sys, phase, EpsilonSet())
        b = bounds.poisson_bounds(sys, phase, EpsilonSet())
        assert a == b


class TestHelpers:
    def test_expected_distinct_frozen(self):
        assert math.isclose(bounds.expected_distinct_failures(10, 1), 10 / 9, rel_tol=1e-12)
        assert math.isclose(bounds.expected_distinct_failures(10, 2), 2.3611, rel_tol=1e-4)

    def test_expected_distinct_sandwich(self):
        N, i = 100, 20
        v = bounds.expected_distinct_failures(N, i)
        lo = N * bounds.lni(i / N)
        hi = lo + (N / (N - i) - 1)  # increasing summand, unit steps
        assert lo < v < hi

    def test_expected_distinct_domain(self):
        with pytest.raises(ConfigError):
            bounds.expected_distinct_failures(10, 10)
        with pytest.raises(ConfigError):
            bounds.expected_distinct_failures(10, 0)

    def test_supermartingale_frozen(self):
        assert math.isclose(bounds.supermartingale_tail(100, 1, 20), 13.5335, rel_tol=1e-4)
        assert math.isclose(bounds.supermartingale_tail(10 ** 4, 1, 10 ** 3),
                            1.9287e-18, rel_tol=1e-3)

    def test_supermartingale_limit(self):
        assert bounds.supermartingale_tail(1, 1, 1e9) == 0.0
