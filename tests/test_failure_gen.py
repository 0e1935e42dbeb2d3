import numpy as np
import pytest

from liquidsim import failure_gen, rng
from liquidsim.errors import ConfigError


def test_periodic_times():
    r = rng.stream(1, 0, rng.SUB_FAILURE_IDS)
    seq = failure_gen.gen_periodic(2.5, 4, r, N=10)
    assert np.allclose(seq.times, [2.5, 5.0, 7.5, 10.0])
    assert seq.times[0] > 0  # time starts at 0, first failure strictly after


def test_periodic_rejects_bad_period():
    r = rng.stream(1)
    for period in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            failure_gen.gen_periodic(period, 4, r, N=10)


def test_poisson_rejects_bad_rate():
    r = rng.stream(1)
    for lam in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            failure_gen.gen_poisson(lam, 10, 4, r)


def test_poisson_mean_gap():
    r = rng.stream(7, 0, rng.SUB_FAILURE_TIMES)
    lam, N, count = 0.5, 20, 200_000
    seq = failure_gen.gen_poisson(lam, N, count, r)
    gaps = np.diff(np.concatenate(([0.0], seq.times)))
    assert abs(gaps.mean() * lam * N - 1.0) < 0.01
    assert np.all(np.diff(seq.times) > 0)


def test_poisson_gap_autocorrelation():
    r = rng.stream(11, 0, rng.SUB_FAILURE_TIMES)
    seq = failure_gen.gen_poisson(1.0, 10, 100_000, r)
    gaps = np.diff(np.concatenate(([0.0], seq.times)))
    g = gaps - gaps.mean()
    ac1 = (g[:-1] * g[1:]).sum() / (g * g).sum()
    assert abs(ac1) < 0.01  # independent interarrivals


def test_byte_determinism():
    a = failure_gen.gen_poisson(1.0, 10, 1000, rng.stream(42, 3, 0))
    b = failure_gen.gen_poisson(1.0, 10, 1000, rng.stream(42, 3, 0))
    assert a.times.tobytes() == b.times.tobytes()
    assert a.ids.tobytes() == b.ids.tobytes()
    c = failure_gen.gen_poisson(1.0, 10, 1000, rng.stream(42, 4, 0))
    assert a.times.tobytes() != c.times.tobytes()


def test_uniform_ids_in_range():
    seq = failure_gen.gen_poisson(1.0, 7, 5000, rng.stream(5))
    assert seq.ids.min() >= 0 and seq.ids.max() < 7
