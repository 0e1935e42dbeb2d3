"""Failure sequence generators.

A failure sequence pairs a timing sequence (when a node fails) with an
identifier sequence (which node fails).  Time starts at 0; the first failure
happens strictly after 0.  Each failure hits an independent uniform node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class FailureSeq:
    times: np.ndarray  # float64, strictly increasing
    ids: np.ndarray    # int64 node ids
    N: int

    def __post_init__(self):
        if len(self.times) != len(self.ids):
            raise ConfigError("times and ids must have equal length")


def gen_periodic(period: float, count: int, rng, N: int) -> FailureSeq:
    if not 0 < period < math.inf:
        raise ConfigError("period must be positive and finite")
    times = (np.arange(1, count + 1, dtype=np.float64)) * period
    ids = rng.integers(0, N, size=count, dtype=np.int64)
    return FailureSeq(times=times, ids=ids, N=N)


def gen_poisson(lam: float, N: int, count: int, rng) -> FailureSeq:
    """Exponential interarrival gaps at aggregate rate lam*N."""
    if not 0 < lam < math.inf:
        raise ConfigError("lam must be positive and finite")
    gaps = rng.exponential(scale=1.0 / (lam * N), size=count)
    times = np.cumsum(gaps)
    # a zero-width gap is measure-zero but possible in floats; nudge so the
    # sequence stays strictly increasing
    for i in np.flatnonzero(np.diff(times) <= 0):
        times[i + 1] = np.nextafter(times[i], np.inf)
    ids = rng.integers(0, N, size=count, dtype=np.int64)
    return FailureSeq(times=times, ids=ids, N=N)
