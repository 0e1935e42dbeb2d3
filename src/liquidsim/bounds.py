"""Closed-form capacity and read-rate bounds for erasure-coded storage clusters.

Everything here is plain arithmetic on doubles (exact ints where the quantity
is a count), so the simulator can compare measured repair traffic against the
bounds without pulling in the event loop.  All probabilities are reported
unclamped; values >= 1 are vacuous but still informative, and BoundReport
carries a flag for that instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SystemParams:
    """Cluster-level sizing.  lam is the per-node failure rate (lambda is a
    Python keyword).  All sizes are in bits."""

    N: int
    clen: int
    xlen: int
    vlen: int = 0
    lam: float = 0.0

    def __post_init__(self):
        if self.N < 2:
            raise ConfigError("need at least 2 nodes")
        if not self.clen > 0:
            raise ConfigError("clen must be positive")
        if not 0 <= self.xlen <= self.N * self.clen:
            raise ConfigError("xlen outside [0, N*clen]")
        if not self.vlen >= 0 or not 0 <= self.lam < math.inf:
            raise ConfigError("vlen and lam must be non-negative, lam finite")

    @property
    def beta(self) -> float:
        # storage overhead: fraction of raw capacity not holding source data
        return 1.0 - self.xlen / (self.N * self.clen)


@dataclass(frozen=True)
class PhaseParams:
    olen: int
    F: int
    betaPrime: float
    M: int
    Fprime: float


@dataclass(frozen=True)
class EpsilonSet:
    epsC: float = 0.1
    epsD: float = 0.1
    eps: float = 0.1

    def __post_init__(self):
        for name in ("epsC", "epsD", "eps"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")


@dataclass(frozen=True)
class BoundReport:
    gammaTable: tuple
    deltaCore: float
    deltaDistinct: float
    deltaUniform: float
    deltaPoisson: float
    coreRatePerFailure: float
    uniformRatePerFailure: float
    poissonRate: float
    DeltaWindow: float
    asymptoticRatio: float
    capacity: float
    vacuous: bool

    def summary(self) -> dict:
        """The fields in order, with gammaTable replaced by gammaTableLen at
        the end: what the run summary and `liquidsim bounds` print."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["gammaTableLen"] = len(d.pop("gammaTable"))
        return d


def json_safe(obj):
    """Replace non-finite floats with strings so output is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


def lni(zeta: float) -> float:
    """ln(1/(1-zeta)) on [0, 1)."""
    if not 0.0 <= zeta < 1.0:
        raise ConfigError("lni domain is [0, 1)")
    return -math.log1p(-zeta)


def lnd(zeta: float) -> float:
    """zeta - ln(1+zeta) on (-1, 1); behaves like zeta^2/2 near 0.

    The direct form cancels catastrophically for small |zeta|, so below 1e-3
    a Maclaurin series is used instead.
    """
    if not -1.0 < zeta < 1.0:
        raise ConfigError("lnd domain is (-1, 1)")
    if abs(zeta) < 1e-3:
        z = zeta
        return z * z / 2 - z ** 3 / 3 + z ** 4 / 4 - z ** 5 / 5
    return zeta - math.log1p(zeta)


def derive_phase_params(sys: SystemParams) -> PhaseParams:
    """Sizing of one analysis window from the raw system parameters.

    olen is the unstored-data slack, F the window's node-failure budget in
    units of whole-node capacities, M = 2F the distinct failures per window.
    Requires 2F < N so a window cannot consume a majority of the cluster.
    """
    olen = sys.N * sys.clen - sys.xlen + sys.vlen + 1
    F = -(-olen // sys.clen)  # ceil for exact ints
    beta_prime = F / sys.N
    M = 2 * F
    if M >= sys.N:
        raise ConfigError(f"2F = {M} must be < N = {sys.N}")
    fprime = 2 * F * lni(2 * beta_prime) / (2 * beta_prime)
    return PhaseParams(olen=olen, F=F, betaPrime=beta_prime, M=M, Fprime=fprime)


def phase_from_overhead(N: int, clen: int, betaPrime: float, vlen: int = 0,
                        lam: float = 0.0) -> tuple[SystemParams, PhaseParams]:
    """Build params hitting a target beta' exactly (F = round(beta'*N)).

    Chooses xlen so that olen = F*clen, which makes the derived beta' land on
    F/N with no ceiling slack.
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if not math.isfinite(betaPrime):
        raise ConfigError(f"betaPrime must be finite, got {betaPrime}")
    F = round(betaPrime * N)
    if F < 1:
        raise ConfigError("betaPrime too small for this N")
    xlen = N * clen - F * clen + vlen + 1
    sys = SystemParams(N=N, clen=clen, xlen=xlen, vlen=vlen, lam=lam)
    return sys, derive_phase_params(sys)


def core_bounds(phase: PhaseParams, clen: int, eps: EpsilonSet):
    """Per-window read-allowance table and the core failure probability.

    gammaTable[i-1] is the cumulative read allowance after i failures of the
    window, i = 1..2F-1.  deltaCore bounds the probability a repairer reading
    under every allowance still survives the window.
    """
    F = phase.F
    # betaPrime was computed as F/N, so this inversion is exact after rounding
    N = round(F / phase.betaPrime)
    eps_c = eps.epsC
    two_f = 2 * F
    # the scalar formula (1 - eps_c) * i * (N - (i + 1) / 2) * clen / (2F - 1)
    # as array ops in the same order; i, N and 2F - 1 convert to doubles
    # exactly, clen rounds as Python's int * float rounds it
    i = np.arange(1, two_f, dtype=np.float64)
    gamma = tuple(((1.0 - eps_c) * i * (N - (i + 1) / 2) * float(clen)
                   / (two_f - 1)).tolist())
    delta_core = 2 * F * math.exp(-eps_c * eps_c * F / 4 + eps_c)
    core_rate = (1.0 - eps_c) * (1.0 - phase.betaPrime) * clen / (2 * phase.betaPrime)
    return gamma, delta_core, core_rate


def expected_distinct_failures(N: int, i: int) -> float:
    """Expected number of uniform failures until i additional distinct nodes
    (beyond the first) have failed.  Coupon-collector partial sum."""
    if not 1 <= i <= N - 1:
        raise ConfigError("need 1 <= i <= N-1")
    return sum(N / (N - j) for j in range(1, i + 1))


def supermartingale_tail(n: int, c: float, alpha: float) -> float:
    """Azuma-style tail n*exp(-alpha^2/(2*n*c^2)) for n bounded increments.

    Returned as computed even when >= 1 (vacuous); callers decide clamping.
    """
    if n < 1 or c <= 0:
        raise ConfigError("need n >= 1 and c > 0")
    return n * math.exp(-alpha * alpha / (2.0 * n * c * c))


def capacity(erosionRate: float, readRate: float, N: int, clen: int) -> float:
    """Usable capacity under the erosion/repair trade-off.

    erosionRate is lambda*N*clen (capacity lost to failures per unit time),
    readRate the repairer's allowed read rate over node interfaces.
    """
    if readRate <= 0:
        raise ConfigError("readRate must be positive")
    return (1.0 - erosionRate / (2.0 * readRate)) * N * clen


def poisson_bounds(sys: SystemParams, phase: PhaseParams, eps: EpsilonSet) -> BoundReport:
    """Full bound report for Poisson failures at rate lam per node.

    deltaDistinct covers the distinct-failure count of a window,
    deltaUniform the uniform-failure reduction, deltaPoisson the full
    Poisson-timing statement.  DeltaWindow is the expected time span the
    window's failure budget corresponds to.
    """
    bp = phase.betaPrime
    F = phase.F
    eps_c, eps_d, e = eps.epsC, eps.epsD, eps.eps
    gamma, delta_core, core_rate = core_bounds(phase, sys.clen, eps)

    delta_distinct = (2 * F * math.exp(-2 * bp * (1 - 2 * bp) * sys.N * lnd(eps_d))
                      / (1 + eps_d))
    # 2^-clen underflows to exactly 0.0 for clen beyond ~3.6e3; that is the
    # intended saturation, not an error
    delta_uniform = delta_distinct + F * (delta_core + 2.0 ** (-sys.clen))
    if e > 0:
        delta_poisson = (delta_uniform
                         + (1 + eps_d) * 2 * phase.Fprime * math.exp(-2 * F * lnd(e)) / (1 + e))
    else:
        delta_poisson = math.inf  # no timing slack, the tail term diverges

    uniform_rate = (1 - eps_c) / (1 + eps_d) * (1 - bp) * sys.clen / lni(2 * bp)
    erosion = sys.lam * sys.N * sys.clen
    poisson_rate = ((1 - eps_c) / ((1 + eps_d) * (1 + e))
                    * (1 - bp) / lni(2 * bp) * erosion)
    if sys.lam > 0:
        delta_window = (1 + eps_d) * (1 + e) * 2 * lni(2 * bp) / sys.lam
    else:
        delta_window = math.inf
    ratio = (1 - bp) / lni(2 * bp)
    cap = capacity(erosion, poisson_rate, sys.N, sys.clen) if poisson_rate > 0 else 0.0
    vac = any(d >= 1.0 for d in (delta_core, delta_distinct, delta_uniform, delta_poisson))
    return BoundReport(
        gammaTable=gamma,
        deltaCore=delta_core,
        deltaDistinct=delta_distinct,
        deltaUniform=delta_uniform,
        deltaPoisson=delta_poisson,
        coreRatePerFailure=core_rate,
        uniformRatePerFailure=uniform_rate,
        poissonRate=poisson_rate,
        DeltaWindow=delta_window,
        asymptoticRatio=ratio,
        capacity=cap,
        vacuous=vac,
    )
