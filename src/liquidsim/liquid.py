"""Lazy whole-object repair over a staggered-redundancy layout.

The storer lays out each object on a distinct prefix of the nodes so that
object age and fragment count line up: the object about to be repaired has
the fewest fragments, the just-repaired one has all of them.  A repair step
reads k fragments of the front object, regenerates everything missing, and
moves the object to the back of the queue.  The Poisson variant adds a slack
counter capped at b: failures decrement it, completed steps increment it,
and the source is guaranteed recoverable while it stays non-negative.
LiquidRepairer runs the steps as timed events through liquid_on_failure
and liquid_on_step_complete; it has advanced_liquid.AdvancedPoissonRepairer's
surface, so sim_engine drives both repairers alike.

EFI i of every object lives only at node i, so a node failure erases at most
one fragment per object, and placement is one (objects, N) bool array: a
failure clears a column, a step fills a row.  The queue only rotates, so the
object at position j is (stepsDone + j) % objectCount.

The byte backend keeps two (objects, N, flen_bytes) uint8 arrays beside
held: code, the reference codeword of every object, whose first k rows are
its source, and frags, what the nodes hold.  The store fills the source
rows from the payload stream (rng.fill_bytes), encodes every object's
parity in one stacked product, and copies code into frags with the unheld
rows zeroed.  A failure zeroes the node's column of frags.  A step decodes
and checks in one kernel call (erasure.decode_in_place with the codeword):
the product reads the object's rows of frags where they lie and writes its
missing source rows there, and frags[:k] is compared with code[:k] byte for
byte.  The missing parity rows, usually none to two, are then copied back
from code row by row.  Every 100th step also re-encodes the parity from the
decoded source (erasure.encode_rows) and compares it with code's
(np.array_equal).
The symbolic backend holds no payloads and only meters.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import erasure, rng
from .cluster import ClusterState
from .errors import ConfigError, DecodeError, InvariantViolation

log = logging.getLogger(__name__)


class StepRecord(NamedTuple):
    bitsRead: int
    bitsWritten: int


@dataclass
class LiquidLayout:
    k: int                  # fragments needed to decode
    objectCount: int        # r (periodic) or the reduced Poisson count
    counterCap: int         # slack cap b; 1 in the periodic variant
    flen: int               # bits per fragment, clen / objectCount
    codec: erasure.CodecParams
    held: np.ndarray        # (objects, N) bool: EFI e of object j at node e
    # byte backend, (objects, N, flen_bytes) uint8 each: the codewords, and
    # the node contents, zero where held is False
    code: Optional[np.ndarray] = None
    frags: Optional[np.ndarray] = None
    stepsDone: int = 0      # the front object is stepsDone % objectCount

    @property
    def front(self) -> int:
        return self.stepsDone % self.objectCount


@dataclass
class RepairCounter:
    """Repair slack.  A dip below zero voids the safety argument, so it
    latches halted and repairers start no further steps."""
    value: int
    cap: int
    minSeen: int
    halted: bool = False

    @classmethod
    def at_cap(cls, cap: int) -> "RepairCounter":
        return cls(value=cap, cap=cap, minSeen=cap)

    def on_failure(self) -> None:
        self.value -= 1
        self.minSeen = min(self.minSeen, self.value)
        if self.value < 0:
            self.halted = True

    def on_step(self) -> None:
        self.value = min(self.value + 1, self.cap)


def _split_rate(N: int, beta: float) -> tuple:
    k_f = (1.0 - beta) * N
    k = round(k_f)
    if abs(k_f - k) > 1e-9 * N or not (1 <= k < N):
        raise ConfigError(f"(1-beta)*N = {k_f} is not a usable integer")
    return k, N - k


def liquid_store(xlen: int, N: int, clen: int, beta: float, *,
                 variant: str = "periodic", eps: float = 0.0,
                 backend: str = "auto", payload_rng=None):
    """Build the initial cluster and layout; returns (ClusterState, layout).

    xlen must equal (1-beta)*N*clen.  The object at queue position j starts
    with exactly k + b0 + j fragments (EFIs 0..), where b0 is the counter cap
    (1 for periodic), so the repair invariant holds with equality from t=0.
    payload_rng is a numpy Generator, or a function returning one that is
    called only when the codec resolves to byte.
    """
    if clen < 1:
        raise ConfigError("clen must be positive")
    k, r = _split_rate(N, beta)
    if xlen != k * clen:
        raise ConfigError(f"xlen {xlen} != (1-beta)*N*clen = {k * clen}")

    if variant == "periodic":
        count, cap = r, 1
    elif variant == "poisson":
        if not 0.0 < eps < 1.0:
            raise ConfigError("poisson variant needs eps in (0, 1)")
        epsp = eps / 2.0
        count = int(math.floor((1.0 - epsp) * r + 1e-9))
        if count < 1:
            log.info("object count clamped to 1 from %.3f", (1.0 - epsp) * r)
            count = 1
        cap = int(math.floor(epsp * r + 1e-9)) + 1
        frac = epsp * r
        if abs(frac - round(frac)) < 1e-9:
            if count + cap != r + 1:
                raise InvariantViolation(
                    f"object/slack split {count}+{cap} != {r + 1}")
        else:
            log.info("non-integral slack split: count+cap = %d, r+1 = %d",
                     count + cap, r + 1)
    else:
        raise ConfigError(f"unknown variant {variant!r}")

    if clen % count:
        raise ConfigError(f"clen {clen} not divisible by object count {count}")
    flen = clen // count
    codec = erasure.make_codec(N, k, flen, backend=backend)

    byte = codec.backend == "byte"
    if byte and payload_rng is None:
        raise ConfigError("byte backend needs a payload generator")
    state = ClusterState(N)
    assert k + cap + count - 1 <= N
    held = np.arange(N) < (k + cap + np.arange(count))[:, None]
    layout = LiquidLayout(k=k, objectCount=count, counterCap=cap, flen=flen,
                          codec=codec, held=held)
    state.meter_write_bulk(slice(None), held.sum(axis=0) * flen)
    if byte:
        if callable(payload_rng):
            payload_rng = payload_rng()
        layout.code = code = np.empty((count, N, codec.flen_bytes), np.uint8)
        # source row e of object j is the (j * k + e)-th payload_rng.bytes
        rng.fill_bytes(payload_rng, code[:, :k])
        code[:, k:] = erasure.encode_rows(code, range(k, N), codec)
        code.setflags(write=False)
        layout.frags = frags = code.copy()
        frags[~held] = 0
    return state, layout


def liquid_repair_step(state: ClusterState, layout: LiquidLayout, *,
                       t0: float, t1: float) -> StepRecord:
    """Repair the front object: read k fragments, rewrite what is missing.

    Reads are metered as paced over [t0, t1]; writes land at t1.  The read
    set is chosen at completion time from whatever survived, preferring low
    EFIs (source fragments first, cheapest decode).
    """
    obj = layout.front
    row = layout.held[obj]
    efis = np.flatnonzero(row)[: layout.k]
    if len(efis) < layout.k:
        raise DecodeError(
            f"object {obj}: {len(efis)} fragments < k = {layout.k}")
    flen = layout.flen
    reads = np.zeros(state.N, dtype=np.int64)
    reads[efis] = flen       # fragment e lives on node e
    state.meter_read_spread(reads, t0, t1)
    missing = np.flatnonzero(~row)
    if layout.code is not None:
        k, code, frags = layout.k, layout.code[obj], layout.frags[obj]
        if erasure.decode_in_place(frags, efis, layout.codec, code) == 0:
            raise InvariantViolation(f"object {obj} decoded to wrong bytes")
        # every 100th step re-encodes the parity from the decoded source
        if layout.stepsDone % 100 == 0 and not np.array_equal(
                erasure.encode_rows(frags, range(k, layout.codec.n),
                                    layout.codec), code[k:]):
            raise InvariantViolation(f"object {obj} codeword drift")
        for e in missing[np.searchsorted(missing, k):]:
            frags[e] = code[e]
    state.meter_write_bulk(missing, flen)
    row[:] = True
    layout.stepsDone += 1
    return StepRecord(layout.k * flen, len(missing) * flen)


def liquid_fail_node(state: ClusterState, layout: LiquidLayout, t: float,
                     node: int) -> None:
    layout.held[:, node] = False
    if layout.frags is not None:
        layout.frags[:, node] = 0


class LiquidRepairer:
    """Liquid's steps as timed events, with the surface of
    advanced_liquid.AdvancedPoissonRepairer: pace is the step duration
    (math.inf disables repair), and each step is one event, so a horizon
    commits nothing more and done is always None."""

    completionKind = "step"
    done = None

    def __init__(self, state: ClusterState, layout: LiquidLayout,
                 pace: float):
        self.state = state
        self.layout = layout
        self.pace = pace
        self.counter = RepairCounter.at_cap(layout.counterCap)
        # (startTime, endTime, objectId) of the step in flight
        self.inProgress: Optional[tuple] = None

    def next_completion(self) -> Optional[float]:
        return self.inProgress[1] if self.inProgress is not None else None

    def on_failure(self, t: float, node: int) -> None:
        liquid_on_failure(self, t, node)

    def on_subop_complete(self, t: float, horizon=None) -> StepRecord:
        return liquid_on_step_complete(self, t)

    def recoverable(self, check: bool = False) -> bool:
        """Every object keeps k fragments; check asserts the invariant too."""
        have = self.layout.held.sum(axis=1)
        if not (have >= self.layout.k).all():
            return False
        if check and self.counter.value >= 0:
            assert_liquid_invariant(self.layout, self.counter.value, have)
        return True

    def inject_fault(self) -> None:
        back = self.layout.held[self.layout.front - 1]
        back[np.flatnonzero(back)[-1]] = False


def liquid_on_failure(rep: LiquidRepairer, t: float, node: int) -> None:
    """Process one node failure: erase, decrement slack, keep repair busy.

    Once the counter has halted no further steps start; the in-flight one
    finishes.
    """
    liquid_fail_node(rep.state, rep.layout, t, node)
    rep.counter.on_failure()
    if (rep.inProgress is None and not rep.counter.halted
            and math.isfinite(rep.pace)):
        rep.inProgress = (t, t + rep.pace, rep.layout.front)


def liquid_on_step_complete(rep: LiquidRepairer, t: float) -> StepRecord:
    """Commit the step in flight; a stall (DecodeError) leaves no step in
    flight."""
    if rep.inProgress is None:
        raise InvariantViolation("completion event with no step in flight")
    (t_start, t_end, obj), rep.inProgress = rep.inProgress, None
    layout, counter = rep.layout, rep.counter
    if layout.front != obj:
        raise InvariantViolation("front object changed during a repair step")
    rec = liquid_repair_step(rep.state, layout, t0=t_start, t1=t_end)
    counter.on_step()
    if not counter.halted and counter.value < counter.cap:
        rep.inProgress = (t, t + rep.pace, layout.front)
    return rec


def assert_liquid_invariant(layout: LiquidLayout, slack: int,
                            have=None) -> None:
    """Position-j object must hold >= k + slack + j fragments.

    Callers pass slack=1 at periodic inter-failure instants and the current
    counter value (when non-negative) at Poisson event boundaries; have is
    layout.held.sum(axis=1) when the caller already counted it.
    """
    position = np.arange(layout.objectCount)
    order = (layout.stepsDone + position) % layout.objectCount
    have = (layout.held.sum(axis=1) if have is None else have)[order]
    short = np.flatnonzero(have < layout.k + slack + position)
    if short.size:
        j = int(short[0])
        raise InvariantViolation(
            f"position {j} object {order[j]}: {have[j]} < "
            f"{layout.k} + {slack} + {j} fragments")
