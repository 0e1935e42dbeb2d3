"""Lazy whole-object repair over a staggered-redundancy layout.

The storer lays out each object on a distinct prefix of the nodes so that
object age and fragment count line up: the object about to be repaired has
the fewest fragments, the just-repaired one has all of them.  A repair step
reads k fragments of the front object, regenerates everything missing, and
moves the object to the back of the queue.  The Poisson variant adds a slack
counter capped at b: failures decrement it, completed steps increment it,
and the source is guaranteed recoverable while it stays non-negative.

EFI i of every object lives only at node i, so a node failure erases at most
one fragment per object and fragment placement never needs a directory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import erasure
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
    objectOrder: list       # position j -> objectId
    perObjectEfis: dict     # objectId -> set of currently stored EFIs
    sources: Optional[dict] = None   # byte backend: objectId -> source bytes
    tables: Optional[dict] = None    # byte backend: objectId -> {efi: payload}
    stepsDone: int = 0


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


@dataclass
class StepSchedule:
    stepDuration: float                      # math.inf disables repair
    inProgress: Optional[tuple] = None       # (startTime, endTime, objectId)


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

    state = ClusterState(N=N, capacity=clen)
    layout = LiquidLayout(k=k, objectCount=count, counterCap=cap, flen=flen,
                          codec=codec, objectOrder=list(range(count)),
                          perObjectEfis={})
    if codec.backend == "byte":
        if payload_rng is None:
            raise ConfigError("byte backend needs a payload generator")
        layout.sources = {}
        layout.tables = {}

    for j in range(count):
        n_frags = k + cap + j
        assert n_frags <= N
        if codec.backend == "byte":
            source = payload_rng.bytes(k * flen // 8)
            table = erasure.encode(source, range(N), codec)
            layout.sources[j] = source
            layout.tables[j] = table
        else:
            table = None
        for e in range(n_frags):
            payload = table[e] if table is not None else None
            state.store_fragment(e, j, e, payload, flen, t=0.0)
        layout.perObjectEfis[j] = set(range(n_frags))
    return state, layout


def _gather_fragments(state: ClusterState, layout: LiquidLayout, obj) -> dict:
    """The k lowest-EFI payloads of an object, EFI e from node e.
    Bookkeeping access, not metered."""
    efis = sorted(layout.perObjectEfis[obj])[: layout.k]
    if len(efis) < layout.k:
        raise DecodeError(
            f"object {obj}: {len(efis)} fragments < k = {layout.k}")
    frags = {}
    for e in efis:
        stored = state.nodes[e].fragments
        if (obj, e) not in stored:
            raise InvariantViolation(f"EFI map out of sync at node {e}")
        frags[e] = stored[(obj, e)]
    return frags


def liquid_repair_step(state: ClusterState, layout: LiquidLayout, *,
                       t0: float, t1: float) -> StepRecord:
    """Repair the front object: read k fragments, rewrite what is missing.

    Reads are metered as paced over [t0, t1]; writes land at t1.  The read
    set is chosen at completion time from whatever survived, preferring low
    EFIs (source fragments first, cheapest decode).
    """
    obj = layout.objectOrder[0]
    frags = _gather_fragments(state, layout, obj)
    flen = layout.flen
    reads = np.zeros(state.N, dtype=np.int64)
    reads[list(frags)] = flen       # fragment e lives on node e
    state.meter_read_spread(reads, t0, t1)

    if layout.codec.backend == "byte":
        data = erasure.decode(frags, layout.codec)
        if data != layout.sources[obj]:
            raise InvariantViolation(f"object {obj} decoded to wrong bytes")
        if layout.stepsDone % 100 == 0:
            fresh = erasure.encode(data, range(layout.codec.n), layout.codec)
            if fresh != layout.tables[obj]:
                raise InvariantViolation(f"object {obj} fragment table drift")

    efis = layout.perObjectEfis[obj]
    written = 0
    for e in range(layout.codec.n):
        if e in efis:
            continue
        payload = layout.tables[obj][e] if layout.tables is not None else None
        state.store_fragment(e, obj, e, payload, flen, t=t1)
        efis.add(e)
        written += flen

    order = layout.objectOrder
    order.append(order.pop(0))
    layout.stepsDone += 1
    return StepRecord(bitsRead=layout.k * flen, bitsWritten=written)


def liquid_on_failure(state: ClusterState, layout: LiquidLayout,
                      counter: RepairCounter, schedule: StepSchedule,
                      t: float, node: int) -> None:
    """Process one node failure: erase, decrement slack, keep repair busy.

    Once the counter has halted no further steps start; the in-flight one
    finishes.
    """
    state.fail_node(node, t)
    for efis in layout.perObjectEfis.values():
        efis.discard(node)
    counter.on_failure()
    if (schedule.inProgress is None and not counter.halted
            and math.isfinite(schedule.stepDuration)):
        schedule.inProgress = (t, t + schedule.stepDuration,
                               layout.objectOrder[0])


def liquid_on_step_complete(state: ClusterState, layout: LiquidLayout,
                            counter: RepairCounter, schedule: StepSchedule,
                            t: float) -> StepRecord:
    if schedule.inProgress is None:
        raise InvariantViolation("completion event with no step in flight")
    t_start, t_end, obj = schedule.inProgress
    if layout.objectOrder[0] != obj:
        raise InvariantViolation("front object changed during a repair step")
    rec = liquid_repair_step(state, layout, t0=t_start, t1=t_end)
    counter.on_step()
    schedule.inProgress = None
    if not counter.halted and counter.value < counter.cap:
        schedule.inProgress = (t, t + schedule.stepDuration,
                               layout.objectOrder[0])
    return rec


def assert_liquid_invariant(layout: LiquidLayout, slack: int) -> None:
    """Position-j object must hold >= k + slack + j fragments.

    Callers pass slack=1 at periodic inter-failure instants and the current
    counter value (when non-negative) at Poisson event boundaries.
    """
    for j, obj in enumerate(layout.objectOrder):
        have = len(layout.perObjectEfis[obj])
        if have < layout.k + slack + j:
            raise InvariantViolation(
                f"position {j} object {obj}: {have} < "
                f"{layout.k} + {slack} + {j} fragments")
