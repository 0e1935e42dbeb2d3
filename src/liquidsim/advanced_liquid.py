"""Repair from pre-positioned helper fragments with rotating labels.

Every node stores one primary fragment of each object.  Each node also
anchors one group of r objects and keeps a staircase of helper fragments
for it: the group object at position j has helpers 0..j staged at the
anchor.  Repairing a failed node then costs one fragment move per group
plus one decode per group instead of a whole-object decode per lost
fragment, which pushes per-failure read traffic down toward the capacity
bound.  After the moves, every group shifts its object order by one, each
anchor regenerates one helper set, and the fragment labels rotate so the
next failure finds the staircases ready again.

Both failure models run one chain of sub-operations per failure
(_StepChain) and differ only in pacing: the periodic variant commits the
whole chain at once, the Poisson variant paces each sub-operation at the
proof's read rate.  Slack is a counter capped at b (1 periodic): failures
decrement it, completed steps increment it.  A census of nodes holding
their full primary complement and their full staircase witnesses
recoverability; it keeps at least k + counter members while the counter
stays non-negative.

Placement is numpy arrays: a node holds the primaries of a whole group or
none, so primaries are an (N, N) bool array.  An anchor's staircase is one
integer, helperLo: the anchor holds helper roles helperLo..j of the object
at position j.  Between events it takes one of three values: 0, the full
staircase; 1, front helpers donated (a move committed and the update after
it could not pick its sources); r, no helpers (after a wipe, a failure or
the fault hook).  Reads accumulate in an (N,) int64 vector per
sub-operation.  The fault-injection hook drops the staircases of nodes 0
and 1, which fails the census but not recovery.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import erasure
from .cluster import ClusterState
from .errors import (ConfigError, DecodeError, InvariantViolation,
                     MissingFragmentError)
from .liquid import RepairCounter

log = logging.getLogger(__name__)


class OpCounts(NamedTuple):
    fragmentReads: int
    fragmentWrites: int


@dataclass
class EfiRotation:
    """Physical fragment labels currently serving the N primary and r
    helper roles.

    Fragments are keyed by physical label, so a completed repair step
    relabels by list surgery alone: the donated front helper label becomes
    the repaired node's primary label, and that node's old primary label
    joins the back of the helper list.
    """
    primaryEfis: list
    helperEfis: list
    pendingNode: Optional[int] = None

    def begin_step(self, node: int) -> None:
        if self.pendingNode is not None:
            raise InvariantViolation("a repair step is already in flight")
        self.pendingNode = node

    def new_helper_efis(self) -> list:
        """Helper labels once the in-flight step commits."""
        if self.pendingNode is None:
            raise InvariantViolation("no repair step in flight")
        return self.helperEfis[1:] + [self.primaryEfis[self.pendingNode]]

    def commit_step(self) -> None:
        node = self.pendingNode
        if node is None:
            raise InvariantViolation("no repair step in flight")
        donated = self.helperEfis[0]
        self.helperEfis = self.new_helper_efis()
        self.primaryEfis[node] = donated
        self.pendingNode = None

    def assert_distinct(self) -> None:
        labels = self.primaryEfis + self.helperEfis
        if sorted(labels) != list(range(len(labels))):
            raise InvariantViolation("labels are not a permutation of 0..n-1")


@dataclass
class GroupLayout:
    N: int
    r: int
    k: int                  # decode threshold: N-1 periodic, N-cap poisson
    flen: int
    clen: int
    beta: float
    variant: str
    counterCap: int
    codec: erasure.CodecParams
    rot: np.ndarray         # (N,) int64, completed rotations per group
    P: np.ndarray           # (N, N) bool: node holds the primaries of group g
    # (N,) int64: anchor g holds helper roles helperLo[g]..j of the object
    # at position j; 0 full staircase, 1 front helpers donated, r none
    helperLo: np.ndarray
    sources: Optional[dict] = None   # byte backend: (group, phys) -> object bytes

    def front_phys(self, group: int) -> int:
        """Physical index of the group's position-0 object."""
        return int(self.rot[group]) % self.r

    def phys_at(self, group: int, position: int) -> int:
        return (int(self.rot[group]) + position) % self.r


@dataclass
class AdvancedStepRecord:
    node: int
    bitsRead: int
    bitsWritten: int
    counts: dict            # {"generate"|"move"|"update": [OpCounts, ...]}
    futile: bool = False    # target failed mid-step; it queues again
    startTime: float = 0.0
    endTime: float = 0.0


def r_for_target_overhead(N: int, beta: float) -> int:
    """Helper count giving storage overhead close to beta at large N."""
    if not 0.0 < beta < 1.0:
        raise ConfigError("beta must be in (0, 1)")
    return max(1, round(2.0 * beta * N / (1.0 - beta)))


def advanced_store(N: int, clen: int, r: int, *, variant: str = "periodic",
                   eps: float = 0.0, backend: str = "auto", payload_rng=None):
    """Build the initial cluster; returns (ClusterState, GroupLayout, EfiRotation).

    Every node gets N*r primary fragments plus the r(r+1)/2 helper
    staircase for its own group, filling capacity clen exactly.
    """
    if N < 2 or r < 1:
        raise ConfigError("need N >= 2 and r >= 1")
    if variant == "periodic":
        if eps:
            raise ConfigError("periodic variant takes no eps")
        cap = 1
    elif variant == "poisson":
        if not 0.0 <= eps < 1.0:
            raise ConfigError("poisson variant needs eps in [0, 1)")
        cap = int(math.floor(eps / 2.0 * N + 1e-9)) + 1
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    k = N - cap
    if k < 1:
        raise ConfigError(f"slack cap {cap} leaves no decode threshold at N={N}")
    divisor = r * N + r * (r + 1) // 2
    if clen % divisor:
        raise ConfigError(
            f"clen {clen} not divisible by r*(N + (r+1)/2) = {divisor}")
    flen = clen // divisor
    beta = (r + 1 + 2 * cap) / (2 * N + r + 1)
    if r * (1.0 - beta) > 2.0 * N * (beta - eps / 2.0) + 1e-9:
        raise InvariantViolation("helper count exceeds what the overhead buys")
    codec = erasure.make_codec(N + r, k, flen, backend=backend)

    state = ClusterState(N=N, capacity=clen)
    layout = GroupLayout(N=N, r=r, k=k, flen=flen, clen=clen, beta=beta,
                         variant=variant, counterCap=cap, codec=codec,
                         rot=np.zeros(N, dtype=np.int64),
                         P=np.ones((N, N), dtype=bool),
                         helperLo=np.zeros(N, dtype=np.int64))
    rotation = EfiRotation(primaryEfis=list(range(N)),
                           helperEfis=list(range(N, N + r)))

    if codec.backend == "byte":
        if payload_rng is None:
            raise ConfigError("byte backend needs payload_rng")
        layout.sources = {}
        for g in range(N):
            for p in range(r):
                src = payload_rng.bytes(k * flen // 8)
                layout.sources[(g, p)] = src
                frags = erasure.encode(src, range(N + p + 1), codec)
                for m in range(N):
                    state.store_fragment(m, (g, p), m, frags[m], flen, t=0.0)
                for e in range(N, N + p + 1):
                    state.store_fragment(g, (g, p), e, frags[e], flen, t=0.0)
        for nid, node in enumerate(state.nodes):
            if node.usedBits != clen:
                raise InvariantViolation(f"node {nid} stored {node.usedBits} bits")
    else:
        for m in range(N):
            state.meter_write_bulk(m, clen, t=0.0)
    return state, layout, rotation


def _pick_primary_sources(layout, group, phys, exclude, need) -> np.ndarray:
    """The first `need` primary holders of the group in ascending node
    order, skipping exclude; phys only names the object in the error."""
    holders = layout.P[:, group].nonzero()[0]
    if exclude is not None:
        holders = holders[holders != exclude]
    if len(holders) < need:
        raise DecodeError(f"object ({group},{phys}) has {len(holders)} "
                          f"primary sources, need {need}")
    return holders[:need]


def _decode_object(state, layout, rotation, group, phys, srcs):
    frags = {}
    for m in srcs.tolist():
        efi = rotation.primaryEfis[m]
        payload = state.nodes[m].fragments.get(((group, phys), efi))
        if payload is None:
            raise InvariantViolation(f"primary map out of sync at node {m}")
        frags[efi] = payload
    data = erasure.decode(frags, layout.codec)
    if data != layout.sources[(group, phys)]:
        raise InvariantViolation(f"decode mismatch for object ({group},{phys})")
    return data


def generate_helpers(state: ClusterState, layout: GroupLayout,
                     rotation: EfiRotation, group: int, *, t=None,
                     collect=None, exclude=None) -> OpCounts:
    """Rebuild the helper staircase for a group at its anchor node.

    Decodes each of the r group objects from k primary fragments (the
    same k nodes for all of them) and writes helpers 0..j for the object at
    position j.  Reads accumulate into the (N,) vector collect for the
    caller to meter; with collect=None they are metered here as an impulse
    at t.
    """
    if t is None:
        t = state.now
    r = layout.r
    reads = np.zeros(layout.N, np.int64) if collect is None else collect
    srcs = _pick_primary_sources(layout, group, layout.front_phys(group),
                                 exclude, layout.k)
    reads[srcs] += r * layout.flen
    writes = r * (r + 1) // 2
    if layout.codec.backend == "byte":
        for j in range(r):
            p = layout.phys_at(group, j)
            data = _decode_object(state, layout, rotation, group, p, srcs)
            labels = rotation.helperEfis[: j + 1]
            frags = erasure.encode(data, labels, layout.codec)
            for e in labels:
                state.store_fragment(group, (group, p), e, frags[e],
                                     layout.flen, t=t)
    else:
        state.meter_write_bulk(group, writes * layout.flen, t=t)
    layout.helperLo[group] = 0
    if collect is None:
        state.meter_read_spread(reads, t, t)
    return OpCounts(layout.k * r, writes)


def move_helpers(state: ClusterState, layout: GroupLayout,
                 rotation: EfiRotation, fromNode: int, toNode: int, *,
                 t=None, collect=None) -> OpCounts:
    """Hand every position-0 helper of fromNode's group to toNode, where
    the donated fragments take over the primary role.

    fromNode == toNode relabels in place; the copy is still metered.
    """
    if t is None:
        t = state.now
    if layout.helperLo[fromNode] != 0:
        raise MissingFragmentError(
            f"node {fromNode} lacks position-0 helpers to donate")
    reads = np.zeros(layout.N, np.int64) if collect is None else collect
    reads[fromNode] += layout.r * layout.flen
    donated = rotation.helperEfis[0]
    if layout.codec.backend == "byte":
        for p in range(layout.r):
            obj = (fromNode, p)
            payload = state.nodes[fromNode].fragments.get((obj, donated))
            if payload is None:
                raise InvariantViolation(
                    f"helper map out of sync at node {fromNode}")
            state.store_fragment(toNode, obj, donated, payload, layout.flen, t=t)
            if fromNode != toNode:
                state.delete_fragment(fromNode, obj, donated)
    else:
        state.meter_write_bulk(toNode, layout.r * layout.flen, t=t)
    layout.P[toNode, fromNode] = True
    layout.helperLo[fromNode] = 1
    if collect is None:
        state.meter_read_spread(reads, t, t)
    return OpCounts(layout.r, layout.r)


def update_helpers(state: ClusterState, layout: GroupLayout,
                   rotation: EfiRotation, group: int, *, t=None,
                   collect=None, exclude=None) -> OpCounts:
    """Shift the group order by one and rebuild the full helper set for
    the object that moved to the back.

    Requires an in-flight step on rotation: the new back object's helpers
    take the post-step labels, ending with the repaired node's old primary
    label.  The other objects already hold exactly the helpers their new
    position needs, one label down from where they sat before.  An anchor
    without its staircase (helperLo > 1) has nothing to shift.
    """
    if t is None:
        t = state.now
    r = layout.r
    if layout.helperLo[group] > 1:
        raise MissingFragmentError(f"node {group} holds no staircase to update")
    p0 = layout.front_phys(group)
    srcs = _pick_primary_sources(layout, group, p0, exclude, layout.k)
    reads = np.zeros(layout.N, np.int64) if collect is None else collect
    reads[srcs] += layout.flen
    labels = rotation.new_helper_efis()
    if layout.codec.backend == "byte":
        data = _decode_object(state, layout, rotation, group, p0, srcs)
        frags = erasure.encode(data, labels, layout.codec)
        for e in labels:
            state.store_fragment(group, (group, p0), e, frags[e],
                                 layout.flen, t=t)
    else:
        state.meter_write_bulk(group, r * layout.flen, t=t)
    layout.rot[group] += 1
    layout.helperLo[group] = 0
    if collect is None:
        state.meter_read_spread(reads, t, t)
    return OpCounts(layout.k, r)


def _wipe_node(state, layout, node) -> None:
    # formatting the replacement is free; only repair traffic is metered
    store = state.nodes[node]
    for object_id, efi in list(store.fragments):
        state.delete_fragment(node, object_id, efi)
    layout.P[node] = False
    layout.helperLo[node] = layout.r


def advanced_fail_node(state: ClusterState, layout: GroupLayout, t: float,
                       node: int) -> None:
    state.fail_node(node, t)
    layout.P[node] = False
    layout.helperLo[node] = layout.r


class _StepChain:
    """All work of one repair step: the target's own staircase first, then
    per group in ascending order a generate when its position-0 helpers are
    missing, followed by a move+update.

    Each sub-operation is planned from the placement as it stands when the
    previous one committed, so a donor lost mid-step is regenerated before
    its helpers move.  Creating the chain opens the step on the rotation and
    wipes the target; finish() commits the labels.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout,
                 rotation: EfiRotation, node: int, t: float):
        self.state = state
        self.layout = layout
        self.rotation = rotation
        self.node = node
        self.startTime = t
        self.futile = False         # target failed again mid-step
        self.counts = {"generate": [], "move": [], "update": []}
        self.bitsRead = 0
        rotation.begin_step(node)
        _wipe_node(state, layout, node)

    def next_subop(self) -> Optional[tuple]:
        """(kind, group) of the next sub-operation, None once all are done."""
        if not self.counts["generate"]:
            return "generate", self.node    # the wiped target's staircase
        group = len(self.counts["move"])
        if group == self.layout.N:
            return None
        has_front = self.layout.helperLo[group] == 0
        return ("moveupdate" if has_front else "generate"), group

    def commit(self, kind: str, group: int, t: float,
               collect: np.ndarray) -> None:
        """Run one planned sub-operation at t; reads accumulate in collect."""
        ctx = (self.state, self.layout, self.rotation)
        if kind == "generate":
            self.counts["generate"].append(generate_helpers(
                *ctx, group, t=t, collect=collect, exclude=self.node))
        else:
            self.counts["move"].append(move_helpers(
                *ctx, group, self.node, t=t, collect=collect))
            self.counts["update"].append(update_helpers(
                *ctx, group, t=t, collect=collect, exclude=self.node))

    def planned_reads(self, kind: str, group: int) -> np.ndarray:
        """(N,) read bits of a sub-operation, re-derived from the current
        placement; used only to attribute aborted reads."""
        layout = self.layout
        reads = np.zeros(layout.N, np.int64)
        per_src = layout.flen
        if kind == "generate":
            per_src *= layout.r
        else:
            reads[group] += layout.r * layout.flen
        try:
            srcs = _pick_primary_sources(layout, group,
                                         layout.front_phys(group),
                                         self.node, layout.k)
            reads[srcs] += per_src
        except DecodeError:
            log.warning("aborted sub-operation reads under-attributed: "
                        "sources already gone")
        return reads

    def finish(self, t: float) -> AdvancedStepRecord:
        self.rotation.commit_step()
        self.rotation.assert_distinct()
        written = sum(c.fragmentWrites for seq in self.counts.values()
                      for c in seq)
        return AdvancedStepRecord(
            node=self.node, bitsRead=self.bitsRead,
            bitsWritten=written * self.layout.flen, counts=self.counts,
            futile=self.futile, startTime=self.startTime, endTime=t)

    def run(self, t0: float, t1: float) -> AdvancedStepRecord:
        """The whole chain at once: every sub-operation commits at t1 and
        the step's reads are metered as one stream over [t0, t1]."""
        collect = np.zeros(self.layout.N, np.int64)
        for kind, group in iter(self.next_subop, None):
            self.commit(kind, group, t1, collect)
        self.bitsRead = self.state.meter_read_spread(collect, t0, t1)
        return self.finish(t1)


def advanced_repair_step(state: ClusterState, layout: GroupLayout,
                         rotation: EfiRotation, failedNode: int, *,
                         t0=None, t1=None) -> AdvancedStepRecord:
    """One full periodic repair step for failedNode, run synchronously.

    Generates the target's own staircase first, then per group (ascending,
    including the target's own) moves the donated helpers in and updates
    the staircase.  Reads are metered as one stream over [t0, t1]; writes
    land at t1.
    """
    if t0 is None:
        t0 = state.now
    if t1 is None:
        t1 = t0
    return _StepChain(state, layout, rotation, failedNode, t0).run(t0, t1)


def census(layout: GroupLayout) -> list:
    """Witness members: nodes with every group's primaries and their full
    staircase."""
    return np.flatnonzero(layout.P.all(axis=1)
                          & (layout.helperLo == 0)).tolist()


def assert_advanced_invariant(layout: GroupLayout, minimum=None) -> None:
    """Require at least `minimum` witness members (all N by default)."""
    got = len(census(layout))
    need = layout.N if minimum is None else minimum
    if got < need:
        raise InvariantViolation(f"witness set has {got} members, need {need}")


def helper_counts(layout: GroupLayout) -> np.ndarray:
    """(N, r) int64: helpers anchor g holds of object (g, phys)."""
    position = (np.arange(layout.r) - layout.rot[:, None]) % layout.r
    return np.maximum(position + 1 - layout.helperLo[:, None], 0)


def recoverable_census(layout: GroupLayout) -> bool:
    """True when every object still reaches its decode threshold."""
    if int(np.count_nonzero(layout.P.all(axis=1))) >= layout.k:
        return True
    per_object = (layout.P.sum(axis=0, dtype=np.int64)[:, None]
                  + helper_counts(layout))
    return int(per_object.min()) >= layout.k


def node_used_bits(layout: GroupLayout) -> np.ndarray:
    frags = (layout.P.sum(axis=1, dtype=np.int64) * layout.r
             + helper_counts(layout).sum(axis=1))
    return frags * layout.flen


def check_advanced_sync(state: ClusterState, layout: GroupLayout,
                        rotation: EfiRotation) -> None:
    """Cross-check the byte store against the placement arrays.

    Only meaningful between steps, when labels are committed; symbolic
    layouts have nothing to compare.
    """
    if layout.codec.backend != "byte":
        return
    counts = helper_counts(layout).tolist()
    for node in range(layout.N):
        expected = {((g, p), rotation.primaryEfis[node])
                    for g in np.flatnonzero(layout.P[node]).tolist()
                    for p in range(layout.r)}
        lo = int(layout.helperLo[node])
        expected |= {((node, p), rotation.helperEfis[m])
                     for p, c in enumerate(counts[node])
                     for m in range(lo, lo + c)}
        actual = set(state.nodes[node].fragments)
        if actual != expected:
            raise InvariantViolation(
                f"node {node}: store and placement arrays disagree "
                f"({len(actual)} vs {len(expected)} fragments)")


@dataclass(frozen=True)
class AdvancedSchedule:
    """Timing contract for the Poisson variant.

    Sub-operations are paced so their reads stream at rateProof, the
    conservative ceiling with the larger leading coefficient; rateTheorem
    carries the headline coefficient and is reported for comparison.
    """
    lam: float
    N: int
    beta: float
    epsPrime: float
    counterCap: int
    clen: int
    rateTheorem: float
    rateProof: float
    genTimeBound: float          # ceiling for one helper regeneration
    moveUpdateTimeBound: float   # ceiling for a step's N move+update pairs
    deltaTheorem: float          # unrecoverability bound per M failures

    def subop_duration(self, bits: int) -> float:
        return bits / self.rateProof

    def steps_time_bound(self, m: int) -> float:
        """Time for m - cap steps keeping pace with m failures."""
        return (1.0 - self.epsPrime) / (self.lam * self.N) * (
            m - self.counterCap / (2.0 * self.beta + 1.0))


def advanced_schedule(counter: RepairCounter, variant: str, lam: float,
                      N: int, beta: float, eps: float, *,
                      clen: int) -> AdvancedSchedule:
    if variant != "poisson":
        raise ConfigError("schedule applies to the poisson variant only")
    if not 0.0 <= eps < 1.0:
        raise ConfigError("eps must be in [0, 1)")
    if lam <= 0.0 or N < 2 or clen < 1:
        raise ConfigError("need lam > 0, N >= 2, clen >= 1")
    epsp = eps / 2.0
    if beta <= epsp:
        raise ConfigError(f"beta {beta} must exceed eps/2 = {epsp}")
    base = (1.0 - beta) / (1.0 - epsp) * lam * N * clen
    half = 1.0 / (2.0 * (beta - epsp))
    return AdvancedSchedule(
        lam=lam, N=N, beta=beta, epsPrime=epsp, counterCap=counter.cap,
        clen=clen,
        rateTheorem=base * (1.0 + half),
        rateProof=base * (2.0 + half),
        genTimeBound=(1.0 - epsp) / (lam * N) * 2.0 * beta / (2.0 * beta + 1.0),
        moveUpdateTimeBound=(1.0 - epsp) / (lam * N),
        deltaTheorem=math.exp(
            -eps * eps * (1.0 - epsp) * beta * N / (4.0 * (2.0 * beta + 1.0))))


@dataclass
class _SubOp:
    kind: str       # "generate", "moveupdate" or a whole periodic "step"
    group: int
    t0: float
    t1: float


class AdvancedPoissonRepairer:
    """Drives repair steps as timed events on a _StepChain, paced by
    layout.variant.

    One step is in flight at a time; failed nodes queue oldest-first and
    the next step starts whenever the queue is non-empty, so the counter
    never strands a broken node.  Periodic: schedule is the step duration
    (half the failure period) and each step is one event that commits the
    whole chain; a failure during a step breaks the variant's contract.
    Poisson: schedule is an AdvancedSchedule and each sub-operation commits
    atomically at its end time, binding reads to sources alive at
    completion.  A donor failing mid-sub-operation aborts it with pro-rata
    read metering and the chain re-plans, regenerating the donor's helpers
    before retrying the move.  The step's own target failing does not stop
    the chain: the finished step leaves the target outside the witness
    census, the counter still ticks up at completion, and the node queues
    again.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout,
                 rotation: EfiRotation, schedule: AdvancedSchedule | float):
        self.state = state
        self.layout = layout
        self.rotation = rotation
        self.schedule = schedule
        self.counter = RepairCounter.at_cap(layout.counterCap)
        self.queue = deque()
        self.chain: Optional[_StepChain] = None
        self.subop: Optional[_SubOp] = None

    @property
    def idle(self) -> bool:
        return self.chain is None

    def next_completion(self) -> Optional[float]:
        return self.subop.t1 if self.subop is not None else None

    def on_failure(self, t: float, node: int) -> None:
        advanced_fail_node(self.state, self.layout, t, node)
        self.counter.on_failure()
        if self.chain is not None:
            if self.layout.variant == "periodic":
                raise InvariantViolation("periodic steps must not overlap")
            if node == self.chain.node:
                self.chain.futile = True
        if node not in self.queue:
            self.queue.append(node)
        if self.subop is not None and node == self.subop.group:
            self._abort_subop(t)
            self._plan(t)
        elif self.chain is None and not self.counter.halted:
            self._start_step(t)

    def on_subop_complete(self, t: float) -> Optional[AdvancedStepRecord]:
        """Commit the due event; returns the step record when the whole
        chain just finished."""
        sub = self.subop
        if sub is None:
            raise InvariantViolation("no sub-operation in flight")
        if abs(t - sub.t1) > 1e-9 * max(1.0, abs(sub.t1)):
            raise InvariantViolation(
                f"completion at {t}, schedule says {sub.t1}")
        self.subop = None
        if sub.kind == "step":
            return self._end_step(self.chain.run(sub.t0, t), t)
        collect = np.zeros(self.layout.N, np.int64)
        self.chain.commit(sub.kind, sub.group, t, collect)
        self.chain.bitsRead += self.state.meter_read_spread(collect, sub.t0, t)
        return self._plan(t)

    def _start_step(self, t: float) -> None:
        if not self.queue:
            return
        node = self.queue.popleft()
        self.chain = _StepChain(self.state, self.layout, self.rotation,
                                node, t)
        if self.layout.variant == "periodic":
            self.subop = _SubOp("step", node, t, t + self.schedule)
        else:
            self._plan(t)

    def _plan(self, t: float) -> Optional[AdvancedStepRecord]:
        """Launch the chain's next sub-operation, or end the step."""
        nxt = self.chain.next_subop()
        if nxt is None:
            return self._end_step(self.chain.finish(t), t)
        kind, group = nxt
        layout = self.layout
        if kind == "generate":
            bits = layout.k * layout.r * layout.flen
        else:
            bits = (layout.r + layout.k) * layout.flen
        self.subop = _SubOp(kind, group, t,
                            t + self.schedule.subop_duration(bits))
        return None

    def _end_step(self, record: AdvancedStepRecord,
                  t: float) -> AdvancedStepRecord:
        self.counter.on_step()
        self.chain = None
        if not self.counter.halted:
            self._start_step(t)
        return record

    def _abort_subop(self, t: float) -> None:
        sub = self.subop
        self.subop = None
        if t <= sub.t0:
            return
        frac = min(1.0, (t - sub.t0) / (sub.t1 - sub.t0))
        planned = self.chain.planned_reads(sub.kind, sub.group)
        scaled = (planned * frac + 0.5).astype(np.int64)
        self.chain.bitsRead += self.state.meter_read_spread(scaled, sub.t0, t)
