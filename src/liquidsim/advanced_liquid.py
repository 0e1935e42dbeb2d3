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
proof's read rate (AdvancedPoissonRepairer).

Slack is a counter capped at b (1 periodic): failures decrement it,
completed steps increment it.  A census of nodes holding their full
primary complement and their full staircase witnesses recoverability; it
keeps at least k + counter members while the counter stays non-negative.

Placement is (N,) numpy arrays, so one step is O(N) work.  A node holds
the primaries of a whole group or none, and the groups it holds form one
run, heldLo[n]..heldHi[n]-1: stores start full, a wipe or a failure
empties the row, and a move extends the target's run by its one group.
An anchor's staircase is one integer, helperLo (see GroupLayout): 0, the
full staircase; 1, front helpers donated (a move committed and the
update after it could not pick its sources); r, no helpers.  Census,
recoverability and used bits are closed forms of these arrays.  The
fragment labels are one (N + r,) permutation array, labels: a step's
commit moves two labels and shifts the r helper labels.

The byte backend holds code, the read-only codewords, frags, what the
nodes hold, and owner, the node holding each fragment or -1 (see
GroupLayout).  owner is never derived from placement, so
check_advanced_sync can compare the two.  The sub-operations record each
committed range on their metering window (a step, a Poisson repairer
call or a standalone call), which meters its writes once and whose
settle() alone touches payloads and owner: it checks every primary
read's owner, decodes each pick's objects in one kernel call and
compares them with code, copies helpers from code and moves front
helpers by owner, stopping where one sub-operation at a time would.  A
source pick depends only on the group's holder set outside the target,
which changes at the run ends of other rows or when a row is cleared; a
chain keeps its pick while neither happens, so the groups it serves
commit as array ops on a range.  A wipe or a failure clears the node's
owner entries and zeroes their payloads.  The fault-injection hook drops
the staircases of nodes 0 and 1, which fails the census but not recovery.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import erasure, rng
from .cluster import ClusterState
from .errors import (ConfigError, DecodeError, InvariantViolation,
                     MissingFragmentError)
from .liquid import RepairCounter

log = logging.getLogger(__name__)


class OpCounts(NamedTuple):
    fragmentReads: int
    fragmentWrites: int


# not a cached_property, whose __dict__ read slows attribute loads (3.11)
@functools.lru_cache(maxsize=None)
def op_counts(k: int, r: int) -> dict:
    """{"generate"|"move"|"update": OpCounts}: the fragments one group's
    sub-operation of each kind reads and writes."""
    return {"generate": OpCounts(k * r, r * (r + 1) // 2),
            "move": OpCounts(r, r), "update": OpCounts(k, r)}


@functools.lru_cache(maxsize=None)
def subop_bits(k: int, r: int, flen: int) -> list:
    """[read, written] bits of one group's move+update, then its generate."""
    ops = op_counts(k, r)
    return (np.array([np.add(ops["move"], ops["update"]), ops["generate"]])
            * flen).tolist()


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
    # (N,) int64 each: node n holds the primaries of groups heldLo[n] to
    # heldHi[n] - 1; an empty row is (0, 0)
    heldLo: np.ndarray
    heldHi: np.ndarray
    # (N,) int64: anchor g holds helper roles helperLo[g]..j of the object
    # at position j; 0 full staircase, 1 front helpers donated, r none
    helperLo: np.ndarray
    # (N + r,) int64 permutation of the physical fragment labels: node n's
    # primary label at n, then the r helper labels in order
    labels: np.ndarray
    rowClears: int = 0      # rows emptied so far; a cached source pick keys on it
    pendingNode: Optional[int] = None   # target of the step in flight
    # post_helpers() of that step, built once; not a cached_property (3.11)
    postHelpers: Optional[np.ndarray] = None
    # byte backend, by object (group, phys) and physical label: code, the
    # read-only codewords, whose first k labels are the source, and frags,
    # what the nodes hold, (N, r, N + r, flen_bytes) uint8 each, and owner
    # (N, r, N + r), the node holding each fragment or -1; frags is code
    # where owner is not -1 and zero where it is
    code: Optional[np.ndarray] = None
    frags: Optional[np.ndarray] = None
    owner: Optional[np.ndarray] = None
    # owner, frags, code by slot, object * (N + r) + label; frags, code
    bySlot: Optional[tuple] = None

    def front_phys(self, group: int) -> int:
        """Physical index of the group's position-0 object."""
        return int(self.rot[group]) % self.r

    def begin_step(self, node: int) -> None:
        if self.pendingNode is not None:
            raise InvariantViolation("a repair step is already in flight")
        self.pendingNode = node

    def require_step(self) -> None:
        if self.pendingNode is None:
            raise InvariantViolation("no repair step in flight")

    def post_helpers(self) -> np.ndarray:
        """Helper labels once the in-flight step commits, as an int64
        array; built once per step."""
        self.require_step()
        if self.postHelpers is None:
            post = self.postHelpers = np.empty(self.r, np.int64)
            post[:-1] = self.labels[self.N + 1:]
            post[-1] = self.labels[self.pendingNode]
        return self.postHelpers

    def commit_step(self) -> None:
        """The donated front helper label becomes the target's primary
        label, and its old primary label joins the back of the helpers."""
        self.require_step()
        labels, node, N = self.labels, self.pendingNode, self.N
        donated = labels[N]
        labels[N:-1], labels[-1] = labels[N + 1:], labels[node]
        labels[node] = donated
        self.pendingNode = self.postHelpers = None
        self.assert_distinct()

    def assert_distinct(self) -> None:
        """Every label lies in [0, N + r) and none repeats: O(N), no sort."""
        labels, n = self.labels, len(self.labels)
        seen = np.zeros(n, dtype=bool)
        if labels.min() >= 0 and labels.max() < n:
            seen[labels] = True
        if not seen.all():
            raise InvariantViolation("labels are not a permutation of 0..n-1")


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
    """Build the initial cluster; returns (ClusterState, GroupLayout).

    Every node gets N*r primary fragments plus the r(r+1)/2 helper
    staircase for its own group, filling capacity clen exactly.
    payload_rng is a numpy Generator, or a function returning one that is
    called only when the codec resolves to byte.
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

    if codec.backend == "byte" and payload_rng is None:
        raise ConfigError("byte backend needs payload_rng")
    state = ClusterState(N)
    layout = GroupLayout(N=N, r=r, k=k, flen=flen, clen=clen, beta=beta,
                         variant=variant, counterCap=cap, codec=codec,
                         rot=np.zeros(N, dtype=np.int64),
                         heldLo=np.zeros(N, dtype=np.int64),
                         heldHi=np.full(N, N, dtype=np.int64),
                         helperLo=np.zeros(N, dtype=np.int64),
                         labels=np.arange(N + r, dtype=np.int64))
    state.meter_write_bulk(slice(None), clen)
    if codec.backend == "byte":
        if callable(payload_rng):
            payload_rng = payload_rng()
        n, fb = N + r, codec.flen_bytes
        layout.code = code = np.empty((N, r, n, fb), dtype=np.uint8)
        # an object's source rows are one payload_rng.bytes(k * fb)
        rng.fill_bytes(payload_rng, code.reshape(N * r, n * fb)[:, :k * fb])
        # every object encodes from its source rows: one product for all
        code[:, :, k:] = erasure.encode_rows(
            code.reshape(N * r, n, fb), range(k, n), codec).reshape(
                N, r, n - k, fb)
        code.setflags(write=False)
        layout.owner = owner = np.full((N, r, n), -1, dtype=np.int64)
        owner[:, :, :N] = np.arange(N)      # primary label m at node m
        # the object at position p holds labels up to N + p: its parity
        # primaries, then helpers N..N + p at its anchor
        keep = np.arange(N, n) <= N + np.arange(r)[:, None]     # (p, label-N)
        owner[:, :, N:] = np.where(keep, np.arange(N)[:, None, None], -1)
        layout.frags = frags = code.copy()
        frags[owner < 0] = 0
        layout.bySlot = (owner.reshape(-1), *(a.view(f"V{fb}").reshape(-1)
                                              for a in (frags, code)),
                         frags.reshape(-1, n, fb), code.reshape(-1, n, fb))
    return state, layout


def _pick_primary_sources(layout, group, phys, exclude, need) -> np.ndarray:
    """The first `need` primary holders of the group in ascending node
    order, skipping exclude; phys only names the object in the error."""
    held = (layout.heldLo <= group) & (group < layout.heldHi)
    if exclude is not None:
        held[exclude] = False
    holders = np.flatnonzero(held)
    if len(holders) < need:
        raise DecodeError(f"object ({group},{phys}) has {len(holders)} "
                          f"primary sources, need {need}")
    return holders[:need]


def _holder_span(layout, group, exclude) -> tuple:
    """[lo, hi): the groups around `group` whose holders, exclude aside,
    are the same: no run of another row starts or ends inside."""
    lo, hi = layout.heldLo, layout.heldHi
    partial = (lo < hi) & ((lo > 0) | (hi < layout.N))
    if exclude is not None:
        partial[exclude] = False
    cuts = np.concatenate((lo[partial], hi[partial]))
    return (int(cuts[cuts <= group].max(initial=0)),
            int(cuts[cuts > group].min(initial=layout.N)))


def _at(groups: range):
    """numpy index of a range of groups: the group itself for one group,
    whose element access costs a tenth of a one-element slice's."""
    return groups.start if len(groups) == 1 else slice(groups.start, groups.stop)


def _first_above(values: np.ndarray, groups: range, floor: int):
    """First group in groups whose value exceeds floor, None if none does."""
    idx = _at(groups)
    if isinstance(idx, int):
        return idx if values[idx] > floor else None
    over = values[idx] > floor
    return groups.start + int(over.argmax()) if over.any() else None


class _Window:
    """One metering window: the read bits, an (N,) vector plus the last
    source pick's weight, the write bits and each committed range's byte
    work.  The pick serves its holder span while no row is cleared: exact
    while only the excluded row grows, as a chain's moves to its target."""

    def __init__(self, layout: GroupLayout):
        self.layout = layout
        self.vector = np.zeros(layout.N, np.int64)
        self.written = np.zeros(layout.N, np.int64)
        self.srcs = None
        self.weight = 0
        self.key = None         # (exclude, need, rowClears, lo, hi) of srcs
        self.bits = {kind: ops.fragmentWrites * layout.flen for kind, ops
                     in op_counts(layout.k, layout.r).items()}
        # in chain order, at the next position: rebuilds (srcs, objects, slot
        # bases as a column, slots, at, step), object j at at + step * j;
        # moves (g0, g1, at, toNode), group g at at + 2 (g - g0)
        self.rebuilds, self.moves, self.at = [], [], 0

    def reach(self, group, exclude, need) -> int:
        """End of the groups from `group` on the last pick serves, or group."""
        key = self.key
        if (key is None or key[:3] != (exclude, need, self.layout.rowClears)
                or not key[3] <= group < key[4]):
            return group
        return key[4]

    def add_sources(self, groups, phys, exclude, need, bits) -> tuple:
        """Pick `need` primary sources of groups[0] (phys names its object in
        the error) and charge each bits per group for the leading groups the
        pick serves; returns the sources and the first group not charged."""
        layout, group = self.layout, groups.start
        stop = self.reach(group, exclude, need)
        if stop == group:
            self._flush()
            self.srcs = _pick_primary_sources(layout, group, phys, exclude, need)
            lo, stop = _holder_span(layout, group, exclude)
            self.key = (exclude, need, layout.rowClears, lo, stop)
        stop = min(stop, groups.stop)
        self.weight += bits * (stop - group)
        return self.srcs, stop

    def _flush(self) -> np.ndarray:
        """The read vector, the last pick's weight added."""
        if self.weight:
            self.vector[self.srcs] += self.weight
            self.weight = 0
        return self.vector

    def meter(self, state: ClusterState, t0, t1, split=None) -> int:
        """Meter the reads over [t0, t1] (split as meter_read_spread takes
        it) and the writes, settle the byte work; returns the bits read."""
        bits = state.meter_read_spread(self._flush(), t0, t1, split)
        state.meter_write_bulk(slice(None), self.written)
        self.vector[:] = self.written[:] = 0
        self.settle()
        return bits

    def generate(self, group: int, srcs) -> None:
        """Record the group's staircase: position j takes roles 0..j."""
        layout, r = self.layout, self.layout.r
        self.written[group] += self.bits["generate"]
        if layout.owner is not None:
            phys, held = _staircase(r)
            objs = phys[layout.rot[group] % r] + group * r
            self._rebuild(srcs, objs, layout.labels[layout.N:], held, 1)
        self.at += r

    def move(self, groups: range, toNode: int) -> None:
        """Record the hand-over of the groups' front helpers to toNode, each
        group's before its update."""
        self.moves.append((groups.start, groups.stop, self.at, toNode))
        self.vector[_at(groups)] += self.layout.r * self.layout.flen
        self.written[toNode] += len(groups) * self.bits["move"]

    def update(self, groups: range, srcs) -> None:
        """Record the rebuild of the groups' position-0 objects."""
        layout, idx, r = self.layout, _at(groups), self.layout.r
        self.written[idx] += self.bits["update"]
        if layout.owner is not None:
            objs = np.arange(groups.start * r, groups.stop * r, r) + (
                layout.rot[idx] % r)
            self._rebuild(srcs, objs, layout.post_helpers(), None, 2)
        self.at += 2 * len(groups)

    def _rebuild(self, srcs, objs, labels, held, step) -> None:
        base = (objs * self.layout.codec.n)[:, None]
        slots = base + labels       # held picks each object's labels
        self.rebuilds.append((srcs, objs, base, slots.ravel() if held is None
                              else slots[held], self.at + step - 1, step))

    def settle(self) -> None:
        """Do the recorded byte work as one sub-operation at a time would:
        check each primary read's owner, decode each pick's objects in one
        call, write the helpers' owners, check the front helpers' owners (no
        later rebuild writes one) and move them, copy the helpers; stop at
        the first failure and raise."""
        rebuilds, moves, self.rebuilds, self.moves, self.at = (
            self.rebuilds, self.moves, [], [], 0)
        layout, end, error, r = self.layout, math.inf, None, self.layout.r
        if layout.owner is None or not (rebuilds or moves):
            return
        owner, frags, code, objects, codewords = layout.bySlot
        cut = [a for a in range(len(rebuilds))
               if not a or rebuilds[a][0] is not rebuilds[a - 1][0]]
        for a, b in zip(cut, cut[1:] + [len(rebuilds)]):
            run = rebuilds[a:b]     # one pick's
            srcs, objs, read = run[0][0], _cat(run, 1), layout.labels[run[0][0]]
            stray = owner[_cat(run, 2) + read] != srcs
            at = stray.argmax()
            first = at // len(read) if stray.flat[at] else len(objs)
            done = erasure.decode_in_place(objects[objs[:first]], read,  # a copy
                                           layout.codec, codewords, objs[:first])
            if done < len(objs):
                error = (f"decode mismatch for object ({objs[done] // r},"
                         f"{objs[done] % r})" if done < first else
                         f"primary map out of sync at node {srcs[at % len(read)]}")
                end = np.concatenate([at + step * np.arange(len(part)) for
                                      _, part, _, _, at, step in run])[done]
                break
        slots = _cat(rebuilds, 3)
        old = owner[slots]      # to undo writes after a failure; none repeats
        owner[slots] = slots // (r * layout.codec.n)    # the group's anchor
        front = layout.owner[:, :, layout.labels[layout.N]]     # a view
        for g0, g1, at, _ in moves:     # in chain order: the first stray wins
            bad = front[g0:g1] != np.arange(g0, g1)[:, None]
            g = g0 + int(bad.argmax()) // r
            if bad[g - g0].any() and at + 2 * (g - g0) < end:
                end, error = at + 2 * (g - g0), f"helper map out of sync at node {g}"
        if error is not None:           # keep only the writes before end
            keep = 0
            for _, objs, _, _, at, step in rebuilds:
                rows = min(len(objs), max(0, -(-(end - at) // step)))
                keep += rows * (rows + 1) // 2 if step == 1 else rows * r
            owner[slots[keep:]] = old[keep:]
            slots = slots[:keep]
        for g0, g1, at, toNode in moves:
            if error is not None:
                g1 = min(g1, max(g0, g0 + (end - at + 1) // 2))
            front[g0:g1] = toNode
        frags[slots] = code[slots]
        if error is not None:
            raise InvariantViolation(error)


def _cat(items, field: int) -> np.ndarray:
    """One int64 field of the recorded items, end to end."""
    parts = [item[field] for item in items] or [np.zeros(0, np.int64)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@functools.lru_cache(maxsize=None)
def _staircase(r: int) -> tuple:
    """(r, r) phys at positions 0..r-1 by front phys, and the roles held."""
    roles = np.arange(r)
    return (roles + roles[:, None]) % r, roles <= roles[:, None]


def generate_helpers(state: ClusterState, layout: GroupLayout, group: int,
                     *, t=None, collect=None, exclude=None) -> OpCounts:
    """Rebuild the helper staircase for a group at its anchor node.

    Decodes each of the r group objects from k primary fragments (the
    same k nodes for all of them) and writes helpers 0..j for the object at
    position j.  Reads, writes and byte work wait in collect, a _Window the
    caller meters; collect=None meters them here, the reads at t.
    """
    win = _Window(layout) if collect is None else collect
    srcs, _ = win.add_sources(range(group, group + 1), layout.front_phys(group),
                              exclude, layout.k, layout.r * layout.flen)
    win.generate(group, srcs)
    if collect is None:
        win.settle()
    layout.helperLo[group] = 0
    if collect is None:
        win.meter(state, t, t)
    return op_counts(layout.k, layout.r)["generate"]


def move_helpers(state: ClusterState, layout: GroupLayout, groups: range,
                 toNode: int, *, t=None, collect=None) -> OpCounts:
    """Hand every position-0 helper of each group in `groups`, held at the
    group's anchor node, to toNode, where the donated fragments take over
    the primary role.  Returns one group's counts.

    The group anchored at toNode relabels in place; the copy is still
    metered.  The groups join toNode's run of held groups; an anchor
    without its front helpers, or groups that would split the run, raise
    before anything is written.  A byte move only changes the fragments'
    owner.
    """
    g0, g1 = groups.start, groups.stop
    lacking = _first_above(layout.helperLo, groups, 0)
    if lacking is not None:
        raise MissingFragmentError(
            f"node {lacking} lacks position-0 helpers to donate")
    lo, hi = int(layout.heldLo[toNode]), int(layout.heldHi[toNode])
    if lo < hi and not lo - 1 <= g0 <= hi:
        raise InvariantViolation(
            f"node {toNode} holds groups {lo}..{hi - 1}; group {g0} "
            f"would split the run")
    win = _Window(layout) if collect is None else collect
    win.move(groups, toNode)
    if collect is None:
        win.settle()
    layout.heldLo[toNode] = min(lo, g0) if lo < hi else g0
    layout.heldHi[toNode] = max(hi, g1) if lo < hi else g1
    layout.helperLo[_at(groups)] = 1
    if collect is None:
        win.meter(state, t, t)
    return op_counts(layout.k, layout.r)["move"]


def update_helpers(state: ClusterState, layout: GroupLayout, groups: range,
                   *, t=None, collect=None, exclude=None) -> OpCounts:
    """Shift the order of each group in `groups` by one and rebuild the
    full helper set for the object that moved to the back.  Returns one
    group's counts.

    Requires an in-flight step on layout: the new back object's helpers
    take the post-step labels, ending with the repaired node's old primary
    label.  The other objects already hold exactly the helpers their new
    position needs, one label down from where they sat before.  An anchor
    without its staircase (helperLo > 1) has nothing to shift.  Groups
    sharing a source pick commit together; a group short of sources raises
    DecodeError with the groups before it committed.
    """
    bare = _first_above(layout.helperLo, groups, 1)
    if bare is not None:
        raise MissingFragmentError(f"node {bare} holds no staircase to update")
    layout.require_step()
    win = _Window(layout) if collect is None else collect
    g = groups.start
    while g < groups.stop:
        srcs, end = win.add_sources(range(g, groups.stop), layout.front_phys(g),
                                    exclude, layout.k, layout.flen)
        win.update(range(g, end), srcs)
        if collect is None:
            win.settle()
        done = _at(range(g, end))
        layout.rot[done] += 1
        layout.helperLo[done] = 0
        g = end
    if collect is None:
        win.meter(state, t, t)
    return op_counts(layout.k, layout.r)["update"]


def _clear_row(layout, node, payloads: bool = True) -> None:
    """Empty the node's row and staircase and zero the payloads it held,
    unless the caller has just cleared them (payloads=False)."""
    layout.heldLo[node] = layout.heldHi[node] = 0
    layout.helperLo[node] = layout.r
    layout.rowClears += 1
    if payloads and layout.owner is not None:
        owner, frags = layout.bySlot[:2]
        gone = (owner == node).nonzero()[0]
        owner[gone] = -1
        frags[gone] = bytes(layout.codec.flen_bytes)


def advanced_fail_node(state: ClusterState, layout: GroupLayout, t: float,
                       node: int) -> None:
    _clear_row(layout, node)


class _StepChain:
    """All work of one repair step: the target's own staircase first, then
    per group in ascending order a generate when its position-0 helpers are
    missing, followed by a move+update.  commit() takes a range of groups:
    run() commits each run of groups between missing staircases at once, a
    Poisson chain one group per sub-operation.  Each sub-operation is
    planned from the placement as it stands when the previous one
    committed, so a donor lost mid-step is regenerated before its helpers
    move.  Their traffic and byte work wait in self.window for meter().
    Creating the chain opens the step on the layout (pendingNode is the
    target) and wipes the target (wiped: its payloads already were);
    finish() commits the labels.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout, node: int,
                 t: float, wiped: bool = False):
        self.state = state
        self.layout = layout
        self.startTime = t
        self.futile = False         # target failed again mid-step
        # groups each kind has committed
        self.generated = self.moved = self.updated = 0
        self.bitsRead = 0
        self.window = _Window(layout)
        layout.begin_step(node)
        # formatting the replacement is free; only repair traffic is metered
        _clear_row(layout, node, payloads=not wiped)

    def next_subop(self) -> Optional[tuple]:
        """(kind, group) of the next sub-operation, None once all are done."""
        if not self.generated:              # the wiped target's staircase
            return "generate", self.layout.pendingNode
        group = self.moved
        if group == self.layout.N:
            return None
        has_front = self.layout.helperLo[group] == 0
        return ("moveupdate" if has_front else "generate"), group

    def commit(self, kind: str, groups: range) -> None:
        """Run a planned sub-operation on each of groups; the work waits for
        meter().  A move+update commits the groups the last source pick
        serves as one range and a group needing a fresh pick alone, so a
        stall leaves that group's move committed, as one at a time would."""
        ctx, node = (self.state, self.layout), self.layout.pendingNode
        if kind == "generate":
            for group in groups:
                generate_helpers(*ctx, group, collect=self.window, exclude=node)
                self.generated += 1
            return
        g = groups.start
        while g < groups.stop:
            served = self.window.reach(g, node, self.layout.k)
            part = range(g, min(groups.stop, max(served, g + 1)))
            move_helpers(*ctx, part, node, collect=self.window)
            self.moved += len(part)
            update_helpers(*ctx, part, collect=self.window, exclude=node)
            self.updated += len(part)
            g = part.stop

    @property
    def counts(self) -> dict:
        """{kind: [OpCounts, ...]}, one entry per group the kind committed."""
        ops = op_counts(self.layout.k, self.layout.r)
        done = {"generate": self.generated, "move": self.moved,
                "update": self.updated}
        return {kind: [ops[kind]] * n for kind, n in done.items()}

    def meter(self, t0: float, t1: float, split=None) -> None:
        """_Window.meter over what committed since the last call; split
        logs the reads as one entry per sub-operation.  Callers meter in a
        finally: stalls settle."""
        self.bitsRead += self.window.meter(self.state, t0, t1, split)

    def planned_reads(self, kind: str, group: int) -> np.ndarray:
        """(N,) read bits of a sub-operation, re-derived from the current
        placement; used only to attribute aborted reads."""
        layout, reads = self.layout, _Window(self.layout)
        per_src = layout.flen * (layout.r if kind == "generate" else 1)
        if kind != "generate":
            reads.vector[group] += layout.r * layout.flen
        try:
            reads.add_sources(range(group, group + 1), layout.front_phys(group),
                              layout.pendingNode, layout.k, per_src)
        except DecodeError:
            log.warning("aborted sub-operation reads under-attributed: "
                        "sources already gone")
        return reads._flush()

    def finish(self, t: float) -> AdvancedStepRecord:
        node = self.layout.pendingNode      # commit_step clears it
        self.layout.commit_step()
        counts = self.counts
        writes = sum(ops[0].fragmentWrites * len(ops)
                     for ops in counts.values() if ops)
        return AdvancedStepRecord(
            node=node, bitsRead=self.bitsRead, counts=counts,
            bitsWritten=writes * self.layout.flen,
            futile=self.futile, startTime=self.startTime, endTime=t)

    def run(self, t0: float, t1: float) -> AdvancedStepRecord:
        """The whole chain at once: every sub-operation commits at t1 and
        the step's reads are metered as one stream over [t0, t1], those
        committed before a stall included."""
        try:
            for kind, group in iter(self.next_subop, None):
                # up to the next missing staircase; a generate's own is missing
                lacking = self.layout.helperLo[group:] != 0
                run = lacking.argmax() if lacking.any() else len(lacking)
                self.commit(kind, range(group, group + max(1, run)))
        finally:
            self.meter(t0, t1)
        return self.finish(t1)


def advanced_repair_step(state: ClusterState, layout: GroupLayout, node: int,
                         *, t0: float, t1: float) -> AdvancedStepRecord:
    """One full periodic repair step for node, run synchronously (see
    _StepChain); reads are metered as one stream over [t0, t1]."""
    return _StepChain(state, layout, node, t0).run(t0, t1)


def full_rows(layout: GroupLayout) -> np.ndarray:
    """(N,) bool: nodes holding every group's primaries."""
    return (layout.heldLo == 0) & (layout.heldHi == layout.N)


def _witnesses(layout: GroupLayout, full=None) -> np.ndarray:
    return (full_rows(layout) if full is None else full) & (layout.helperLo == 0)


def census(layout: GroupLayout) -> list:
    """Witness members: nodes with every group's primaries and their full
    staircase."""
    return np.flatnonzero(_witnesses(layout)).tolist()


def assert_advanced_invariant(layout: GroupLayout, minimum=None,
                              full=None) -> None:
    """Require at least `minimum` witness members (all N by default); full
    is full_rows(layout) when the caller already has it."""
    got = int(np.count_nonzero(_witnesses(layout, full)))
    need = layout.N if minimum is None else minimum
    if got < need:
        raise InvariantViolation(f"witness set has {got} members, need {need}")


def recoverable_census(layout: GroupLayout, full=None) -> bool:
    """True when every object still reaches its decode threshold; full is
    full_rows(layout) when the caller already has it.

    An object of group g has one fragment per holder of g plus its
    anchor's helpers; the position-0 object has the fewest helpers, one
    with the full staircase and none otherwise.
    """
    N = layout.N
    if full is None:
        full = full_rows(layout)
    if int(np.count_nonzero(full)) >= layout.k:
        return True
    starts = (np.bincount(layout.heldLo, minlength=N + 1)
              - np.bincount(layout.heldHi, minlength=N + 1))
    holders = np.cumsum(starts[:N])
    return int((holders + (layout.helperLo == 0)).min()) >= layout.k


def node_used_bits(layout: GroupLayout) -> np.ndarray:
    # r primaries per held group, plus sum_{i <= r - helperLo} i helpers
    spare = layout.r - layout.helperLo
    frags = ((layout.heldHi - layout.heldLo) * layout.r
             + spare * (spare + 1) // 2)
    return frags * layout.flen


def check_advanced_sync(layout: GroupLayout, updated: int = 0) -> None:
    """Cross-check the byte owner array against the placement arrays: each
    node's fragments must add up to node_used_bits within clen, owner must
    be what heldLo, heldHi, helperLo, rot and the labels give, a held slot
    must hold its codeword's fragment and an empty slot zeroes.

    Mid-step the labels are not yet committed: the target holds its moved
    groups under the donated label labels[N], and groups 0..updated-1, the
    ones the step has updated, hold their helpers under post_helpers().
    Symbolic layouts have nothing to compare.
    """
    owner = layout.owner
    if owner is None:
        return
    N, r = layout.N, layout.r
    used = np.bincount(owner[owner >= 0], minlength=N) * layout.flen
    want = node_used_bits(layout)
    off = np.flatnonzero((used > layout.clen) | (used != want))
    if off.size:
        n = off[0]
        raise InvariantViolation(
            f"node {n} holds {used[n]} bits, placement says {want[n]} "
            f"of capacity {layout.clen}")
    expected = np.full_like(owner, -1)
    groups = np.arange(N)
    node, group = np.nonzero((groups >= layout.heldLo[:, None])
                             & (groups < layout.heldHi[:, None]))
    primary = layout.labels[:N].copy()
    helpers = np.tile(layout.labels[N:], (N, 1))        # (anchor, role)
    if layout.pendingNode is not None:
        primary[layout.pendingNode] = layout.labels[N]
        helpers[:updated] = layout.post_helpers()
    expected[group, :, primary[node]] = node[:, None]
    roles = np.arange(r)
    position = (roles - layout.rot[:, None]) % r        # (group, phys)
    anchor, phys, role = np.nonzero(
        (roles >= layout.helperLo[:, None, None])
        & (roles <= position[:, :, None]))
    expected[anchor, phys, helpers[anchor, role]] = anchor
    off = np.argwhere(owner != expected)
    if off.size:
        g, p, e = off[0]
        raise InvariantViolation(
            f"node {max(owner[g, p, e], expected[g, p, e])}: owner and "
            f"placement arrays disagree on object ({g},{p}) label {e}")
    held = owner >= 0
    if (layout.frags[held] != layout.code[held]).any():
        raise InvariantViolation("a held slot differs from its codeword")
    if layout.frags[~held].any():
        raise InvariantViolation("an empty slot holds data")


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

    def steps_time_bound(self, m: int) -> float:
        """Time for m - cap steps keeping pace with m failures."""
        return (1.0 - self.epsPrime) / (self.lam * self.N) * (
            m - self.counterCap / (2.0 * self.beta + 1.0))


def advanced_schedule(counterCap: int, lam: float, N: int, beta: float,
                      eps: float, *, clen: int) -> AdvancedSchedule:
    """The Poisson variant's pacing for a slack cap of counterCap."""
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
        lam=lam, N=N, beta=beta, epsPrime=epsp, counterCap=counterCap,
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
    the next step starts whenever the queue is non-empty.  Periodic: pace
    is the step duration (half the failure period) and each step is one
    event; a failure during a step breaks the variant's contract.  Poisson:
    pace is the (move+update, generate) durations, each one's read bits
    over the proof's read rate (sim_engine._pace), and each sub-operation
    commits atomically at its end time, binding reads to sources alive
    then.  A donor failing mid-sub-operation aborts it with pro-rata read
    metering and the chain re-plans, regenerating the donor's helpers.  The
    target failing mid-step does not stop the chain: the finished step
    leaves it outside the census, the counter still ticks up, and the node
    queues again.

    Sub-operation durations are fixed, so given the next failure's time
    as a horizon, on_subop_complete commits the step's sub-operations due
    by then in one call, one metering window, each run of move+updates as
    one range.  It still makes one event, one read_log entry and one trace
    row of each (self.done gives their end times and bits), and the census
    checks before and after the call imply one after each: between
    failures a generate adds a staircase, a move+update adds its group to
    the target's row and restores its anchor's staircase, and the counter
    stays put, so the witness count, every holder count and every
    staircase can only grow.  A step's end (the counter ticks up, the next
    step wipes its target's row) and a stall (front helpers moved without
    an update) break this, so the call stops after either and checks that
    event in full.  The argument needs the invariant at the start: when
    it fails, the call commits the due sub-operation alone.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout, pace):
        self.state = state
        self.layout = layout
        self.pace = pace
        self.completionKind = ("step" if layout.variant == "periodic"
                               else "subop")
        self.counter = RepairCounter.at_cap(layout.counterCap)
        self.queue = deque()
        self.chain: Optional[_StepChain] = None
        self.subop: Optional[_SubOp] = None
        # (end times, read bits, written bits) of the sub-operations the
        # last on_subop_complete committed, oldest first; None for a step
        self.done: Optional[tuple] = None

    @property
    def idle(self) -> bool:
        return self.chain is None

    def next_completion(self) -> Optional[float]:
        return self.subop.t1 if self.subop is not None else None

    def recoverable(self, check: bool = False) -> bool:
        """Every object reaches its decode threshold; check asserts the
        witness invariant too (periodic: N members between steps)."""
        full = full_rows(self.layout)
        if not recoverable_census(self.layout, full):
            return False
        if check and self.counter.value >= 0:
            assert_advanced_invariant(
                self.layout, self.layout.k + self.counter.value, full)
        return True

    def inject_fault(self) -> None:
        self.layout.helperLo[:2] = self.layout.r

    def on_failure(self, t: float, node: int) -> None:
        advanced_fail_node(self.state, self.layout, t, node)
        self.counter.on_failure()
        if self.chain is not None:
            if self.layout.variant == "periodic":
                raise InvariantViolation("periodic steps must not overlap")
            if node == self.layout.pendingNode:
                self.chain.futile = True
        if node not in self.queue:
            self.queue.append(node)
        if self.subop is not None and node == self.subop.group:
            self._abort_subop(t)
            self._plan(t)
        elif self.chain is None and not self.counter.halted:
            self._start_step(t, wiped=node)

    def on_subop_complete(self, t: float, horizon: Optional[float] = None
                          ) -> Optional[AdvancedStepRecord]:
        """Commit the due event, and with a horizon the step's later
        sub-operations due at or before it; returns the step record when
        the whole chain just finished.  A stalled sub-operation still
        meters what it committed, and raises DecodeError."""
        sub = self.subop
        if sub is None:
            raise InvariantViolation("no sub-operation in flight")
        if abs(t - sub.t1) > 1e-9 * max(1.0, abs(sub.t1)):
            raise InvariantViolation(
                f"completion at {t}, schedule says {sub.t1}")
        self.subop = None
        self.done = None
        if sub.kind == "step":
            return self._end_step(self.chain.run(sub.t0, t), t)
        if horizon is not None and self.counter.value >= 0:
            try:
                assert_advanced_invariant(
                    self.layout, self.layout.k + self.counter.value)
            except InvariantViolation:
                horizon = None      # a check inside the run could fail
        generate, groups, ends = self._due(sub, t, horizon)
        self._commit_due(sub.t0, generate, groups, ends)
        return self._plan(float(ends[-1]))

    def _due(self, sub: _SubOp, t: float, horizon: Optional[float]) -> tuple:
        """(generate, groups, ends): the kind (True for a generate), group
        and end time of sub, due at t, and with a horizon of the step's
        later sub-operations due at or before it, in chain order."""
        first = sub.kind == "generate"
        if horizon is None:
            return np.array([first]), np.array([sub.group]), np.array([t])
        layout = self.layout
        m = self.chain.moved + (not first)      # first group after sub
        # each later group: a generate where its front helpers are
        # missing, then its move+update
        missing = layout.helperLo[m:] != 0
        if first:
            missing[sub.group - m] = False          # sub stages them
        per = 1 + missing
        moves = np.cumsum(per)          # each move+update's index, sub at 0
        generate = np.zeros(1 + len(per) + int(missing.sum()), dtype=bool)
        generate[0] = first
        generate[moves[missing] - 1] = True
        groups = np.concatenate(([sub.group],
                                 np.repeat(np.arange(m, layout.N), per)))
        # sequential adds, as one sub-operation at a time plans them
        ends = np.concatenate(([t], np.where(
            generate[1:], self.pace[1], self.pace[0])))
        ends = ends.cumsum()
        n = max(1, int(ends.searchsorted(horizon, side="right")))
        return generate[:n], groups[:n], ends[:n]

    def _commit_due(self, t0: float, generate, groups, ends) -> None:
        """Commit the planned sub-operations in order, each run of
        move+updates as one range, and meter their reads as one log entry
        each; a stall ends them at the stalled one."""
        chain, layout = self.chain, self.layout
        before = chain.generated + chain.updated
        starts = np.flatnonzero(np.concatenate(
            ([True], generate[1:] | generate[:-1]))).tolist()
        try:
            for a, b in zip(starts, starts[1:] + [len(generate)]):
                chain.commit("generate" if generate[a] else "moveupdate",
                             range(groups[a], groups[b - 1] + 1))
        finally:
            last = min(chain.generated + chain.updated - before,
                       len(generate) - 1)
            (mu_read, mu_written), (gen_read, gen_written) = subop_bits(
                layout.k, layout.r, layout.flen)
            gen = generate[:last + 1]
            reads = np.where(gen, gen_read, mu_read)
            writes = np.where(gen, gen_written, mu_written)
            self.done = ends[:last + 1], reads, writes
            chain.meter(t0, float(ends[last]),
                        (ends[:last], reads[:last]) if last else None)

    def _start_step(self, t: float, wiped: Optional[int] = None) -> None:
        # wiped: a node this call has just failed, whose payloads are clear
        if not self.queue:
            return
        node = self.queue.popleft()
        self.chain = _StepChain(self.state, self.layout, node, t,
                                wiped=node == wiped)
        if self.layout.variant == "periodic":
            self.subop = _SubOp("step", node, t, t + self.pace)
        else:
            self._plan(t)

    def _plan(self, t: float) -> Optional[AdvancedStepRecord]:
        """Launch the chain's next sub-operation, or end the step."""
        nxt = self.chain.next_subop()
        if nxt is None:
            return self._end_step(self.chain.finish(t), t)
        kind, group = nxt
        self.subop = _SubOp(kind, group, t,
                            t + self.pace[kind == "generate"])
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
