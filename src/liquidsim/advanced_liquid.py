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
proof's read rate.  The Poisson repairer still commits the sub-operations
due before the next failure in one call, as ranges of groups, and keeps
one event and one read_log entry per sub-operation (AdvancedPoissonRepairer
says why its census checks can wait for the end of the call).

Slack is a counter capped at b (1 periodic): failures decrement it,
completed steps increment it.  A census of nodes holding their full
primary complement and their full staircase witnesses recoverability; it
keeps at least k + counter members while the counter stays non-negative.

Placement is (N,) numpy arrays, so one step is O(N) work.  A node holds
the primaries of a whole group or none, and the groups it holds form one
run: node n holds groups heldLo[n]..heldHi[n]-1.  Stores start full, a
wipe or a failure empties the row, and a move extends the target's run by
its one group.  An anchor's staircase is one integer, helperLo: the anchor
holds helper roles helperLo..j of the object at position j.  Between
events it takes one of three values: 0, the full staircase; 1, front
helpers donated (a move committed and the update after it could not pick
its sources); r, no helpers (after a wipe, a failure or the fault hook).
Census, recoverability and used bits are closed forms of these arrays.
The fragment labels are one (N + r,) permutation array too, labels, held
with the step in flight on the layout: a step's commit moves two labels and
shifts the r helper labels, and checks the permutation in O(N), no sort.

The byte backend holds its payloads in arrays indexed by object (group,
phys) and physical label: code, every object's read-only reference
codeword, whose first k labels are its source, frags, what the nodes
hold, and owner, the node holding each fragment or -1.  owner is written
where fragments are written, moved or erased, never derived from
placement, so check_advanced_sync can compare the two, and a held slot of
frags must equal code.  A rebuild decodes each object in place from the
primaries it reads, compares the source rows with code and copies its
helpers from code; a move only changes owner.  Sub-operations queue both
on their metering window (a step, a Poisson repairer call or a standalone
call), and _Reads.settle() does them at its end: a failed check stops the
writes where one sub-operation at a time would.  A wipe or a failure sets
the node's owner entries to -1 and zeroes their payloads, so a decode
that reads one fails its comparison with the source.

A source pick depends only on the group's holder set outside the target,
which changes at the run ends of other rows or when a row is cleared.  A
chain keeps its last pick while neither happens, and the groups one pick
serves commit as array ops on a range: a step is a few calls, not a loop
over the N groups.  Their objects read the same labels, so on the byte
backend one kernel call per pick and window decodes them all and compares
each with its codeword, with one solve of that label set's decode matrix.
The store build fills every object's source from one draw each
(rng.fill_bytes) and encodes every object's whole codeword in one matmul.
The fault-injection hook drops the staircases of nodes 0 and 1, which
fails the census but not recovery.
"""

from __future__ import annotations

import functools
import itertools
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
def _subop_bits(k: int, r: int, flen: int) -> list:
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
    over = np.flatnonzero(values[idx] > floor)
    return groups.start + int(over[0]) if over.size else None


class _Reads:
    """Read bits of one metering window, an (N,) vector plus the last
    source pick, whose reads add up as one scalar weight, and its byte work.

    The pick serves every group inside its holder span while no row has
    been cleared.  That is exact as long as, between picks, only the
    excluded row grows, as in a step chain, whose moves all go to its
    excluded target.
    """

    def __init__(self, layout: GroupLayout):
        self.layout = layout
        self.vector = np.zeros(layout.N, np.int64)
        self.srcs = None
        self.weight = 0
        self.key = None         # (exclude, need, rowClears, lo, hi) of srcs
        # byte work for settle(): rebuilds (srcs, rows, positions, slots, slot
        # positions), moves (toNode, slots, positions); at, the next position
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

    def _flush(self) -> None:
        if self.weight:
            self.vector[self.srcs] += self.weight
            self.weight = 0

    def take(self) -> np.ndarray:
        """The window's (N,) read vector; the next window starts at zero
        and keeps the pick."""
        self._flush()
        out, self.vector = self.vector, np.zeros(self.layout.N, np.int64)
        return out

    def rebuild(self, srcs, rows, labels, width, stride=1) -> None:
        """Queue rows (group * r + phys) to rebuild from srcs: the first
        width, or width[i], of labels, at chain positions stride apart."""
        slots = rows[:, None] * self.layout.codec.n + labels    # flat slots
        slots = (slots[:, :width].ravel() if isinstance(width, int) else
                 slots[np.arange(len(labels)) < width[:, None]])
        at, self.at = self.at + stride - 1, self.at + stride * len(rows)
        pos = np.arange(at, self.at, stride)
        self.rebuilds.append((srcs, rows, pos, slots, np.repeat(pos, width)))

    def move(self, groups: range, toNode: int) -> None:
        """Queue the hand-over of the groups' front helpers to toNode, group
        i at chain position at + 2i, leaving at + 2i + 1 to its update."""
        layout = self.layout
        rows = np.arange(groups.start * layout.r, groups.stop * layout.r)
        self.moves.append((toNode, rows * layout.codec.n + layout.labels[
            layout.N], self.at + 2 * (rows // layout.r - groups.start)))

    def settle(self) -> None:
        """Do the queued byte work as one sub-operation at a time would: one
        checked decode per pick's run of rebuilds, then the moves (no later
        rebuild writes a front helper); the first failure stops the writes."""
        layout, work, moves = self.layout, self.rebuilds, self.moves
        if not (work or moves):
            return
        self.rebuilds, self.moves, end, error = [], [], math.inf, None
        n, r, fb, owner = (layout.codec.n, layout.r, layout.codec.flen_bytes,
                           layout.owner.reshape(-1))
        for _, run in itertools.groupby(work, key=lambda item: id(item[0])):
            run = list(run)
            srcs, objs = run[0][0], _cat(run, 1)
            read = layout.labels[srcs]
            stray = owner[objs[:, None] * n + read] != srcs
            first = stray.any(axis=1).argmax() if stray.any() else len(objs)
            done = erasure.decode_in_place(
                layout.frags.reshape(-1, n, fb)[objs[:first]], read,  # a copy
                layout.codec, layout.code.reshape(-1, n, fb), objs[:first])
            if done < len(objs):            # end: the failure's position
                row, end = objs[done], _cat(run, 2)[done]
                error = (f"decode mismatch for object ({row // r},{row % r})"
                         if done < first else "primary map out of sync at "
                         f"node {srcs[stray[done].argmax()]}")
                break
        slots, mslots, mat = _cat(work, 3), _cat(moves, 1), _cat(moves, 2)
        old = owner[slots]  # to undo writes after a failure; none repeats
        owner[slots] = slots // (r * n)             # the group's anchor
        bad = np.flatnonzero(owner[mslots] != mslots // (r * n))
        if bad.size and mat[bad[0]] < end:
            end, error = mat[bad[0]], ("helper map out of sync at node "
                                       f"{mslots[bad[0]] // (r * n)}")
        if error is not None:           # keep only the writes before end
            keep = _cat(work, 4).searchsorted(end)
            owner[slots[keep:]] = old[keep:]
            slots = slots[:keep]
        for toNode, part, at in moves:
            owner[part[at < end]] = toNode
        layout.frags.view(f"V{fb}").reshape(-1)[slots] = (
            layout.code.view(f"V{fb}").reshape(-1)[slots])
        if error is not None:
            raise InvariantViolation(error)


def _cat(items, field: int) -> np.ndarray:
    """One int64 field of the queued items, end to end."""
    parts = [item[field] for item in items] or [np.zeros(0, np.int64)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def generate_helpers(state: ClusterState, layout: GroupLayout, group: int,
                     *, t=None, collect=None, exclude=None) -> OpCounts:
    """Rebuild the helper staircase for a group at its anchor node.

    Decodes each of the r group objects from k primary fragments (the
    same k nodes for all of them) and writes helpers 0..j for the object at
    position j.  Reads and byte work wait in collect, a _Reads the caller
    meters; collect=None settles them here, the reads as an impulse at t.
    """
    r = layout.r
    reads = _Reads(layout) if collect is None else collect
    srcs, _ = reads.add_sources(range(group, group + 1), layout.front_phys(group),
                                exclude, layout.k, r * layout.flen)
    counts = op_counts(layout.k, r)["generate"]
    if layout.owner is not None:        # position j takes helpers 0..j
        j = np.arange(r)
        reads.rebuild(srcs, group * r + (layout.front_phys(group) + j) % r,
                      layout.labels[layout.N:], j + 1)
    if collect is None:
        reads.settle()
        state.meter_read_spread(reads.take(), t, t)
    state.meter_write_bulk(group, counts.fragmentWrites * layout.flen)
    layout.helperLo[group] = 0
    return counts


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
    reads = _Reads(layout) if collect is None else collect
    if layout.owner is not None:
        reads.move(groups, toNode)
    reads.vector[_at(groups)] += layout.r * layout.flen
    if collect is None:
        reads.settle()
        state.meter_read_spread(reads.take(), t, t)
    state.meter_write_bulk(toNode, len(groups) * layout.r * layout.flen)
    layout.heldLo[toNode] = min(lo, g0) if lo < hi else g0
    layout.heldHi[toNode] = max(hi, g1) if lo < hi else g1
    layout.helperLo[_at(groups)] = 1
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
    reads = _Reads(layout) if collect is None else collect
    g = groups.start
    while g < groups.stop:
        srcs, end = reads.add_sources(range(g, groups.stop),
                                      layout.front_phys(g), exclude,
                                      layout.k, layout.flen)
        done = _at(range(g, end))
        if layout.owner is not None:    # back objects, each after its move
            back = layout.r * np.arange(g, end) + layout.rot[g:end] % layout.r
            reads.rebuild(srcs, back, layout.post_helpers(), layout.r,
                          stride=2)
            if collect is None:
                reads.settle()
        state.meter_write_bulk(done, layout.r * layout.flen)
        layout.rot[done] += 1
        layout.helperLo[done] = 0
        g = end
    if collect is None:
        state.meter_read_spread(reads.take(), t, t)
    return op_counts(layout.k, layout.r)["update"]


def _clear_row(layout, node) -> None:
    """Empty the node's row and staircase and zero the payloads it held."""
    layout.heldLo[node] = layout.heldHi[node] = 0
    layout.helperLo[node] = layout.r
    layout.rowClears += 1
    if layout.owner is not None:
        owner = layout.owner.reshape(-1)
        gone = np.flatnonzero(owner == node)
        owner[gone] = -1
        layout.frags.reshape(-1, layout.codec.flen_bytes)[gone] = 0


def advanced_fail_node(state: ClusterState, layout: GroupLayout, t: float,
                       node: int) -> None:
    _clear_row(layout, node)


class _StepChain:
    """All work of one repair step: the target's own staircase first, then
    per group in ascending order a generate when its position-0 helpers are
    missing, followed by a move+update.  commit() takes a range of groups:
    run() commits each run of groups between missing staircases at once, a
    Poisson chain one group per sub-operation.

    Each sub-operation is planned from the placement as it stands when the
    previous one committed, so a donor lost mid-step is regenerated before
    its helpers move.  Reads and byte work gather in self.reads, which keeps
    its source pick across sub-operations, and meter() settles them.
    Creating the chain opens the step on the layout (its pendingNode is the
    target) and wipes the target; finish() commits the labels.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout, node: int,
                 t: float):
        self.state = state
        self.layout = layout
        self.startTime = t
        self.futile = False         # target failed again mid-step
        # groups each kind has committed
        self.generated = self.moved = self.updated = 0
        self.bitsRead = 0
        self.reads = _Reads(layout)
        layout.begin_step(node)
        # formatting the replacement is free; only repair traffic is metered
        _clear_row(layout, node)

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
        """Run a planned sub-operation on each of groups; the reads wait
        for meter().  A move+update commits the groups the last source
        pick serves as one range and a group needing a fresh pick alone, so
        a stall leaves that group's move committed, as one at a time would."""
        ctx, node = (self.state, self.layout), self.layout.pendingNode
        if kind == "generate":
            for group in groups:
                generate_helpers(*ctx, group, collect=self.reads, exclude=node)
                self.generated += 1
            return
        g = groups.start
        while g < groups.stop:
            served = self.reads.reach(g, node, self.layout.k)
            part = range(g, min(groups.stop, max(served, g + 1)))
            move_helpers(*ctx, part, node, collect=self.reads)
            self.moved += len(part)
            update_helpers(*ctx, part, collect=self.reads, exclude=node)
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
        """Stream the reads committed since the last call over [t0, t1] and
        settle their byte work; split, as ClusterState.meter_read_spread
        takes it, logs the reads as one entry per sub-operation."""
        self.bitsRead += self.state.meter_read_spread(self.reads.take(),
                                                      t0, t1, split)
        self.reads.settle()     # callers meter in a finally: stalls settle

    def planned_reads(self, kind: str, group: int) -> np.ndarray:
        """(N,) read bits of a sub-operation, re-derived from the current
        placement; used only to attribute aborted reads."""
        layout, reads = self.layout, _Reads(self.layout)
        per_src = layout.flen * (layout.r if kind == "generate" else 1)
        if kind != "generate":
            reads.vector[group] += layout.r * layout.flen
        try:
            reads.add_sources(range(group, group + 1), layout.front_phys(group),
                              layout.pendingNode, layout.k, per_src)
        except DecodeError:
            log.warning("aborted sub-operation reads under-attributed: "
                        "sources already gone")
        return reads.take()

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
    """One full periodic repair step for node, run synchronously.

    Generates the target's own staircase first, then moves the donated
    helpers of every group (ascending, including the target's own) in and
    updates the staircases, as array ops over each run of groups between
    missing staircases.  Reads are metered as one stream over [t0, t1].
    """
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


def check_advanced_sync(layout: GroupLayout) -> None:
    """Cross-check the byte owner array against the placement arrays: each
    node's fragments must add up to node_used_bits within clen, owner must
    be what heldLo, heldHi, helperLo, rot and the labels give, a held slot
    must hold its codeword's fragment and an empty slot zeroes.

    Only meaningful between steps, when labels are committed; symbolic
    layouts have nothing to compare.
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
    expected[group, :, layout.labels[node]] = node[:, None]
    roles = np.arange(r)
    position = (roles - layout.rot[:, None]) % r        # (group, phys)
    anchor, phys, role = np.nonzero(
        (roles >= layout.helperLo[:, None, None])
        & (roles <= position[:, :, None]))
    expected[anchor, phys, layout.labels[N + role]] = anchor
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

    def subop_duration(self, bits: int) -> float:
        return bits / self.rateProof

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

    Sub-operation durations are fixed (bits / rateProof), so the ones due
    before the next failure are known in advance, and given that failure's
    time as a horizon, on_subop_complete commits the step's due
    sub-operations in one call, each run of move+updates as one range, a
    window that _Reads.settle() ends with one decode per source pick.  It
    still makes one event, one read_log entry and one trace row of each:
    self.done gives their end times and bits.  A census check after each
    of them is implied by checks before and after the call.  Between
    failures nothing is erased: a generate adds a staircase, a move+update
    adds its group to the target's row and restores its anchor's
    staircase, and the counter stays put.  So within a step the witness
    count, every group's holder count and every staircase can only grow.
    A step's end breaks this: the counter ticks up, and the next step
    wipes its target's row, which a futile step may have refilled.  A
    stall breaks it too: the group's front helpers moved without an update.
    The call therefore stops after the step's last sub-operation or a
    stall, and that event is checked in full.
    """

    def __init__(self, state: ClusterState, layout: GroupLayout,
                 schedule: AdvancedSchedule | float):
        self.state = state
        self.layout = layout
        self.schedule = schedule
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
            self._start_step(t)

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
        generate, groups, ends = self._due(sub, t, horizon)
        self._commit_due(sub.t0, generate, groups, ends)
        return self._plan(float(ends[-1]))

    def _duration(self, generate: bool) -> float:
        layout = self.layout
        return self.schedule.subop_duration(
            _subop_bits(layout.k, layout.r, layout.flen)[generate][0])

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
            generate[1:], self._duration(True), self._duration(False))))
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
            (mu_read, mu_written), (gen_read, gen_written) = _subop_bits(
                layout.k, layout.r, layout.flen)
            gen = generate[:last + 1]
            reads = np.where(gen, gen_read, mu_read)
            writes = np.where(gen, gen_written, mu_written)
            self.done = ends[:last + 1], reads, writes
            chain.meter(t0, float(ends[last]),
                        (ends[:last], reads[:last]) if last else None)

    def _start_step(self, t: float) -> None:
        if not self.queue:
            return
        node = self.queue.popleft()
        self.chain = _StepChain(self.state, self.layout, node, t)
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
        self.subop = _SubOp(kind, group, t,
                            t + self._duration(kind == "generate"))
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
