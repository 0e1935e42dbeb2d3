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
(_StepChain) and one commit path: the chain plans its sub-operations from
the placement and commits a plan in one pass.  The periodic variant
commits the whole chain as one plan; the Poisson variant paces each
sub-operation at the proof's read rate and commits those due before the
next failure as one plan (AdvancedPoissonRepairer).

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
check_advanced_sync can compare the two.  The sub-operations commit on
a metering window (a step or a Poisson repairer call), which meters
their writes once and whose settle(), run once from meter(), is the only
code that touches payloads and owner: it checks every primary read's
owner, decodes each pick's objects in one kernel call and compares them
with code, copies helpers from code and moves front helpers by owner,
stopping where one sub-operation at a time would.  A source pick
depends only on the group's holder set outside the target, which
changes at the run ends of other rows or when a row is cleared, never
within a plan; so a plan picks each holder span's sources before its
first move, and the moves and updates a pick serves commit as ranges.
A wipe or a failure clears the node's owner entries and zeroes their
payloads.  The fault-injection hook drops the staircases of nodes 0 and
1, which fails the census but not recovery.
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
    are the same: no run of another row starts or ends inside.  A full or
    an empty row, (0, N) or (0, 0), adds no cut, nor does exclude's, at 0."""
    ends = np.concatenate((layout.heldLo, layout.heldHi))
    if exclude is not None:
        ends[exclude] = ends[layout.N + exclude] = 0
    ends.sort()
    i = int(ends.searchsorted(group, side="right"))
    return (int(ends[i - 1]) if i else 0,
            int(ends[i]) if i < len(ends) else layout.N)


def _at(groups: range):
    """numpy index of a range of groups: the group itself for one group,
    whose element access costs a tenth of a one-element slice's."""
    return groups.start if len(groups) == 1 else slice(groups.start, groups.stop)


def _first_nonzero(values: np.ndarray, groups: range):
    """First group in groups whose value is not 0, None if none is."""
    idx = _at(groups)
    if isinstance(idx, int):
        return idx if values[idx] else None
    over = values[idx] != 0
    return groups.start + int(over.argmax()) if over.any() else None


class _Window:
    """One metering window, on which generate(), move() and update() commit
    sub-operations to placement: the read bits, an (N,) vector plus the
    current source pick's weight, the write bits, and the byte work, one
    record per generate and, for moves and updates, one per pick.  The
    pick serves its holder span while no row is cleared: exact while only
    the excluded row grows, as a chain's moves to its target.  Sub-operation
    i of the window sits at chain position i * (r + 1): a generate's object
    j at + j, a move at + 0 and its update at + 1."""

    def __init__(self, layout: GroupLayout):
        self.layout = layout
        self.vector = np.zeros(layout.N, np.int64)
        self.written = np.zeros(layout.N, np.int64)
        self.srcs = None
        self.weight = 0
        self.key = None         # (exclude, need, rowClears, lo, hi) of srcs
        self.bits = {kind: ops.fragmentWrites * layout.flen for kind, ops
                     in op_counts(layout.k, layout.r).items()}
        # in chain order: rebuilds (srcs, objects, their positions, their
        # helper slots, staircase); moves (g0, g1, sub-operation indices,
        # toNode); items counts the sub-operations recorded
        self.rebuilds, self.moves, self.items = [], [], 0

    def pick(self, group, exclude, need) -> tuple:
        """(srcs, lo, hi): `need` primary sources of the group, skipping
        exclude, and the holder span [lo, hi) they serve; the last pick
        while it serves the group.  Reads are charged by the records."""
        layout, key = self.layout, self.key
        if (key is None or key[:3] != (exclude, need, layout.rowClears)
                or not key[3] <= group < key[4]):
            self._flush()
            self.srcs = _pick_primary_sources(layout, group,
                                              layout.front_phys(group),
                                              exclude, need)
            self.key = key = (exclude, need, layout.rowClears,
                              *_holder_span(layout, group, exclude))
        return self.srcs, key[3], key[4]

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

    def generate(self, group: int, srcs, item: int) -> None:
        """Commit the group's staircase, read from srcs, the current pick:
        position j takes roles 0..j."""
        layout, r = self.layout, self.layout.r
        self.weight += r * layout.flen
        self.written[group] += self.bits["generate"]
        if layout.owner is not None:
            phys, slots, roles = _staircase(r, layout.codec.n)
            front, base = int(layout.rot[group]) % r, group * r
            helpers = base * layout.codec.n + layout.labels[layout.N:][roles]
            self.rebuilds.append((srcs, phys[front] + base,
                                  phys[0] + item * (r + 1),
                                  slots[front] + helpers, True))
        layout.helperLo[group] = 0

    def move(self, groups: range, toNode: int, items) -> None:
        """Commit the hand-over of every position-0 helper of each group,
        held at the group's anchor, to toNode, where the donated fragments
        take over the primary role.  The group anchored at toNode relabels
        in place; the copy is still metered.  The groups join toNode's run
        of held groups; an anchor without its front helpers, or groups that
        would split the run, raise before anything is recorded.  A byte move
        only changes the fragments' owner."""
        layout, (g0, g1) = self.layout, (groups.start, groups.stop)
        lacking = _first_nonzero(layout.helperLo, groups)
        if lacking is not None:
            raise MissingFragmentError(
                f"node {lacking} lacks position-0 helpers to donate")
        lo, hi = int(layout.heldLo[toNode]), int(layout.heldHi[toNode])
        if lo < hi and not lo - 1 <= g0 <= hi:
            raise InvariantViolation(
                f"node {toNode} holds groups {lo}..{hi - 1}; group {g0} "
                f"would split the run")
        self.vector[_at(groups)] += layout.r * layout.flen
        self.written[toNode] += len(groups) * self.bits["move"]
        if layout.owner is not None:
            self.moves.append((g0, g1, items, toNode))
        layout.heldLo[toNode] = min(lo, g0) if lo < hi else g0
        layout.heldHi[toNode] = max(hi, g1) if lo < hi else g1
        layout.helperLo[_at(groups)] = 1

    def update(self, groups: range, srcs, items) -> None:
        """Commit the shift of each group's object order by one and the
        rebuild, from srcs, the current pick, of the full helper set of the
        object that moves to the back.  Inside a step: that object's helpers
        take the post-step labels, post_helpers(), ending with the target's
        old primary label.  The other objects already hold exactly the
        helpers their new position needs, one label down from where they
        sat before."""
        layout, idx, r = self.layout, _at(groups), self.layout.r
        self.weight += len(groups) * layout.flen
        self.written[idx] += self.bits["update"]
        if layout.owner is not None:
            objs = np.arange(groups.start * r, groups.stop * r, r) + (
                layout.rot[idx] % r)
            slots = (objs * layout.codec.n)[:, None] + layout.post_helpers()
            self.rebuilds.append((srcs, objs, items * (r + 1) + 1,
                                  slots.ravel(), False))
        layout.rot[idx] += 1
        layout.helperLo[idx] = 0

    def settle(self) -> None:
        """Do the recorded byte work as one sub-operation at a time would:
        check each primary read's owner, decode each pick's objects in chain
        order in one call, write the helpers' owners, check the front
        helpers' owners (no later rebuild writes one) and move them, copy
        the helpers; stop at the first failure and raise."""
        rebuilds, moves, self.rebuilds, self.moves, self.items = (
            self.rebuilds, self.moves, [], [], 0)
        layout, end, error, r = self.layout, math.inf, None, self.layout.r
        if layout.owner is None or not (rebuilds or moves):
            return
        owner, frags, code, objects, codewords = layout.bySlot
        n, a = layout.codec.n, 0
        while a < len(rebuilds):
            b = a + 1
            while b < len(rebuilds) and rebuilds[b][0] is rebuilds[a][0]:
                b += 1
            run, a = rebuilds[a:b], b       # one pick's
            srcs, objs, pos = run[0][0], _cat(run, 1), _cat(run, 2)
            if any(x[2][-1] > y[2][0] for x, y in zip(run, run[1:])):
                order = pos.argsort(kind="stable")  # a generate amid updates
                objs, pos = objs[order], pos[order]
            read = layout.labels[srcs]
            stray = owner[(objs * n)[:, None] + read] != srcs
            at = stray.argmax()
            first = at // len(read) if stray.flat[at] else len(objs)
            done = erasure.decode_in_place(objects[objs[:first]], read,  # a copy
                                           layout.codec, codewords, objs[:first])
            if done < len(objs):
                error = (f"decode mismatch for object ({objs[done] // r},"
                         f"{objs[done] % r})" if done < first else
                         f"primary map out of sync at node {srcs[at % len(read)]}")
                end = int(pos[done])
                break
        slots = _cat(rebuilds, 3)
        old = owner[slots]      # to undo writes after a failure; none repeats
        owner[slots] = slots // (r * n)     # the group's anchor
        front = layout.owner[:, :, layout.labels[layout.N]]     # a view
        for g0, g1, items, _ in moves:  # in chain order: the first stray wins
            bad = front[g0:g1] != np.arange(g0, g1)[:, None]
            x = int(bad.argmax()) // r
            if bad[x].any() and items[x] * (r + 1) < end:
                end = int(items[x]) * (r + 1)
                error = f"helper map out of sync at node {g0 + x}"
        if error is not None:           # keep only the writes before end
            keep, at = np.zeros(len(slots), dtype=bool), 0
            for _, _, pos, part, staircase in rebuilds:
                rows = int(pos.searchsorted(end))
                whole, j = divmod(rows, r)
                keep[at:at + (whole * r * (r + 1) // 2 + j * (j + 1) // 2
                              if staircase else rows * r)] = True
                at += len(part)
            owner[slots[~keep]] = old[~keep]
            slots = slots[keep]
        for g0, g1, items, toNode in moves:
            if error is not None:
                g1 = g0 + int((items * (r + 1)).searchsorted(end))
            front[g0:g1] = toNode
        frags[slots] = code[slots]
        if error is not None:
            raise InvariantViolation(error)


def _cat(items, field: int) -> np.ndarray:
    """One int64 field of the recorded items, end to end."""
    parts = [item[field] for item in items] or [np.zeros(0, np.int64)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@functools.lru_cache(maxsize=None)
def _staircase(r: int, n: int) -> tuple:
    """By front phys, (r, ...) each: the phys at positions 0..r-1, and the
    slot, less the helper label, of each helper a staircase holds, position
    j's roles 0..j in turn; then those roles."""
    roles = np.arange(r)
    phys = (roles + roles[:, None]) % r
    position, role = np.nonzero(roles <= roles[:, None])
    return phys, phys[:, position] * n, role


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
    missing, followed by a move+update.  plan() lists the sub-operations
    from the placement as it stands, and commit() commits such a plan in
    one pass, one source pick at a time: run() plans and commits the whole
    chain, a Poisson window the sub-operations due by its horizon.  A donor
    lost mid-step fails between windows, so the next plan regenerates its
    staircase before its helpers move.  Traffic and byte work wait in
    self.window for meter().  Creating the chain opens the step on the
    layout (pendingNode is the target) and wipes the target (wiped: its
    payloads already were); finish() commits the labels.
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

    def plan(self, kind: str, group: int, limit=None) -> tuple:
        """(generate, groups): each sub-operation's kind (True for a
        generate) and group in chain order, the one due next, (kind,
        group), first.  Then come the later groups, at most limit of them:
        a generate where a group's front helpers are missing, then its
        move+update."""
        first, N = kind == "generate", self.layout.N
        m = self.moved + (not first)        # the first later group
        stop = N if limit is None else min(N, m + limit)
        lacking = self.layout.helperLo[m:stop].nonzero()[0]
        if first and len(lacking):          # the due generate stages its own
            lacking = lacking[lacking != group - m]
        generate = np.zeros(1 + stop - m + len(lacking), dtype=bool)
        generate[0] = first
        groups = np.arange(m - 1, stop)
        if len(lacking):
            generate[1 + lacking + np.arange(len(lacking))] = True
            per = np.ones(len(groups), dtype=np.int64)
            per[1 + lacking] = 2
            groups = groups.repeat(per)
        groups[0] = group
        return generate, groups

    def commit(self, generate: np.ndarray, groups: np.ndarray) -> None:
        """Commit a plan in one pass.  Each source pick is made before the
        first move it serves: it reads only rows other than the target's,
        so the moves cannot change it.  The sub-operations it serves then
        commit, each generate as one record, the moves and the updates as
        one record each, their placement as slices.  As one sub-operation
        at a time does: where a pick fails at a move+update, that group's
        move commits and the DecodeError rises; a move+update whose front
        helpers went after the plan (the fault hook) raises the move's
        MissingFragmentError before the pick's later generates commit."""
        layout, win, node = self.layout, self.window, self.layout.pendingNode
        base, n, i = win.items, len(groups), 0
        win.items += n
        while i < n:
            g = int(groups[i])
            try:
                srcs, lo, hi = win.pick(g, node, layout.k)
            except DecodeError:
                if not generate[i]:
                    win.move(range(g, g + 1), node, np.array([base + i]))
                    self.moved += 1
                raise
            if not generate[i] and layout.helperLo[g]:
                win.move(range(g, g + 1), node, None)       # raises
            j = i + 1           # groups ascend after i, and g lies in [lo, hi)
            if j < n and groups[j] >= lo:
                j += int(groups[j:].searchsorted(hi))
            gen = generate[i:j].nonzero()[0].tolist()
            for x in gen:
                win.generate(int(groups[i + x]), srcs, base + i + x)
            self.generated += len(gen)
            count = j - i - len(gen)
            if count:           # the moved groups are consecutive
                stop = int(groups[j - 1]) + (not generate[j - 1])
                moved = range(stop - count, stop)
                items = (~generate[i:j]).nonzero()[0] + (base + i)
                win.move(moved, node, items)
                self.moved += count
                win.update(moved, srcs, items)
                self.updated += count
            i = j

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
        if kind != "generate":
            reads.vector[group] += layout.r * layout.flen
        try:
            reads.pick(group, layout.pendingNode, layout.k)
            reads.weight = layout.flen * (
                layout.r if kind == "generate" else 1)
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
        """The whole chain as one plan: every sub-operation commits at t1
        and the step's reads are metered as one stream over [t0, t1], those
        committed before a stall included."""
        nxt = self.next_subop()
        try:
            if nxt is not None:
                self.commit(*self.plan(*nxt))
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
    as a horizon, on_subop_complete plans the step's sub-operations due by
    then and commits them as one plan, in one metering window (_due,
    _StepChain.commit).  It still makes one event, one read_log entry and
    one trace row of each (self.done gives their end times and bits), and
    the census checks before and after the call imply one after each:
    between failures a generate adds a staircase, a move+update adds its
    group to the target's row and restores its anchor's staircase, and the
    counter stays put, so the witness count, every holder count and every
    staircase can only grow.  A step's end (the counter ticks up, the next
    step wipes its target's row) and a stall (front helpers moved without
    an update) break this, so the call stops after either and checks that
    event in full.  The argument needs the invariant at the start: when
    it fails, the call commits only the due sub-operation.
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
        # [read, written] bits of a move+update, then of a generate
        self.bits = np.array(subop_bits(layout.k, layout.r, layout.flen))
        # (end times, read bits, written bits) of the sub-operations the
        # last on_subop_complete committed, oldest first; None for a step
        self.done: Optional[tuple] = None

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
        chain = self.chain
        before = chain.generated + chain.updated
        try:
            chain.commit(generate, groups)
        finally:
            # a stall ends the run at the stalled sub-operation
            last = min(chain.generated + chain.updated - before,
                       len(generate) - 1)
            bits = self.bits[generate[:last + 1].view(np.uint8)]
            reads = bits[:, 0]
            self.done = ends[:last + 1], reads, bits[:, 1]
            chain.meter(sub.t0, float(ends[last]),
                        (ends[:last], reads[:last]) if last else None)
        return self._plan(float(ends[-1]))

    def _due(self, sub: _SubOp, t: float, horizon: Optional[float]) -> tuple:
        """(generate, groups, ends): the kind (True for a generate), group
        and end time of sub, due at t, and with a horizon of the step's
        later sub-operations due at or before it, in chain order.  Only
        the groups the horizon can reach are planned."""
        if horizon is None:
            return np.array([sub.kind == "generate"]), np.array([sub.group]), \
                np.array([t])
        # each later sub-operation lasts at least min(pace), and each later
        # group takes one or two
        reach = (horizon - t) / min(self.pace)
        limit = int(reach) + 2 if reach < self.layout.N else None
        while True:
            generate, groups = self.chain.plan(sub.kind, sub.group, limit)
            # sequential adds, as one sub-operation at a time plans them
            ends = np.where(generate, self.pace[1], self.pace[0])
            ends[0] = t
            ends = ends.cumsum()
            n = max(1, int(ends.searchsorted(horizon, side="right")))
            if n < len(ends) or limit is None:
                return generate[:n], groups[:n], ends[:n]
            limit = None        # every planned one is due: plan them all

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
