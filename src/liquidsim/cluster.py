"""Cluster state: the interface meters and the clock.

ClusterState holds no fragment data.  Placement lives in each repairer's
own arrays, and so do the byte backends' payloads: uint8 arrays indexed by
fragment id that a node failure zeroes, as the paper's replacement node
starts out zeroed.  The symbolic backends hold no payloads at all.

Meters are the measurement surface of the whole simulator, so their
semantics are strict: every read and write of fragment data is metered at
the node interface where it crosses, and failing a node erases its data but
never its meters.  Three meters are kept: two (N,) vectors of bits read and
written per node, totals per phase (storer traffic lands in its own phase
bucket so that repair-traffic totals stay clean), and read_log, which
records when repair reads happened, spread over an interval for paced
repairers or as an instant, for the peak-rate window.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import ConfigError


class ClusterState:
    def __init__(self, N: int):
        if N < 1:
            raise ConfigError("need N >= 1")
        self.N = N
        self.now = 0.0
        self.phase = "store"
        # per-node interface meters; failures never reset them
        self.nodeBitsRead = np.zeros(N, dtype=np.int64)
        self.nodeBitsWritten = np.zeros(N, dtype=np.int64)
        # phase -> totals; the repair read log feeds the peak-rate window
        self.phase_read: dict = {"store": 0, "repair": 0}
        self.phase_written: dict = {"store": 0, "repair": 0}
        self.read_log: list = []  # (t0, t1, bits) spread entries, t0 == t1 for impulses

    def begin_phase(self, phase: str) -> None:
        if phase not in self.phase_read:
            raise ConfigError(f"unknown phase {phase!r}")
        self.phase = phase

    # -- metering ---------------------------------------------------------

    def meter_read_spread(self, node_bits: np.ndarray, t0: float,
                          t1: float) -> int:
        """Meter paced reads: node_bits is an (N,) integer vector of bits
        per node streamed over [t0, t1], or read at once when t0 == t1.
        Returns the total metered.

        The caller is responsible for fragment presence; this only meters.
        """
        if t1 < t0:
            raise ConfigError("t1 must be >= t0")
        self.nodeBitsRead += node_bits
        total = int(node_bits.sum())
        self.phase_read[self.phase] += total
        if total:
            self.read_log.append((t0, t1, total))
        self.now = max(self.now, t1)
        return total

    def meter_write_bulk(self, nodes, bits, t: float) -> None:
        """Meter writes: bits, one count or one per node, to nodes, an id, a
        slice or distinct ids.  The payloads, if any, are the caller's."""
        self.nodeBitsWritten[nodes] += bits
        if isinstance(bits, np.ndarray):
            bits = bits.sum()
        elif not isinstance(nodes, int):    # the same bits to each node
            bits *= np.size(self.nodeBitsWritten[nodes])
        self.phase_written[self.phase] += int(bits)
        self.now = max(self.now, t)

    def fail_node(self, node_id: int, t: float) -> None:
        """A node failure: its meters stay, and its data, which the
        repairer holds, is the repairer's to erase."""
        self.now = max(self.now, t)

    # -- windows ----------------------------------------------------------

    def meter_window(self, t0: float, t1: float, window: float | None = None):
        """(bitsRead, bitsWritten, avgReadRate, peakReadRate) over [t0, t1].

        bitsWritten has no timing log; the window's written total is the
        repair-phase total (writes happen inside [t0, t1] for whole trials).
        """
        if t1 <= t0:
            raise ConfigError("need t1 > t0")
        cum = _CumulativeReads(self.read_log)
        bits_read = cum.closed(t1) - cum.open(t0)
        avg = bits_read / (t1 - t0)
        if window is None or window >= t1 - t0:
            peak = bits_read / (window if window else (t1 - t0))
        else:
            peak = cum.peak(t0, t1, window)
        return bits_read, self.phase_written["repair"], avg, peak


class _CumulativeReads:
    """Piecewise-linear cumulative read curve with impulse jumps.

    Spread entries contribute linearly over [s0, s1]; impulses (s0 == s1)
    jump the curve.  open(t) excludes an impulse at exactly t, closed(t)
    includes it, so closed(a+w) - open(a) is the closed-window [a, a+w] sum.
    """

    def __init__(self, log):
        events: dict = {}

        def ev(t):
            return events.setdefault(t, [0.0, 0.0])  # [slope delta, jump]

        for (s0, s1, bits) in log:
            if s1 > s0:
                rate = bits / (s1 - s0)
                ev(s0)[0] += rate
                ev(s1)[0] -= rate
            else:
                ev(s0)[1] += bits
        self.t = sorted(events)
        self.before = []  # value approaching t[j] from the left
        self.after = []   # value after the jump at t[j]
        self.slope = []   # slope on [t[j], t[j+1])
        c = 0.0
        s = 0.0
        prev = None
        for tj in self.t:
            if prev is not None:
                c += s * (tj - prev)
            self.before.append(c)
            c += events[tj][1]
            self.after.append(c)
            s += events[tj][0]
            self.slope.append(s)
            prev = tj

    def _locate(self, t: float) -> int:
        return bisect.bisect_right(self.t, t) - 1

    def open(self, t: float) -> float:
        if not self.t or t <= self.t[0]:
            return 0.0
        j = self._locate(t)
        if self.t[j] == t:
            return self.before[j]
        return self.after[j] + self.slope[j] * (t - self.t[j])

    def closed(self, t: float) -> float:
        if not self.t or t < self.t[0]:
            return 0.0
        j = self._locate(t)
        return self.after[j] + self.slope[j] * (t - self.t[j])

    def peak(self, t0: float, t1: float, w: float) -> float:
        hi = max(t0, t1 - w)
        cand = set([t0, hi])
        for tj in self.t:
            if t0 <= tj <= hi:
                cand.add(tj)
            if t0 <= tj - w <= hi:
                cand.add(tj - w)
        best = 0.0
        for a in cand:
            got = self.closed(a + w) - self.open(a)
            if got > best:
                best = got
        return best / w
