"""Cluster state: the interface meters.

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
repairers or as an instant, for the peak-rate window.  The log is kept as
numpy columns and the window's cumulative curve is built from them with
array ops, because a paced repairer logs one entry per sub-operation.
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
        self.phase = "store"
        # per-node interface meters; failures never reset them
        self.nodeBitsRead = np.zeros(N, dtype=np.int64)
        self.nodeBitsWritten = np.zeros(N, dtype=np.int64)
        # phase -> totals; the repair read log feeds the peak-rate window
        self.phase_read: dict = {"store": 0, "repair": 0}
        self.phase_written: dict = {"store": 0, "repair": 0}
        self.read_log = ReadLog()

    def begin_phase(self, phase: str) -> None:
        if phase not in self.phase_read:
            raise ConfigError(f"unknown phase {phase!r}")
        self.phase = phase

    # -- metering ---------------------------------------------------------

    def meter_read_spread(self, node_bits: np.ndarray, t0: float,
                          t1: float, split=None) -> int:
        """Meter paced reads: node_bits is an (N,) integer vector of bits
        per node streamed over [t0, t1], or read at once when t0 == t1.
        Returns the total metered.

        split, (ends, bits) arrays with every bits[i] positive, cuts the
        stream into consecutive log entries: bits[i] up to ends[i], the
        rest from ends[-1] to t1.  The caller is responsible for fragment
        presence; this only meters.
        """
        if t1 < t0:
            raise ConfigError("t1 must be >= t0")
        self.nodeBitsRead += node_bits
        total = int(node_bits.sum())
        self.phase_read[self.phase] += total
        if split is None:
            self.read_log.add(t0, t1, total)
        else:
            ends, bits = split
            self.read_log.add_run(t0, ends, t1, bits, total - int(bits.sum()))
        return total

    def meter_write_bulk(self, nodes, bits) -> None:
        """Meter writes: bits, one count or one per node, to nodes, an id, a
        slice or distinct ids.  The payloads, if any, are the caller's."""
        self.nodeBitsWritten[nodes] += bits
        if isinstance(bits, np.ndarray):
            bits = bits.sum()
        elif not isinstance(nodes, int):    # the same bits to each node
            bits *= np.size(self.nodeBitsWritten[nodes])
        self.phase_written[self.phase] += int(bits)

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


class ReadLog:
    """Repair reads by time, as growing columns: entry i streams bits[i]
    over [t0[i], t1[i]], or reads them at once when t0 == t1.  Iterating
    yields (t0, t1, bits) tuples."""

    def __init__(self):
        self._t0 = np.empty(16)
        self._t1 = np.empty(16)
        self._bits = np.empty(16, dtype=np.int64)
        self._n = 0

    def add(self, t0, t1, bits) -> None:
        """Append one entry, or equal-length arrays of them; an entry of no
        bits is left out."""
        n = self._n
        if isinstance(bits, np.ndarray):
            keep = bits != 0
            t0, t1, bits = t0[keep], t1[keep], bits[keep]
            m = len(bits)
        elif bits:
            m = 1
        else:
            return
        self._reserve(n + m)
        self._t0[n:n + m] = t0
        self._t1[n:n + m] = t1
        self._bits[n:n + m] = bits
        self._n = n + m

    def add_run(self, t0, ends, t1, bits, last) -> None:
        """Append one stream cut into consecutive entries: bits[i] up to
        ends[i], from t0 on, then last from ends[-1] to t1.  Each bits[i]
        must be positive; last may be 0, and is then left out, as add
        leaves it."""
        n, m = self._n, len(bits)
        self._reserve(n + m + 1)
        self._t0[n] = t0
        self._t0[n + 1:n + m + 1] = ends
        self._t1[n:n + m] = ends
        self._t1[n + m] = t1
        self._bits[n:n + m] = bits
        self._bits[n + m] = last
        self._n = n + m + (last != 0)

    def _reserve(self, size: int) -> None:
        if size > len(self._bits):
            size = max(2 * len(self._bits), size)
            for name in ("_t0", "_t1", "_bits"):
                setattr(self, name, np.resize(getattr(self, name), size))

    def columns(self) -> tuple:
        """(t0, t1, bits) views of the entries in log order."""
        n = self._n
        return self._t0[:n], self._t1[:n], self._bits[:n]

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return zip(*(col.tolist() for col in self.columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadLog):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip(self.columns(), other.columns()))


# below this many entries a Python walk of the log beats numpy's per-call
# cost; _walk vs _sweep, 2-vCPU Xeon: spread-only 23 vs 26 us at 28 entries,
# 26 vs 24 at 32; half impulses 20 vs 26 at 32; 42-51 vs 26-30 us at 64
_SMALL_LOG = 32


class _CumulativeReads:
    """Piecewise-linear cumulative read curve with impulse jumps.

    Spread entries contribute linearly over [s0, s1]; impulses (s0 == s1)
    jump the curve.  open(t) excludes an impulse at exactly t, closed(t)
    includes it, so closed(a+w) - open(a) is the closed-window [a, a+w] sum.

    The curve is built from log, a ReadLog or (s0, s1, bits) tuples, with
    the float additions of a walk through the log: each time's slope
    changes and jumps sum in log order, and the curve accumulates in time
    order.  A long log takes array ops that add in that same order.  At
    each time t[j], curve[2j] is the value after its jump and curve[2j - 1]
    the value before it; slope[j] holds on [t[j], t[j + 1]).
    """

    def __init__(self, log):
        if isinstance(log, ReadLog):
            cols = log.columns()
        else:
            cols = np.array(list(log), dtype=float).reshape(-1, 3).T
        build = _walk if len(cols[0]) < _SMALL_LOG else _sweep
        self.t, self.curve, self.slope = build(*cols)

    def _at(self, a: float, closed: bool) -> float:
        t, curve = self.t, self.curve
        j = bisect.bisect_right(t, a) - 1
        if j < 0 or (a == t[0] and not closed):
            return 0.0
        if t[j] == a and not closed:
            return float(curve[2 * j - 1])
        return float(curve[2 * j] + self.slope[j] * (a - t[j]))

    def open(self, t: float) -> float:
        return self._at(t, False)

    def closed(self, t: float) -> float:
        return self._at(t, True)

    def peak(self, t0: float, t1: float, w: float) -> float:
        """The largest closed(a + w) - open(a) over a in [t0, t1 - w],
        taken at the times where it can change, over w."""
        hi = max(t0, t1 - w)
        t, curve, slope = (np.asarray(col) for col in
                           (self.t, self.curve, self.slope))
        if not len(t):
            return 0.0
        a = np.concatenate(([t0, hi], t, t - w))
        a = a[(t0 <= a) & (a <= hi)]
        b = a + w
        j = np.maximum(t.searchsorted(b, side="right") - 1, 0)
        closed = np.where(b < t[0], 0.0, curve[2 * j] + slope[j] * (b - t[j]))
        j = np.maximum(t.searchsorted(a, side="right") - 1, 0)
        open_ = np.where(t[j] == a, curve[2 * j - 1],
                         curve[2 * j] + slope[j] * (a - t[j]))
        open_[a <= t[0]] = 0.0
        return max(0.0, float((closed - open_).max())) / w


def _walk(s0, s1, bits) -> tuple:
    """(t, curve, slope) as lists, walking the log in Python."""
    events: dict = {}
    for a, b, n in zip(s0.tolist(), s1.tolist(), bits.tolist()):
        if b > a:
            rate = n / (b - a)
            events.setdefault(a, [0.0, 0.0])[0] += rate
            events.setdefault(b, [0.0, 0.0])[0] -= rate
        else:
            events.setdefault(a, [0.0, 0.0])[1] += n
    t = sorted(events)
    curve, slope = [], []
    c = s = 0.0
    for j, tj in enumerate(t):
        if j:
            c += s * (tj - t[j - 1])
            curve.append(c)
        c += events[tj][1]
        curve.append(c)
        s += events[tj][0]
        slope.append(s)
    curve += curve[-1:]
    return t, curve, slope


def _sweep(s0, s1, bits, chunk: int = 1 << 16) -> tuple:
    """_walk's curve with array ops: np.add.at sums each time's slope
    changes and jumps in log order, a chunk of the log at a time, and
    cumsum adds sequentially."""
    t = np.concatenate((s0, s1))
    t.sort()
    fresh = np.ones(len(t), dtype=bool)
    fresh[1:] = t[1:] != t[:-1]
    t = t[fresh]
    del fresh
    curve = np.zeros(2 * len(t))   # jump at t[j], then the rise to t[j + 1]
    for i in range(0, len(bits), chunk):
        a, b, n = s0[i:i + chunk], s1[i:i + chunk], bits[i:i + chunk]
        spread = b > a
        rate = n[spread] / (b[spread] - a[spread])
        # +rate at s0 and -rate at s1, entry by entry
        at = np.empty(2 * len(rate), dtype=np.intp)
        at[0::2], at[1::2] = t.searchsorted(a[spread]), t.searchsorted(b[spread])
        bend = np.empty(2 * len(rate))
        bend[0::2], bend[1::2] = rate, -rate
        np.add.at(curve, 2 * at + 1, bend)
        np.add.at(curve, 2 * t.searchsorted(a[~spread]),
                  n[~spread].astype(float))
    slope = curve[1::2].cumsum()
    rise = np.diff(t)
    rise *= slope[:-1]
    curve[1:-1:2] = rise
    del rise
    curve[-1:] = 0.0
    curve.cumsum(out=curve)
    return t, curve, slope
