"""Deterministic random streams.

Every consumer gets its own counter-based Philox stream derived from
(seed, stream, substream), so trials can run in any order or in parallel
and still draw identical values.  Streams are cheap to construct; do not
share Generator objects across purposes.  fill_bytes writes the byte
payloads: the bytes Generator.bytes would give, at random_raw's speed.
"""

from __future__ import annotations

import numpy as np

# substream purposes, kept small and stable
SUB_FAILURE_TIMES = 0
SUB_FAILURE_IDS = 1
SUB_PAYLOAD = 2
SUB_GS = 3

_MASK64 = (1 << 64) - 1
# bytes per draw: below glibc's mmap threshold, so a draw reuses heap that
# the last one freed instead of being mapped and faulted in afresh
_FILL_CHUNK = 1 << 15


def stream(seed: int, stream_id: int = 0, substream: int = 0) -> np.random.Generator:
    if not 0 <= stream_id < (1 << 32) or not 0 <= substream < (1 << 32):
        raise ValueError("stream_id and substream must fit in 32 bits")
    key = np.array([seed & _MASK64, ((stream_id << 32) | substream) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _words(gen: np.random.Generator, n: int, half: bool) -> np.ndarray:
    """The next n 32-bit words of gen's stream, little-endian, as
    Generator.bytes takes them: the low then the high half of each 64-bit
    draw, first the high half gen holds back (half) if any.  An odd rest
    leaves the high half of the last draw held back, as bytes() does."""
    head = int(half)
    raw = gen.bit_generator.random_raw((n - head) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")
    if head or (n - head) % 2:
        words = np.concatenate((
            gen.integers(0, 2 ** 32, head, np.uint32).astype("<u4"), words,
            gen.integers(0, 2 ** 32, (n - head) % 2, np.uint32).astype("<u4")))
    return words


def fill_bytes(gen: np.random.Generator, out: np.ndarray,
               chunk: int = _FILL_CHUNK) -> None:
    """Fill out, a uint8 (..., rows, width) array, in place: row after row
    in C order, each exactly as gen.bytes(width) returns it (whole 32-bit
    words, the spare bytes dropped), leaving gen as bytes() would.

    The words come from random_raw about chunk bytes at a time and are
    written where out lies, one (rows, width) block at a time, so out need
    not be viewable as a 2-d array of rows (liquid's code[:, :k] is not).
    """
    step = -(-out.shape[-1] // 4) * 4          # stream bytes per row
    batch = max(1, chunk // step)
    if step % 8 and batch > 1:
        batch -= batch % 2      # whole 64-bit draws, no half word left over
    half = bool(gen.bit_generator.state["has_uint32"])
    for idx in np.ndindex(out.shape[:-2]):
        block = out[idx]
        for i in range(0, len(block), batch):
            rows = block[i:i + batch]
            n = len(rows) * step // 4
            rows[...] = _words(gen, n, half).view(np.uint8).reshape(
                len(rows), step)[:, :out.shape[-1]]
            half = (n - half) % 2 == 1
