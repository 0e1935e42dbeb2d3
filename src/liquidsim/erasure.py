"""MDS erasure codec over encoding fragment ids (EFIs).

An (n, k) object is k*flen source bits carried by up to n fragments of flen
bits each; any k fragments with distinct EFIs decode the object.  Two
backends share one interface:

  byte      systematic Cauchy-style code in GF(256); fragments are real bytes
  symbolic  fragments carry no payload, decode succeeds iff k distinct EFIs
            are present

The byte generator is the identity on rows 0..k-1 (fragment EFI e < k equals
source chunk e), and parity row e >= k has coefficients inv(e ^ j) scaled so
the first column is 1; for k = 1 every fragment then equals the object, i.e.
replication.  Any k rows are linearly independent, so the code is MDS.

A byte decode gathers k fragments in object order and multiplies them by
one coefficient matrix, built once per EFI set and kept read-only in a
bounded LRU cache (MATRIX_CACHE_SIZE entries): a repair chain decodes many
objects from the same EFI set, so the matrix inversion runs once per set.
decode_encode appends the generator rows of the fragments to re-encode, so
advanced repair decodes an object and encodes its new fragments in the
same product.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from . import gf256
from .errors import ConfigError, DecodeError

MAX_BYTE_N = 256  # field size caps the fragment count of the byte backend
# decode matrices kept per process; a repair step reuses a handful of them
MATRIX_CACHE_SIZE = 128


@dataclass(frozen=True)
class CodecParams:
    n: int
    k: int
    r: int
    flen: int  # bits per fragment
    backend: str

    @property
    def flen_bytes(self) -> int:
        return self.flen // 8


def make_codec(n: int, k: int, flen: int,
               backend: str = "auto") -> CodecParams:
    if not 1 <= k <= n:
        raise ConfigError("need 1 <= k <= n")
    if flen <= 0:
        raise ConfigError("flen must be positive")
    if backend == "auto":
        backend = "byte" if n <= MAX_BYTE_N and flen % 8 == 0 else "symbolic"
    if backend == "byte":
        if n > MAX_BYTE_N:
            raise ConfigError(
                f"byte backend supports n <= {MAX_BYTE_N}; use symbolic for n = {n}")
        if flen % 8:
            raise ConfigError("byte backend needs flen divisible by 8")
    elif backend != "symbolic":
        raise ConfigError(f"unknown backend {backend!r}")
    return CodecParams(n=n, k=k, r=n - k, flen=flen, backend=backend)


@functools.lru_cache(maxsize=None)
def _generator(n: int, k: int) -> np.ndarray:
    """The (n, k) generator matrix, read-only."""
    G = np.zeros((n, k), dtype=np.uint8)
    for e in range(k):
        G[e, e] = 1
    for e in range(k, n):
        row = gf256.INV[np.arange(k) ^ e]  # e >= k > j keeps e^j nonzero
        G[e] = gf256.MUL[gf256.INV[row[0]]][row]  # scale so column 0 is 1
    G.setflags(write=False)
    return G


def generator_rows(params: CodecParams, efis) -> np.ndarray:
    """Rows of the generator matrix for the requested EFIs, shape (m, k)."""
    return _generator(params.n, params.k)[np.asarray(list(efis), dtype=np.intp)]


def _as_matrix(object_bytes: bytes, params: CodecParams) -> np.ndarray:
    fb = params.flen_bytes
    if len(object_bytes) != params.k * fb:
        raise ConfigError(
            f"object must be k*flen = {params.k * fb} bytes, got {len(object_bytes)}")
    return np.frombuffer(object_bytes, dtype=np.uint8).reshape(params.k, fb)


def encode(object_data, efis, params: CodecParams):
    """Fragments for the given EFIs as {efi: payload}.

    Symbolic backend takes object_data = None and returns {efi: None}.
    """
    efis = [int(e) for e in efis]
    for e in efis:
        if not 0 <= e < params.n:
            raise ConfigError(f"EFI {e} outside [0, {params.n})")
    if params.backend == "symbolic":
        return {e: None for e in efis}
    X = _as_matrix(object_data, params)
    out = {}
    src = [e for e in efis if e < params.k]
    par = [e for e in efis if e >= params.k]
    for e in src:
        out[e] = X[e].tobytes()
    if par:
        rows = gf256.matmul(generator_rows(params, par), X)
        for i, e in enumerate(par):
            out[e] = rows[i].tobytes()
    return out


def decode(fragments, params: CodecParams):
    """Object from any k distinct-EFI fragments.

    fragments is {efi: payload}.  Raises DecodeError when fewer than k are
    given.  Symbolic backend returns None on success.
    """
    return decode_encode(fragments, (), params)[0]


def decode_encode(fragments, efis, params: CodecParams):
    """(object, {efi: payload}): decode as decode() does and encode the
    fragments of efis, both in one product with a cached matrix.

    Equal to (decode(fragments), encode(decode(fragments), efis)).
    """
    labels = sorted(map(int, fragments))
    k = params.k
    if len(labels) < k:
        raise DecodeError(f"need {k} fragments, have {len(labels)}")
    if params.backend == "symbolic":
        return None, encode(None, efis, params)
    # systematic preference: source rows are used as they are, and the
    # first parity rows stand in for the missing source chunks
    split = bisect.bisect_left(labels, k, 0, k)
    efis = tuple(efis)
    slots, missing, M = _decode_matrix(params.n, k, tuple(labels[:split]),
                                       tuple(labels[split:k]), efis)
    parts = [fragments[e] for e in slots]
    fb = params.flen_bytes
    if set(map(len, parts)) != {fb}:
        bad = next(e for e, frag in zip(slots, parts) if len(frag) != fb)
        raise DecodeError(f"fragment {bad} has wrong length")
    out = {}
    if len(M):
        # S has the missing chunks, then the fragments of efis; the gathered
        # rows are freed before the object is joined, so that one
        # object-sized buffer is live at a time: two freed together get
        # trimmed back to the OS and fault in again on the next decode
        gathered = b"".join(parts)
        S = gf256.matmul(M, np.frombuffer(gathered, np.uint8).reshape(k, fb))
        del gathered
        for j, row in zip(missing, S):    # in place of the stand-in parity
            parts[j] = row
        out = {e: row.tobytes() for e, row in zip(efis, S[len(missing):])}
    return b"".join(parts), out


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _source_rows(n: int, k: int, have: tuple, par: tuple) -> tuple:
    """(slots, missing, C) for k fragments gathered in object order: slot j
    holds source chunk j when j is in have, else the parity fragment that
    stands in for it.  C (len(missing), k), read-only, takes the gathered
    rows to the missing source chunks."""
    missing = sorted(set(range(k)).difference(have))
    slots = list(range(k))
    for j, e in zip(missing, par):
        slots[j] = e
    C = np.zeros((len(missing), k), dtype=np.uint8)
    if par:
        # parity rows P = Gm X_missing ^ Gk X_have, so
        # X_missing = Gm^-1 P ^ Gm^-1 Gk X_have
        Gp = _generator(n, k)[list(par)]
        Minv = gf256.inv_matrix(Gp[:, missing])
        C[:, missing] = Minv
        C[:, list(have)] = gf256.matmul(Minv, Gp[:, list(have)])
    C.setflags(write=False)
    return tuple(slots), tuple(missing), C


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _decode_matrix(n: int, k: int, have: tuple, par: tuple,
                   efis: tuple) -> tuple:
    """(slots, missing, M) as _source_rows gives them, with the rows
    G_efis D appended to C, where D takes the gathered rows to all k
    source chunks: one product yields the missing chunks, then the
    fragments of efis."""
    slots, missing, C = _source_rows(n, k, have, par)
    if not efis:
        return slots, missing, C
    for e in efis:
        if not 0 <= e < n:
            raise ConfigError(f"EFI {e} outside [0, {n})")
    D = np.zeros((k, k), dtype=np.uint8)
    D[list(have), list(have)] = 1
    D[list(missing)] = C
    M = np.concatenate([C, gf256.matmul(_generator(n, k)[list(efis)], D)])
    M.setflags(write=False)
    return slots, missing, M
