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

A byte decode multiplies an object's fragments by one coefficient matrix,
built once per EFI set and kept read-only in a bounded LRU cache
(MATRIX_CACHE_SIZE entries): a repair chain decodes many objects from the
same EFI set, so the matrix is solved once per set, in closed form, as the
parity rows are Cauchy rows.  decode_encode works on an object's fragments
as one (n, flen_bytes) uint8 array indexed by EFI, the form the repairers
hold them in.  The matrix's columns lie on that array's rows, zero for the
rows not read and trimmed at the highest row read, so the product reads the
fragments where they lie, and the decoded source chunks are written into
the caller's array, in the rows they belong in.  A stack of objects read
at the same EFIs shares that product.  The generator rows of fragments to
re-encode can be appended, so one product also encodes them; the
repairers' steps do not ask for any, as they copy rebuilt fragments from
the reference codewords they store.  What still re-encodes is the store
builds (every object, from its source rows), liquid's check of every
100th step (its parity, against the stored codeword) and encode.  decode
and encode take and give {efi: payload} dicts of bytes.
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
    frags = np.zeros((params.n, params.flen_bytes), dtype=np.uint8)
    frags[: params.k] = _as_matrix(object_data, params)
    rows = decode_encode(frags, range(params.k), efis, params)
    return {e: row.tobytes() for e, row in zip(efis, rows)}


def _first_k(read, k: int) -> list:
    """The k lowest EFIs of read, the ones a decode uses."""
    labels = sorted(map(int, read))
    if len(labels) < k:
        raise DecodeError(f"need {k} fragments, have {len(labels)}")
    return labels[:k]


def decode(fragments, params: CodecParams):
    """Object from any k distinct-EFI fragments.

    fragments is {efi: payload}.  Raises DecodeError when fewer than k are
    given.  Symbolic backend returns None on success.
    """
    labels = _first_k(fragments, params.k)
    if params.backend == "symbolic":
        return None
    fb = params.flen_bytes
    frags = np.zeros((params.n, fb), dtype=np.uint8)
    for e in labels:
        if len(fragments[e]) != fb:
            raise DecodeError(f"fragment {e} has wrong length")
        frags[e] = np.frombuffer(fragments[e], np.uint8)
    decode_encode(frags, labels, (), params)
    return frags[: params.k].tobytes()


def decode_encode(frags, read, efis, params: CodecParams):
    """Decode from the k lowest EFIs of read in place and encode the
    fragments of efis, both in one product with a cached matrix.

    frags is the object's (n, flen_bytes) uint8 array indexed by EFI, or a
    (G, n, flen_bytes) stack of G objects read at the same EFIs, which
    share the matrix and so the product.  The product reads the rows where
    they lie, up to the highest one read; the source rows that were not
    read are written with the decoded chunks, so frags[..., :k, :] is the
    object afterwards.  Returns the fragments of efis as a
    (len(efis), flen_bytes) array, with the stack's G axis in front.
    Symbolic backend: frags is unused and None comes back.
    """
    k = params.k
    labels = _first_k(read, k)
    if params.backend == "symbolic":
        return None
    # systematic preference: source rows are used as they are, and the
    # first parity rows stand in for the missing source chunks
    split = bisect.bisect_left(labels, k)
    missing, M = _decode_matrix(params.n, k, tuple(labels[:split]),
                                tuple(labels[split:]), tuple(efis))
    if not len(M):
        return frags[..., :0, :]
    # one object's rows are a view; a stack's objects sit side by side in
    # the product's columns
    cols = frags[..., : M.shape[1], :].swapaxes(0, -2)
    S = gf256.matmul(M, cols.reshape(M.shape[1], -1)).reshape(
        (len(M),) + cols.shape[1:]).swapaxes(0, -2)
    frags[..., list(missing), :] = S[..., : len(missing), :]
    return S[..., len(missing):, :]


def _cauchy_inverse(x: list, y: list) -> np.ndarray:
    """Inverse of the generator block G[x][:, y], parity rows x and source
    columns y, in closed form: G[e, j] = e / (e ^ j) on parity rows, so the
    block is diag(x) times the Cauchy matrix 1 / (x_a ^ y_b), whose inverse
    in characteristic 2 has Px[a] Py[b] / ((x_a ^ y_b) Qx[a] Qy[b]) at
    [b, a] (Blömer et al., ICSI TR-95-048): Px[a] = prod_c (x_a ^ y_c),
    Py[b] = prod_c (x_c ^ y_b), Qx and Qy the products of x_a ^ x_c and
    y_b ^ y_c over c != a, b.  Products are sums of logs; LOG[0] is 0, so
    the diagonals add nothing to Qx and Qy, and x >= k > y keeps every
    x_a ^ y_b nonzero.
    """
    x, y, LOG = np.asarray(x), np.asarray(y), gf256.LOG
    L = LOG[x[:, None] ^ y]
    lx = L.sum(axis=1) - LOG[x[:, None] ^ x].sum(axis=1) - LOG[x]
    ly = L.sum(axis=0) - LOG[y[:, None] ^ y].sum(axis=0)
    return gf256.EXP[(lx + ly[:, None] - L.T) % 255]


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _source_rows(n: int, k: int, have: tuple, par: tuple) -> tuple:
    """(missing, C): the source chunks not in have, whose rows par's parity
    rows stand in for, and C (len(missing), highest row read + 1),
    read-only, which takes the fragment rows to them.  The columns of the
    rows not read are zero."""
    missing = sorted(set(range(k)).difference(have))
    C = np.zeros((len(missing), max(have + par) + 1), dtype=np.uint8)
    if par:
        # parity rows P = Gm X_missing ^ Gk X_have, so X_missing =
        # Gm^-1 P ^ Gm^-1 Gk X_have; the missing rows are not read
        Minv = _cauchy_inverse(par, missing)
        C[:, :k] = gf256.matmul(Minv, _generator(n, k)[list(par)])
        C[:, missing] = 0
        C[:, list(par)] = Minv
    C.setflags(write=False)
    return tuple(missing), C


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _decode_matrix(n: int, k: int, have: tuple, par: tuple,
                   efis: tuple) -> tuple:
    """(missing, M) as _source_rows gives them, with the rows G_efis D
    appended to C, where D takes the fragment rows to all k source chunks:
    one product yields the missing chunks, then the fragments of efis."""
    missing, C = _source_rows(n, k, have, par)
    if not efis:
        return missing, C
    for e in efis:
        if not 0 <= e < n:
            raise ConfigError(f"EFI {e} outside [0, {n})")
    D = np.zeros((k, C.shape[1]), dtype=np.uint8)
    D[list(have), list(have)] = 1
    D[list(missing)] = C
    M = np.concatenate([C, gf256.matmul(_generator(n, k)[list(efis)], D)])
    M.setflags(write=False)
    return missing, M
