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
(MATRIX_CACHE_SIZE entries) keyed on the bytes of the k lowest EFIs read,
sorted as an int64 array: a repair chain decodes many objects from the
same EFI set, so the matrix is built once per set.  The parity rows are
Cauchy rows, so one closed form gives every column read.  A read set
holding every source row needs no matrix.  decode_in_place works on an
object's fragments as one (n, flen_bytes) uint8 array indexed by EFI, the
form the repairers hold them in.  The matrix's columns lie on that array's
rows, zero for the rows not read and trimmed at the highest row read, so
the product reads the fragments where they lie, and the decoded source
chunks are written into the caller's array, in the rows they belong in.
encode_rows multiplies generator rows by an object's k source rows.  Both
take a stack of objects too, which then share one product.  The repair
steps only decode: they copy rebuilt fragments from the codewords the
repairers store.  Encodes build those codewords, and liquid's check of
every 100th step re-encodes the parity to compare with its codeword.
decode and encode take and give {efi: payload} dicts of bytes.
"""

from __future__ import annotations

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


def encode(object_data, efis, params: CodecParams):
    """Fragments for the given EFIs as {efi: payload}.

    Symbolic backend takes object_data = None and returns {efi: None}.
    """
    efis = [int(e) for e in efis]
    if params.backend == "symbolic":
        encode_rows(None, efis, params)     # checks the EFIs
        return {e: None for e in efis}
    k, fb = params.k, params.flen_bytes
    if len(object_data) != k * fb:
        raise ConfigError(
            f"object must be k*flen = {k * fb} bytes, got {len(object_data)}")
    rows = encode_rows(np.frombuffer(object_data, np.uint8).reshape(k, fb),
                       efis, params)
    return {e: row.tobytes() for e, row in zip(efis, rows)}


def _labels(read, k: int) -> np.ndarray:
    """read's EFIs as a sorted int64 array; a decode uses the k lowest."""
    labels = np.sort(np.asarray(read, dtype=np.int64))
    if len(labels) < k:
        raise DecodeError(f"need {k} fragments, have {len(labels)}")
    return labels


def decode(fragments, params: CodecParams):
    """Object from any k distinct-EFI fragments.

    fragments is {efi: payload}.  Raises DecodeError when fewer than k are
    given.  Symbolic backend returns None on success.
    """
    labels = _labels(list(fragments), params.k)[: params.k]
    if params.backend == "symbolic":
        return None
    fb = params.flen_bytes
    frags = np.zeros((params.n, fb), dtype=np.uint8)
    for e in labels.tolist():
        if len(fragments[e]) != fb:
            raise DecodeError(f"fragment {e} has wrong length")
        frags[e] = np.frombuffer(fragments[e], np.uint8)
    decode_in_place(frags, labels, params)
    return frags[: params.k].tobytes()


def _product(M: np.ndarray, frags) -> np.ndarray:
    """M times the first M.shape[1] rows of frags, an object's
    (rows, flen_bytes) array or a (G, rows, flen_bytes) stack, as a
    (len(M), flen_bytes) array with the stack's G axis in front.  One
    object's rows are a view; a stack's objects sit side by side in the
    product's columns."""
    cols = frags[..., : M.shape[1], :].swapaxes(0, -2)
    return gf256.matmul(M, cols.reshape(M.shape[1], -1)).reshape(
        (len(M),) + cols.shape[1:]).swapaxes(0, -2)


def decode_in_place(frags, read, params: CodecParams) -> None:
    """Decode from the k lowest EFIs of read in place, with a cached matrix.

    frags is the object's (n, flen_bytes) uint8 array indexed by EFI, or a
    (G, n, flen_bytes) stack of G objects read at the same EFIs, which
    share the matrix and so the product.  The product reads the rows where
    they lie, up to the highest one read; the source rows that were not
    read are written with the decoded chunks, so frags[..., :k, :] is the
    object afterwards.  Symbolic backend: frags is unused.
    """
    k = params.k
    labels = _labels(read, k)
    # systematic preference: source rows are used as they are, and the
    # first parity rows stand in for the missing source chunks, so a read
    # of every source row leaves nothing to decode
    if params.backend == "symbolic" or labels[k - 1] < k:
        return
    missing, C = _source_rows(k, labels[:k].tobytes())
    frags[..., missing, :] = _product(C, frags)


def encode_rows(frags, efis, params: CodecParams):
    """The fragments of efis, the generator's rows for them times the
    source rows frags[..., :k, :] of an object or a stack, as _product
    shapes them.  Symbolic backend: frags is unused and None comes back."""
    efis = list(efis)
    for e in efis:
        if not 0 <= e < params.n:
            raise ConfigError(f"EFI {e} outside [0, {params.n})")
    if params.backend == "symbolic":
        return None
    return _product(_generator(params.n, params.k)[efis], frags)


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _source_rows(k: int, key: bytes) -> tuple:
    """(missing, C) for the k sorted int64 EFIs whose bytes are key: the
    source rows not read, and C (len(missing), highest row read + 1),
    which takes the fragment rows to them.  Both are read-only; the
    columns of the rows not read are zero.  Neither depends on n.

    The parity rows x read stand in for the missing rows y.  G[e, j] =
    e / (e ^ j) on parity rows, so the parity block is diag(x) times the
    Cauchy matrix 1 / (x_a ^ y_b), and rational interpolation through x
    and y solves the whole matrix in closed form (Blomer et al., ICSI
    TR-95-048; in characteristic 2 the signs vanish): with D(j) =
    prod_c (j ^ y_c) / prod_a (j ^ x_a), C[b, j] = D(j) / (D(y_b) (y_b ^ j))
    on the source rows read, further divided by j on the parity rows.
    Products are sums of logs; LOG[0] is 0, so the zero factors y_b ^ y_b
    and x_a ^ x_a drop out of D(y_b) and D(x_a), and no row read is in y,
    so y_b ^ j is nonzero.
    """
    labels, LOG = np.frombuffer(key, np.int64), gf256.LOG
    split = int(np.searchsorted(labels, k))
    x = labels[split:]
    read = np.zeros(k, dtype=bool)
    read[labels[:split]] = True
    y = np.flatnonzero(~read)
    m = len(y)
    # log D(j) for j the rows read, then y: L's first m columns hold the
    # logs of j ^ y_c, the others those of j ^ x_a
    L = LOG[np.concatenate((labels, y))[:, None] ^ np.concatenate((y, x))]
    logD = L[:, :m].sum(axis=1) - L[:, m:].sum(axis=1)
    logD[split:k] -= LOG[x]
    C = np.zeros((m, labels[-1] + 1), dtype=np.uint8)
    C[:, labels] = gf256.EXP[(logD[:k] - logD[k:, None] - L[:k, :m].T) % 255]
    y.setflags(write=False)
    C.setflags(write=False)
    return y, C
