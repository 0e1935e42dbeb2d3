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

A byte decode uses the k lowest EFIs read and works in place on an
object's fragments as one C-contiguous (n, flen_bytes) uint8 array indexed
by EFI, the form the repairers hold them in, or on a stack of objects read
at the same EFIs.  The parity rows are Cauchy rows, so the (m, k) matrix
taking the rows read to the m missing source rows has a closed form over
the EFIs alone; a read set holding every source row needs no matrix.
decode_in_place is one gf256.decode_check call: the kernel solves that
matrix, multiplies it into the rows read where they lie, writes the
decoded source chunks into the caller's array, in the rows they belong
in, and, given the codewords, compares every object's source rows with
its codeword's.  EFIs that repeat or lie outside [0, n) raise DecodeError
before any product.  Without the C kernel, _source_rows solves the same
matrix on numpy, kept read-only in a bounded LRU cache (MATRIX_CACHE_SIZE
entries) keyed on the bytes of the sorted EFIs, and the numpy product and
compare follow; that path is the oracle for the kernel's.  encode_rows
multiplies generator rows by the k source rows of an object or of each
object of a stack.  The repair steps only decode: they copy rebuilt
fragments from the codewords the repairers store.  Encodes build those
codewords, and liquid's check of every 100th step re-encodes the parity
to compare with its codeword.  decode and encode take and give
{efi: payload} dicts of bytes.
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


def _labels(read, params: CodecParams) -> np.ndarray:
    """The k lowest EFIs of read, a sorted int64 array.  Raises DecodeError
    on fewer than k EFIs, or on one repeated or outside [0, n)."""
    labels = np.sort(np.asarray(read, dtype=np.int64))
    if len(labels) < params.k:
        raise DecodeError(f"need {params.k} fragments, have {len(labels)}")
    if labels[0] < 0 or labels[-1] >= params.n:
        raise DecodeError(f"EFIs {labels.tolist()} outside [0, {params.n})")
    if (labels[1:] == labels[:-1]).any():
        raise DecodeError(f"EFIs {labels.tolist()} repeat")
    return labels[: params.k]


def decode(fragments, params: CodecParams):
    """Object from any k distinct-EFI fragments.

    fragments is {efi: payload}.  Raises DecodeError when fewer than k are
    given or an EFI is outside [0, n).  Symbolic backend returns None on
    success.
    """
    labels = _labels(list(fragments), params)
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


def decode_in_place(frags, read, params: CodecParams, code=None, objs=None):
    """Decode from the k lowest EFIs of read in place, and check the result.

    frags is the object's C-contiguous (n, flen_bytes) uint8 array indexed
    by EFI, or a (G, n, flen_bytes) stack of G objects read at the same
    EFIs.  The product reads the rows where they lie; the source rows that
    were not read are written with the decoded chunks, so frags[..., :k, :]
    is the object afterwards.  With code, an object's (n, flen_bytes)
    codeword or a stack of them, the source rows of object c are compared
    with those of code[objs[c]] (code[c] where objs is None).  Returns the
    first object that differs, decoded; the objects after it are not
    decoded.  Returns the object count if none differs or code is None.
    One C call does all of it (gf256.decode_check); without the C kernel
    _source_rows and the numpy product do.  Symbolic backend: frags is
    unused and None comes back.
    """
    labels = _labels(read, params)
    if params.backend == "symbolic":
        return None
    if gf256.compiled():
        return gf256.decode_check(labels, frags, code, objs)
    k, stack = params.k, frags if frags.ndim == 3 else frags[None]
    refs = None if code is None else code.reshape(-1, *code.shape[-2:])
    # systematic preference: source rows are used as they are, and the
    # first parity rows stand in for the missing source chunks, so a read
    # of every source row leaves nothing to decode
    key = labels.tobytes()
    missing, C = _source_rows(k, key) if labels[-1] >= k else ((), None)
    for c, obj in enumerate(stack):
        if len(missing):
            obj[missing] = gf256.matmul(C, obj[labels])
        if refs is not None and not np.array_equal(
                obj[:k], refs[c if objs is None else objs[c], :k]):
            return c
    return len(stack)


def encode_rows(frags, efis, params: CodecParams):
    """The fragments of efis, the generator's rows for them times the
    source rows frags[..., :k, :] of an object, (len(efis), flen_bytes), or
    of each object of a stack, (G, len(efis), flen_bytes).  Symbolic
    backend: frags is unused and None comes back."""
    efis = list(efis)
    for e in efis:
        if not 0 <= e < params.n:
            raise ConfigError(f"EFI {e} outside [0, {params.n})")
    if params.backend == "symbolic":
        return None
    return gf256.matmul(_generator(params.n, params.k)[efis],
                        frags[..., : params.k, :])


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _source_rows(k: int, key: bytes) -> tuple:
    """(missing, C) for the k sorted int64 EFIs whose bytes are key: the
    source rows not read, and C (len(missing), k), which takes the rows
    read, in that order, to them.  Both are read-only and neither depends
    on n.  The numpy twin of the kernel's solve (gf256_kernel.c), whose
    comment derives the closed form: with y the missing rows and x the
    parity rows read, log D(j) = sum LOG[j ^ y] - sum LOG[j ^ x], less
    LOG[j] on the parity rows, and C[b, j] = EXP[log D(j) - log D(y_b) -
    LOG[y_b ^ j]].
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
    C = gf256.EXP[(logD[:k] - logD[k:, None] - L[:k, :m].T) % 255]
    y.setflags(write=False)
    C.setflags(write=False)
    return y, C
