"""MDS erasure codec over encoding fragment ids (EFIs).

An (n, k) object is k*flen source bits carried by up to n fragments of flen
bits each; any k fragments with distinct EFIs decode the object.  make_codec
picks one of two backends:

  byte      systematic Cauchy-style code in GF(256); fragments are real bytes
            in numpy arrays
  symbolic  fragments carry no payload; the repairers only meter them, and
            an object decodes iff k distinct EFIs are present

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
decode_in_place raises DecodeError on an EFI that repeats or lies outside
[0, n) before any product; the kernel checks the k lowest itself, so
valid EFIs cost one sort and one gf256.decode_check call: it solves that
matrix, multiplies it into the rows read where they lie, writes the
decoded source chunks into the caller's array, in the rows they belong
in, and, given the codewords, compares every object's source rows with
its codeword's.  gf256 alone
chooses whether a C kernel or numpy does that.  encode_rows multiplies
generator rows by the k source rows of an object or of each object of a
stack.  The repair steps only decode: they copy rebuilt fragments from
the codewords the repairers store.  Encodes build those codewords, and
liquid's check of every 100th step re-encodes the parity to compare with
its codeword.  Both calls are for the byte backend only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf256
from .errors import ConfigError, DecodeError

MAX_BYTE_N = 256  # field size caps the fragment count of the byte backend


@dataclass(frozen=True)
class CodecParams:
    n: int
    k: int
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
    return CodecParams(n=n, k=k, flen=flen, backend=backend)


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


def _reject(labels: np.ndarray, params: CodecParams) -> None:
    """Raise DecodeError if the sorted EFIs repeat or leave [0, n)."""
    if labels[0] < 0 or labels[-1] >= params.n:
        raise DecodeError(f"EFIs {labels.tolist()} outside [0, {params.n})")
    if (labels[1:] == labels[:-1]).any():
        raise DecodeError(f"EFIs {labels.tolist()} repeat")


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
    Raises DecodeError on fewer than k EFIs, or on one repeated or outside
    [0, n), before any product.  Byte backend only.
    """
    labels = np.sort(np.asarray(read, dtype=np.int64))
    k = params.k
    if len(labels) < k:
        raise DecodeError(f"need {k} fragments, have {len(labels)}")
    # the kernel refuses k lowest EFIs that repeat or are negative; the
    # others, and n, are checked here
    if labels[-1] >= params.n or len(labels) > k and (
            labels[k:] == labels[k - 1:-1]).any():
        _reject(labels, params)
    try:
        return gf256.decode_check(labels[:k], frags, code, objs)
    except ValueError:
        _reject(labels, params)     # the EFIs the kernel refused
        raise


def encode_rows(frags, efis, params: CodecParams):
    """The fragments of efis, the generator's rows for them times the
    source rows frags[..., :k, :] of an object, (len(efis), flen_bytes), or
    of each object of a stack, (G, len(efis), flen_bytes).  Byte backend
    only."""
    efis = list(efis)
    for e in efis:
        if not 0 <= e < params.n:
            raise ConfigError(f"EFI {e} outside [0, {params.n})")
    return gf256.matmul(_generator(params.n, params.k)[efis],
                        frags[..., : params.k, :])
