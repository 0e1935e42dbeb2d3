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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf256
from .errors import ConfigError, DecodeError

MAX_BYTE_N = 256  # field size caps the fragment count of the byte backend


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


_gen_cache: dict = {}


def generator_rows(params: CodecParams, efis) -> np.ndarray:
    """Rows of the generator matrix for the requested EFIs, shape (m, k)."""
    key = (params.n, params.k)
    G = _gen_cache.get(key)
    if G is None:
        n, k = params.n, params.k
        G = np.zeros((n, k), dtype=np.uint8)
        for e in range(k):
            G[e, e] = 1
        for e in range(k, n):
            row = gf256.INV[np.arange(k) ^ e]  # e >= k > j keeps e^j nonzero
            G[e] = gf256.MUL[gf256.INV[row[0]]][row]  # scale so column 0 is 1
        _gen_cache[key] = G
    return G[np.asarray(list(efis), dtype=np.intp)]


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
    efis = sorted(int(e) for e in fragments)
    if len(efis) < params.k:
        raise DecodeError(f"need {params.k} fragments, have {len(efis)}")
    if params.backend == "symbolic":
        return None
    fb, k = params.flen_bytes, params.k
    # systematic preference: source rows are used as they are, and the
    # first parity rows stand in for the missing source chunks
    have = [e for e in efis if e < k]
    par = [e for e in efis if e >= k][: k - len(have)]
    used = {e: fragments[e] for e in have + par}
    for e, frag in used.items():
        if len(frag) != fb:
            raise DecodeError(f"fragment {e} has wrong length")
    if not par:
        return b"".join(used[j] for j in range(k))
    # parity rows P = Gm X_missing ^ Gk X_have, so
    # X_missing = [Gm^-1 | Gm^-1 Gk] [P ; X_have] in one product
    missing = [j for j in range(k) if j not in used]
    Gp = generator_rows(params, par)
    Minv = gf256.inv_matrix(Gp[:, missing])
    C = np.concatenate([Minv, gf256.matmul(Minv, Gp[:, have])], axis=1)
    stacked = b"".join(used[e] for e in par + have)
    S = gf256.matmul(C, np.frombuffer(stacked, dtype=np.uint8).reshape(k, fb))
    # free the stacked rows before joining the output, so the output can
    # reuse their memory: two object-sized buffers freed together get
    # trimmed back to the OS and fault in again on the next decode
    del stacked
    used.update(zip(missing, S))
    return b"".join(used[j] for j in range(k))

