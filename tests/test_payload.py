"""The byte stores' payloads: rng.fill_bytes, and the bytes every store holds.

The digests were recorded from stores that drew one Generator.bytes call per
source row (liquid) or per object (advanced), so they pin the payload
streams across changes to how the stores fill them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidsim import advanced_liquid, liquid, rng


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def _payload():
    return rng.stream(7, 0, rng.SUB_PAYLOAD)


# (N, beta, flen_bytes, variant, eps) -> SHA-256 prefixes of (code, frags).
# Rows of one 32-bit word and k = 7, r = 3 make an odd total word count.
LIQUID = {
    (10, 0.2, 1, "periodic", 0.0): ("3481450135fdc399", "7c0d671a54b5f32b"),
    (10, 0.3, 3, "periodic", 0.0): ("d5a952024e07ba2e", "69929a0e7c9be89e"),
    (10, 0.3, 5, "periodic", 0.0): ("28478c63c4347d2b", "4336a137b29f17dc"),
    (10, 0.2, 7, "periodic", 0.0): ("692d935daa24cc94", "5e5d7b36bb63a462"),
    (20, 0.2, 11, "poisson", 0.5): ("84aeba2d391f1da8", "259e3ba444f17029"),
    (10, 0.3, 13, "periodic", 0.0): ("f2596b40b733d533", "1dcbb1d4b4b521da"),
    (10, 0.3, 1, "periodic", 0.0): ("ba7b48071b5b2809", "6d339752cc9cd73a"),
    # the benchmark's liquid-periodic-byte store
    (100, 0.1, 12500, "periodic", 0.0): ("e1ccc8552f473bd9", "e72fbeeedea6f035"),
}

# (N, r, flen_bytes, variant, eps) -> the same; all but the first draw an
# odd number of words, the last is the benchmark's advanced-poisson-byte store
ADVANCED = {
    (8, 2, 1, "periodic", 0.0): ("4f0a031765207cc6", "3e1f09838760f5fd"),
    (7, 3, 3, "periodic", 0.0): ("95aa0e3d6d5b949c", "519b5637aa890d1a"),
    (9, 3, 5, "poisson", 0.3): ("64f6212885d4edc8", "5d7c3b923a103809"),
    (7, 3, 7, "periodic", 0.0): ("85f099a53c175c7d", "f2eea4d700514ba1"),
    (40, 8, 32, "poisson", 0.9): ("bf3296b56778c00d", "78eb28208b7f2057"),
}


@pytest.mark.parametrize("case", list(LIQUID), ids=str)
def test_liquid_store_payload_pinned(case):
    N, beta, fb, variant, eps = case
    k = round((1 - beta) * N)
    count = N - k if variant == "periodic" else int((1 - eps / 2) * (N - k))
    clen = count * fb * 8
    _, lay = liquid.liquid_store(k * clen, N, clen, beta, variant=variant,
                                 eps=eps, backend="byte", payload_rng=_payload())
    assert lay.code.shape == (count, N, fb)
    assert (_digest(lay.code), _digest(lay.frags)) == LIQUID[case]


@pytest.mark.parametrize("case", list(ADVANCED), ids=str)
def test_advanced_store_payload_pinned(case):
    N, r, fb, variant, eps = case
    clen = (r * N + r * (r + 1) // 2) * fb * 8
    _, lay = advanced_liquid.advanced_store(
        N, clen, r, variant=variant, eps=eps, backend="byte",
        payload_rng=_payload())
    assert lay.code.shape[-1] == fb
    assert (_digest(lay.code), _digest(lay.frags)) == ADVANCED[case]


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=2),
       rows=st.integers(1, 6), width=st.integers(1, 40),
       chunk=st.integers(1, 200), ahead=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fill_bytes_matches_bytes_row_by_row(lead, rows, width, chunk, ahead,
                                             seed):
    # ahead bytes drawn first: an odd word count leaves a half word held back
    ours, ref = rng.stream(seed, 0, 2), rng.stream(seed, 0, 2)
    ours.bytes(ahead)
    ref.bytes(ahead)
    # out is a strided view inside a larger array, which must stay untouched
    big = np.zeros((*lead, rows + 2, width + 3), dtype=np.uint8)
    out = big[..., 1:-1, 2:-1]
    rng.fill_bytes(ours, out, chunk)
    want = [ref.bytes(width) for _ in range(out.size // width)]
    assert out.tobytes() == b"".join(want)
    assert ours.bytes(9) == ref.bytes(9)       # the streams go on alike
    big[..., 1:-1, 2:-1] = 0
    assert not big.any()
