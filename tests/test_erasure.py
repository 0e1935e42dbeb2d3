import logging
import shutil
from itertools import combinations

import numpy as np
import pytest

from liquidsim import erasure, gf256, rng
from liquidsim.errors import ConfigError, DecodeError

HAVE_CC = shutil.which("cc") is not None


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _matmul_cases(seed):
    """Random (G, X) pairs over the shapes a compiled kernel can get wrong:
    widths off the 32-byte vector step and L = 1, k = 1, all-zero and
    sparse coefficient rows, and non-contiguous operands."""
    g = rng.stream(seed)
    shapes = [(7, 13, 640), (8, 82, 1250), (3, 5, 1), (4, 1, 77), (1, 1, 31),
              (5, 9, 33)]
    shapes += [tuple(int(v) for v in g.integers(1, (10, 20, 200))) for _ in range(20)]
    for m, k, L in shapes:
        G = g.integers(0, 256, (m, k)).astype(np.uint8)
        G[0] = 0
        if m > 1:
            G[1] *= (g.random(k) < 0.2).astype(np.uint8)
        X = g.integers(0, 256, (k, L)).astype(np.uint8)
        yield G, X
        # the same product on strided views: G transposed, X every other column
        Xwide = g.integers(0, 256, (k, 2 * L)).astype(np.uint8)
        yield np.asfortranarray(G), Xwide[:, ::2]


class TestField:
    def test_mul_identities(self):
        for a in range(256):
            assert gf256.mul(a, 1) == a
            assert gf256.mul(a, 0) == 0

    def test_inverses(self):
        for a in range(1, 256):
            assert gf256.mul(a, gf256.inv(a)) == 1

    def test_inv_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_mul_commutes_and_distributes(self):
        r = rng.stream(1).integers
        for _ in range(500):
            a, b, c = (int(x) for x in r(0, 256, 3))
            assert gf256.mul(a, b) == gf256.mul(b, a)
            assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)

    def test_matmul_backends_agree(self):
        # the kernel matmul resolves to must equal the numpy reference
        for G, X in _matmul_cases(2):
            assert np.array_equal(gf256.matmul(G, X), gf256._matmul_numpy(G, X))
        if HAVE_CC:
            assert gf256.KERNEL in ("avx2", "scalar")

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    @pytest.mark.parametrize("kernel", [
        "scalar",
        pytest.param("avx2", marks=pytest.mark.skipif(
            "avx2" not in _cpu_flags(), reason="CPU lacks AVX2")),
    ])
    def test_c_entry_points_agree(self, kernel):
        gf256.matmul(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8))
        entry = getattr(gf256._lib, f"gf_matmul_{kernel}")
        for G, X in _matmul_cases(3):
            assert np.array_equal(gf256._c_matmul(entry, G, X),
                                  gf256._matmul_numpy(G, X))

    def test_numpy_fallback_when_build_fails(self, monkeypatch, caplog):
        def no_compiler():
            raise OSError("no C compiler 'cc' on PATH")
        monkeypatch.setattr(gf256, "_build", no_compiler)
        monkeypatch.setattr(gf256, "KERNEL", None)
        monkeypatch.setattr(gf256, "_lib", None)
        with caplog.at_level(logging.WARNING, logger="liquidsim.gf256"):
            for G, X in _matmul_cases(4):
                assert np.array_equal(gf256.matmul(G, X), gf256._matmul_numpy(G, X))
        assert gf256.KERNEL == "numpy"
        assert sum("numpy kernel" in r.getMessage() for r in caplog.records) == 1

    def test_solve_random_systems(self):
        g = rng.stream(3)
        for _ in range(30):
            k = int(g.integers(1, 12))
            A = g.integers(0, 256, (k, k)).astype(np.uint8)
            S = g.integers(0, 256, (k, 8)).astype(np.uint8)
            B = gf256.matmul(A, S)
            try:
                Ainv = gf256.inv_matrix(A)
            except np.linalg.LinAlgError:
                continue  # random matrix may be singular; that is fine
            assert np.array_equal(gf256.matmul(Ainv, B), S)
        A = g.integers(0, 256, (5, 5)).astype(np.uint8)
        A[3] = A[1]
        with pytest.raises(np.linalg.LinAlgError):
            gf256.inv_matrix(A)


class TestCodecConstruction:
    def test_replication_code(self):
        # (3,1): every fragment equals the object
        p = erasure.make_codec(3, 1, 64, backend="byte")
        obj = bytes(range(8))
        frags = erasure.encode(obj, [0, 1, 2], p)
        for e in range(3):
            assert frags[e] == obj

    def test_flen_divisibility(self):
        with pytest.raises(ConfigError):
            erasure.make_codec(4, 2, 63, backend="byte")

    def test_large_n_auto_symbolic(self):
        p = erasure.make_codec(1000, 900, 64)
        assert p.backend == "symbolic"
        with pytest.raises(ConfigError):
            erasure.make_codec(1000, 900, 64, backend="byte")

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            erasure.make_codec(4, 5, 64)


class TestByteCodec:
    def test_roundtrip_systematic(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        obj = bytes(rng.stream(4).integers(0, 256, 16).astype(np.uint8))
        frags = erasure.encode(obj, range(6), p)
        assert erasure.decode({e: frags[e] for e in range(4)}, p) == obj

    def test_mds_exhaustive_small(self):
        # every k-subset of a (12,8) code decodes; C(12,8) = 495 subsets
        n, k = 12, 8
        p = erasure.make_codec(n, k, 64, backend="byte")
        obj = bytes(rng.stream(5).integers(0, 256, k * 8).astype(np.uint8))
        frags = erasure.encode(obj, range(n), p)
        count = 0
        for subset in combinations(range(n), k):
            assert erasure.decode({e: frags[e] for e in subset}, p) == obj
            count += 1
        assert count == 495

    def test_fewer_than_k_rejected(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        obj = bytes(16)
        frags = erasure.encode(obj, range(6), p)
        with pytest.raises(DecodeError):
            erasure.decode({e: frags[e] for e in range(3)}, p)

    def test_mds_randomized_larger(self):
        n, k = 40, 30
        p = erasure.make_codec(n, k, 64, backend="byte")
        g = rng.stream(6)
        obj = bytes(g.integers(0, 256, k * 8).astype(np.uint8))
        frags = erasure.encode(obj, range(n), p)
        for _ in range(200):
            subset = g.permutation(n)[:k]
            assert erasure.decode({int(e): frags[int(e)] for e in subset}, p) == obj

    def test_regenerate_matches_encode(self):
        p = erasure.make_codec(10, 6, 40, backend="byte")
        g = rng.stream(7)
        obj = bytes(g.integers(0, 256, 30).astype(np.uint8))
        frags = erasure.encode(obj, range(10), p)
        for target in range(10):
            sources = {e: frags[e] for e in range(10) if e != target}
            keep = dict(list(sources.items())[:6])
            rebuilt = erasure.encode(erasure.decode(keep, p), [target], p)
            assert rebuilt[target] == frags[target]

    def test_wrong_length_fragment(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        obj = bytes(16)
        frags = erasure.encode(obj, range(6), p)
        short = {**frags, 0: frags[0][:-1]}
        with pytest.raises(DecodeError):
            erasure.decode({e: short[e] for e in range(4)}, p)
        # a short parity fragment standing in for a missing source chunk
        short = {**frags, 5: frags[5][:-1]}
        with pytest.raises(DecodeError):
            erasure.decode({e: short[e] for e in (0, 1, 2, 5)}, p)

    def test_object_length_validated(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        with pytest.raises(ConfigError):
            erasure.encode(bytes(15), [0], p)


class TestSymbolicCodec:
    def test_presence_decode(self):
        p = erasure.make_codec(300, 250, 10, backend="symbolic")
        frags = erasure.encode(None, range(250), p)
        assert erasure.decode(frags, p) is None
        with pytest.raises(DecodeError):
            erasure.decode({e: None for e in range(249)}, p)

    def test_differential_verdicts(self):
        # byte and symbolic must agree on decodability for every subset size
        n, k = 9, 5
        pb = erasure.make_codec(n, k, 24, backend="byte")
        ps = erasure.make_codec(n, k, 24, backend="symbolic")
        obj = bytes(rng.stream(8).integers(0, 256, 15).astype(np.uint8))
        byte_frags = erasure.encode(obj, range(n), pb)
        g = rng.stream(9)
        for _ in range(300):
            m = int(g.integers(0, n + 1))
            subset = [int(e) for e in g.permutation(n)[:m]]
            try:
                erasure.decode({e: byte_frags[e] for e in subset}, pb)
                byte_ok = True
            except DecodeError:
                byte_ok = False
            try:
                erasure.decode({e: None for e in subset}, ps)
                sym_ok = True
            except DecodeError:
                sym_ok = False
            assert byte_ok == sym_ok == (m >= k)
