import contextlib
import ctypes
import logging
import os
import re
import shutil
import subprocess
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidsim import erasure, gf256, rng, sim_engine
from liquidsim.bounds import EpsilonSet, SystemParams
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


# the CPU flags each C entry point needs to run
_KERNEL_FLAGS = {"scalar": set(), "avx2": {"avx2"}, "gfni": {"avx2", "gfni"}}


def _runnable(kernel):
    return _KERNEL_FLAGS[kernel] <= _cpu_flags()


@contextlib.contextmanager
def _on_kernel(kernel):
    """matmul and the byte decode on one kernel: "numpy" (the decode then
    runs gf256's numpy path) or a C kernel."""
    gf256.compiled()
    with contextlib.ExitStack() as stack:
        if kernel == "numpy":
            stack.enter_context(mock.patch.object(gf256, "_lib", None))
        stack.enter_context(mock.patch.object(gf256, "KERNEL", kernel))
        yield


def _kernels():
    """numpy and each runnable C kernel of the loaded object."""
    gf256.compiled()
    return ["numpy"] + [k for k in gf256._PRODUCTS if _runnable(k)]


def _matmul_cases(seed):
    """Random (G, X) pairs over the shapes a compiled kernel can get wrong:
    widths off the 32-byte vector step and L = 1, k = 1, all-zero and
    sparse coefficient rows, and non-contiguous operands.  For the gfni
    kernel's blocking: m on and off its 4-row blocks, L on and off its
    32- and 64-byte steps and across its 2048-byte column panels, and the
    liquid decode shape; then stacks of strided objects."""
    g = rng.stream(seed)
    shapes = [(7, 13, 640), (8, 82, 1250), (3, 5, 1), (4, 1, 77), (1, 1, 31),
              (5, 9, 33)]
    shapes += [tuple(int(v) for v in g.integers(1, (10, 20, 200))) for _ in range(20)]
    shapes += [(m, int(g.integers(1, 12)), L) for m in (4, 5, 8, 9)
               for L in (31, 32, 33, 63, 64, 65, 127, 128, 129)]
    shapes += [(5, 7, 2047), (6, 3, 2048 + 64 + 32 + 3), (9, 4, 2 * 2048 + 96),
               (8, 90, 12500)]
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
    # stacks of objects' leading rows, rows L apart and objects further,
    # as encode_rows passes them
    for S, m, k, L in ((3, 5, 7, 33), (1, 4, 9, 64), (4, 9, 21, 32)):
        G = g.integers(0, 256, (m, k)).astype(np.uint8)
        yield G, g.integers(0, 256, (S, k + 2, L)).astype(np.uint8)[:, :k]


def inv_matrix(A: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(256) matrix by Gauss-Jordan on [A | I], the
    oracle for erasure's closed-form solve.

    Each pivot clears its column in every other row with one table lookup
    over the whole augmented matrix.
    """
    k = A.shape[0]
    MUL, INV = gf256.MUL, gf256.INV
    a = np.concatenate([np.asarray(A, dtype=np.uint8),
                        np.eye(k, dtype=np.uint8)], axis=1)
    for col in range(k):
        nz = np.flatnonzero(a[col:, col])
        if not nz.size:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        piv = col + int(nz[0])
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        a[col] = MUL[INV[a[col, col]], a[col]]
        f = a[:, col].copy()
        f[col] = 0
        a ^= MUL[f[:, None], a[col]]
    return a[:, k:].copy()


def _codeword(obj, params):
    """The (n, flen_bytes) codeword of an object of k * flen_bytes bytes."""
    rows = np.frombuffer(obj, np.uint8).reshape(params.k, params.flen_bytes)
    return erasure.encode_rows(rows, range(params.n), params)


def _decode(code, read, params):
    """The object decoded in place from the rows read of a codeword, the
    other rows zero, as k * flen_bytes bytes."""
    frags = np.zeros_like(code)
    frags[read] = code[read]
    erasure.decode_in_place(frags, read, params)
    return frags[: params.k].tobytes()


def _gather_decode(frags, read, efis, params):
    """The uncached gather decode of one (n, flen_bytes) object: (object,
    fragments of efis).  The k lowest EFIs of read are gathered, the known
    source rows taken out of the stand-in parity rows, and the rest solved
    by inv_matrix, all on the numpy kernel."""
    k, mm = params.k, gf256._matmul_numpy
    labels = sorted(read)[:k]
    have = [e for e in labels if e < k]
    par = [e for e in labels if e >= k]
    missing = [j for j in range(k) if j not in have]
    gen = erasure._generator(params.n, k)
    obj = np.zeros((k, params.flen_bytes), dtype=np.uint8)
    obj[have] = frags[have]
    if par:
        known = mm(gen[np.ix_(par, have)], frags[have])
        obj[missing] = mm(inv_matrix(gen[np.ix_(par, missing)]),
                          frags[par] ^ known)
    return obj, mm(gen[list(efis)], obj)


@st.composite
def in_place_cases(draw):
    """(params, G, read, efis, seed): a read set of at least k EFIs, random,
    holding every source row or parity rows only; widths off the 4-byte
    word; k = 1; G objects in a (G, n, flen_bytes) stack, or one object
    when G is None."""
    n = draw(st.integers(1, 48))
    k = draw(st.just(1) | st.integers(1, n))
    perm = draw(st.permutations(range(n)))
    parity = [e for e in perm if e >= k]
    extra = draw(st.integers(0, n - k))
    kind = draw(st.sampled_from(("random", "no missing", "all parity")))
    if kind == "no missing":
        read = list(range(k)) + parity[:extra]
    elif kind == "all parity" and len(parity) >= k:
        read = parity[: k + extra]
    else:
        read = perm[: k + extra]
    fb = draw(st.integers(1, 9))
    G = draw(st.none() | st.integers(1, 3))
    efis = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return erasure.make_codec(n, k, 8 * fb, backend="byte"), G, read, efis, seed


def _check_in_place(case):
    """decode_in_place, then encode_rows, on a stack whose unread rows
    hold garbage: the source rows come back as the object, the other rows
    untouched, and the fragments as the gather oracle's."""
    p, G, read, efis, seed = case
    g = rng.stream(seed)
    objs = g.integers(0, 256, (G or 1, p.k, p.flen_bytes), dtype=np.uint8)
    gen = erasure._generator(p.n, p.k)
    code = np.stack([gf256._matmul_numpy(gen, o) for o in objs])
    unread = np.setdiff1d(range(p.n), read)
    code[:, unread] = g.integers(0, 256, (len(objs), len(unread), p.flen_bytes),
                                 dtype=np.uint8)
    frags = code.copy() if G else code[0].copy()
    erasure.decode_in_place(frags, read, p)
    out = erasure.encode_rows(frags, efis, p)
    if G is None:
        frags, out = frags[None], out[None]
    assert out.shape == (len(objs), len(efis), p.flen_bytes)
    for i, obj in enumerate(objs):
        want, enc = _gather_decode(code[i], read, efis, p)
        assert np.array_equal(want, obj)
        assert np.array_equal(frags[i, : p.k], obj)
        assert np.array_equal(frags[i, p.k:], code[i, p.k:])
        assert np.array_equal(out[i], enc)


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
            assert gf256.KERNEL in gf256.C_KERNELS

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    @pytest.mark.parametrize("kernel", [
        "scalar",
        pytest.param("avx2", marks=pytest.mark.skipif(
            not _runnable("avx2"), reason="CPU lacks AVX2")),
        pytest.param("gfni", marks=pytest.mark.skipif(
            not _runnable("gfni"), reason="CPU lacks GFNI or AVX2")),
    ])
    def test_c_entry_points_agree(self, kernel):
        gf256.matmul(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8))
        entry = getattr(gf256._lib, f"gf_matmul_{kernel}")
        for G, X in _matmul_cases(3):
            assert np.array_equal(gf256._c_matmul(entry, G, X),
                                  gf256._matmul_numpy(G, X))

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    @pytest.mark.skipif(not _cpu_flags(), reason="no CPU flags to check against")
    def test_dispatch_follows_cpu_flags(self):
        gf256.matmul(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8))
        want = next(k for k in ("gfni", "avx2", "scalar") if _runnable(k))
        assert gf256.KERNEL == want

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    def test_build_without_gfni_support(self, tmp_path, monkeypatch, caplog):
        # a compiler that rejects the GFNI kernel still builds the others,
        # says why, and does not keep a later full build from being used
        path, real, bindir = os.environ["PATH"], shutil.which("cc"), tmp_path / "bin"
        bindir.mkdir()
        (bindir / "cc").write_text(
            '#!/bin/sh\ncase " $* " in *" -DGF_NO_GFNI "*) exec '
            f'"{real}" "$@";; esac\necho "no gfni here" >&2\nexit 1\n')
        (bindir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{path}")
        monkeypatch.setenv("HOME", str(tmp_path))      # an empty build cache
        with caplog.at_level(logging.WARNING, logger="liquidsim.gf256"):
            built = gf256._build()
        assert "no gfni here" in caplog.text
        monkeypatch.setenv("PATH", path)
        assert gf256._build().name != built.name       # not the cached object
        lib = ctypes.CDLL(str(built))
        assert not hasattr(lib, "gf_matmul_gfni")
        assert hasattr(lib, "gf_matmul_scalar")
        assert hasattr(lib, "gf_decode_check")
        monkeypatch.setattr(gf256, "_build", lambda: built)
        monkeypatch.setattr(gf256, "KERNEL", None)
        monkeypatch.setattr(gf256, "_lib", None)
        monkeypatch.setattr(gf256, "_PRODUCTS", {})
        for G, X in _matmul_cases(5):
            assert np.array_equal(gf256.matmul(G, X), gf256._matmul_numpy(G, X))
        assert gf256.KERNEL == ("avx2" if _runnable("avx2") else "scalar")
        # the decode entry of that object, against the numpy path
        p = erasure.make_codec(20, 12, 8 * 45, backend="byte")
        obj = bytes(i % 251 for i in range(12 * 45))
        code = _codeword(obj, p)
        frags = code.copy()
        frags[[0, 5, 6, 17]] = 0
        assert erasure.decode_in_place(frags, [1, 2, 3, 4, 7, 8, 9, 10, 11,
                                               12, 13, 14], p, code) == 1
        assert np.array_equal(frags[:12], code[:12])

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
                Ainv = inv_matrix(A)
            except np.linalg.LinAlgError:
                continue  # random matrix may be singular; that is fine
            assert np.array_equal(gf256.matmul(Ainv, B), S)
        A = g.integers(0, 256, (5, 5)).astype(np.uint8)
        A[3] = A[1]
        with pytest.raises(np.linalg.LinAlgError):
            inv_matrix(A)


class TestCodecConstruction:
    def test_replication_code(self):
        # (3,1): every fragment equals the object
        p = erasure.make_codec(3, 1, 64, backend="byte")
        obj = np.arange(8, dtype=np.uint8)[None]
        frags = erasure.encode_rows(obj, [0, 1, 2], p)
        for e in range(3):
            assert np.array_equal(frags[e], obj[0])

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
        assert _decode(_codeword(obj, p), range(4), p) == obj

    def test_mds_exhaustive_small(self):
        # every k-subset of a (12,8) code decodes, on the numpy path and on
        # each compiled kernel; C(12,8) = 495 subsets
        n, k = 12, 8
        p = erasure.make_codec(n, k, 64, backend="byte")
        obj = bytes(rng.stream(5).integers(0, 256, k * 8).astype(np.uint8))
        code = _codeword(obj, p)
        kernels = _kernels()
        if HAVE_CC:
            assert {"numpy", "scalar"} <= set(kernels)
        for kernel in kernels:
            count = 0
            with _on_kernel(kernel):
                for subset in combinations(range(n), k):
                    assert _decode(code, list(subset), p) == obj, kernel
                    count += 1
            assert count == 495

    def test_fewer_than_k_rejected(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        code = _codeword(bytes(16), p)
        with pytest.raises(DecodeError):
            erasure.decode_in_place(code, range(3), p)

    def test_mds_randomized_larger(self):
        n, k = 40, 30
        p = erasure.make_codec(n, k, 64, backend="byte")
        g = rng.stream(6)
        obj = bytes(g.integers(0, 256, k * 8).astype(np.uint8))
        code = _codeword(obj, p)
        for _ in range(200):
            subset = g.permutation(n)[:k]
            assert _decode(code, subset, p) == obj

    def test_regenerate_matches_encode(self):
        p = erasure.make_codec(10, 6, 40, backend="byte")
        g = rng.stream(7)
        obj = bytes(g.integers(0, 256, 30).astype(np.uint8))
        code = _codeword(obj, p)
        for target in range(10):
            keep = [e for e in range(10) if e != target][:6]
            rows = np.frombuffer(_decode(code, keep, p), np.uint8).reshape(6, 5)
            rebuilt = erasure.encode_rows(rows, [target], p)
            assert np.array_equal(rebuilt[0], code[target])


@st.composite
def round_trip_cases(draw):
    """(params, object, k-subset of EFIs, EFIs to re-encode), source and
    parity EFIs mixed."""
    n = draw(st.integers(1, 64))
    k = draw(st.integers(1, n))
    fb = draw(st.integers(1, 8))
    subset = draw(st.permutations(range(n)))[:k]
    efis = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    obj = bytes(rng.stream(seed).integers(0, 256, k * fb).astype(np.uint8))
    return erasure.make_codec(n, k, 8 * fb, backend="byte"), obj, subset, efis


class TestFusedDecode:
    """decode_in_place, then encode_rows, against the encode of the
    oracle's decode: the closed-form matrix and the products must give the
    gather decode's bytes."""

    @staticmethod
    def check(case):
        p, obj, subset, efis = case
        code = _codeword(obj, p)
        given = np.zeros_like(code)
        given[subset] = code[subset]
        want = _gather_decode(given, subset, (), p)[0]
        assert want.tobytes() == obj
        before = given.copy()
        erasure.decode_in_place(given, subset, p)
        frags = erasure.encode_rows(given, efis, p)
        # decoded in place: the source rows hold the object, parity is as given
        assert np.array_equal(given[: p.k], want)
        assert np.array_equal(given[p.k:], before[p.k:])
        assert frags.shape == (len(efis), p.flen_bytes)
        assert np.array_equal(frags, code[efis])

    @settings(max_examples=200, deadline=None, database=None)
    @given(round_trip_cases())
    def test_matches_oracle(self, case):
        self.check(case)

    @settings(max_examples=40, deadline=None, database=None)
    @given(round_trip_cases())
    def test_matches_oracle_on_numpy_kernel(self, case):
        with _on_kernel("numpy"):
            self.check(case)

    @settings(max_examples=300, deadline=None, database=None)
    @given(in_place_cases())
    def test_in_place_matches_gather_oracle(self, case):
        _check_in_place(case)

    @settings(max_examples=100, deadline=None, database=None)
    @given(round_trip_cases(), st.integers(1, 5))
    def test_stack_matches_one_object_at_a_time(self, case, G):
        # G objects read at the same EFIs share the matrix and each product
        p, obj, subset, efis = case
        rows = np.frombuffer(obj, np.uint8).reshape(p.k, p.flen_bytes)
        stack = erasure.encode_rows(np.stack([rows ^ g for g in range(G)]),
                                    range(p.n), p)
        stack[:, np.setdiff1d(range(p.n), subset)] = 0     # erased
        before = stack.copy()
        erasure.decode_in_place(stack, subset, p)
        frags = erasure.encode_rows(stack, efis, p)
        assert frags.shape == (G, len(efis), p.flen_bytes)
        for g in range(G):
            one = before[g].copy()
            erasure.decode_in_place(one, subset, p)
            assert np.array_equal(frags[g], erasure.encode_rows(one, efis, p))
            assert np.array_equal(stack[g], one)
            assert np.array_equal(stack[g, : p.k], rows ^ g)

    def test_cached_matrix_is_read_only(self):
        missing, M = gf256._source_rows(np.array([0, 2, 3, 7, 8, 9]))
        assert missing.tolist() == [1, 4, 5]
        # a column per row read, in the order of the labels; the parity
        # rows read all stand in, so their columns have no zero
        assert M.shape == (3, 6)
        assert M[:, 3:].all()
        missing, M = gf256._source_rows(np.array([0, 1, 3, 4, 5, 7]))
        assert missing.tolist() == [2] and M.shape == (1, 6)
        # the cached generator encode_rows takes its rows from is read-only
        with pytest.raises(ValueError):
            erasure._generator(10, 6)[0] ^= 1

    def test_efis_validated(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        frags = _codeword(bytes(16), p)
        erasure.decode_in_place(frags, (0, 1, 4, 5), p)
        for bad in (6, -1):
            with pytest.raises(ConfigError):
                erasure.encode_rows(frags, [bad], p)


def _decode_cases():
    """(n, k, m, L, count): k from 1 to the field's 255 with m = 0..9
    missing source rows where n <= 256 allows, L on and off the 32- and
    64-byte steps and across the 2048-byte column panels, one object or a
    stack of three."""
    widths = (1, 20, 31, 32, 33, 64, 2047, 2048, 2049, 12500)
    i = 0
    for k in (1, 21, 90, 255):
        for m in range(min(k, 256 - k, 9) + 1):
            n = min(256, k + m + i % 3)     # up to two parity rows not read
            yield n, k, m, widths[i % len(widths)], (1, 3)[i // 2 % 2]
            i += 1


_ALL_KERNELS = [
    "numpy",
    pytest.param("scalar", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C compiler 'cc' on PATH")),
    pytest.param("avx2", marks=pytest.mark.skipif(
        not (HAVE_CC and _runnable("avx2")), reason="no AVX2 kernel")),
    pytest.param("gfni", marks=pytest.mark.skipif(
        not (HAVE_CC and _runnable("gfni")), reason="no GFNI kernel")),
]


class TestDecodeCheck:
    """decode_in_place with the codewords, one call per decode: on each
    kernel, the decoded bytes and the first object that differs are those
    of the numpy path."""

    @staticmethod
    def stack(n, k, m, L, count, seed):
        """(params, frags, code, objs, read): count objects read at k
        labels, m of them parity rows standing in for m source rows, the
        rows not read zero, and their codewords in a shuffled stack, objs
        the index of each object's codeword."""
        g = rng.stream(seed)
        p = erasure.make_codec(n, k, 8 * L, backend="byte")
        gen = erasure._generator(n, k)
        objs = g.permutation(count)
        code = np.empty((count, n, L), dtype=np.uint8)
        for c in range(count):
            code[c] = gf256.matmul(gen, g.integers(0, 256, (k, L), np.uint8))
        missing = g.choice(k, m, replace=False)
        read = np.concatenate((np.setdiff1d(range(k), missing),
                               g.choice(np.arange(k, n), m, replace=False)))
        frags = code[objs] * np.isin(range(n), read)[:, None].astype(np.uint8)
        return p, frags, code, objs, g.permutation(read)

    @staticmethod
    def flips(p, frags, code, objs, read):
        """(name, frags, code, the index decode must return) for the clean
        stack and one flipped byte each."""
        k, count, L = p.k, len(frags), frags.shape[-1]
        yield "clean", frags, code, count
        for name, row, col in (("first row", 0, 0),
                               ("last row", k - 1, L // 2),
                               ("tail", k - 1, L - 1)):
            bad = code.copy()
            bad[objs[0], row, col] ^= 0x10
            yield name, frags, bad, 0
        # a read row feeding the decoded rows, or a read source row
        bad = frags.copy()
        bad[0, max(read), L - 1] ^= 1
        yield "read row", bad, code, 0
        if count > 1:
            bad = code.copy()
            bad[objs[1], k - 1, L - 1] ^= 1
            yield "second object", frags, bad, 1

    @pytest.mark.parametrize("kernel", _ALL_KERNELS)
    def test_matches_numpy_path(self, kernel):
        for i, (n, k, m, L, count) in enumerate(_decode_cases()):
            p, frags, code, objs, read = self.stack(n, k, m, L, count, 40 + i)
            for name, given, ref, want in self.flips(p, frags, code, objs,
                                                     read):
                case = (n, k, m, L, count, name)
                with _on_kernel("numpy"):
                    oracle = given.copy()
                    assert erasure.decode_in_place(oracle, read, p, ref,
                                                   objs) == want, case
                got = given.copy()
                with _on_kernel(kernel):
                    assert erasure.decode_in_place(got, read, p, ref,
                                                   objs) == want, case
                assert np.array_equal(got, oracle), case
                if name == "clean":
                    assert np.array_equal(got[:, :k], code[objs, :k]), case
                    # one object, its own codeword, objs left out
                    one = given[0].copy()
                    with _on_kernel(kernel):
                        assert erasure.decode_in_place(
                            one, read, p, code[objs[0]]) == 1, case
                    assert np.array_equal(one, got[0]), case

    @pytest.mark.parametrize("kernel", _ALL_KERNELS)
    def test_matrix_exact(self, kernel):
        # with L = k and the row read j-th the unit vector e_j, the decoded
        # rows are the decode matrix itself, here against _source_rows
        g = rng.stream(41)
        sizes = [(2, 1), (256, 128), (256, 255), (255, 127), (256, 1)]
        sizes += [(int(n), int(g.integers(1, n)))
                  for n in g.integers(2, 257, 150)]
        for n, k in sizes:
            p = erasure.make_codec(n, k, 8 * k, backend="byte")
            m = int(g.integers(0, min(k, n - k) + 1))
            missing = g.choice(k, m, replace=False)
            labels = np.sort(np.concatenate((
                np.setdiff1d(range(k), missing),
                g.choice(np.arange(k, n), m, replace=False))))
            frags = np.zeros((n, k), dtype=np.uint8)
            frags[labels, range(k)] = 1
            with _on_kernel(kernel):
                assert erasure.decode_in_place(frags, labels, p) == 1
            want_missing, C = gf256._source_rows(labels)
            assert np.array_equal(frags[want_missing], C), (n, k, m)

    @pytest.mark.parametrize("kernel", _ALL_KERNELS)
    def test_bad_efis_rejected_before_any_product(self, kernel):
        p = erasure.make_codec(6, 3, 32, backend="byte")
        g = _codeword(bytes(range(12)), p)
        with _on_kernel(kernel):
            for read in ([2, 4, 4], [-1, 4, 5], [0, 1, 7], [0, 1, 6],
                         [3, 3, 4, 5]):
                given = g.copy()
                given[[0, 1]] = 0
                before = given.copy()
                with pytest.raises(DecodeError):
                    erasure.decode_in_place(given, read, p, g)
                assert np.array_equal(given, before), read
            given = g.copy()
            given[[0, 2, 3]] = 0
            assert erasure.decode_in_place(given, [1, 4, 5], p, g) == 1
            assert given[:3].tobytes() == bytes(range(12))

    @pytest.mark.parametrize("kernel", _ALL_KERNELS)
    def test_bad_arguments_rejected_before_any_product(self, kernel):
        # codeword indices out of range, a codeword of another width and a
        # non-contiguous stack raise on the numpy path as in the kernel
        p = erasure.make_codec(6, 3, 32, backend="byte")
        g = rng.stream(19)
        code = erasure.encode_rows(
            g.integers(0, 256, (2, 3, 4), dtype=np.uint8), range(6), p)
        frags = code.copy()
        frags[:, [0, 4, 5]] = 0
        wide = np.zeros((2, 6, 8), dtype=np.uint8)
        wide[:, :, ::2] = frags
        cases = [(frags, code, [0, -1]), (frags, code, [0, 2]),
                 (frags, np.zeros((2, 6, 5), np.uint8), None),
                 (wide[:, :, ::2], code, None)]
        with _on_kernel(kernel):
            for given, ref, objs in cases:
                base = given.base if given.base is not None else given
                before = base.copy()
                with pytest.raises(ValueError):
                    erasure.decode_in_place(given, [1, 2, 3], p, ref, objs)
                assert np.array_equal(base, before), objs
            assert erasure.decode_in_place(frags, [1, 2, 3], p, code,
                                           [0, 1]) == 2
        assert np.array_equal(frags[:, :4], code[:, :4])

    def test_max_n_matches_kernel_buffers(self):
        # the kernel's fixed buffers are sized for the byte backend's n
        define = re.search(r"^#define GF_MAX_N (\d+)",
                           gf256._SOURCE.read_text(), re.MULTILINE)
        assert int(define.group(1)) == erasure.MAX_BYTE_N

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    def test_kernel_entry_rejects_bad_input(self):
        # the C entry indexes memory by label and codeword index, so it
        # checks them itself, before any product
        p, frags, code, objs, read = self.stack(12, 5, 3, 40, 3, 7)
        labels = np.sort(read)
        assert gf256.compiled()
        bad = [(labels[::-1], code, objs), (labels + 7, code, objs),
               (np.r_[labels[:-1], labels[-2]], code, objs),
               (labels, code, objs + 1), (labels, code, -objs - 1),
               (labels, code[:2], None), (labels, code, objs[:2]),
               (labels, code[:, :, :39], objs)]
        for case in bad:
            given = frags.copy()
            with pytest.raises(ValueError):
                gf256.decode_check(case[0], given, *case[1:])
            assert np.array_equal(given, frags)
        with pytest.raises(ValueError):
            gf256.decode_check(labels, frags[:, :, ::2], code, objs)
        assert gf256.decode_check(labels, frags, code, objs) == 3

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
    @pytest.mark.parametrize("flags", [(), ("-DGF_NO_GFNI",)])
    def test_kernel_compiles_without_warnings(self, flags):
        done = subprocess.run(
            [shutil.which("cc"), "-O2", "-Wall", "-Wextra", "-Werror",
             "-fsyntax-only", *flags, str(gf256._SOURCE)],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestClosedFormSolve:
    def test_matches_gauss_jordan(self):
        # the whole matrix for source rows have and parity rows par read,
        # at n up to 256, including the largest square blocks, m = 0 and
        # k = 1: a column per row read, the inverse of G[par][:, missing]
        # times G[par] on the source rows read, the inverse on the parity
        # rows
        g = rng.stream(13)
        sizes = [(2, 1), (256, 1), (256, 128), (256, 255), (255, 127),
                 (20, 6), (9, 1), (100, 1)]
        sizes += [(int(n), int(g.integers(1, n)))
                  for n in g.integers(2, 257, 30)]
        for n, k in sizes:
            gen = erasure._generator(n, k)
            top = min(k, n - k)
            for m in (0, 1, top, *g.integers(1, top + 1, 6)):
                par = sorted(g.choice(np.arange(k, n), m, replace=False).tolist())
                missing = sorted(g.choice(k, m, replace=False).tolist())
                labels = sorted(set(range(k)).difference(missing)) + par
                got_missing, C = gf256._source_rows(np.array(labels))
                assert got_missing.tolist() == missing
                full = np.zeros((m, n), dtype=np.uint8)
                if m:
                    Minv = inv_matrix(gen[np.ix_(par, missing)])
                    full[:, :k] = gf256._matmul_numpy(Minv, gen[par])
                    full[:, par] = Minv
                assert np.array_equal(C, full[:, labels]), (n, k, par, missing)


class TestSymbolicCodec:
    def test_differential_verdicts(self):
        # a byte decode succeeds, with the object's bytes, exactly for the
        # subsets of at least k EFIs, the symbolic backend's verdict
        n, k = 9, 5
        pb = erasure.make_codec(n, k, 24, backend="byte")
        obj = bytes(rng.stream(8).integers(0, 256, 15).astype(np.uint8))
        code = _codeword(obj, pb)
        g = rng.stream(9)
        for _ in range(300):
            m = int(g.integers(0, n + 1))
            subset = [int(e) for e in g.permutation(n)[:m]]
            try:
                byte_ok = _decode(code, subset, pb) == obj
            except DecodeError:
                byte_ok = False
            assert byte_ok == (m >= k)


def _kernel_scenarios():
    """A liquid periodic and an advanced Poisson byte run whose products
    cover 1 to 13 rows, widths off the 32- and 64-byte steps and across a
    2048-byte column panel."""
    liquid_clen = 8 * 6 * 2107
    r, N = 5, 16
    adv_clen = 8 * 37 * (r * N + r * (r + 1) // 2)
    b = int(0.9 / 2 * N + 1e-9) + 1
    F = round((r + 1 + 2 * b) / (2 * N + r + 1) * N)
    return {
        "liquid-periodic": sim_engine.Scenario(
            sysParams=SystemParams(N=20, clen=liquid_clen, xlen=14 * liquid_clen),
            repairer="liquid", variant="periodic", codecBackend="byte",
            failureCount=12, seed=7, collectTrace=True),
        "advanced-poisson": sim_engine.Scenario(
            sysParams=SystemParams(N=N, clen=adv_clen,
                                   xlen=N * adv_clen - F * adv_clen + 1,
                                   lam=1.0 / N),
            repairer="advancedLiquid", variant="poisson", codecBackend="byte",
            eps=EpsilonSet(0.1, 0.1, 0.9), advancedR=r, failureCount=8,
            seed=23, collectTrace=True),
    }


class TestKernelIndependence:
    """A whole byte run does not depend on which kernel computes the
    products: each runnable C entry point and the numpy kernel give the
    same TrialResult, trace included."""

    @pytest.mark.parametrize("name", sorted(_kernel_scenarios()))
    def test_trial_result_same_on_every_kernel(self, name):
        sc = _kernel_scenarios()[name]
        results = {}
        for kernel in _kernels():
            with _on_kernel(kernel):
                results[kernel] = sim_engine.run_trial(sc, 0)
        if HAVE_CC:
            assert {"numpy", "scalar"} <= set(results)
        assert results["numpy"].recoverableThroughout
        assert results["numpy"].perStepTrace
        for kernel, res in results.items():
            assert res == results["numpy"], kernel

    @pytest.mark.parametrize("kernel", _ALL_KERNELS)
    @settings(max_examples=40, deadline=None, database=None)
    @given(case=in_place_cases())
    def test_in_place_decode_on_every_kernel(self, kernel, case):
        with _on_kernel(kernel):
            _check_in_place(case)
