import ctypes
import logging
import os
import shutil
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


def _matmul_cases(seed):
    """Random (G, X) pairs over the shapes a compiled kernel can get wrong:
    widths off the 32-byte vector step and L = 1, k = 1, all-zero and
    sparse coefficient rows, and non-contiguous operands.  For the gfni
    kernel's blocking: m on and off its 4-row blocks, L on and off its
    32- and 64-byte steps and across its 2048-byte column panels, and the
    liquid decode shape."""
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


def _oracle_decode(fragments, params):
    """The uncached decode: one inv_matrix solve for every call that needs
    parity, the stacked [parity; source] rows in one product."""
    k, fb = params.k, params.flen_bytes
    efis = sorted(fragments)
    have = [e for e in efis if e < k]
    par = [e for e in efis if e >= k][: k - len(have)]
    chunks = {j: fragments[j] for j in have}
    if par:
        missing = [j for j in range(k) if j not in chunks]
        Gp = erasure.generator_rows(params, par)
        Minv = gf256.inv_matrix(Gp[:, missing])
        C = np.concatenate([Minv, gf256.matmul(Minv, Gp[:, have])], axis=1)
        stacked = b"".join(fragments[e] for e in par + have)
        S = gf256.matmul(C, np.frombuffer(stacked, np.uint8).reshape(k, fb))
        chunks.update((j, row.tobytes()) for j, row in zip(missing, S))
    return b"".join(chunks[j] for j in range(k))


def _as_array(fragments, params):
    """{efi: payload} as the (n, flen_bytes) array decode_encode reads."""
    out = np.zeros((params.n, params.flen_bytes), dtype=np.uint8)
    for e, payload in fragments.items():
        out[e] = np.frombuffer(payload, np.uint8)
    return out


def _clear_matrix_caches():
    erasure._decode_matrix.cache_clear()
    erasure._source_rows.cache_clear()


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
        monkeypatch.setattr(gf256, "_build", lambda: built)
        monkeypatch.setattr(gf256, "KERNEL", None)
        monkeypatch.setattr(gf256, "_lib", None)
        for G, X in _matmul_cases(5):
            assert np.array_equal(gf256.matmul(G, X), gf256._matmul_numpy(G, X))
        assert gf256.KERNEL == ("avx2" if _runnable("avx2") else "scalar")

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


@st.composite
def fused_cases(draw):
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
    """decode_encode against encode(oracle decode): the cached matrices
    and the one product must give the uncached path's bytes."""

    @staticmethod
    def check(case):
        p, obj, subset, efis = case
        given_frags = erasure.encode(obj, subset, p)
        want = _oracle_decode(given_frags, p)
        assert want == obj
        given = _as_array(given_frags, p)
        before = given.copy()
        data, frags = erasure.decode_encode(given, subset, efis, p)
        assert np.array_equal(given, before)    # built in its own buffer
        assert data.shape == (p.k, p.flen_bytes) and data.tobytes() == want
        assert frags.shape == (len(efis), p.flen_bytes)
        assert ({e: row.tobytes() for e, row in zip(efis, frags)}
                == erasure.encode(want, efis, p))
        assert erasure.decode(given_frags, p) == want

    @settings(max_examples=200, deadline=None, database=None)
    @given(fused_cases())
    def test_matches_oracle(self, case):
        self.check(case)

    @settings(max_examples=40, deadline=None, database=None)
    @given(fused_cases())
    def test_matches_oracle_on_numpy_kernel(self, case):
        with mock.patch.object(gf256, "_lib", None), \
                mock.patch.object(gf256, "KERNEL", "numpy"):
            _clear_matrix_caches()      # build the matrices on numpy too
            try:
                self.check(case)
            finally:
                _clear_matrix_caches()

    @settings(max_examples=100, deadline=None, database=None)
    @given(fused_cases(), st.integers(1, 5))
    def test_stack_matches_one_object_at_a_time(self, case, G):
        # G objects read at the same EFIs share the matrix and the product
        p, obj, subset, efis = case
        rows = np.frombuffer(obj, np.uint8).reshape(p.k, p.flen_bytes)
        stack = np.stack([_as_array(erasure.encode((rows ^ g).tobytes(),
                                                   range(p.n), p), p)
                          for g in range(G)])
        data, frags = erasure.decode_encode(stack, subset, efis, p)
        assert data.shape == (G, p.k, p.flen_bytes)
        assert frags.shape == (G, len(efis), p.flen_bytes)
        for g in range(G):
            one = erasure.decode_encode(stack[g], subset, efis, p)
            assert np.array_equal(data[g], one[0])
            assert np.array_equal(frags[g], one[1])
            assert np.array_equal(data[g], rows ^ g)

    def test_cached_matrix_is_read_only(self):
        for efis in ((), (1, 9)):
            slots, missing, M = erasure._decode_matrix(10, 6, (0, 2, 3),
                                                       (7, 8, 9), efis)
            assert (slots, missing) == ((0, 7, 2, 3, 8, 9), (1, 4, 5))
            assert M.shape == (3 + len(efis), 6)
            with pytest.raises(ValueError):
                M[0] ^= 1

    def test_efis_validated(self):
        p = erasure.make_codec(6, 4, 32, backend="byte")
        frags = _as_array(erasure.encode(bytes(16), range(6), p), p)
        for bad in (6, -1):
            with pytest.raises(ConfigError):
                erasure.decode_encode(frags, (0, 1, 4, 5), [bad], p)

    def test_symbolic(self):
        p = erasure.make_codec(6, 4, 32, backend="symbolic")
        assert erasure.decode_encode(None, range(4), [5], p) == (None, None)
        with pytest.raises(DecodeError):
            erasure.decode_encode(None, range(3), [5], p)


class TestMatrixCache:
    def test_poisson_byte_trial_solves_once_per_key(self, monkeypatch):
        # the advanced-poisson-byte benchmark's parameters: N = 40, r = 8,
        # eps = 0.9, 32-byte fragments, 18 failures
        N, r, eps, flen = 40, 8, 0.9, 256
        clen = flen * (r * N + r * (r + 1) // 2)
        cap = int(eps / 2 * N) + 1
        sc = sim_engine.Scenario(
            sysParams=SystemParams(N=N, clen=clen, xlen=(N - cap) * clen,
                                   lam=1.0 / N),
            repairer="advancedLiquid", variant="poisson", codecBackend="byte",
            eps=EpsilonSet(0.1, 0.1, eps), advancedR=r, failureCount=18,
            seed=5)
        solves, keys, decodes = [], set(), [0]
        inv, fused = gf256.inv_matrix, erasure.decode_encode

        def counted_inv(A):
            solves.append(A.shape)
            return inv(A)

        def keyed(frags, read, efis, params):
            used = sorted(read)[: params.k]
            if used[-1] >= params.k:        # decodes that need parity,
                # one per object of a stack
                decodes[0] += len(frags) if frags.ndim == 3 else 1
                keys.add(tuple(used))
            return fused(frags, read, efis, params)

        monkeypatch.setattr(gf256, "inv_matrix", counted_inv)
        monkeypatch.setattr(erasure, "decode_encode", keyed)
        _clear_matrix_caches()
        res = sim_engine.run_trial(sc, 0)
        assert res.recoverableThroughout
        assert 0 < len(solves) <= len(keys)
        assert decodes[0] > 20 * len(solves)    # one solve each, uncached

    def test_cache_stays_bounded(self):
        n, k = 12, 4
        p = erasure.make_codec(n, k, 16, backend="byte")
        obj = bytes(range(k * 2))
        frags = _as_array(erasure.encode(obj, range(n), p), p)
        _clear_matrix_caches()
        subsets = list(combinations(range(n), k))
        assert len(subsets) > erasure.MATRIX_CACHE_SIZE
        for subset in subsets:
            data, _ = erasure.decode_encode(frags, subset, [n - 1], p)
            assert data.tobytes() == obj
        for cache in (erasure._decode_matrix, erasure._source_rows):
            assert cache.cache_info().currsize == erasure.MATRIX_CACHE_SIZE


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
    def test_trial_result_same_on_every_kernel(self, name, monkeypatch):
        sc = _kernel_scenarios()[name]
        gf256.matmul(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8))
        routes = {"numpy": gf256._matmul_numpy}
        for kernel in gf256.C_KERNELS:
            entry = getattr(gf256._lib, f"gf_matmul_{kernel}", None)
            if entry is not None and _runnable(kernel):
                routes[kernel] = (lambda G, X, e=entry: gf256._c_matmul(e, G, X))
        results = {}
        for kernel, route in routes.items():
            monkeypatch.setattr(gf256, "matmul", route)
            _clear_matrix_caches()          # the decode matrices on this kernel too
            try:
                results[kernel] = sim_engine.run_trial(sc, 0)
            finally:
                _clear_matrix_caches()
        if HAVE_CC:
            assert {"numpy", "scalar"} <= set(results)
        assert results["numpy"].recoverableThroughout
        assert results["numpy"].perStepTrace
        for kernel, res in results.items():
            assert res == results["numpy"], kernel
