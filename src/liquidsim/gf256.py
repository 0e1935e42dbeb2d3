"""GF(256) arithmetic tables and the multiply-accumulate kernel.

Field is GF(2^8) with polynomial 0x11D, generator 2.  The hot path is
matmul(G, X): multiply a coefficient matrix into a byte matrix, used by
encode and decode (erasure solves its decode matrices in closed form from
LOG and EXP, so no matrix inverse lives here).  It runs a C kernel from
gf256_kernel.c, which picks one of its entry points (C_KERNELS) once, at
load, from the CPU's flags: ``gfni`` where the CPU has GFNI and AVX2 (one
vgf2p8affineqb per coefficient, the 8x8 bit matrices of multiplication
built from MUL; 4 output rows x 64 bytes per pass over X, in column
panels), else ``avx2`` (split-nibble vpshufb lookup, row by row), else
``scalar`` (a table lookup per byte).  The kernel is built with the system
``cc`` at the first product and cached per user under
``~/.cache/liquidsim``, keyed by a hash of the source and the compiler
flags; a compiler that rejects the GFNI code builds the other two, with a
warning, into an object that is not reused.  Without a compiler, or when
the build fails, matmul logs that once and runs _matmul_numpy, the
reference every compiled kernel must match byte for byte.  KERNEL names the
kernel matmul runs once it has resolved, and is logged at info level; the
path of the object it was loaded from is logged at debug level.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

EXP = np.zeros(512, dtype=np.uint8)
LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    EXP[_i] = _x
    LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
EXP[255:510] = EXP[:255]

# full 256x256 product table; 64 KiB, fits in L2
MUL = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
MUL[1:, 1:] = EXP[LOG[_nz][:, None] + LOG[_nz][None, :]]

INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[_nz]]


def mul(a: int, b: int) -> int:
    return int(MUL[a, b])


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return int(INV[a])


def _matmul_numpy(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = np.zeros((G.shape[0], X.shape[1]), dtype=np.uint8)
    for i in range(G.shape[0]):
        acc = out[i]
        for j in range(G.shape[1]):
            c = G[i, j]
            if c:
                acc ^= MUL[c][X[j]]
    return out


_SOURCE = Path(__file__).with_name("gf256_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

C_KERNELS = ("scalar", "avx2", "gfni")  # the gf_matmul_* entry points
KERNEL = None  # one of C_KERNELS or "numpy", set at the first matmul
_lib = None


def _build() -> Path:
    """Path of the compiled kernel, built into the cache on first use.

    Concurrent first builds (pool workers) each compile to a temporary
    file and rename it into place, so a reader never sees a partial object.
    A compiler that cannot build the GFNI kernel still builds the others,
    with a warning, into a ``_nogfni`` object that is never looked up: each
    load tries the full build again, so a later one that succeeds is used.
    """
    import hashlib  # here, so that a run with no byte codec never loads them
    import subprocess

    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + repr((_CFLAGS, platform.machine())).encode())
    cache = Path.home() / ".cache" / "liquidsim"
    target = cache / f"gf256_{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")

    def compile_to(out, *extra):
        done = subprocess.run([cc, *_CFLAGS, *extra, "-o", out, str(_SOURCE)],
                              capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"cc exited {done.returncode}: {done.stderr.strip()}")

    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        try:
            compile_to(tmp)
        except OSError as exc:
            log.warning("GF(256) GFNI kernel not built (%s); building the "
                        "avx2 and scalar kernels only", exc)
            target = target.with_name(f"{target.stem}_nogfni.so")
            compile_to(tmp, "-DGF_NO_GFNI")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    """Resolve KERNEL: load the C kernel, or fall back to numpy."""
    global KERNEL, _lib
    try:
        path = _build()
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        log.warning("GF(256) C kernel unavailable (%s); using the numpy kernel", exc)
        KERNEL = "numpy"
        return
    args = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
    for name in ("gf_matmul", *(f"gf_matmul_{k}" for k in C_KERNELS)):
        if hasattr(lib, name):  # no avx2 off x86, no gfni without compiler support
            getattr(lib, name).argtypes = args
            getattr(lib, name).restype = None
    lib.gf_init.argtypes = [ctypes.c_void_p]
    lib.gf_init.restype = None
    lib.gf_kernel.argtypes = []
    lib.gf_kernel.restype = ctypes.c_char_p
    lib.gf_init(MUL.ctypes.data)
    _lib = lib
    KERNEL = lib.gf_kernel().decode()
    log.info("GF(256) kernel: %s", KERNEL)
    log.debug("GF(256) kernel object: %s", path)


def _c_matmul(entry, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Run one C entry point on validated, contiguous uint8 operands."""
    G = np.ascontiguousarray(G, dtype=np.uint8)
    X = np.ascontiguousarray(X, dtype=np.uint8)
    if G.ndim != 2 or X.ndim != 2 or G.shape[1] != X.shape[0]:
        raise ValueError(f"cannot multiply {G.shape} by {X.shape}")
    (m, k), L = G.shape, X.shape[1]
    out = np.empty((m, L), dtype=np.uint8)
    entry(G.ctypes.data, m, k, X.ctypes.data, L, out.ctypes.data)
    return out


def matmul(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G (m, k) times X (k, L) over GF(256), as a new uint8 (m, L) array."""
    if KERNEL is None:
        _load()
    if _lib is None:
        return _matmul_numpy(G, X)
    return _c_matmul(_lib.gf_matmul, G, X)

