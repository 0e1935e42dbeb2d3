"""GF(256) arithmetic tables, the product kernel and the byte decode.

Field is GF(2^8) with polynomial 0x11D, generator 2.  matmul(G, X)
multiplies a coefficient matrix into a byte matrix; encode runs on it.
decode_check decodes and verifies a byte repair in one call: it solves the
decode matrix of the EFIs read, multiplies it into the rows read where
they lie, and compares the source rows with the codeword.  Both run a C
kernel from gf256_kernel.c, which picks one of its products (C_KERNELS)
once, at load, from the CPU's flags: ``gfni`` where the CPU has GFNI and
AVX2 (one vgf2p8affineqb per coefficient, the 8x8 bit matrices of
multiplication built from MUL; 4 output rows x 64 bytes per pass over X,
in column panels), else ``avx2`` (split-nibble vpshufb lookup, row by
row), else ``scalar`` (a table lookup per byte).  Each product takes its
rows as tables of row pointers; matmul passes consecutive rows.  The
kernel is built with the system ``cc`` at the first product and cached
per user under ``~/.cache/liquidsim``, keyed by a hash of the source and
the compiler flags; a compiler that rejects the GFNI code builds the other
two, with a warning, into an object that is not reused.  Without a
compiler, or when the build fails, matmul logs that once and runs
_matmul_numpy, the reference every compiled kernel must match byte for
byte, and decode_check runs its numpy twin: _source_rows solves the same
closed form, then the numpy product and np.array_equal follow, object by
object.  Both paths take the same argument checks and stop at the same
object, and the numpy one is the oracle the kernel's is tested against.
This module alone chooses between C and numpy.  KERNEL names the kernel
matmul and decode_check run once it has resolved, and is logged at info
level; the path of the object it was loaded from is logged at debug level.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
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
    out = np.zeros(X.shape[:-2] + (G.shape[0], X.shape[-1]), dtype=np.uint8)
    for i in range(G.shape[0]):
        acc = out[..., i, :]
        for j in range(G.shape[1]):
            c = G[i, j]
            if c:
                acc ^= MUL[c][X[..., j, :]]
    return out


_SOURCE = Path(__file__).with_name("gf256_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

C_KERNELS = ("scalar", "avx2", "gfni")  # the gf_matmul_* entry points
KERNEL = None  # one of C_KERNELS or "numpy", set at the first matmul
_lib = None
_PRODUCTS = {}  # {kernel: address of its C product}, for gf_decode_check


def _build() -> Path:
    """Path of the compiled kernel, built into the cache on first use.

    Concurrent first builds (pool workers) each compile to a temporary
    file and rename it into place, so a reader never sees a partial object.
    A compiler that cannot build the GFNI kernel still builds the others,
    with a warning, into a ``_nogfni`` object that is never looked up: each
    load tries the full build again, so a later one that succeeds is used.
    """
    import hashlib  # here, so that a run with no byte codec never loads it

    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + repr((_CFLAGS, platform.machine())).encode())
    cache = Path.home() / ".cache" / "liquidsim"
    target = cache / f"gf256_{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    import shutil  # only a build needs these
    import subprocess
    import tempfile

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
    global KERNEL, _lib, _PRODUCTS
    try:
        path = _build()
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        log.warning("GF(256) C kernel unavailable (%s); using the numpy kernel", exc)
        KERNEL = "numpy"
        return
    _PRODUCTS = {}
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    for name in C_KERNELS:
        entry = getattr(lib, f"gf_matmul_{name}", None)
        if entry is not None:  # no avx2 off x86, no gfni without compiler support
            entry.argtypes = [ptr, size, size, ptr, ptr, size]
            entry.restype = None
            _PRODUCTS[name] = ctypes.cast(entry, ptr).value
    lib.gf_decode_check.argtypes = [ptr, ptr, size, size, ptr, size, size,
                                    ptr, size, ptr]
    lib.gf_decode_check.restype = size
    lib.gf_init.argtypes = [ptr]
    lib.gf_init.restype = None
    lib.gf_kernel.argtypes = []
    lib.gf_kernel.restype = ctypes.c_char_p
    lib.gf_init(MUL.ctypes.data)
    _lib = lib
    KERNEL = lib.gf_kernel().decode()
    log.info("GF(256) kernel: %s", KERNEL)
    log.debug("GF(256) kernel object: %s", path)


def _rows(a: np.ndarray) -> np.ndarray:
    """The (objects, rows) pointer table of a (objects, rows, L) array
    whose rows are each contiguous."""
    S, R = a.shape[:2]
    offsets = (np.arange(S)[:, None] * a.strides[0]
               + np.arange(R) * a.strides[1])
    return (a.ctypes.data + offsets).astype(np.uintp)


def _address(a: np.ndarray) -> int:
    """The data address of a C-contiguous array: through a ctypes view of
    its buffer, a third of the cost of ndarray.ctypes, where a is writable
    and not empty."""
    if a.flags.writeable and a.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _c_matmul(entry, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Run one C product on G and each (k, L) matrix of X, a 2-d array or
    a 3-d stack, reading X's rows where they lie."""
    G = np.ascontiguousarray(G, dtype=np.uint8)
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim and X.strides[-1] != 1:
        X = np.ascontiguousarray(X)
    stack = X if X.ndim == 3 else X[None]
    if G.ndim != 2 or stack.ndim != 3 or G.shape[1] != stack.shape[1]:
        raise ValueError(f"cannot multiply {G.shape} by {X.shape}")
    (m, k), (S, L) = G.shape, stack.shape[::2]
    out = np.empty((S, m, L), dtype=np.uint8)
    x, o, g = _rows(stack), _rows(out), G.ctypes.data
    xp, op, width = x.ctypes.data, o.ctypes.data, x.itemsize
    for s in range(S):
        entry(g, m, k, xp + s * k * width, op + s * m * width, L)
    return out if X.ndim == 3 else out[0]


def compiled() -> bool:
    """Whether matmul and decode_check run a C kernel, resolving it first."""
    if KERNEL is None:
        _load()
    return _lib is not None


def matmul(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G (m, k) times X (k, L) over GF(256), as a new uint8 (m, L) array;
    X may be a (S, k, L) stack too, and then each of its matrices is, into
    (S, m, L)."""
    if not compiled():
        return _matmul_numpy(G, X)
    return _c_matmul(getattr(_lib, f"gf_matmul_{KERNEL}"), G, X)


def _source_rows(labels: np.ndarray) -> tuple:
    """(missing, C) for the k = len(labels) sorted int64 EFIs read: the
    source rows not read, and C (len(missing), k), which takes the rows
    read, in that order, to them; neither depends on n.  The numpy twin of
    the kernel's solve (gf256_kernel.c), whose comment derives the closed
    form: with y the missing rows and x the parity rows read, log D(j) =
    sum LOG[j ^ y] - sum LOG[j ^ x], less LOG[j] on the parity rows, and
    C[b, j] = EXP[log D(j) - log D(y_b) - LOG[y_b ^ j]].
    """
    k = len(labels)
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
    return y, EXP[(logD[:k] - logD[k:, None] - L[:k, :m].T) % 255]


def _decode_check_numpy(labels, stack, refs, objs) -> int:
    """gf_decode_check on numpy, object by object with the same early
    stop, and the oracle for it: count + 1 on the input it rejects."""
    count, n, _ = stack.shape
    k = len(labels)
    idx = np.arange(count) if objs is None else objs
    if (n > 256 or ((labels < 0) | (labels >= n)).any()
            or (labels[1:] <= labels[:-1]).any()
            or refs is not None and ((idx < 0) | (idx >= len(refs))).any()):
        return count + 1
    # systematic preference: source rows are used as they are, and the
    # parity rows read stand in for the missing source chunks, so a read
    # of every source row leaves nothing to decode
    missing, C = _source_rows(labels) if k and labels[-1] >= k else ((), None)
    for c, obj in enumerate(stack):
        if len(missing):
            obj[missing] = _matmul_numpy(C, obj[labels])
        if refs is not None and not np.array_equal(obj[:k], refs[idx[c], :k]):
            return c
    return count


def decode_check(labels: np.ndarray, X: np.ndarray, code=None,
                 objs=None) -> int:
    """Decode the objects of X in place and compare each with its
    codeword: the first object whose source rows differ (decoded; the
    objects after it are not), or the object count.  One C call does it
    all, or, where matmul runs on numpy, _source_rows and the numpy
    product.

    X is one (n, L) uint8 object or a (count, n, L) stack, C-contiguous and
    indexed by EFI, n <= 256.  labels are the k EFIs read, an int64 array,
    ascending, distinct and below n; the source rows not read are written
    with the decoded chunks.  Object c is compared with code[objs[c]], or
    with code[c] when objs is None, code a C-contiguous (n, L) object or a
    stack of them; with code None nothing is compared.  Anything else
    raises ValueError before any product, on either path.
    """
    stack = X if X.ndim == 3 else X[None]
    count, n, L = stack.shape
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if X.dtype != np.uint8 or not X.flags.c_contiguous:
        raise ValueError(f"cannot decode a {X.dtype} {X.shape} array in place")
    refs, ncode = None, 0
    if code is not None:
        refs = code if code.ndim == 3 else code[None]
        if (code.dtype != np.uint8 or not code.flags.c_contiguous
                or refs.shape[1:] != (n, L)):
            raise ValueError(f"cannot compare {X.shape} with {code.shape}")
        ncode = len(refs)
        if objs is not None:
            objs = np.ascontiguousarray(objs, dtype=np.int64)
            if objs.shape != (count,):
                raise ValueError(f"{len(objs)} codeword indices for "
                                 f"{count} objects")
    if not compiled():
        first = _decode_check_numpy(labels, stack, refs, objs)
    else:
        first = _lib.gf_decode_check(
            _PRODUCTS[KERNEL], _address(labels), len(labels), n, _address(X),
            L, count, None if refs is None else _address(code), ncode,
            None if objs is None else _address(objs))
    if first > count:
        raise ValueError(f"EFIs {labels.tolist()} not ascending, distinct and "
                         f"below n = {n} <= 256, or codeword indices {objs} "
                         f"outside [0, {ncode})")
    return first
