"""Run metadata recorded with every result. Everything here is read, never set."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np
import scipy
import scipy.sparse as sp


def matrix_bytes(A):
    """Bytes of the payoff matrix as stored: dense values, or CSR arrays."""
    if sp.issparse(A):
        return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
    return int(A.nbytes)


def operator_bytes(problem):
    """Computed bytes one operator call reads: the payoff twice (A y and A' x)."""
    return 2 * matrix_bytes(problem.structure.A)


def _blas_threads():
    """OpenBLAS's current thread count, asked from the library NumPy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes():
    """Cache sizes in bytes by level, as the kernel reports them for CPU 0."""
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                text = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    return sizes


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def _source_digest(root):
    """sha256 over the package's source files, which names the code measured
    also where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def run_metadata(root, wl, problem):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    seeds = len(wl.run_seeds)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "harness_workers": min(8, seeds) if seeds > 1 else 1,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "payoff_bytes": matrix_bytes(problem.structure.A),
        "cache_bytes": caches,
    }
