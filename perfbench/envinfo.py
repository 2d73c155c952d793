"""The machine and library facts printed with every benchmark run.

numpy and scipy each bundle their own OpenBLAS, and each starts its own
thread pool, so both builds and both default thread counts are listed.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_config(module) -> str:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError) as exc:  # layout differs by release
        return f"unknown ({type(exc).__name__})"
    return (deps.get("openblas configuration")
            or f"{deps.get('name')} {deps.get('version')}").strip()


def _loaded_blas_threads() -> dict[str, int | None]:
    """Default thread count of every OpenBLAS library mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and ".so" in path:
                    paths.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        count = None
        for sym in _THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                count = int(fn())
                break
        out[os.path.basename(path)] = count
    return out


def collect() -> dict:
    """Environment facts; call after numpy and scipy.linalg are imported."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "blas_threads": _loaded_blas_threads(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def lines(env: dict) -> list[str]:
    """Human-readable block, one fact per line."""
    threads = ", ".join(f"{lib}={n}" for lib, n in env["blas_threads"].items())
    return [
        f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"{env['machine']}",
        f"env cores {env['cpu_count']} (affinity {env['cpu_affinity']})",
        f"env numpy BLAS: {env['numpy_blas']}",
        f"env scipy BLAS: {env['scipy_blas']}",
        f"env BLAS default threads: {threads or 'unknown'}",
        "env thread variables: "
        + (", ".join(f"{k}={v}" for k, v in env["thread_vars"].items()) or "none set"),
    ]
