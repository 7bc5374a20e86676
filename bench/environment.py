"""What a benchmark run records about its machine, libraries and checkout."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys

# the benchmark sets each of these to 1 for its workload processes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy and scipy wheels each bundle their own OpenBLAS copy
_OPENBLAS = {
    "numpy": ("numpy.libs", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")),
    "scipy": ("scipy.libs", ("scipy_openblas_get_num_threads", "openblas_get_num_threads")),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # show_config's layout differs across versions
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _blas_runtime_threads(package: str) -> int | None:
    """Thread count of the OpenBLAS bundled with ``package``, if it can be read."""
    libs_dir, symbols = _OPENBLAS[package]
    module = sys.modules.get(package)
    if module is None:
        return None
    site = os.path.dirname(os.path.dirname(module.__file__))
    for path in glob.glob(os.path.join(site, libs_dir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_environment() -> dict:
    """Environment of the current (workload) process, after numpy/scipy import."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "numpy": {**_blas_build(numpy), "runtime_threads": _blas_runtime_threads("numpy")},
            "scipy": {**_blas_build(scipy), "runtime_threads": _blas_runtime_threads("scipy")},
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def checkout_info(root: str) -> dict:
    """Git commit when the checkout is a git repository, and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "krrdeteq", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}
