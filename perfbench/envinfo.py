"""Environment record for benchmark results, and the source-tree import.

The BLAS thread count is read from the OpenBLAS libraries this process has
actually loaded (found in /proc/self/maps and queried through ctypes), so
no threadpoolctl is needed. numpy and scipy each ship their own OpenBLAS;
both are reported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
_CONFIG_SYMBOLS = ("openblas_get_config", "openblas_get_config64_",
                   "scipy_openblas_get_config", "scipy_openblas_get_config64_")


def import_nxnflow(root: Path):
    """Import nxnflow from ``root/src`` and nowhere else.

    Raises SystemExit when the checkout has no source tree, so a directory
    holding only the benchmark fails instead of measuring an installed copy.
    """
    src = (root / "src").resolve()
    if not (src / "nxnflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nxnflow source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import nxnflow
    if not Path(nxnflow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: nxnflow was imported from {nxnflow.__file__}, not {src}")
    return nxnflow


def _first_symbol(lib, names):
    for name in names:
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def openblas_libraries() -> list[dict]:
    """One entry per loaded OpenBLAS: file name, build config, threads in force."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _first_symbol(lib, _THREAD_SYMBOLS)
        config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if threads is None:
            continue
        threads.restype = ctypes.c_int
        entry = {"library": "/".join(Path(path).parts[-2:]), "threads": int(threads())}
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        out.append(entry)
    return out


def blas_threads(libs: list[dict]) -> int:
    """Threads of numpy's OpenBLAS, which runs the einsum/matmul hot path."""
    for entry in libs:
        if entry["library"].startswith("numpy"):
            return entry["threads"]
    return max((entry["threads"] for entry in libs), default=0)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    import numpy
    import scipy
    libs = openblas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": libs,
        "blas_threads": blas_threads(libs),
        "nproc": nproc(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        # validated by nxnflow.cli.worker_cap() but applied nowhere
        "NXNFLOW_THREADS": os.environ.get("NXNFLOW_THREADS"),
        "machine": platform.machine(),
    }
