"""Process set-up shared by the runner and its fresh-interpreter probes.

``prepare()`` caps BLAS/OpenMP threads at one and puts the checkout's
``src/`` first on ``sys.path``; ``import_tempent()`` then imports the
package and refuses any copy that does not come from that ``src/``.
Both exit with code 2 when the checkout holds no tempent sources.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare() -> None:
    """Cap native threads (before numpy loads) and point imports at src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "tempent" / "__init__.py").is_file():
        die(f"no tempent sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def import_tempent():
    import tempent

    if Path(tempent.__file__).resolve().parent != SRC / "tempent":
        die(f"imported tempent from {tempent.__file__}, not from {SRC}")
    return tempent


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def retain_freed_memory() -> bool:
    """Ask glibc to keep freed memory in the heap instead of returning it.

    Without this, every large numpy temporary is a fresh mapping whose pages
    the kernel must fault in and zero, and whether it can hand out huge
    pages for them varies from run to run.  Returns False where there is no
    glibc mallopt (the runner then measures with the default allocator).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # 32 MiB is glibc's ceiling for the mmap threshold on 64-bit targets
    return bool(
        mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024) and mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    )


def child_env() -> dict:
    """Environment for child interpreters: the same thread caps."""
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


def _cache_sizes() -> dict:
    """Unified/data cache size per level, read from sysfs (None if unreadable)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
            sizes[f"l{level}_bytes"] = int(text.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return {key: sizes.get(key) for key in ("l2_bytes", "l3_bytes")}


def describe(workload: str, seed: int, working_set_bytes: int) -> dict:
    """Environment block printed with every result."""
    import numpy
    import scipy

    caches = _cache_sizes()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "mem_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "native_threads": 1,
        "workload": workload,
        "seed": seed,
        "working_set_bytes_computed": working_set_bytes,
        "note": (
            "byte counts are computed from array sizes, not measured; an "
            "input of 4x the last-level cache needs about ten temporaries of "
            "its size inside entropy(), more than mem_bytes on an 8 GB "
            "machine, so bulk-entropy is not a memory-bandwidth measurement"
        ),
    }
