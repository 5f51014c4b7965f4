"""Run environment: BLAS thread cap, the source tree under test, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: One BLAS thread: with at most one benchmark process computing at a time
#: the run never has more threads busy than the 2 cores of the reference box,
#: and matmul sums in one fixed order.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit the cap."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS thread cap set after numpy was imported")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree() -> None:
    """Import dyadicsq from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "dyadicsq", "__init__.py")):
        raise SystemExit(f"perfbench: no dyadicsq source tree under {SRC}")
    sys.path.insert(0, SRC)


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/ (paths and contents): identifies the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
