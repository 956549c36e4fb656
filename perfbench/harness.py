"""Process set-up shared by the benchmark runner and the set-up probe.

Nothing here imports numpy: `pin_threads` has to run before the first
numpy import so that BLAS and OpenMP start with one thread each.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """Raised when the checkout holds no walshcs sources to benchmark."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources():
    """Put the checkout's `src` first on the import path.

    Refuses to run when the sources are absent, so the benchmark never
    measures some other installed copy of walshcs.
    """
    src = ROOT / "src"
    if not (src / "walshcs" / "__init__.py").is_file():
        raise MissingProgram(f"no walshcs sources under {src}")
    sys.path.insert(0, str(src))


def check_imported_from_checkout(module):
    path = Path(module.__file__).resolve()
    if ROOT / "src" not in path.parents:
        raise MissingProgram(f"walshcs was imported from {path}, not from the checkout")


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.stdout.strip() or None


def environment_facts():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }
