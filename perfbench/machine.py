"""Facts about the machine and the code that go with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(np) -> tuple[str, int | None]:
    """The BLAS numpy was built against, and its thread count as the
    library itself reports it (None when the library cannot be asked)."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_files(root: Path) -> list[Path]:
    return sorted((root / "src").rglob("*.py"))


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, names and bytes."""
    h = hashlib.sha256()
    for path in source_files(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def facts(root: Path) -> dict[str, object]:
    import numpy as np
    import scipy

    blas, blas_threads = _blas(np)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(root),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in source_files(root)),
        "src_sha256": source_digest(root),
    }
