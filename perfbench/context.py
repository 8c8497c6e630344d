"""Run context recorded with every result, read without setting any knob."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional, Tuple


def loaded_blas() -> Tuple[Optional[str], Optional[int]]:
    """Path and live thread count of the OpenBLAS numpy loaded, if any.

    Only the getter is looked up: the benchmark measures the program with
    whatever thread pool it starts, so it never calls a setter.
    """
    try:
        maps = Path(f"/proc/{os.getpid()}/maps").read_text()
    except OSError:
        return None, None
    paths = sorted(
        {
            line.split()[-1]
            for line in maps.splitlines()
            if "openblas" in line.rsplit("/", 1)[-1].lower()
        }
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", "_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    return path, int(getter())
    return (paths[0] if paths else None), None


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"  # an exported checkout; the source digest identifies it
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources: identifies the code in checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(root: Path, seed: int) -> Dict[str, object]:
    import numpy as np

    from repro.utils.dtypes import resolve_dtype

    context: Dict[str, object] = {
        "git_rev": _git_rev(root),
        "source_digest": source_digest(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": str(np.dtype(resolve_dtype(None))),
        "seed": seed,
    }
    context["blas_library"], context["blas_threads"] = loaded_blas()
    try:
        from repro.backends import default_backend_name

        context["backend"] = default_backend_name()
    except ImportError:
        context["backend"] = "absent"
    try:
        from repro.backends import fused_mode

        context["fused_mode"] = fused_mode()
    except ImportError:  # the step tiers may be folded into one path
        context["fused_mode"] = "absent"
    return context
