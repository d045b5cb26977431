"""The platform a result set was measured on.

Timings and round-off terms depend on the longdouble format (80-bit x87 on
x86-64 Linux, plain double on Windows, software quad on aarch64) and on the
CPU, so two result sets are comparable only when their fingerprints match.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

import mpmath
import numpy as np

# keys that must agree for two result sets to be compared
FINGERPRINT = ("machine", "cpu_model", "nproc", "longdouble_eps",
               "longdouble_mant_bits", "python", "numpy", "mpmath")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256(root: str) -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "akzeta")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def collect(root: str) -> dict:
    fi = np.finfo(np.longdouble)
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_sha256(root),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_eps": float(fi.eps),
        "longdouble_mant_bits": int(fi.nmant),
        "executable": sys.executable,
    }


def summary(p: dict) -> str:
    return (f"{p['cpu_model']} x{p['nproc']}, python {p['python']}, numpy {p['numpy']}, "
            f"mpmath {p['mpmath']}, longdouble eps {p['longdouble_eps']:.3g} "
            f"({p['longdouble_mant_bits']} mantissa bits), commit {p['git_commit'] or '-'}, "
            f"src {p['src_sha256']}")


def mismatches(a: dict, b: dict) -> list[str]:
    """Fingerprint keys on which two platforms differ (empty: comparable)."""
    return [k for k in FINGERPRINT if a.get(k) != b.get(k)]
