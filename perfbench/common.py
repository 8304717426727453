"""Helpers shared by ``run.py`` and the workload processes it starts.

Everything here is stdlib-only so that ``run.py`` can stamp the host and
fail cleanly before the package under test is importable.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The package under test is built from source, straight from ``src/``.
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Where results files and the daemon's sockets/WALs go (git-ignored).
OUT = HERE / "out"

WORKLOADS = ("batch-metablock", "stream-upsert", "serve-mixed")

#: Input sizes per size class. ``full`` is what the timed runs use;
#: ``smoke`` keeps the benchmark's own tests to a few seconds.
#: Dataset factors scale the generators' ``DEFAULT_SCALES`` (D1/D2/D3).
SIZES = {
    "full": {
        "batch-metablock": {"dirty_d2": 1.0, "clean_d3": 0.7},
        "stream-upsert": {"d1": 3.0},
        "serve-mixed": {"d1": 3.5, "bulk_fraction": 0.45, "chunk": 64},
    },
    "smoke": {
        "batch-metablock": {"dirty_d2": 0.1, "clean_d3": 0.1},
        "stream-upsert": {"d1": 0.3},
        "serve-mixed": {"d1": 1.0, "bulk_fraction": 0.2, "chunk": 16},
    },
}

#: Open-loop offered rate of the ``serve-mixed`` interactive windows, in
#: requests per second: about half the lowest closed-loop saturation seen
#: on a 2-core x86-64 host (~400-900 req/s as its speed drifts), so the
#: daemon keeps up even in a slow spell.
OFFERED_RPS = 200
#: Upserts per query in the interactive mix (4:1).
MIX_UPSERTS = 4
#: A run whose open-loop generator sent its median request later than one
#: inter-arrival gap behind schedule measured the generator, not the daemon.
MAX_MEDIAN_LAG_GAPS = 1.0

#: Standard percentiles a timing tail is reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def require_source() -> None:
    """Exit non-zero unless the package under test is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: package source not found under {SRC}; run the benchmark "
            "from the root of a repository checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for processes that import the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Unbuffered, so a line printed as "ready" is seen when it is printed.
    env["PYTHONUNBUFFERED"] = "1"
    # Fixed string hashing: set and dict layouts, and so timings, repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(ordered: "list[float]", q: float) -> float:
    """Nearest-rank ``q``-th percentile of an already sorted list."""
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def timing(samples: "list[float]", scale: float = 1.0) -> dict:
    """Median and the highest standard percentile with >= 10 samples
    beyond it, with the sample count (``scale`` converts units)."""
    ordered = sorted(s * scale for s in samples)
    n = len(ordered)
    summary = {"p50": percentile(ordered, 50.0) if n else float("nan"), "n": n}
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            summary["tail_pct"] = q
            summary["tail"] = percentile(ordered, q)
            break
    return summary


def median(values: "list[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan")
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class Calibration:
    """A fixed kernel timed between measurements, to cancel host drift.

    This host's speed drifts by tens of percent over seconds to minutes
    (other tenants share its cores), and every timing drifts with it. The
    kernel mixes the work the workloads do — dict updates in Python, numpy
    sorts, ``unique`` and ``searchsorted`` over 4*10^4 integers — and lives in
    the benchmark, so no change under ``src/`` moves it. Contract timings
    are scaled by ``factor()``: the kernel's reference time divided by its
    fastest time in this run, which turns seconds on the host as it was
    into seconds on the host at its reference speed.
    """

    #: Fastest kernel time on an idle 2-core x86-64 host, Python 3.11.
    REFERENCE_S = 0.011

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._data = numpy.random.default_rng(12345).integers(0, 1 << 20, 40_000)
        self.samples: "list[float]" = []

    def sample(self, repeats: int = 5) -> None:
        numpy = self._numpy
        for _ in range(repeats):
            started = time.perf_counter()
            counts: dict = {}
            for i in range(15_000):
                key = i % 997
                counts[key] = counts.get(key, 0) + 1
            ordered = numpy.sort(self._data)
            numpy.unique(ordered)
            numpy.searchsorted(ordered, self._data[:10_000])
            self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        return self.REFERENCE_S / min(self.samples)

    def summary(self) -> dict:
        return {"factor": self.factor(), **timing(self.samples, 1e3), "unit": "ms"}


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def source_revision() -> str:
    """The git commit, or a digest of ``src/`` when not in a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_stamp() -> dict:
    """What a result depends on besides the code: host and toolchain."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def emit(payload: dict) -> None:
    """Print ``payload`` as the last line of standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=False) + "\n")
    sys.stdout.flush()
