"""Result recording shared by all benchmark modules.

Every bench test records the rows of the paper table it reproduces. At the
end of the pytest session the rows are pretty-printed and saved as JSON
under ``benchmarks/results/`` (one file per table, ``{"host": ..., "rows":
[...]}``), where ``benchmarks/report.py`` picks them up to regenerate
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"


def _git_commit() -> "str | None":
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = head.stdout.strip()
    return commit if head.returncode == 0 and commit else None


def host_stamp() -> dict:
    """What a results file depends on besides the rows: host, toolchain,
    commit and bench scale."""
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "bench_scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
    }


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


class Recorder:
    """Accumulates table rows during a benchmark session."""

    def __init__(self) -> None:
        self.tables: dict[str, list[dict]] = {}

    def record(self, table: str, row: dict) -> None:
        """Append one row (a flat dict) to the named table."""
        self.tables.setdefault(table, []).append(dict(row))

    def render(self) -> str:
        """Human-readable rendering of every recorded table."""
        chunks: list[str] = []
        for table in sorted(self.tables):
            rows = self.tables[table]
            columns = list(dict.fromkeys(key for row in rows for key in row))
            rendered = [
                [_format_value(row.get(column, "")) for column in columns]
                for row in rows
            ]
            widths = [
                max(len(column), *(len(line[i]) for line in rendered))
                for i, column in enumerate(columns)
            ]
            lines = [f"── {table} " + "─" * max(0, 70 - len(table))]
            lines.append(
                "  " + "  ".join(c.ljust(w) for c, w in zip(columns, widths))
            )
            for line in rendered:
                lines.append(
                    "  " + "  ".join(v.rjust(w) for v, w in zip(line, widths))
                )
            chunks.append("\n".join(lines))
        return "\n\n".join(chunks)

    def save(self, directory: Path = RESULTS_DIR) -> None:
        """Write one ``<table>.json`` per recorded table, host-stamped."""
        directory.mkdir(parents=True, exist_ok=True)
        host = host_stamp()
        for table, rows in self.tables.items():
            path = directory / f"{table}.json"
            payload = {"host": host, "rows": rows}
            path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


#: Session-wide singleton used by every bench module.
RECORDER = Recorder()
