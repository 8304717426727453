"""Compare two sets of benchmark results, refusing mismatched stamps.

Usage::

    python3 perfbench/compare.py --base perfbench/out/a-*.json \\
        --new other/perfbench/out/a-*.json

Each file is one result written by ``run.py``. Results are comparable
only when everything but the commit and the seed is equal: host cores and
affinity, machine, Python and numpy versions, run length, size class,
input sizes, offered rate, workload and trace mode. Otherwise the command
prints the differing fields and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import median

#: Stamp fields allowed to differ between compared runs.
VARYING = ("commit", "seed")


def _load(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append((path, json.load(handle)))
    return runs


def _fixed(stamp: dict) -> dict:
    return {key: value for key, value in stamp.items() if key not in VARYING}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    reference_path, reference = base[0]
    expected = _fixed(reference["stamp"])
    refused = False
    for path, run in base + new:
        stamp = _fixed(run["stamp"])
        differing = sorted(
            key for key in set(expected) | set(stamp)
            if expected.get(key) != stamp.get(key)
        )
        if differing:
            refused = True
            for key in differing:
                print(f"refused: {path} {key}={stamp.get(key)!r} but "
                      f"{reference_path} {key}={expected.get(key)!r}")
    if refused:
        return 2

    print(f"{'metric':40s} {'base p50':>12s} {'new p50':>12s} {'change':>8s}")
    for name, entry in reference["metrics"].items():
        before = median([run["metrics"][name]["value"] for _, run in base])
        after = median([run["metrics"][name]["value"] for _, run in new])
        change = (after / before - 1.0) if before else float("nan")
        print(f"{name:40s} {before:12.6g} {after:12.6g} {change:+8.2%} "
              f"{entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
