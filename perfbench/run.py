"""The repository's benchmark: batch, streaming and served meta-blocking.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-metablock --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` runs one workload in a fresh interpreter with tracing off
and prints its end-to-end metrics. ``--trace 1`` is the separate traced
run: it profiles all three workloads (each in its own interpreter), so
every per-layer metric is measured on the workload whose end-to-end number
it explains, and prints the per-layer metrics. Earlier output lines are a
human-readable report with every named metric, its unit, sample count and
the run's stamp; the last line is one JSON object. Results and spans are
also written under ``perfbench/out/``.

Correctness is checked outside every timed region, by comparing two paths
of the same commit (see each workload module). Any mismatch is counted in
``failed`` and makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common
from common import OUT, SIZES, WORKLOADS, child_env, median

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: Hard ceiling on one workload process, so a run always ends in time.
CHILD_TIMEOUT = 170.0

#: The end-to-end metrics every workload reports (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "graph_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}


def _load_layers() -> dict:
    with open(common.HERE / "layers.json", encoding="utf-8") as handle:
        return json.load(handle)


def _probe(workload: str) -> None:
    """Set-up probe: import the package and build the first facade object."""
    from repro import api

    if workload == "stream-upsert":
        api.stream_resolver(scheme="JS", k=5, clean_clean=True)
    else:
        api.TokenBlocking()
    print("ready", flush=True)


def _child(args) -> None:
    import batch
    import serve
    import stream

    module = {"batch-metablock": batch, "stream-upsert": stream,
              "serve-mixed": serve}[args.child]
    sizes = SIZES[args.size][args.child]
    result = module.run(args.seed, args.seconds, sizes, bool(args.trace))
    common.emit(result)


def _setup_times(workload: str, calibration) -> "list[float]":
    """Interpreter start + ``import repro`` + first facade object."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        calibration.sample()
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, __file__, "--probe", workload],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=common.ROOT,
        )
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - started
            process.stdout.read()
        finally:
            process.stdout.close()
            process.wait(timeout=30)
        if line.strip() != b"ready" or process.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(elapsed)
    return samples


def _run_workload(workload: str, args, trace: bool) -> dict:
    command = [
        sys.executable, __file__, "--child", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0", "--size", args.size,
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=common.ROOT
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{workload} did not finish in {CHILD_TIMEOUT}s")
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {process.returncode}")
    result = json.loads(lines[-1])
    if not trace and "setup_s" not in result["generic"]:
        calibration = common.Calibration()
        setups = _setup_times(workload, calibration)
        result["generic"]["setup_s"] = calibration.factor() * median(setups)
        result["named"]["setup_s"] = {"unit": "s", **common.timing(setups)}
        result["named"]["setup_calibration"] = calibration.summary()
    return result


def _describe(entry: dict) -> str:
    unit = entry.get("unit", "")
    if "factor" in entry:
        return (f"p50 {entry['p50']:.6g} {unit} (n={entry['n']}), "
                f"fastest scales timings by {entry['factor']:.4g}")
    if "p50" in entry:
        text = f"p50 {entry['p50']:.6g} {unit}"
        if "tail" in entry:
            text += f", p{entry['tail_pct']:g} {entry['tail']:.6g} {unit}"
        return text + f" (n={entry['n']})"
    return f"{entry['value']:.6g} {unit}"


def _report(workload: str, result: dict) -> None:
    for name, entry in result["named"].items():
        print(f"{workload:16s} {name:16s} {_describe(entry)}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{workload:16s} {'failed_ratio':16s} {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    for mismatch in result.get("mismatches", []):
        print(f"{workload:16s} MISMATCH {mismatch}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size class ('smoke' for quick checks)")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    common.require_source()
    if args.probe:
        _probe(args.probe)
        return 0
    if args.child:
        _child(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    layers_spec = _load_layers()
    stamp = {
        **common.host_stamp(),
        "commit": common.source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": {w: SIZES[args.size][w] for w in WORKLOADS},
        "offered_rps": common.OFFERED_RPS,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    workloads = WORKLOADS if args.trace else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = _run_workload(workload, args, bool(args.trace))
            _report(workload, results[workload])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.trace:
        metrics = {}
        for workload, result in results.items():
            for name, value in result["layers"].items():
                metrics[name] = {
                    "value": value, "unit": layers_spec["per_layer"][name]["unit"]
                }
        missing = set(layers_spec["per_layer"]) - set(metrics)
        for name in sorted(metrics):
            entry = metrics[name]
            print(f"layer {name:40s} {entry['value']:.6g} {entry['unit']}")
    else:
        generic = results[args.workload]["generic"]
        missing = set(END_TO_END) - set(generic)
        metrics = {
            name: {"value": generic[name], "unit": unit}
            for name, unit in END_TO_END.items() if name in generic
        }
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = {w: r.pop("spans", []) for w, r in results.items()}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"stamp": stamp, "results": results, "metrics": metrics},
                  handle, indent=1)
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump(spans, handle)

    correct = failed == 0
    common.emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
