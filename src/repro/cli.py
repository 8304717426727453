"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Write one of the synthetic benchmark datasets to a JSON file.
``profile``
    Print the Table-1-style characteristics of a dataset's blocks.
``metablock``
    Run the full pipeline on a dataset file and report PC/PQ/RR/OTime;
    optionally write the retained comparisons to CSV and the phase
    timings/fault counters to JSON (``--timings-json``).
``stream``
    Replay a dataset through the incremental resolver
    (:class:`~repro.incremental.IncrementalMetaBlocking`), one profile at
    a time, and report streaming recall/precision and upsert throughput.
``serve``
    Run the long-lived ER daemon (:mod:`repro.serve`): one incremental
    resolver behind a TCP or Unix socket, newline-delimited JSON protocol,
    optionally preloaded from a dataset file. With ``--wal-dir`` every
    acked upsert is written to a crash-safe write-ahead log and the
    daemon recovers its state from that directory on startup. Stops on
    the ``shutdown`` verb or Ctrl-C.
``recover``
    Rebuild a resolver offline from a ``--wal-dir`` directory (latest
    snapshot + WAL replay), print the recovery report, and optionally
    compact or export the recovered candidate pairs.
``call``
    Send one protocol request to a running daemon and print the JSON
    result (``repro call stats --socket /tmp/er.sock``).
``sweep``
    Evaluate every pruning algorithm x weighting scheme on a dataset and
    print the grid (the Section 6.4 configuration search).
``clean``
    Remove what crashed runs left behind: with ``--spill-dir`` /
    ``--compact-dir`` / ``--wal-dir``, orphaned ``run-*`` spill
    directories, ``epoch-*`` compaction snapshots, and fully-covered or
    half-written WAL artifacts.

All commands accept Dirty or Clean-Clean JSON datasets produced by
``generate`` or :func:`repro.datasets.save_dataset_json`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from repro.blockprocessing.block_purging import BlockPurging
from repro.blocking import BLOCKING_METHODS
from repro.core.execution import ExecutionConfig
from repro.core.pipeline import meta_block, resume_run
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.core.wal import FSYNC_POLICIES
from repro.core.weights import WEIGHTING_SCHEMES
from repro.datamodel.dataset import ERDataset
from repro.datasets.io import (
    load_clean_clean_json,
    load_dirty_json,
    save_dataset_json,
)
from repro.datasets.synthetic import (
    bibliographic_dataset,
    infobox_dataset,
    movies_dataset,
    products_dataset,
)
from repro.evaluation import evaluate, profile_blocks
from repro.incremental import EXPORT_ALGORITHMS
from repro.serve.protocol import VERBS as SERVE_VERBS
from repro.utils.timer import Timer

GENERATORS = {
    "bibliographic": bibliographic_dataset,
    "movies": movies_dataset,
    "infoboxes": infobox_dataset,
    "products": products_dataset,
}


def load_dataset(path: str) -> ERDataset:
    """Load either task's JSON by sniffing the ``task`` header."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("task") == "clean-clean":
        return load_clean_clean_json(path)
    return load_dirty_json(path)


def build_blocks(dataset: ERDataset, args: argparse.Namespace):
    method = BLOCKING_METHODS[args.blocking]()
    blocks = method.build(dataset)
    if not args.no_purging:
        blocks = BlockPurging().process(blocks)
    return blocks


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = GENERATORS[args.flavor](seed=args.seed)
    if args.dirty:
        dataset = dataset.to_dirty()
    save_dataset_json(dataset, args.output)
    print(f"wrote {dataset!r} to {args.output}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    blocks = build_blocks(dataset, args)
    profile = profile_blocks(
        blocks, dataset.ground_truth, dataset.brute_force_comparisons
    )
    print(f"dataset: {dataset!r}")
    for measure, value in profile.row().items():
        print(f"  {measure:6s} {value}")
    return 0


def cmd_metablock(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    with Timer() as blocking_timer:
        blocks = build_blocks(dataset, args)
    if args.resume:
        # Scheme/algorithm/execution settings come from the run's
        # checkpoint; the dataset/blocking flags must match the original
        # invocation so the input blocks are the same.
        result = resume_run(blocks, args.resume)
    else:
        execution = ExecutionConfig(
            parallel=args.workers,
            chunk_size=args.chunk_size,
            spill_dir=args.spill_dir,
            memory_budget=args.memory_budget,
        )
        result = meta_block(
            blocks,
            scheme=args.scheme,
            algorithm=args.algorithm,
            block_filtering_ratio=None if args.ratio == 0 else args.ratio,
            backend=args.backend,
            execution=execution,
        )
    report = evaluate(
        result.comparisons,
        dataset.ground_truth,
        reference_cardinality=blocks.cardinality,
    )
    print(f"dataset:   {dataset!r}")
    print(f"blocks:    ||B||={blocks.cardinality:,} "
          f"({blocking_timer.elapsed:.2f}s)")
    ratio_label = "resumed" if args.resume else (args.ratio or "off")
    print(f"config:    {result.algorithm.name}/{result.scheme.name}, "
          f"r={ratio_label}, {args.backend} weighting, "
          f"workers={result.effective_workers} "
          f"({result.parallel_backend})")
    print(f"result:    {report}")
    print(f"overhead:  {result.overhead_seconds:.2f}s")
    resumed = result.fault_stats.get("resumed_chunks")
    if resumed:
        print(f"faults:    {resumed} chunks resumed")
    timings = result.phase_timings
    if timings and any(timings.values()):
        print(f"timings:   dispatch {timings.get('dispatch', 0.0):.2f}s, "
              f"weight {timings.get('weight', 0.0):.2f}s, "
              f"prune {timings.get('prune', 0.0):.2f}s, "
              f"merge {timings.get('merge', 0.0):.2f}s")
    if result.spill_manifest:
        print(f"spilled:   {result.spill_manifest}")
    if args.timings_json:
        payload = {
            "scheme": result.scheme.name,
            "algorithm": result.algorithm.name,
            "backend": args.backend,
            "effective_workers": result.effective_workers,
            "parallel_backend": result.parallel_backend,
            "blocking_seconds": blocking_timer.elapsed,
            "filtering_seconds": result.filtering_seconds,
            "pruning_seconds": result.pruning_seconds,
            "stage_seconds": result.stage_seconds,
            "overhead_seconds": result.overhead_seconds,
            "phase_timings": result.phase_timings,
            "fault_stats": result.fault_stats,
            "retained_comparisons": result.comparisons.cardinality,
        }
        Path(args.timings_json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote timings to {args.timings_json}")
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_id", "right_id"])
            for left, right in result.comparisons:
                writer.writerow(
                    [dataset.profile(left).identifier,
                     dataset.profile(right).identifier]
                )
        print(f"wrote {result.comparisons.cardinality:,} comparisons "
              f"to {args.output}")
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    from repro.blockprocessing.delta_index import sweep_stale_epochs
    from repro.core.wal import sweep_stale_wal
    from repro.datamodel.sinks import sweep_stale_runs

    verb = "would remove" if args.dry_run else "removed"
    runs = []
    if args.spill_dir:
        runs = sweep_stale_runs(args.spill_dir, dry_run=args.dry_run)
        for run_dir in runs:
            print(f"{verb} spill run {run_dir}")
    epochs = []
    if args.compact_dir:
        epochs = sweep_stale_epochs(args.compact_dir, dry_run=args.dry_run)
        for epoch_dir in epochs:
            print(f"{verb} compaction artifact {epoch_dir}")
    wal_items = []
    if args.wal_dir:
        wal_items = sweep_stale_wal(args.wal_dir, dry_run=args.dry_run)
        for item in wal_items:
            print(f"{verb} WAL artifact {item}")
    if not runs and not epochs and not wal_items:
        print("nothing to clean")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.incremental import IncrementalMetaBlocking

    dataset = load_dataset(args.dataset)
    method = BLOCKING_METHODS[args.blocking]()
    if args.batch_size is not None and args.batch_size < 1:
        print(f"error: --batch-size must be >= 1, got {args.batch_size}",
              file=sys.stderr)
        return 2
    resolver = IncrementalMetaBlocking(
        method.keys_for,
        scheme=args.scheme,
        k=args.k,
        reciprocal=args.reciprocal,
        filtering_ratio=args.filtering_ratio,
        max_block_size=args.max_block_size,
        clean_clean=dataset.is_clean_clean,
        compact_ratio=args.compact_ratio,
        compact_dir=args.compact_dir,
        batch_size=args.batch_size,
    )
    truth = {tuple(sorted(pair)) for pair in dataset.ground_truth}
    emitted = 0
    matched: set = set()
    pending_ids: list[int] = []

    def consume(candidate_lists: list) -> None:
        nonlocal emitted
        for entity_id, candidates in zip(pending_ids, candidate_lists):
            for candidate in candidates:
                emitted += 1
                pair = tuple(sorted((entity_id, candidate.entity_id)))
                if pair in truth:
                    matched.add(pair)
        del pending_ids[: len(candidate_lists)]

    with Timer() as timer:
        for entity_id, profile in dataset.iter_profiles():
            source = (
                dataset.source_of(entity_id) if dataset.is_clean_clean else 0
            )
            pending_ids.append(entity_id)
            flushed = resolver.submit(profile, source=source)
            if flushed is not None:
                consume(flushed)
        consume(resolver.flush())
    added = len(resolver)
    rate = added / timer.elapsed if timer.elapsed > 0 else float("inf")
    recall = len(matched) / len(truth) if truth else 1.0
    precision = len(matched) / emitted if emitted else 0.0
    print(f"dataset:   {dataset!r}")
    print(f"config:    {resolver.scheme.name}, k={args.k}, "
          f"r={args.filtering_ratio}, "
          f"reciprocal={'on' if args.reciprocal else 'off'}, "
          f"batch={args.batch_size or 1}")
    print(f"stream:    {added:,} upserts in {timer.elapsed:.2f}s "
          f"({rate:,.0f}/s), {resolver.num_blocks:,} blocks, "
          f"{resolver.compactions} compaction(s), epoch {resolver.epoch}, "
          f"pending {resolver.pending}")
    print(f"result:    recall {recall:.3f}, precision {precision:.5f}, "
          f"{emitted:,} candidates")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import api

    if args.batch_size is not None and args.batch_size < 1:
        print(f"error: --batch-size must be >= 1, got {args.batch_size}",
              file=sys.stderr)
        return 2
    if args.wal_dir and args.compact_dir:
        print("error: --compact-dir conflicts with --wal-dir (durable "
              "snapshots live under <wal-dir>/snapshots)", file=sys.stderr)
        return 2
    preload = load_dataset(args.preload) if args.preload else None
    clean_clean = preload.is_clean_clean if preload is not None else False

    def preload_into(resolver) -> None:
        # Skipped when recovery already rebuilt state: the WAL, not the
        # dataset file, is authoritative once the first upsert landed.
        if preload is None or len(resolver) != 0:
            return
        profiles, sources = [], []
        for entity_id, profile in preload.iter_profiles():
            profiles.append(profile)
            sources.append(
                preload.source_of(entity_id) if clean_clean else 0
            )
        resolver.add_batch(profiles, sources)
        print(f"preloaded {len(resolver):,} profiles from {args.preload}",
              flush=True)

    resolver = None
    recovery = None
    if args.wal_dir:
        from repro.incremental import IncrementalMetaBlocking

        def _recover():
            recovered, report = IncrementalMetaBlocking.recover(
                args.wal_dir,
                blocking=args.blocking,
                scheme=args.scheme,
                k=args.k,
                reciprocal=args.reciprocal,
                filtering_ratio=args.filtering_ratio,
                max_block_size=args.max_block_size,
                clean_clean=clean_clean,
                fsync_policy=args.fsync,
                compact_ratio=args.compact_ratio,
                batch_size=args.batch_size,
                profile_phases=args.profile_phases,
            )
            for warning in report.warnings:
                print(f"recovery: {warning}", file=sys.stderr, flush=True)
            if len(recovered):
                print(f"recovered {len(recovered):,} profiles from "
                      f"{args.wal_dir} (snapshot epoch "
                      f"{report.snapshot_epoch}, {report.records_replayed:,} "
                      f"records replayed, seq {report.last_seq}, "
                      f"{report.elapsed_seconds:.2f}s)", flush=True)
            preload_into(recovered)
            return recovered, report

        recovery = _recover
    else:
        resolver = api.stream_resolver(
            blocking=args.blocking,
            scheme=args.scheme,
            k=args.k,
            reciprocal=args.reciprocal,
            filtering_ratio=args.filtering_ratio,
            max_block_size=args.max_block_size,
            clean_clean=clean_clean,
            compact_ratio=args.compact_ratio,
            compact_dir=args.compact_dir,
            batch_size=args.batch_size,
            profile_phases=args.profile_phases,
        )
        preload_into(resolver)
    server = api.serve(
        resolver,
        recovery=recovery,
        path=args.socket,
        host=None if args.socket else args.host,
        port=args.port,
        flush_interval=args.flush_interval,
        queue_limit=args.queue_limit,
        compact_on_shutdown=args.compact_on_shutdown,
    )

    async def run_server() -> None:
        await server.start()
        address = server.address
        location = (
            address if isinstance(address, str)
            else f"{address[0]}:{address[1]}"
        )
        durable = (
            f", wal {args.wal_dir} (fsync {args.fsync})"
            if args.wal_dir else ""
        )
        print(f"serving on {location} (scheme {args.scheme}, "
              f"k={args.k}, coalescing {args.batch_size or 1}{durable})",
              flush=True)
        try:
            await server.wait_closed()
        finally:
            await server.aclose()

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    stats = server.stats()
    print(f"served {stats['total_requests']:,} requests "
          f"({stats['qps']:,.0f}/s) over {stats['uptime_seconds']:.1f}s; "
          f"{stats.get('profiles', 0):,} profiles, "
          f"epoch {stats.get('epoch', 0)}, "
          f"{stats.get('compactions', 0)} compaction(s)")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.core.wal import WalError
    from repro.incremental import IncrementalMetaBlocking

    try:
        resolver, report = IncrementalMetaBlocking.recover(
            args.wal_dir,
            blocking=args.blocking,
            scheme=args.scheme,
            k=args.k,
        )
    except (OSError, ValueError, WalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(f"wal dir:   {args.wal_dir}")
        if report.snapshot_epoch is not None:
            print(f"snapshot:  epoch {report.snapshot_epoch} "
                  f"({report.snapshot_profiles:,} profiles)")
        print(f"replayed:  {report.records_replayed:,} records "
              f"({report.upserts_replayed:,} upserts) through seq "
              f"{report.last_seq} in {report.elapsed_seconds:.2f}s")
        if report.torn_tail:
            print(f"torn tail: {report.torn_tail}")
        for warning in report.warnings:
            print(f"warning:   {warning}")
        print(f"state:     {len(resolver):,} profiles, "
              f"{resolver.num_blocks:,} blocks, epoch {resolver.epoch}")
    if args.compact:
        resolver.compact()
        print(f"compacted: epoch {resolver.epoch} "
              f"(WAL truncated through seq {report.last_seq})")
    if args.export:
        pairs = [
            (int(left), int(right))
            for left, right in resolver.candidate_pairs(args.algorithm)
        ]
        with open(args.export, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_id", "right_id"])
            writer.writerows(pairs)
        print(f"wrote {len(pairs):,} candidate pairs to {args.export}")
    return 0


def cmd_call(args: argparse.Namespace) -> int:
    from repro.client import ClientError, ResolverClient

    if args.socket:
        address: "str | tuple[str, int]" = args.socket
    elif args.port is not None:
        address = (args.host or "127.0.0.1", args.port)
    else:
        print("error: give --socket PATH or --port N", file=sys.stderr)
        return 2
    fields: dict = {}
    if args.fields:
        try:
            fields = json.loads(args.fields)
        except json.JSONDecodeError as exc:
            print(f"error: --fields is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(fields, dict):
            print("error: --fields must be a JSON object", file=sys.stderr)
            return 2
    if args.entity_id is not None:
        fields["entity_id"] = args.entity_id
    if args.k is not None:
        fields["k"] = args.k
    if args.algorithm is not None:
        fields["algorithm"] = args.algorithm
    if args.profile is not None:
        try:
            fields["profile"] = json.loads(args.profile)
        except json.JSONDecodeError as exc:
            print(f"error: --profile is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
    if args.source is not None:
        fields["source"] = args.source
    if args.compact:
        fields["compact"] = True
    try:
        with ResolverClient(address, timeout=args.timeout) as client:
            result = client.call(args.verb, **fields)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.evaluation.reports import (
        RECALL_FLOORS,
        best_for_application,
        sweep_configurations,
    )

    dataset = load_dataset(args.dataset)
    blocks = build_blocks(dataset, args)
    print(f"dataset: {dataset!r}  ||B||={blocks.cardinality:,}")
    results = sweep_configurations(
        blocks,
        dataset.ground_truth,
        block_filtering_ratio=None if args.ratio == 0 else args.ratio,
    )
    cardinality_header = "||B'||"
    print(f"{'algorithm':10s} {'scheme':6s} {'PC':>6s} {'PQ':>9s} "
          f"{cardinality_header:>10s} {'OTime':>8s}")
    for result in results:
        report = result.report
        print(
            f"{result.algorithm:10s} {result.scheme:6s} {report.pc:6.3f} "
            f"{report.pq:9.5f} {report.cardinality:10,d} "
            f"{result.overhead_seconds:7.2f}s"
        )
    for application in RECALL_FLOORS:
        best = best_for_application(results, application)
        label = best.label if best is not None else "none qualifies"
        print(f"recommended for {application}: {label}")
    return 0


def _chunk_size(value: str) -> "int | str":
    """``--chunk-size`` values: a positive integer or the literal 'auto'."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enhanced Meta-blocking (EDBT 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic benchmark dataset to JSON"
    )
    generate.add_argument("flavor", choices=sorted(GENERATORS))
    generate.add_argument("output", help="output JSON path")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument(
        "--dirty", action="store_true",
        help="merge the two clean collections into a Dirty ER dataset",
    )
    generate.set_defaults(handler=cmd_generate)

    def add_blocking_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("dataset", help="dataset JSON path")
        sub.add_argument(
            "--blocking", choices=sorted(BLOCKING_METHODS), default="token"
        )
        sub.add_argument(
            "--no-purging", action="store_true", help="skip Block Purging"
        )

    profile = commands.add_parser(
        "profile", help="print Table-1-style block collection statistics"
    )
    add_blocking_options(profile)
    profile.set_defaults(handler=cmd_profile)

    metablock = commands.add_parser(
        "metablock", help="run meta-blocking and report PC/PQ/RR/OTime"
    )
    add_blocking_options(metablock)
    metablock.add_argument(
        "--scheme", choices=sorted(WEIGHTING_SCHEMES), default="JS"
    )
    metablock.add_argument(
        "--algorithm", choices=sorted(PRUNING_ALGORITHMS), default="RcWNP"
    )
    metablock.add_argument(
        "--ratio", type=float, default=0.8,
        help="Block Filtering ratio (0 disables filtering)",
    )
    metablock.add_argument(
        "--backend",
        choices=("optimized", "original", "vectorized"),
        default="optimized",
    )
    metablock.add_argument(
        "--workers", type=int, default=1,
        help="threads for the pruning stage, valid for all algorithms "
             "(1 = serial, 0 = one per usable CPU core)",
    )
    metablock.add_argument(
        "--chunk-size", type=_chunk_size, default="auto", dest="chunk_size",
        help="edges per EdgeBatch chunk in the batched pruning paths, or "
             "'auto' (default) for the stream default; never changes the "
             "retained comparisons",
    )
    metablock.add_argument(
        "--spill-dir", default=None, dest="spill_dir",
        help="spill retained comparisons to .npy shards under this "
             "directory instead of holding them in RAM (results are "
             "bit-identical; the manifest path is printed)",
    )
    metablock.add_argument(
        "--memory-budget", type=int, default=None, dest="memory_budget",
        help="approximate bytes of retained comparisons resident in RAM; "
             "implies spilling (to --spill-dir or a temporary directory) "
             "and sizes the shards accordingly",
    )
    metablock.add_argument(
        "--resume", default=None, metavar="RUN_DIR",
        help="resume an interrupted spill run from its run-* directory; "
             "scheme, algorithm and execution settings are read back from "
             "the run's checkpoint and override the matching flags",
    )
    metablock.add_argument(
        "--timings-json", default=None, dest="timings_json", metavar="PATH",
        help="write the run's phase timings, fault counters and stage "
             "seconds to this JSON file",
    )
    metablock.add_argument(
        "--output", help="write retained comparisons to this CSV file"
    )
    metablock.set_defaults(handler=cmd_metablock)

    def add_resolver_options(command: argparse.ArgumentParser) -> None:
        """Options configuring an incremental resolver (stream + serve)."""
        command.add_argument(
            "--blocking", choices=sorted(BLOCKING_METHODS), default="token",
            help="blocking method supplying the per-profile keys",
        )
        command.add_argument(
            "--scheme", choices=sorted(WEIGHTING_SCHEMES), default="JS"
        )
        command.add_argument(
            "--k", type=int, default=5,
            help="candidates returned per upsert (node-centric cardinality)",
        )
        command.add_argument(
            "--reciprocal", action="store_true",
            help="keep only reciprocally top-k candidates (Reciprocal CNP)",
        )
        command.add_argument(
            "--filtering-ratio", type=float, default=0.8,
            dest="filtering_ratio",
            help="insertion-time Block Filtering ratio (1.0 disables)",
        )
        command.add_argument(
            "--max-block-size", type=int, default=None, dest="max_block_size",
            help="exclude blocks growing beyond this size (streaming Block "
                 "Purging; default: no cap)",
        )
        command.add_argument(
            "--compact-ratio", type=float, default=None, dest="compact_ratio",
            help="delta-mass fraction at which the index auto-compacts into "
                 "a fresh CSR (in (0, 1]; default: never)",
        )
        command.add_argument(
            "--compact-dir", default=None, dest="compact_dir",
            help="persist an epoch-NNNNNN snapshot on every compaction under "
                 "this directory (swept by 'repro clean --compact-dir')",
        )
        command.add_argument(
            "--batch-size", type=int, default=None, dest="batch_size",
            help="coalesce this many upserts per fused micro-batch commit "
                 "(amortises the per-upsert kernel costs; default: commit "
                 "each upsert immediately)",
        )

    stream = commands.add_parser(
        "stream",
        help="replay a dataset through the incremental resolver and report "
             "streaming recall/precision and upsert throughput",
    )
    stream.add_argument("dataset", help="dataset JSON path")
    add_resolver_options(stream)
    stream.set_defaults(handler=cmd_stream)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived ER daemon: one incremental resolver "
             "behind a TCP or Unix socket (newline-delimited JSON protocol)",
    )
    serve.add_argument(
        "--socket", default=None,
        help="listen on this Unix-domain socket path instead of TCP",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port, printed on startup)",
    )
    serve.add_argument(
        "--preload", default=None,
        help="replay this dataset JSON into the resolver before listening",
    )
    add_resolver_options(serve)
    serve.add_argument(
        "--flush-interval", type=float, default=0.02, dest="flush_interval",
        help="seconds of request-queue idleness after which a partially "
             "filled coalescing buffer is committed anyway",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256, dest="queue_limit",
        help="bound on queued requests; beyond it clients get 'overloaded'",
    )
    serve.add_argument(
        "--compact-on-shutdown", action="store_true",
        dest="compact_on_shutdown",
        help="run one final compaction during graceful shutdown",
    )
    serve.add_argument(
        "--profile-phases", action="store_true", dest="profile_phases",
        help="accumulate per-phase upsert timings (reported by 'stats')",
    )
    serve.add_argument(
        "--wal-dir", default=None, dest="wal_dir",
        help="write-ahead log directory: every acked upsert is durable, "
             "and the daemon recovers its state from this directory on "
             "startup (latest snapshot + WAL replay); snapshots from "
             "compactions land under <wal-dir>/snapshots and truncate "
             "the log",
    )
    serve.add_argument(
        "--fsync", choices=FSYNC_POLICIES, default="batch", dest="fsync",
        help="WAL durability policy: 'always' fsyncs file and directory "
             "per record, 'batch' fsyncs once per coalesced convoy "
             "(default; survives process crashes and, per convoy, host "
             "crashes), 'off' leaves flushing to the page cache",
    )
    serve.set_defaults(handler=cmd_serve)

    recover = commands.add_parser(
        "recover",
        help="rebuild a resolver from a --wal-dir directory (snapshot + "
             "WAL replay) and report what was recovered",
    )
    recover.add_argument(
        "--wal-dir", required=True, dest="wal_dir",
        help="the daemon's --wal-dir directory",
    )
    recover.add_argument(
        "--blocking", choices=sorted(BLOCKING_METHODS), default="token",
        help="blocking method fallback when the WAL manifest is absent "
             "(the manifest, written on first use, is authoritative)",
    )
    recover.add_argument(
        "--scheme", choices=sorted(WEIGHTING_SCHEMES), default="JS",
        help="weighting scheme fallback when the WAL manifest is absent",
    )
    recover.add_argument(
        "--k", type=int, default=5,
        help="candidates per upsert fallback when the manifest is absent",
    )
    recover.add_argument(
        "--compact", action="store_true",
        help="write a fresh snapshot after replay (truncates the WAL, so "
             "the next recovery skips the replayed records)",
    )
    recover.add_argument(
        "--export", default=None, metavar="CSV",
        help="write the recovered candidate pairs to this CSV file",
    )
    recover.add_argument(
        "--algorithm", choices=EXPORT_ALGORITHMS, default="CNP",
        help="pruning export for --export",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="print the recovery report as JSON instead of text",
    )
    recover.set_defaults(handler=cmd_recover)

    call = commands.add_parser(
        "call",
        help="send one request to a running daemon and print the JSON "
             "result",
    )
    call.add_argument("verb", choices=SERVE_VERBS, help="protocol verb")
    call.add_argument(
        "--socket", default=None, help="daemon Unix-domain socket path"
    )
    call.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    call.add_argument("--port", type=int, default=None, help="daemon TCP port")
    call.add_argument(
        "--entity-id", type=int, default=None, dest="entity_id",
        help="entity id for 'query'",
    )
    call.add_argument(
        "--k", type=int, default=None, help="neighbor count for 'query'"
    )
    call.add_argument(
        "--algorithm", choices=EXPORT_ALGORITHMS, default=None,
        help="pruning export for 'candidates'",
    )
    call.add_argument(
        "--profile", default=None,
        help="JSON profile for 'upsert' "
             '(e.g. \'{"identifier": "p1", "attributes": [["name", "x"]]}\')',
    )
    call.add_argument(
        "--source", type=int, default=None,
        help="source tag for 'upsert' under Clean-Clean ER (0 or 1)",
    )
    call.add_argument(
        "--compact", action="store_true",
        help="ask 'shutdown' to compact before exiting",
    )
    call.add_argument(
        "--fields", default=None,
        help="extra request fields as a JSON object (merged first)",
    )
    call.add_argument(
        "--timeout", type=float, default=30.0,
        help="seconds to wait for each response",
    )
    call.set_defaults(handler=cmd_call)

    clean = commands.add_parser(
        "clean",
        help="remove orphaned spill runs, compaction and WAL artifacts",
    )
    clean.add_argument(
        "--spill-dir", default=None, dest="spill_dir",
        help="sweep orphaned run-* directories (no manifest, owner "
             "process gone) under this spill directory",
    )
    clean.add_argument(
        "--compact-dir", default=None, dest="compact_dir",
        help="sweep orphaned compaction artifacts (partial epoch "
             "temp directories with a dead owner, epoch directories "
             "missing their manifest) under this directory",
    )
    clean.add_argument(
        "--wal-dir", default=None, dest="wal_dir",
        help="sweep fully-covered WAL segments (every record already "
             "in the latest snapshot) and half-written snapshot temp "
             "directories under this WAL directory",
    )
    clean.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without touching anything",
    )
    clean.set_defaults(handler=cmd_clean)

    sweep = commands.add_parser(
        "sweep", help="evaluate every pruning algorithm x weighting scheme"
    )
    add_blocking_options(sweep)
    sweep.add_argument("--ratio", type=float, default=0.8)
    sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
