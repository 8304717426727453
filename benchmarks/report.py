"""Regenerate EXPERIMENTS.md from the saved benchmark results.

Usage::

    pytest benchmarks/ --benchmark-only   # populates benchmarks/results/
    python -m benchmarks.report           # rewrites EXPERIMENTS.md

The report pairs every measured table with the paper's published values
(:mod:`benchmarks.paper_reference`) and a per-experiment verdict on whether
the paper's qualitative shape is reproduced.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks._recorder import RESULTS_DIR

REPO_ROOT = Path(__file__).parent.parent
OUTPUT = REPO_ROOT / "EXPERIMENTS.md"

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Generated by `python -m benchmarks.report` from the JSON files under
`benchmarks/results/` (themselves produced by
`pytest benchmarks/ --benchmark-only`).

**Reading guide.** The paper ran on the real DBLP–Scholar, IMDB–DBPedia and
Wikipedia-infobox corpora (up to 3.3M entities) on a Java 8 desktop; this
reproduction runs on synthetic, laptop-scale datasets with the same
distributional drivers (DESIGN.md §4) in pure Python. Absolute cardinalities
and wall-clock times therefore differ by construction. What must match — and
is asserted by the benchmark suite itself — is the *shape*: who wins, in
which direction each technique moves recall/precision/overhead, and by
roughly what kind of factor. `paper_*` columns give the published values for
the corresponding real dataset.

## Summary of reproduced claims

| Paper claim | Status |
|---|---|
| Token Blocking blocks: PC > 0.95, PQ « 0.01, large RR (Table 1a) | reproduced |
| Block Filtering r=0.8: large ||B|| drop, <~2% recall cost, BPE ≈ −20% (Table 1b) | reproduced |
| Figure 10: monotone, *robust* RR/PC trade-off in r | reproduced |
| Node-centric pruning retains more than edge-centric, is more recall-robust (Table 3) | reproduced |
| Block Filtering cuts every scheme's retained comparisons and OTime (Table 3) | reproduced |
| Redefined CNP/WNP: identical recall, fewer comparisons, higher PQ (Table 4) | reproduced |
| Reciprocal CNP/WNP: best precision of their family at bounded recall cost (Table 4) | reproduced |
| Optimized edge weighting faster than Algorithm 2 on every dataset, gain grows with BPE (Table 5) | reproduced |
| Graph-free meta-blocking: minimal overhead; r=0.55 keeps PC ≥ 0.95 (Table 6) | reproduced |
| Iterative Blocking: keeps blocks' recall, executes far more comparisons than reciprocal pruning (Table 6) | reproduced |
| WEP retains ~2–3× more comparisons than CEP (Table 3) | **deviation** — see notes |

### Known deviations

* **WEP vs CEP cardinality.** On the real corpora the global mean weight is a
  shallow threshold (hub entities contribute masses of low-weight edges), so
  WEP retains ~2–3× more comparisons than CEP. Our synthetic weight
  distributions are more discriminative, so WEP prunes deeper than CEP on
  some datasets. All *within-family* orderings (CNP vs CEP, WNP vs WEP,
  redefined vs original, reciprocal vs redefined) — the orderings the paper's
  contributions are evaluated by — reproduce.
* **Cardinality-based recall drop.** The paper's CEP/CNP lose up to half
  their recall on Dirty ER; our duplicates are easier (synthetic noise is
  milder than Google-Scholar-grade noise), so the drop is present but
  smaller.
* **Absolute times.** Java-on-3.3M-entities hours are not comparable to
  Python-on-5k-entities seconds; the Table 5 *speedup ratios* are the
  meaningful efficiency result.
"""

TABLE_NOTES = {
    "table1a_original_blocks": (
        "Table 1(a) — original block collections",
        "Token Blocking + Block Purging per dataset. RR is measured against "
        "the brute-force ||E||.",
    ),
    "table1b_filtered_blocks": (
        "Table 1(b) — after Block Filtering (r=0.8)",
        "RR is measured against the original collection's ||B||.",
    ),
    "table2_datasets": (
        "Table 2 — entity collections",
        "Synthetic stand-ins preserve the papers' size skews and duplicate "
        "fractions at laptop scale.",
    ),
    "figure10_ratio_sweep": (
        "Figure 10 — Block Filtering ratio sweep (D2C, D2D)",
        "PC rises and RR falls monotonically in r; both move smoothly "
        "(robustness), and r=0.8 sits on the high-recall plateau.",
    ),
    "table3_existing_schemes": (
        "Table 3 — existing pruning schemes (avg over 5 weighting schemes)",
        "OT_seconds times the era's reference implementation (Algorithm 2) "
        "on the JS scheme; quality numbers average ARCS/CBS/ECBS/JS/EJS. "
        "Re-recorded when every backend began listing each neighbourhood "
        "in ascending id order: ARCS's WNP count moved on D1C (12,087 -> "
        "12,097) and D3D (44,580 -> 44,583), and with it those two "
        "filtered rows' averages.",
    ),
    "table4_new_schemes": (
        "Table 4 — redefined & reciprocal node-centric pruning",
        "On Block-Filtered blocks, averaged over the 5 weighting schemes. "
        "Re-recorded when every backend began listing each neighbourhood "
        "in ascending id order, so each WNP mean is summed over the same "
        "operands in the same order everywhere: ARCS's ReWNP/RcWNP counts "
        "moved by up to ten pairs, and with them five rows' averages (D1C "
        "ReWNP and RcWNP, D3C ReWNP and RcWNP, D3D RcWNP).",
    ),
    "table5_optimized_weighting": (
        "Table 5 — optimized edge weighting overhead",
        "Optimized (Algorithm 3) vs original (Algorithm 2) wall-clock per "
        "pruning scheme, JS weighting, filtered blocks. Algorithm 3's bulk "
        "path now counts each node chunk in numpy (one sort per chunk), "
        "while Algorithm 2 stays a Python loop per comparison, so the "
        "speedup column measures implementation as well as algorithm. "
        "The paper's claim, that the optimized algorithm is faster on "
        "every dataset, is what the bench asserts. Optimized seconds "
        "before/after that change, each commit run twice alternately on "
        "the same 2-core x86-64 host (Python 3.11, numpy 2.4), CNP: D1C "
        "0.078/0.068 -> 0.032/0.025, D2C 0.139/0.162 -> 0.063/0.061, D3C "
        "0.261/0.225 -> 0.076/0.068, D1D 0.162/0.152 -> 0.061/0.059, D2D "
        "0.292/0.343 -> 0.141/0.112, D3D 0.329/0.347 -> 0.127/0.103. The "
        "table below is re-recorded since both fast backends inherit one "
        "`neighborhood_batch` and list every neighbourhood in ascending id "
        "order, Algorithm 3's scan and Algorithm 2's `neighborhood()` "
        "included, and again since the chunk count sorts its keys without "
        "an index (ARCS aside) and CNP's top-k ranks exactly only the "
        "entries above each node's prefix bound; the retained counts are "
        "unchanged.",
    ),
    "table6_baselines": (
        "Table 6 — baseline methods",
        "Graph-free Meta-blocking at the paper's two tuned ratios, and "
        "Iterative Blocking (oracle matcher, smallest-blocks-first, "
        "Clean-Clean ideal case).",
    ),
    "ablation_filtering": (
        "Ablation — Block Filtering operating points (extra)",
        "WNP on D2D without filtering and at r=0.8 / r=0.5.",
    ),
    "ablation_blocking_methods": (
        "Ablation — input blocking method independence (extra)",
        "The same meta-blocking configuration on Token, Q-grams and "
        "Attribute Clustering blocks of D1C.",
    ),
    "ablation_backends": (
        "Ablation — three weighting backends (extra)",
        "WNP on filtered blocks under the original (Alg. 2), optimized "
        "(Alg. 3) and numpy-vectorized backends; identical outputs. "
        "(D1C's ||B'|| is 3 higher than before the WNP threshold fix: a "
        "node whose weights are all equal now keeps its edges.)\n\n"
        "**Why the vectorized backend used to lose to Algorithm 3** "
        "(ROADMAP item 3). Both paid a constant cost per unit of work "
        "that the arithmetic did not: the vectorized WNP path ran about a "
        "dozen numpy calls per node, and Algorithm 3 one Python `_weight` "
        "call per edge. Since then both weigh whole node chunks through "
        "`neighborhood_batch`, with one `weight_array` call per chunk; "
        "on one 2-core host that made Algorithm 3's WNP 2.4-5.7x faster "
        "and the vectorized one 3.6-7.4x.\n\n"
        "**Algorithm 3 then paid one Python step per co-occurrence**: its "
        "bulk path still ran the ScanCount per node. Both fast backends "
        "now share one chunk-count kernel: a gather of the chunk's "
        "co-occurrences, one int64 sort of their composite (segment, "
        "neighbour) keys, group sizes as shared-block counts and ARCS "
        "sums by `bincount` in gather order. Algorithm 3 then kept each "
        "segment in the order its scan first met the neighbours, so "
        "every retained pair and its order were unchanged. WNP seconds "
        "before/after, each commit run twice alternately on the same "
        "2-core x86-64 host (Python 3.11, numpy 2.4), optimized: D1C "
        "0.050/0.044 -> 0.019/0.013, D2C 0.114/0.099 -> 0.037/0.035, D3C "
        "0.484/0.315 -> 0.104/0.040, D1D 0.117/0.070 -> 0.038/0.030, D2D "
        "0.123/0.125 -> 0.073/0.056, D3D 0.218/0.221 -> 0.081/0.081; "
        "vectorized: D1C 0.028/0.023 -> 0.014/0.011, D2C 0.044/0.041 -> "
        "0.029/0.028, D3C 0.110/0.095 -> 0.062/0.041, D1D 0.039/0.031 -> "
        "0.034/0.023, D2D 0.065/0.064 -> 0.057/0.047, D3D 0.115/0.100 -> "
        "0.064/0.065. In the second run the two fast backends are within "
        "1.3x of each other on every dataset. Since then both inherit "
        "one `neighborhood_batch` and every backend lists each "
        "neighbourhood in ascending id order; the table below is "
        "re-recorded on that code, where the two fast backends are within "
        "1.2x of each other on every dataset, and again since the chunk "
        "count sorts its keys with a plain `np.sort` (ARCS alone keeps the "
        "index sort its gather-order sums need); ||B'|| is unchanged.",
    ),
    "ablation_supervised": (
        "Ablation — supervised meta-blocking (extra)",
        "Oracle-labelled logistic regression over per-edge features vs "
        "unsupervised pruning (the paper's Related Work, reference [23]), "
        "on D1C with JS for the unsupervised rows. The classifier is a "
        "weighting scheme (`ClassifierScheme`): the lower-case rows are "
        "the PVLDB 2014 modes (`wep` = WEP at probability 0.5, `cep` = "
        "CEP, `cnp` = redefined CNP), and the generalized rows run CNP, "
        "WNP, ReWNP, RcCNP and RcWNP on the same match probabilities with "
        "no supervised pruning code, as Generalized Supervised "
        "Meta-blocking (arXiv 2204.08801) does. When the scheme came, the "
        "three mode rows and unsupervised WEP equalled the table recorded "
        "before it existed. Training samples its negatives in the default "
        "backend's edge-stream order; since that order lists every "
        "neighbourhood by ascending id, the sample, and so the model, "
        "differ, and six rows moved (supervised-wep 1,430 -> 1,630 "
        "comparisons, PQ 0.308 -> 0.271; supervised-cnp 8,961 -> 8,978). "
        "Unsupervised RcWNP reads 4,888 comparisons / PQ 0.09288 "
        "where that table read 4,886 / 0.09292: it was recorded before the "
        "WNP neighbourhood mean was clamped to the neighbourhood's largest "
        "weight.",
    ),
    "ablation_progressive": (
        "Ablation — progressive (pay-as-you-go) ordering (extra)",
        "Recall vs executed comparisons under best-first edge ordering "
        "against the blocks' schedule order, at equal effort levels.",
    ),
    "ablation_scaling": (
        "Ablation — overhead scaling with collection size (extra)",
        "Block Filtering + JS + Reciprocal WNP across dataset scale "
        "factors: overhead tracks ||B||, far below the quadratic ||E||.",
    ),
    "edge_stream": (
        "Columnar edge stream — batched vs per-edge pruning (extra)",
        "Pruning-phase throughput over a cached weighted graph: the batched "
        "EdgeBatch/NodeGroup path against the tuple-at-a-time shim, per "
        "backend and pruning family. Both paths retain identical "
        "comparisons (asserted in the run). The CNP batched column times "
        "`topk_per_segment` alone; it was re-recorded, host-stamped, since "
        "that kernel ranks exactly only the entries above each node's "
        "prefix bound.",
    ),
    "edge_stream_chunks": (
        "Columnar edge stream — chunk-size profile (extra)",
        "WEP under different EdgeBatch chunk sizes: the chunk bounds the "
        "working set, never the retained comparisons.",
    ),
    "memory_budget": (
        "Out-of-core spilling — enforced address-space cap (extra)",
        "One WEP pruning run, address space capped at the post-setup "
        "footprint plus the listed headroom (resource.setrlimit RLIMIT_AS). "
        "The eager path's materialised pair list exhausts the cap; the same "
        "run through a budgeted SpillSink completes and retains the "
        "identical comparison count, streamed back from memory-mapped "
        ".npy shards.",
    ),
    "parallel_scaling": (
        "Parallel executor — thread pool and worker-count scaling (extra)",
        "ReWNP on a 50k-entity synthetic collection: serial, the "
        "executor's thread pool at 2, 4 and 8 workers (`4 × workers` "
        "chunks), and the executor's in-process path over the same chunks, "
        "which separates the pool's gain from the chunking's; `phases` is "
        "the executor's dispatch/weight/prune/merge split, where `prune` "
        "is the retention over each range's cached emitted edges. Every "
        "leg builds its Entity Index outside the timer. Each round runs "
        "every leg once, and `seconds` is a leg's median over five rounds, "
        "`q1-q3` its spread, `speedup` the ratio of medians and `phases` "
        "the per-phase medians. On a 2-core host, three full-scale runs of "
        "the recorded commit read the serial leg at 0.143-0.146 s and the "
        "pool at 2 workers at 0.121-0.123 s (1.16-1.21x, its q1-q3 below "
        "serial's in every run); at 4 workers the pool's spread reaches "
        "serial's, at 8 workers it is slower (0.157-0.188 s), and the "
        "in-process legs read 0.147-0.169 s. The table recorded before the "
        "node-chunk kernels got faster read 0.27-0.31 s for the serial leg, "
        "overlapping every leg but the 8-worker pool (0.33 s). The earlier "
        "one-round table of this bench had the 8-thread "
        "leg beating serial (0.228 s against 0.261 s): noise. On 8+ usable "
        "cores the bench asserts >= 3x for the pool at 8 workers, read off "
        "the medians. The fork and "
        "shared-memory spawn pools were removed after an earlier "
        "revision's run of this bench on the same host timed ReWNP at 2 "
        "workers at 0.310 s on threads, 0.394 s on fork and 0.936 s on "
        "shared-memory spawn (0.336 s serial, its index build timed). "
        "Every leg retains the same 623,159 comparisons.",
    ),
    "serve": (
        "Served streaming — daemon round-trip throughput (extra)",
        "The repro serve asyncio daemon on a Unix socket, driven by the "
        "synchronous SDK: one upsert round trip per profile (coalescing 1) "
        "vs upsert_many chunks (64, 256), with a top-k query every tenth "
        "request. p50/p99 are the server-side upsert latencies from the "
        "stats verb. Every leg asserts candidate lists bit-identical to an "
        "in-process resolver fed the same sequence (CBS and JS). The timer "
        "covers the daemon's requests only: the replies are kept and the "
        "in-process mirror replays the sequence after it. Earlier records "
        "also timed the mirror's own upserts and queries, so they read "
        "747 / 1,952 / 2,889 CBS upserts/s at coalescing 1 / 64 / 256. "
        "The durability rows (CBS with a write-ahead log under each fsync "
        "policy) are each leg's median over three interleaved rounds, with "
        "the q1-q3 spread of its upserts/s (earlier records timed each "
        "leg once). On this 2-core host the spreads still overlap, so the "
        "rows do not order the policies: at coalescing 256 the no-WAL "
        "leg's spread (5,854-9,719) overlaps both logged legs' spreads.",
    ),
    "incremental": (
        "Incremental resolver — upserts vs the dict baseline (extra)",
        "A Clean-Clean stream (JS, k=5) through the delta-index resolver's "
        "plain `add()`, through `submit()` at each coalescing capacity, and "
        "through the trimmed dict-based resolver it replaced; every leg "
        "returns the same per-upsert candidate lists. At full scale the "
        "bench gates plain `add()` at >= 0.75x the dict baseline and "
        "batch=64 at >= 1x. `add()` is a one-member `add_batch()`, so "
        "plain `add()` and batch=1 run the same path, and batch=1 is gated "
        "at >= 0.9x plain `add()`. The micro-batch rows (plain `add()` and "
        "each capacity) are medians of five interleaved rounds, odd rounds "
        "in reverse order, with the q1-q3 spread of upserts/s; the gates "
        "read those medians. A run of one or two batch members reads the "
        "single-node kernel per member and a longer run the fused kernel, "
        "whose per-call constants still put batch=4 below batch=1 here "
        "(for JS the two kernels break even at about six members).\n\n"
        "**Why single upserts ran at 0.49-0.63x the dict baseline** "
        "(ROADMAP item 3). After every `add()` the resolver drained the "
        "index's dirty blocks: it turned every member of every block the "
        "upsert joined into a Python int and dropped it from the criteria "
        "cache. That cache only feeds the export, and later upserts make "
        "most of its entries stale again before any export reads them. "
        "Blocks now carry epoch stamps instead: `add()` writes one stamp "
        "per block it joins, and the export finds the stale nodes in one "
        "vectorized pass over all (entity, block) assignments. In the "
        "traced `stream-upsert` pass the index phase fell from 1.12-1.14 s "
        "to 0.32-0.45 s. Before/after, both commits run twice on the same "
        "2-core x86-64 host (Python 3.11, numpy 2.4): plain `add()` "
        "0.56x/0.52x -> 1.02x/1.50x the dict baseline, batch=1 "
        "0.67x/0.51x -> 1.23x/1.48x (the dict baseline itself ran at "
        "3.6k-4.3k upserts/s across the four runs). The stamps and the "
        "criteria cache have since been removed: every export now runs "
        "the batch pruning algorithm on a merged copy of the index, one "
        "CSR built for that export, while upserts and queries read the "
        "live index.\n\n"
        "**Numpy's per-call constants in the single-node kernel** "
        "(ROADMAP item 3). A streaming upsert joins about nine blocks and "
        "finds about forty co-occurrences, so the kernel cost what its "
        "numpy calls cost, not its arithmetic: the gather converted each "
        "touched block's delta appends with its own `np.asarray` and "
        "`np.full`, counting ran `np.unique` with an inverse, top-k took a "
        "partition plus two tie checks, and every candidate read three "
        "numpy scalars. Now the gather converts the joined append lists "
        "once, counting is one sort, top-k one partition, and candidates "
        "one `tolist()` per field: about 39 numpy calls per upsert instead "
        "of 96 (cProfile count on the `stream-upsert` stream). Before/after, "
        "both commits run three times on the same 2-core x86-64 host "
        "(Python 3.11, numpy 2.4): plain `add()` 1.20x/1.18x/0.83x -> "
        "1.47x/1.57x/1.38x the dict baseline, batch=1 1.35x/1.10x/0.99x -> "
        "1.24x/1.55x/1.31x (the dict baseline itself ran at 3.9k-5.5k "
        "upserts/s across the six runs). The table below is a full-scale "
        "re-record after runs of one or two batch members moved to the "
        "single-node kernel and the sweep's legs were interleaved.",
    ),
}


def _format(value) -> str:
    if isinstance(value, list):
        # A [low, high] spread, e.g. a leg's q1-q3 seconds.
        return "–".join(_format(item) for item in value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100_000 or abs(value) < 0.01:
            return f"{value:.2e}"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and abs(value) >= 100_000:
        return f"{value:.2e}"
    return str(value)


def render_table(rows: list[dict]) -> str:
    columns = list(dict.fromkeys(key for row in rows for key in row))
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_format(row.get(column, "")) for column in columns)
            + " |"
        )
    return "\n".join(lines)


def load_results(path: Path) -> "tuple[list[dict], dict | None]":
    """``(rows, host)`` of one results file; ``host`` is ``None`` for the
    bare row lists written before results carried a host stamp."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, list):
        return data, None
    return data["rows"], data.get("host")


def render_host(host: "dict | None") -> str:
    """The one-line host stamp printed under a table."""
    if host is None:
        return "*Host: not recorded.*"
    affinity = host.get("affinity")
    cpus = f"{host.get('cpu_count')} CPUs"
    if affinity is not None:
        cpus += f" (affinity {','.join(map(str, affinity))})"
    commit = host.get("commit")
    return (
        f"*Host: {cpus}, {host.get('machine')}, Python {host.get('python')}, "
        f"numpy {host.get('numpy')}, commit "
        f"{commit[:12] if commit else 'unknown'}, "
        f"REPRO_BENCH_SCALE={host.get('bench_scale')}.*"
    )


def main() -> None:
    sections = [PREAMBLE]
    result_files = sorted(RESULTS_DIR.glob("*.json")) if RESULTS_DIR.exists() else []
    if not result_files:
        sections.append(
            "\n*No results found — run `pytest benchmarks/ --benchmark-only` "
            "first.*\n"
        )
    ordered = sorted(
        result_files,
        key=lambda p: list(TABLE_NOTES).index(p.stem)
        if p.stem in TABLE_NOTES
        else 99,
    )
    for path in ordered:
        rows, host = load_results(path)
        title, note = TABLE_NOTES.get(
            path.stem, (path.stem, "Additional experiment.")
        )
        sections.append(
            f"\n## {title}\n\n{note}\n\n{render_table(rows)}\n\n"
            f"{render_host(host)}\n"
        )
    OUTPUT.write_text("".join(sections), encoding="utf-8")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
