"""Unit and behaviour tests for Incremental Meta-blocking."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocking import TokenBlocking
from repro.datamodel.profiles import EntityProfile
from repro.datasets import paper_example_dataset
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset
from repro.incremental import (
    EXPORT_ALGORITHMS,
    Candidate,
    IncrementalMetaBlocking,
)


def _profile(identifier: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(identifier, {"text": text})


def _resolver(**kwargs) -> IncrementalMetaBlocking:
    defaults = dict(keys_for=TokenBlocking().keys_for, scheme="JS", k=3)
    defaults.update(kwargs)
    return IncrementalMetaBlocking(**defaults)


class TestConstruction:
    def test_rejects_ejs(self):
        with pytest.raises(ValueError, match="degrees"):
            _resolver(scheme="EJS")

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            _resolver(k=0)
        with pytest.raises(ValueError):
            _resolver(filtering_ratio=0.0)
        with pytest.raises(ValueError):
            _resolver(max_block_size=1)

    @pytest.mark.parametrize(
        "k", [2.5, 2.0, True, float("inf"), float("nan"), "2", None]
    )
    def test_rejects_non_integral_k(self, k):
        # A float k used to be accepted and then broke argpartition inside
        # add(), after the index had been mutated.
        with pytest.raises(ValueError, match="k must be an integer"):
            _resolver(k=k)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 6.5, "6"])
    def test_rejects_non_integral_max_block_size(self, size):
        # NaN used to pass the `< 2` check and switch the guard off.
        with pytest.raises(ValueError, match="max_block_size must be"):
            _resolver(max_block_size=size)

    def test_accepts_numpy_integers(self):
        resolver = _resolver(k=np.int64(2), max_block_size=np.int32(4))
        assert type(resolver.k) is int
        assert type(resolver.max_block_size) is int
        for i in range(4):
            resolver.add(_profile(str(i), "alpha beta"))
        assert len(resolver.query(3, k=np.int64(1))) == 1

    @pytest.mark.parametrize("scheme", ["ARCS", "CBS", "ECBS", "JS"])
    def test_supported_schemes(self, scheme):
        resolver = _resolver(scheme=scheme, k=1)
        # The unrelated profile enlarges |B| so ECBS's IDF factor is > 0.
        resolver.add(_profile("other", "unrelated words here"))
        resolver.add(_profile("a", "alpha beta"))
        (candidate,) = resolver.add(_profile("b", "alpha beta"))
        assert candidate.entity_id == 1
        assert candidate.weight > 0
        assert candidate.common_blocks == 2


class TestStreaming:
    def test_first_profile_has_no_candidates(self):
        resolver = _resolver()
        assert resolver.add(_profile("a", "alpha")) == []
        assert len(resolver) == 1

    def test_candidates_reference_earlier_profiles(self):
        resolver = _resolver()
        resolver.add(_profile("a", "alpha beta"))
        resolver.add(_profile("b", "gamma delta"))
        candidates = resolver.add(_profile("c", "alpha beta"))
        assert [c.entity_id for c in candidates] == [0]

    def test_common_blocks_counted(self):
        resolver = _resolver(filtering_ratio=1.0)
        resolver.add(_profile("a", "alpha beta gamma"))
        (candidate,) = resolver.add(_profile("b", "alpha beta zeta"))
        assert candidate.common_blocks == 2

    def test_top_k_cap(self):
        resolver = _resolver(k=2)
        for index in range(5):
            resolver.add(_profile(f"p{index}", "shared token"))
        candidates = resolver.add(_profile("new", "shared token"))
        assert len(candidates) == 2

    def test_candidates_sorted_by_weight(self):
        resolver = _resolver(filtering_ratio=1.0)
        resolver.add(_profile("close", "alpha beta gamma"))
        resolver.add(_profile("far", "alpha zzz yyy xxx www vvv"))
        candidates = resolver.add(_profile("new", "alpha beta gamma"))
        assert [c.entity_id for c in candidates] == [0, 1]
        assert candidates[0].weight > candidates[1].weight

    def test_profile_lookup(self):
        resolver = _resolver()
        resolver.add(_profile("a", "alpha"))
        assert resolver.profile(0).identifier == "a"


class TestFilteringAndPurging:
    def test_max_block_size_blocks_cooccurrence(self):
        resolver = _resolver(max_block_size=3, filtering_ratio=1.0)
        for index in range(5):
            resolver.add(_profile(f"p{index}", "common"))
        # "common" now has 5 members > 3: it yields no candidates.
        assert resolver.add(_profile("new", "common")) == []

    def test_filtering_keeps_rarest_blocks(self):
        resolver = _resolver(filtering_ratio=0.5, k=5)
        # Build a popular block and a rare one.
        for index in range(6):
            resolver.add(_profile(f"pop{index}", "popular"))
        resolver.add(_profile("rare1", "rareword"))
        # New profile has both keys; filtering (0.5 of 2 existing = 1 block)
        # keeps only the rare one.
        candidates = resolver.add(_profile("new", "popular rareword"))
        assert [c.entity_id for c in candidates] == [6]

    def test_fresh_keys_always_kept(self):
        resolver = _resolver(filtering_ratio=0.5)
        resolver.add(_profile("a", "seen"))
        resolver.add(_profile("b", "unseen seen"))
        # "unseen" was fresh for b; c can now match b through it.
        candidates = resolver.add(_profile("c", "unseen"))
        assert [c.entity_id for c in candidates] == [1]


class TestReciprocal:
    def test_reciprocal_prunes_one_sided_edges(self):
        # "hub" shares one token with the new profile but has k stronger
        # neighbours of its own, so the reciprocal test fails.
        plain = _resolver(k=1, filtering_ratio=1.0)
        reciprocal = _resolver(k=1, reciprocal=True, filtering_ratio=1.0)
        for resolver in (plain, reciprocal):
            resolver.add(_profile("twin1", "alpha beta gamma delta"))
            resolver.add(_profile("hub", "alpha beta gamma delta zeta"))
        assert [c.entity_id for c in plain.add(_profile("new", "zeta"))] == [1]
        assert reciprocal.add(_profile("new", "zeta")) == []

    def test_reciprocal_keeps_mutual_best(self):
        resolver = _resolver(k=2, reciprocal=True, filtering_ratio=1.0)
        resolver.add(_profile("a", "alpha beta gamma"))
        candidates = resolver.add(_profile("b", "alpha beta gamma"))
        assert [c.entity_id for c in candidates] == [0]

    def test_reciprocal_subset_of_plain(self):
        dataset = paper_example_dataset()
        plain = _resolver(k=2, filtering_ratio=1.0)
        reciprocal = _resolver(k=2, reciprocal=True, filtering_ratio=1.0)
        for _, profile in dataset.iter_profiles():
            plain_candidates = {c.entity_id for c in plain.add(profile)}
            reciprocal_candidates = {
                c.entity_id for c in reciprocal.add(profile)
            }
            assert reciprocal_candidates <= plain_candidates


class TestCleanClean:
    def test_same_source_pairs_excluded(self):
        resolver = _resolver(clean_clean=True, filtering_ratio=1.0)
        resolver.add(_profile("a1", "alpha beta"), source=0)
        resolver.add(_profile("a2", "alpha beta"), source=0)
        candidates = resolver.add(_profile("b1", "alpha beta"), source=1)
        assert {c.entity_id for c in candidates} == {0, 1}
        same_side = resolver.add(_profile("a3", "alpha beta"), source=0)
        assert {c.entity_id for c in same_side} == {2}

    def test_source_validated(self):
        resolver = _resolver(clean_clean=True)
        with pytest.raises(ValueError, match="source"):
            resolver.add(_profile("x", "alpha"), source=2)


_UPSERT_PATHS = {
    "add": lambda resolver, profile, source: resolver.add(profile, source),
    "add_batch": lambda resolver, profile, source: resolver.add_batch(
        [profile], [source]
    ),
    "submit": lambda resolver, profile, source: resolver.submit(
        profile, source
    ),
}


class TestSourceTags:
    """Every upsert path checks a source tag the same way: an integer,
    0 or 1 under Clean-Clean ER, rejected before anything changes."""

    @pytest.mark.parametrize("path", sorted(_UPSERT_PATHS))
    @pytest.mark.parametrize("clean_clean", [False, True])
    @pytest.mark.parametrize("source", [None, "a", "1", 1.0, True])
    def test_non_integer_source_rejected(self, path, clean_clean, source):
        resolver = _resolver(clean_clean=clean_clean, batch_size=2)
        with pytest.raises(ValueError, match="source must be an integer"):
            _UPSERT_PATHS[path](resolver, _profile("x", "alpha"), source)
        assert len(resolver) == 0 and resolver.pending == 0

    @pytest.mark.parametrize("path", sorted(_UPSERT_PATHS))
    def test_out_of_range_source_rejected_under_clean_clean(self, path):
        resolver = _resolver(clean_clean=True, batch_size=2)
        with pytest.raises(ValueError, match="source must be 0 or 1"):
            _UPSERT_PATHS[path](resolver, _profile("x", "alpha"), 2)
        assert len(resolver) == 0 and resolver.pending == 0

    @pytest.mark.parametrize("path", sorted(_UPSERT_PATHS))
    def test_dirty_accepts_any_integer_source(self, path):
        resolver = _resolver(batch_size=1)
        _UPSERT_PATHS[path](resolver, _profile("x", "alpha"), np.int64(7))
        _UPSERT_PATHS[path](resolver, _profile("y", "alpha"), -3)
        assert len(resolver) == 2
        assert [c.entity_id for c in resolver.query(1)] == [0]


class TestStreamQuality:
    def test_recovers_most_duplicates_on_synthetic_stream(self):
        dataset = bibliographic_dataset(
            DatasetScale(size1=80, size2=200, num_duplicates=60), seed=17
        )
        resolver = _resolver(
            k=5, clean_clean=True, max_block_size=60, filtering_ratio=0.8
        )
        matches = set()
        for entity_id, profile in dataset.iter_profiles():
            source = dataset.source_of(entity_id)
            for candidate in resolver.add(profile, source=source):
                pair = tuple(sorted((entity_id, candidate.entity_id)))
                matches.add(pair)
        detected = dataset.ground_truth.detected_in(matches)
        recall = len(detected) / len(dataset.ground_truth)
        precision = len(detected) / len(matches)
        assert recall > 0.8
        # Top-k candidates are vastly better than random pairs: a random
        # cross-source pair is a duplicate with probability ~0.4%.
        assert precision > 0.03

    def test_deterministic(self):
        dataset = paper_example_dataset()

        def run():
            resolver = _resolver(k=2)
            out = []
            for _, profile in dataset.iter_profiles():
                out.append(tuple(c.entity_id for c in resolver.add(profile)))
            return out

        assert run() == run()

    def test_candidate_is_frozen(self):
        candidate = Candidate(entity_id=1, weight=0.5, common_blocks=2)
        with pytest.raises(AttributeError):
            candidate.weight = 0.9  # type: ignore[misc]


#: One upsert of the staleness property: a token list and a source tag.
_UPSERT = st.tuples(
    st.lists(
        st.sampled_from([f"t{i}" for i in range(8)]), min_size=1, max_size=4
    ),
    st.integers(0, 1),
)
#: One step of the staleness property: an upsert call or a read/compaction.
_STEP = st.one_of(
    st.tuples(st.just("add"), _UPSERT),
    st.tuples(st.just("add_batch"), st.lists(_UPSERT, min_size=1, max_size=4)),
    st.tuples(st.just("submit"), _UPSERT),
    st.tuples(st.just("query"), st.integers(0, 63)),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("export"), st.sampled_from(EXPORT_ALGORITHMS)),
)


class TestBatchEquivalence:
    """Post-stream exports match the batch pipeline on the same collection.

    The acceptance contract of the delta-index rewrite: after any sequence
    of upserts (with or without compactions), ``candidate_pairs`` retains
    exactly the pairs — in the same order — that ``meta_block`` retains on
    the materialised collection with the same scheme and explicit ``k``.
    Schemes with integer co-occurrence statistics (JS, CBS) make the match
    bit-exact regardless of block order.
    """

    @staticmethod
    def _stream(dataset, scheme, execution=None, compact_every=None):
        resolver = IncrementalMetaBlocking(
            TokenBlocking().keys_for,
            scheme=scheme,
            k=2,
            filtering_ratio=1.0,
            clean_clean=dataset.is_clean_clean,
            execution=execution,
        )
        for entity_id, profile in dataset.iter_profiles():
            source = (
                dataset.source_of(entity_id)
                if dataset.is_clean_clean
                else 0
            )
            resolver.add(profile, source=source)
            if compact_every and (entity_id + 1) % compact_every == 0:
                resolver.compact()
        return resolver

    @staticmethod
    def _batch(resolver, scheme, algorithm, execution=None):
        from repro.core.pipeline import meta_block

        return meta_block(
            resolver.to_block_collection(),
            scheme=scheme,
            algorithm=algorithm,
            block_filtering_ratio=None,
            backend="vectorized",
            execution=execution,
        )

    @staticmethod
    def _batch_algorithm(algorithm):
        """The batch algorithm an export runs, with the resolver's ``k``."""
        from repro.core.pruning import PRUNING_ALGORITHMS

        family = PRUNING_ALGORITHMS[algorithm]
        return family(2) if algorithm.endswith("CNP") else family()

    @pytest.mark.parametrize("scheme", ["JS", "CBS"])
    @pytest.mark.parametrize("algorithm", EXPORT_ALGORITHMS)
    def test_serial_equivalence(self, scheme, algorithm):
        dataset = bibliographic_dataset(
            DatasetScale(size1=30, size2=60, num_duplicates=20), seed=11
        )
        resolver = self._stream(dataset, scheme, compact_every=25)
        streaming = resolver.candidate_pairs(algorithm)
        batch = self._batch(
            resolver, scheme, self._batch_algorithm(algorithm)
        )
        assert list(streaming.pairs) == list(batch.comparisons.pairs)

    @pytest.mark.parametrize("algorithm", ["CNP", "ReCNP"])
    def test_threads_backend_equivalence(self, algorithm):
        """The parallel (threads) batch run agrees with the streaming
        export, pair for pair, before and after the resolver compacts."""
        from repro.core.execution import ExecutionConfig

        dataset = bibliographic_dataset(
            DatasetScale(size1=30, size2=60, num_duplicates=20), seed=12
        )
        resolver = self._stream(dataset, "JS")
        batch = self._batch(
            resolver,
            "JS",
            self._batch_algorithm(algorithm),
            execution=ExecutionConfig(parallel=2),
        )
        expected = list(batch.comparisons.pairs)
        assert list(resolver.candidate_pairs(algorithm).pairs) == expected
        resolver.compact()
        assert list(resolver.candidate_pairs(algorithm).pairs) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(["ARCS", "CBS", "ECBS", "JS"]),
        reciprocal=st.booleans(),
        max_block_size=st.sampled_from([None, 3]),
        clean_clean=st.booleans(),
        steps=st.lists(_STEP, min_size=1, max_size=25),
    )
    # |B| grows through a block in nobody's neighborhood after an export:
    # every ECBS weight moves, so the final exports must move with it.
    @example(
        scheme="ECBS",
        reciprocal=False,
        max_block_size=None,
        clean_clean=True,
        steps=[
            ("add", (["t0"], 0)),
            ("add", (["t0"], 1)),
            ("add", (["t0", "t2"], 0)),
            ("export", "CNP"),
            ("add", (["t1"], 0)),
        ],
    )
    # The size guard veils the only block of nodes an earlier export saw:
    # the final exports must drop their old neighbors.
    @example(
        scheme="CBS",
        reciprocal=False,
        max_block_size=3,
        clean_clean=False,
        steps=[
            ("add", (["t0"], 0)),
            ("add", (["t0"], 0)),
            ("export", "CNP"),
            ("add_batch", [(["t0"], 0), (["t0"], 0)]),
        ],
    )
    # Upserts after a compaction push a base block past the size guard:
    # the merged copy an export reads must carry that exclusion.
    @example(
        scheme="ARCS",
        reciprocal=False,
        max_block_size=3,
        clean_clean=True,
        steps=[
            ("add", (["t0", "t1"], 0)),
            ("add", (["t0", "t1"], 1)),
            ("add", (["t0"], 1)),
            ("compact", None),
            ("add", (["t0", "t2"], 0)),
            ("add", (["t1", "t2"], 1)),
        ],
    )
    def test_dirty_repruning_matches_full_recompute(
        self, scheme, reciprocal, max_block_size, clean_clean, steps
    ):
        """Property: no answer depends on the reads made before it.

        A resolver takes a random token stream through a random mix of
        ``add``, ``add_batch`` and ``submit``, with ``query``, ``compact``
        and ``candidate_pairs`` calls at random points. Every per-upsert
        candidate list, every query and every export must equal, order
        included, what a fresh resolver returns after replaying the same
        upserts, batch splits and compactions with no earlier export or
        query. The axes cover reciprocal probes, size-guard exclusions and
        ECBS, whose weights all move when ``|B|`` grows. Every export must
        also equal the batch algorithm run on the resolver's own weighting,
        which reads the live index's append lists, not a merged copy.
        """
        from repro.core.parallel import parallel_prune

        config = dict(
            keys_for=list,  # profiles are plain token lists
            scheme=scheme,
            k=2,
            reciprocal=reciprocal,
            max_block_size=max_block_size,
            clean_clean=clean_clean,
        )

        def replay(log):
            fresh = IncrementalMetaBlocking(**config)
            lists = []
            for upserts in log:
                if upserts is None:
                    fresh.compact()
                else:
                    lists.extend(
                        fresh.add_batch(
                            [tokens for tokens, _ in upserts],
                            [source for _, source in upserts],
                        )
                    )
            return fresh, lists

        def sourced(upsert):
            tokens, source = upsert
            return tokens, source if clean_clean else 0

        resolver = IncrementalMetaBlocking(**config, batch_size=3)
        log: list = []  # committed upsert batches; None marks a compaction
        lists: list = []
        pending: list = []
        finale = [("export", algorithm) for algorithm in EXPORT_ALGORITHMS]
        for op, arg in steps + finale:
            if op == "add":
                log.append([sourced(arg)])
                lists.append(resolver.add(*log[-1][0]))
            elif op == "add_batch":
                log.append([sourced(upsert) for upsert in arg])
                lists.extend(
                    resolver.add_batch(
                        [tokens for tokens, _ in log[-1]],
                        [source for _, source in log[-1]],
                    )
                )
            elif op == "submit":
                pending.append(sourced(arg))
                flushed = resolver.submit(*pending[-1])
                if flushed is not None:
                    log.append(pending)
                    lists.extend(flushed)
                    pending = []
            else:
                if pending:
                    # Commit the buffer here, as query/compact/export
                    # would, so its candidate lists are recorded too.
                    log.append(pending)
                    lists.extend(resolver.flush())
                    pending = []
                if op == "compact":
                    resolver.compact()
                    log.append(None)
                    continue
                reference, expected = replay(log)
                assert lists == expected
                if op == "export":
                    exported = list(resolver.candidate_pairs(arg).pairs)
                    assert exported == list(
                        reference.candidate_pairs(arg).pairs
                    ), arg
                    live = parallel_prune(
                        resolver._weighting, self._batch_algorithm(arg)
                    )
                    assert exported == list(live.pairs), arg
                elif len(resolver):
                    target = arg % len(resolver)
                    assert resolver.query(target) == reference.query(target)

    def test_compaction_preserves_resolver_state(self):
        dataset = bibliographic_dataset(
            DatasetScale(size1=15, size2=30, num_duplicates=10), seed=14
        )
        resolver = self._stream(dataset, "JS")
        before = list(resolver.candidate_pairs("CNP").pairs)
        resolver.compact()
        assert resolver.compactions == 1
        assert list(resolver.candidate_pairs("CNP").pairs) == before

    def test_auto_compaction_triggers(self):
        import repro.incremental.resolver as resolver_module

        dataset = bibliographic_dataset(
            DatasetScale(size1=20, size2=40, num_duplicates=10), seed=15
        )
        resolver = IncrementalMetaBlocking(
            TokenBlocking().keys_for,
            scheme="JS",
            compact_ratio=0.5,
            clean_clean=True,
        )
        threshold = resolver_module.MIN_COMPACT_ASSIGNMENTS
        for entity_id, profile in dataset.iter_profiles():
            resolver.add(profile, source=dataset.source_of(entity_id))
            if resolver.compactions:
                break
        assert resolver.compactions >= 1
        assert resolver.index.delta_assignments < threshold


class TestMicroBatching:
    """``add_batch`` and the ``submit``/``flush`` coalescing buffer."""

    def test_empty_batch(self):
        resolver = _resolver()
        assert resolver.add_batch([]) == []
        assert len(resolver) == 0

    def test_singleton_batch_matches_add(self):
        batched = _resolver()
        (only,) = batched.add_batch([_profile("a", "alpha beta")])
        plain = _resolver()
        assert only == plain.add(_profile("a", "alpha beta"))

    def test_batch_candidates_reference_earlier_entities_only(self):
        resolver = _resolver()
        results = resolver.add_batch(
            [
                _profile("a", "alpha beta"),
                _profile("b", "alpha beta"),
                _profile("c", "alpha beta"),
            ]
        )
        assert [[c.entity_id for c in batch] for batch in results] == [
            [], [0], [0, 1],
        ]

    def test_sources_broadcast_and_validation(self):
        resolver = _resolver(clean_clean=True)
        results = resolver.add_batch(
            [_profile("a", "alpha"), _profile("b", "alpha")], sources=1
        )
        assert results == [[], []]  # same side: no cross-source candidates
        with pytest.raises(ValueError, match="sources"):
            resolver.add_batch([_profile("c", "x")], sources=[0, 1])
        with pytest.raises(ValueError, match="source must be 0 or 1"):
            resolver.add_batch([_profile("c", "x")], sources=[2])
        with pytest.raises(ValueError, match="source must be 0 or 1"):
            resolver.add_batch([_profile("c", "x")], sources=2)
        with pytest.raises(ValueError, match="source must be an integer"):
            resolver.add_batch([_profile("c", "x")], sources=True)
        assert len(resolver) == 2

    def test_submit_buffers_until_capacity(self):
        resolver = _resolver(batch_size=3)
        assert resolver.submit(_profile("a", "alpha beta")) is None
        assert resolver.submit(_profile("b", "alpha beta")) is None
        assert resolver.pending == 2
        assert len(resolver) == 0
        assert "pending=2" in repr(resolver)
        flushed = resolver.submit(_profile("c", "alpha beta"))
        assert [[c.entity_id for c in batch] for batch in flushed] == [
            [], [0], [0, 1],
        ]
        assert resolver.pending == 0
        assert len(resolver) == 3

    def test_default_batch_size_commits_immediately(self):
        resolver = _resolver()
        assert resolver.submit(_profile("a", "alpha")) == [[]]
        assert resolver.pending == 0

    def test_flush_returns_pending_candidates(self):
        resolver = _resolver(batch_size=10)
        resolver.submit(_profile("a", "alpha beta"))
        resolver.submit(_profile("b", "alpha beta"))
        flushed = resolver.flush()
        assert [[c.entity_id for c in batch] for batch in flushed] == [
            [], [0],
        ]
        assert resolver.flush() == []

    def test_candidate_pairs_flushes_buffer(self):
        resolver = _resolver(batch_size=10)
        resolver.submit(_profile("a", "alpha beta"))
        resolver.submit(_profile("b", "alpha beta"))
        pairs = list(resolver.candidate_pairs("CNP").pairs)
        assert resolver.pending == 0
        assert len(resolver) == 2
        # Original CNP keeps the directed repeat: both nodes retain the edge.
        assert pairs == [(0, 1), (0, 1)]

    def test_compact_flushes_buffer(self):
        resolver = _resolver(batch_size=10)
        resolver.submit(_profile("a", "alpha beta"))
        resolver.compact()
        assert resolver.pending == 0
        assert len(resolver) == 1

    def test_batch_size_validation_and_seeding(self):
        from repro.core.execution import ExecutionConfig

        with pytest.raises(ValueError, match="batch_size"):
            _resolver(batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionConfig(batch_size=0)
        seeded = _resolver(execution=ExecutionConfig(batch_size=7))
        assert seeded.batch_size == 7
        explicit = _resolver(
            execution=ExecutionConfig(batch_size=7), batch_size=2
        )
        assert explicit.batch_size == 2

    def test_one_epoch_bump_per_batch(self):
        resolver = _resolver()
        before = resolver.epoch
        resolver.add_batch(
            [_profile(str(i), "alpha beta gamma") for i in range(8)]
        )
        assert resolver.epoch == before + 1

    def test_profile_phases_accumulate(self):
        resolver = _resolver(profile_phases=True, batch_size=4)
        for i in range(8):
            resolver.submit(_profile(str(i), "alpha beta gamma delta"))
        assert all(
            seconds > 0 for seconds in resolver.phase_seconds.values()
        ), resolver.phase_seconds

    def test_threads_export_matches_serial_export(self):
        from repro.core.execution import ExecutionConfig

        dataset = bibliographic_dataset(
            DatasetScale(size1=30, size2=60, num_duplicates=20), seed=21
        )
        serial = _resolver(filtering_ratio=1.0, clean_clean=True)
        threaded = _resolver(
            filtering_ratio=1.0,
            clean_clean=True,
            batch_size=16,
            execution=ExecutionConfig(parallel=2),
        )
        for entity_id, profile in dataset.iter_profiles():
            source = dataset.source_of(entity_id)
            serial.add(profile, source=source)
            threaded.submit(profile, source=source)
        for algorithm in EXPORT_ALGORITHMS:
            assert list(threaded.candidate_pairs(algorithm).pairs) == list(
                serial.candidate_pairs(algorithm).pairs
            ), algorithm


class TestMicroBatchProperty:
    """Property: any batch split of any stream equals the sequential run.

    For the insertion-count schemes (CBS, JS) ``add_batch`` must be
    bit-identical to per-profile ``add`` — per-upsert candidate lists
    (order included), the final collection, and every export — no matter
    how the stream is cut into micro-batches. The configuration is drawn
    too: reciprocal or not, ``k``, the filtering ratio and the size guard,
    so one-member runs inside a batch meet the reciprocal probe.
    """

    @staticmethod
    def _keys_for(profile):
        return profile  # profiles are plain token lists

    @classmethod
    def _build(cls, scheme, clean_clean, config, execution=None):
        return IncrementalMetaBlocking(
            cls._keys_for,
            scheme=scheme,
            clean_clean=clean_clean,
            execution=execution,
            **config,
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("scheme", ["CBS", "JS"])
    @pytest.mark.parametrize("threads", [False, True])
    def test_batched_equals_sequential(self, data, scheme, threads):
        from repro.core.execution import ExecutionConfig

        vocabulary = [f"t{i}" for i in range(8)]
        profiles = data.draw(
            st.lists(
                st.lists(st.sampled_from(vocabulary), min_size=1, max_size=4),
                min_size=2,
                max_size=20,
            )
        )
        clean_clean = data.draw(st.booleans())
        sources = [
            data.draw(st.integers(0, 1)) if clean_clean else 0
            for _ in profiles
        ]
        config = {
            "reciprocal": data.draw(st.booleans(), label="reciprocal"),
            "k": data.draw(st.integers(1, 3), label="k"),
            "filtering_ratio": data.draw(
                st.sampled_from([0.5, 0.6, 1.0]), label="filtering_ratio"
            ),
            "max_block_size": data.draw(
                st.sampled_from([None, 2, 3, 4]), label="max_block_size"
            ),
        }
        execution = (
            ExecutionConfig(parallel=2)
            if threads
            else None
        )

        sequential = self._build(scheme, clean_clean, config)
        expected = [
            sequential.add(profile, source)
            for profile, source in zip(profiles, sources)
        ]

        batched = self._build(scheme, clean_clean, config, execution=execution)
        actual = []
        position = 0
        while position < len(profiles):
            size = data.draw(
                st.integers(1, len(profiles) - position), label="batch"
            )
            actual.extend(
                batched.add_batch(
                    profiles[position : position + size],
                    sources[position : position + size],
                )
            )
            position += size

        assert actual == expected
        sequential_blocks = sequential.to_block_collection()
        batched_blocks = batched.to_block_collection()
        assert [
            (block.key, block.entities1, block.entities2)
            for block in sequential_blocks
        ] == [
            (block.key, block.entities1, block.entities2)
            for block in batched_blocks
        ]
        for algorithm in ("CNP", "WNP", "ReCNP", "RcWNP"):
            assert list(batched.candidate_pairs(algorithm).pairs) == list(
                sequential.candidate_pairs(algorithm).pairs
            ), algorithm


class TestQueryAndStats:
    """The read-only ``query``/``stats`` surface added for the daemon."""

    def test_query_matches_last_insert_view(self):
        resolver = _resolver()
        resolver.add(_profile("a", "alpha beta"))
        resolver.add(_profile("b", "alpha beta"))
        candidates = resolver.query(1)
        assert [c.entity_id for c in candidates] == [0]
        assert candidates == resolver.query(1)  # read-only: stable

    def test_query_respects_k(self):
        resolver = _resolver(k=3)
        for i in range(5):
            resolver.add(_profile(str(i), "alpha beta"))
        assert len(resolver.query(4)) == 3
        assert len(resolver.query(4, k=1)) == 1
        assert len(resolver.query(4, k=10)) == 4

    def test_query_validation(self):
        resolver = _resolver()
        resolver.add(_profile("a", "alpha"))
        with pytest.raises(KeyError, match="unknown entity"):
            resolver.query(5)
        with pytest.raises(ValueError, match="k must be positive"):
            resolver.query(0, k=0)

    @pytest.mark.parametrize("k", [2.5, True, float("inf"), "2"])
    def test_query_rejects_non_integral_k_before_flushing(self, k):
        resolver = _resolver(batch_size=10)
        resolver.add(_profile("a", "alpha beta"))
        resolver.submit(_profile("b", "alpha beta"))
        with pytest.raises(ValueError, match="k must be an integer"):
            resolver.query(0, k=k)
        assert resolver.pending == 1
        assert len(resolver) == 1

    def test_query_flushes_pending_submits(self):
        resolver = _resolver(batch_size=10)
        resolver.submit(_profile("a", "alpha beta"))
        resolver.submit(_profile("b", "alpha beta"))
        assert [c.entity_id for c in resolver.query(1)] == [0]
        assert resolver.pending == 0

    def test_stats_snapshot(self):
        import json

        from repro.core.execution import ExecutionConfig

        execution = ExecutionConfig(parallel=2)
        resolver = _resolver(batch_size=4, execution=execution)
        resolver.submit(_profile("a", "alpha beta"))
        stats = resolver.stats()
        assert stats["profiles"] == 0
        assert stats["pending"] == 1
        assert stats["scheme"] == "JS"
        assert stats["batch_size"] == 4
        assert ExecutionConfig.from_dict(stats["execution"]) == execution
        assert json.dumps(stats)  # JSON-serialisable end to end


class TestCompactCounting:
    """One explicit ``compact()`` is one compaction, even when its flush
    crosses the auto-compaction threshold (it used to count twice)."""

    def test_explicit_compact_counts_once(self, monkeypatch):
        import repro.incremental.resolver as resolver_module

        monkeypatch.setattr(resolver_module, "MIN_COMPACT_ASSIGNMENTS", 1)
        resolver = _resolver(batch_size=50, compact_ratio=0.01)
        for i in range(10):
            resolver.submit(_profile(str(i), "alpha beta gamma"))
        assert resolver.pending == 10
        resolver.compact()
        # The flush inside compact() crossed compact_ratio, but it folds
        # into this compaction instead of triggering a second one.
        assert resolver.compactions == 1
        assert resolver.index.delta_assignments == 0
        assert len(resolver) == 10

    def test_auto_compaction_counts_per_flushed_batch(self, monkeypatch):
        import repro.incremental.resolver as resolver_module

        monkeypatch.setattr(resolver_module, "MIN_COMPACT_ASSIGNMENTS", 1)
        resolver = _resolver(batch_size=5, compact_ratio=0.01)
        for i in range(10):
            resolver.submit(_profile(str(i), "alpha beta gamma"))
        # Ten upserts = two flushed batches = two auto-compactions, not
        # one per raw upsert.
        assert resolver.compactions == 2
