"""Tests for the supervised meta-blocking extension."""

import numpy as np
import pytest

from repro.blocking import TokenBlocking
from repro.core.edge_weighting import (
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.evaluation import evaluate
from repro.incremental import IncrementalMetaBlocking
from repro.supervised import (
    FEATURE_NAMES,
    ClassifierScheme,
    EdgeFeatureExtractor,
    LogisticRegressionClassifier,
    SupervisedMetaBlocking,
    train_from_ground_truth,
    training_edges,
)


class TestEdgeFeatureExtractor:
    def test_feature_vector_shape(self, example_blocks):
        extractor = EdgeFeatureExtractor(example_blocks)
        vector = extractor.features_for(0, 2)
        assert vector.shape == (len(FEATURE_NAMES),)

    def test_known_values_on_paper_example(self, example_blocks):
        extractor = EdgeFeatureExtractor(example_blocks)
        # p1-p3 share jack+miller: CBS=2, JS=2/6, RS=2/min(3,5)=2/3,
        # ARCS=1/1+1/1=2 (both unit blocks).
        vector = extractor.features_for(0, 2)
        assert vector[0] == 2.0
        assert vector[1] == pytest.approx(2.0)
        assert vector[2] == pytest.approx(2 / 6)
        assert vector[4] == pytest.approx(2 / 3)

    def test_disjoint_pair_all_zero_cooccurrence(self, example_blocks):
        extractor = EdgeFeatureExtractor(example_blocks)
        vector = extractor.features_for(0, 1)  # p1, p2 never co-occur
        assert vector[0] == 0.0
        assert vector[2] == 0.0


class TestLogisticRegression:
    def _separable_data(self):
        rng = np.random.default_rng(0)
        negatives = rng.normal(0.0, 0.5, size=(100, 3))
        positives = rng.normal(3.0, 0.5, size=(100, 3))
        X = np.vstack([negatives, positives])
        y = np.array([0.0] * 100 + [1.0] * 100)
        return X, y

    def test_learns_separable_data(self):
        X, y = self._separable_data()
        model = LogisticRegressionClassifier().fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy > 0.97

    def test_row_probability_independent_of_batch(self):
        X, y = self._separable_data()
        model = LogisticRegressionClassifier().fit(X, y)
        batched = model.predict_proba(X)
        single = np.concatenate([model.predict_proba(row) for row in X])
        assert np.array_equal(single, batched)
        assert np.array_equal(model.predict_proba(X[3:5]), batched[3:5])

    def test_probabilities_in_range(self):
        X, y = self._separable_data()
        model = LogisticRegressionClassifier().fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionClassifier().predict_proba([[1, 2, 3]])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            LogisticRegressionClassifier().fit([[1.0], [2.0]], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit([[1.0]], [1.0, 0.0])

    def test_constant_feature_does_not_crash(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = LogisticRegressionClassifier(iterations=200).fit(X, y)
        assert model.is_fitted

    def test_class_balancing_helps_imbalanced_recall(self):
        rng = np.random.default_rng(1)
        negatives = rng.normal(0.0, 1.0, size=(500, 2))
        positives = rng.normal(2.0, 1.0, size=(20, 2))
        X = np.vstack([negatives, positives])
        y = np.array([0.0] * 500 + [1.0] * 20)
        balanced = LogisticRegressionClassifier(balance_classes=True).fit(X, y)
        unbalanced = LogisticRegressionClassifier(balance_classes=False).fit(X, y)
        recall_balanced = balanced.predict(X[y == 1]).mean()
        recall_unbalanced = unbalanced.predict(X[y == 1]).mean()
        assert recall_balanced >= recall_unbalanced


class TestSupervisedMetaBlocking:
    def test_mode_validated(self, example_blocks):
        model = _trained_on_example(example_blocks)
        with pytest.raises(ValueError, match="unknown mode"):
            SupervisedMetaBlocking(model, mode="xxx")

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            SupervisedMetaBlocking(LogisticRegressionClassifier())

    def test_threshold_validated(self, example_blocks):
        model = _trained_on_example(example_blocks)
        with pytest.raises(ValueError):
            SupervisedMetaBlocking(model, probability_threshold=0.0)

    @pytest.mark.parametrize("mode", SupervisedMetaBlocking.MODES)
    def test_output_edges_subset_of_graph(self, example_blocks, mode):
        extractor = EdgeFeatureExtractor(example_blocks)
        model = _trained_on_example(example_blocks)
        pruned = SupervisedMetaBlocking(model, mode=mode).prune(extractor)
        assert pruned.distinct_comparisons() <= (
            example_blocks.distinct_comparisons()
        )

    def test_training_edges_requires_data(self, example_blocks):
        extractor = EdgeFeatureExtractor(example_blocks)
        with pytest.raises(ValueError):
            training_edges(extractor, [])

    def test_beats_recall_of_random_on_synthetic(
        self, small_dirty, small_dirty_blocks
    ):
        extractor = EdgeFeatureExtractor(small_dirty_blocks)
        model = train_from_ground_truth(
            extractor, small_dirty.ground_truth, seed=2
        )
        pruned = SupervisedMetaBlocking(model, mode="wep").prune(extractor)
        report = evaluate(
            pruned, small_dirty.ground_truth, small_dirty_blocks.cardinality
        )
        baseline = evaluate(small_dirty_blocks, small_dirty.ground_truth)
        assert report.pc > 0.8
        assert report.pq > 5 * baseline.pq

    def test_cnp_mode_redundancy_free(self, small_dirty, small_dirty_blocks):
        extractor = EdgeFeatureExtractor(small_dirty_blocks)
        model = train_from_ground_truth(
            extractor, small_dirty.ground_truth, seed=2
        )
        pruned = SupervisedMetaBlocking(model, mode="cnp").prune(extractor)
        assert pruned.cardinality == len(pruned.distinct_comparisons())


class TestClassifierScheme:
    """Match probabilities as a weighting scheme of the core backends."""

    @pytest.fixture(params=["example", "small_dirty"])
    def trained(self, request, example_blocks, small_dirty, small_dirty_blocks):
        if request.param == "example":
            return example_blocks, _trained_on_example(example_blocks)
        extractor = EdgeFeatureExtractor(small_dirty_blocks)
        model = train_from_ground_truth(
            extractor, small_dirty.ground_truth, seed=2
        )
        return small_dirty_blocks, model

    def test_weights_are_feature_probabilities(self, trained):
        """Every directed edge ``owner -> neighbour`` weighs exactly what
        the model predicts for its feature vector."""
        blocks, model = trained
        extractor = EdgeFeatureExtractor(blocks)
        weighting = OptimizedEdgeWeighting(blocks, ClassifierScheme(model))
        batch = weighting.neighborhood_batch(weighting.nodes())
        owners = np.repeat(batch.entities, np.diff(batch.offsets))
        assert batch.neighbors.size
        expected = np.concatenate(
            [
                model.predict_proba(extractor.features_for(owner, other))
                for owner, other in zip(owners.tolist(), batch.neighbors.tolist())
            ]
        )
        assert np.array_equal(batch.weights, expected)

    def test_original_backend_weighs_the_same(self, example_blocks):
        # Algorithm 2 weighs one edge at a time through ``weight()``.
        scheme = ClassifierScheme(_trained_on_example(example_blocks))
        optimized = OptimizedEdgeWeighting(example_blocks, scheme)
        original = OriginalEdgeWeighting(example_blocks, scheme)
        for owner in optimized.nodes():
            batch = optimized.neighborhood_batch([owner])
            expected = dict(zip(batch.neighbors.tolist(), batch.weights.tolist()))
            assert dict(original.neighborhood(owner)) == expected

    @pytest.mark.parametrize("mode", SupervisedMetaBlocking.MODES)
    def test_modes_are_core_algorithms(self, trained, mode):
        blocks, model = trained
        supervised = SupervisedMetaBlocking(model, mode=mode)
        pruned = supervised.prune(EdgeFeatureExtractor(blocks))
        reference = supervised.algorithm().prune_per_edge(
            OptimizedEdgeWeighting(blocks, ClassifierScheme(model))
        )
        assert list(pruned.pairs) == list(reference.pairs)

    def test_resolver_rejects_the_scheme(self, example_blocks):
        scheme = ClassifierScheme(_trained_on_example(example_blocks))
        assert not scheme.streamable
        with pytest.raises(ValueError, match="classifier") as error:
            IncrementalMetaBlocking(TokenBlocking().keys_for, scheme=scheme)
        assert "degrees" not in str(error.value)

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            ClassifierScheme(LogisticRegressionClassifier())


def _trained_on_example(blocks):
    from repro.datamodel.groundtruth import DuplicateSet

    extractor = EdgeFeatureExtractor(blocks)
    labelled = [
        (0, 2, True),
        (1, 3, True),
        (2, 3, False),
        (3, 4, False),
        (4, 5, False),
        (2, 5, False),
    ]
    X, y = training_edges(extractor, labelled)
    return LogisticRegressionClassifier(iterations=300).fit(X, y)
