"""Supervised Meta-blocking [Papadakis, Papastefanatos & Koutrika, PVLDB 2014].

The paper's Related Work (Section 2) describes the supervised variant of
meta-blocking: every blocking-graph edge is represented by a small feature
vector of co-occurrence evidence and a binary classifier — trained on a set
of labelled edges — decides which edges to retain. It achieves higher
accuracy than unsupervised pruning but needs labelled data, which is why
the paper evaluates only the unsupervised family; this package provides
the supervised variant as an extension for users who *do* have labels.

The classifier is one more weighting scheme, :class:`ClassifierScheme`,
whose edge weights are match probabilities, so every core pruning
algorithm runs on it, serially, on threads or spilled (generalized
supervised meta-blocking, arXiv 2204.08801)::

    extractor = EdgeFeatureExtractor(blocks)
    X, y = training_edges(extractor, labelled_pairs)
    model = LogisticRegressionClassifier().fit(X, y)
    result = meta_block(blocks, scheme=ClassifierScheme(model), algorithm="RcWNP")
    comparisons = SupervisedMetaBlocking(model, mode="wep").prune(extractor)
"""

from repro.supervised.classifier import LogisticRegressionClassifier
from repro.supervised.features import FEATURE_NAMES, EdgeFeatureExtractor
from repro.supervised.pruning import (
    ClassifierScheme,
    SupervisedMetaBlocking,
    training_edges,
    train_from_ground_truth,
)

__all__ = [
    "ClassifierScheme",
    "FEATURE_NAMES",
    "EdgeFeatureExtractor",
    "LogisticRegressionClassifier",
    "SupervisedMetaBlocking",
    "train_from_ground_truth",
    "training_edges",
]
