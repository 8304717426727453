"""A small, dependency-free logistic regression for edge classification.

Supervised meta-blocking only needs a probabilistic binary classifier over
five features; a numpy batch-gradient-descent logistic regression with
feature standardisation is plenty, and it keeps the library free of heavy
ML dependencies. Class imbalance (far more non-matching edges) is handled
with inverse-frequency sample weights.
"""

from __future__ import annotations

import numpy as np


class LogisticRegressionClassifier:
    """L2-regularised logistic regression trained by gradient descent.

    Parameters
    ----------
    learning_rate, iterations:
        Gradient-descent schedule; the defaults converge comfortably for
        the five standardized meta-blocking features.
    l2:
        Ridge penalty on the weights (not the intercept).
    balance_classes:
        Weight samples inversely to their class frequency, so the rare
        positive edges are not drowned out.
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        iterations: int = 400,
        l2: float = 1e-3,
        balance_classes: bool = True,
    ) -> None:
        if learning_rate <= 0 or iterations < 1 or l2 < 0:
            raise ValueError("invalid hyper-parameters")
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.l2 = l2
        self.balance_classes = balance_classes
        self.weights: np.ndarray | None = None
        self.intercept: float = 0.0
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.weights is not None

    def fit(self, X, y) -> "LogisticRegressionClassifier":
        """Train on feature matrix ``X`` (n x d) and 0/1 labels ``y``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError(f"bad training shapes: {X.shape} vs {y.shape}")
        if len(np.unique(y)) < 2:
            raise ValueError("training data must contain both classes")

        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        Xs = (X - self._mean) / self._scale

        if self.balance_classes:
            positives = y.sum()
            negatives = len(y) - positives
            sample_weights = np.where(
                y == 1.0, len(y) / (2.0 * positives), len(y) / (2.0 * negatives)
            )
        else:
            sample_weights = np.ones(len(y))

        weights = np.zeros(X.shape[1])
        intercept = 0.0
        n = len(y)
        for _ in range(self.iterations):
            logits = Xs @ weights + intercept
            predictions = _sigmoid(logits)
            errors = (predictions - y) * sample_weights
            gradient = Xs.T @ errors / n + self.l2 * weights
            intercept_gradient = errors.mean()
            weights -= self.learning_rate * gradient
            intercept -= self.learning_rate * intercept_gradient
        self.weights = weights
        self.intercept = intercept
        return self

    def predict_proba(self, X) -> np.ndarray:
        """P(edge is a match) for each row of ``X``, whatever rows it is
        batched with."""
        if self.weights is None or self._mean is None or self._scale is None:
            raise RuntimeError("classifier is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Xs = (X - self._mean) / self._scale
        rows = len(Xs)
        if rows == 1:
            # numpy multiplies one row with a kernel that rounds unlike the
            # matrix-vector kernel of larger batches; a doubled row takes it.
            Xs = np.vstack((Xs, Xs))
        return _sigmoid(Xs @ self.weights + self.intercept)[:rows]

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        """Binary decisions at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    # Clip to avoid overflow in exp for extreme logits.
    clipped = np.clip(values, -35.0, 35.0)
    return 1.0 / (1.0 + np.exp(-clipped))
