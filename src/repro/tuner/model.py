"""Learned cost model: ridge regression over tuner feature vectors.

The model is the cheap first-stage screen of guided search
(:mod:`repro.tuner.guided`): it ranks thousands of candidates for the
price of a matrix multiply, and only survivors reach the exact
simulator.  Plain NumPy closed-form ridge — deterministic, seedable
only where subsampling asks for it, no dependencies — because the
screen's job is *ranking* fidelity on a small feature space, not
absolute accuracy.

Scores are throughput-like (higher is better, spanning decades), so the
model fits ``log2(score)`` on standardized features and exposes
predictions back in score space.  ``save``/``load`` round-trip the full
state as JSON; the persisted ``feature_version`` must match
:data:`repro.tuner.features.FEATURE_VERSION` at load/predict time, so a
stale model fails loudly instead of silently mis-ranking.
"""

from __future__ import annotations

import json

import numpy as np

from ..core.cache import write_json_atomic
from .features import FEATURE_VERSION
from .generator import Candidate

__all__ = ["RidgeCostModel", "ModelVersionError"]


class ModelVersionError(RuntimeError):
    """Persisted model's feature layout does not match this build."""


class RidgeCostModel:
    """Closed-form ridge regressor ``features -> log2(score)``.

    Parameters
    ----------
    alpha:
        L2 penalty on standardized features (intercept unpenalized).
    names:
        Feature-name list from the :class:`~repro.tuner.features.
        FeatureExtractor` that will produce inference vectors; predict
        refuses vectors of any other width.
    seed:
        Only consulted when :meth:`fit` subsamples (``max_rows``); the
        closed-form solve itself is exactly deterministic.
    """

    def __init__(self, names, alpha: float = 1.0, seed: int = 0):
        self.names = list(names)
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.feature_version = FEATURE_VERSION
        self.coef_ = None
        self.intercept_ = 0.0
        self.mu_ = None
        self.sigma_ = None
        self.n_fit_ = 0

    @property
    def fitted(self) -> bool:
        return self.coef_ is not None

    # -- training ---------------------------------------------------------

    def fit(self, X, y, max_rows: int | None = None) -> "RidgeCostModel":
        """Fit on feature matrix *X* and positive scores *y*.

        ``max_rows`` subsamples the corpus (seeded, without replacement)
        when an EvalCache has grown far past what ridge needs."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.names):
            raise ValueError(
                f"expected ({len(y)}, {len(self.names)}) features, got "
                f"{X.shape}")
        if len(y) != X.shape[0]:
            raise ValueError("X and y disagree on row count")
        if np.any(y <= 0):
            raise ValueError("scores must be positive (log target)")
        if max_rows is not None and X.shape[0] > max_rows:
            idx = np.random.default_rng(self.seed).choice(
                X.shape[0], size=max_rows, replace=False)
            idx.sort()
            X, y = X[idx], y[idx]
        t = np.log2(y)
        self.mu_ = X.mean(axis=0)
        sigma = X.std(axis=0)
        sigma[sigma == 0.0] = 1.0   # constant features contribute nothing
        self.sigma_ = sigma
        Z = (X - self.mu_) / sigma
        t_mean = float(t.mean())
        A = Z.T @ Z + self.alpha * np.eye(Z.shape[1])
        self.coef_ = np.linalg.solve(A, Z.T @ (t - t_mean))
        self.intercept_ = t_mean
        self.n_fit_ = int(X.shape[0])
        return self

    def fit_cache(self, cache, extractor, machine_sig: str | None = None,
                  workload_sig: str | None = None,
                  max_rows: int | None = None) -> int:
        """Train from an :class:`~repro.tuner.evalcache.EvalCache`.

        Records are optionally filtered to one machine/workload
        signature (an extractor only knows one set of base bounds, so
        cross-workload corpora need the filter), rebuilt into
        :class:`~repro.tuner.generator.Candidate` objects, and
        featurized with *extractor*.  Records whose spec no longer
        parses under the extractor's bounds are skipped.  Returns the
        number of training rows used; 0 means nothing matched and the
        model is left unfitted.
        """
        cands, scores = [], []
        for rec in cache.records():
            if machine_sig is not None and rec["machine_sig"] != machine_sig:
                continue
            if workload_sig is not None \
                    and rec["workload_sig"] != workload_sig:
                continue
            if rec["score"] <= 0:
                continue
            cands.append(Candidate(rec["spec_string"], rec["block_steps"]))
            scores.append(rec["score"])
        if not cands:
            return 0
        X, kept = extractor.matrix(cands)
        if not kept:
            return 0
        y = np.asarray(scores, dtype=np.float64)[kept]
        self.fit(X, y, max_rows=max_rows)
        return self.n_fit_

    # -- inference --------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Predicted scores (back in linear score space) for rows of *X*."""
        if not self.fitted:
            raise RuntimeError("model is not fitted")
        if self.feature_version != FEATURE_VERSION:
            raise ModelVersionError(
                f"model has feature_version={self.feature_version}, "
                f"this build extracts v{FEATURE_VERSION} — retrain")
        X = np.asarray(X, dtype=np.float64)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        if X.shape[1] != len(self.names):
            raise ValueError(
                f"expected {len(self.names)} features, got {X.shape[1]}")
        Z = (X - self.mu_) / self.sigma_
        t = Z @ self.coef_ + self.intercept_
        out = np.exp2(t)
        return float(out[0]) if one else out

    def rank(self, X) -> np.ndarray:
        """Indices of rows of *X* sorted best-first by predicted score
        (ties broken by row order, matching the exact search's stable
        sort)."""
        pred = self.predict(np.asarray(X, dtype=np.float64))
        order = np.argsort(-pred, kind="stable")
        return order

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> str:
        """Atomically persist full model state as JSON."""
        if not self.fitted:
            raise RuntimeError("refusing to save an unfitted model")
        payload = json.dumps({
            "format": "repro-ridge-cost-model",
            "feature_version": self.feature_version,
            "names": self.names,
            "alpha": self.alpha,
            "seed": self.seed,
            "n_fit": self.n_fit_,
            "mu": self.mu_.tolist(),
            "sigma": self.sigma_.tolist(),
            "coef": self.coef_.tolist(),
            "intercept": self.intercept_,
        }, sort_keys=True)
        return write_json_atomic(path, payload)

    @classmethod
    def load(cls, path: str) -> "RidgeCostModel":
        with open(path) as fh:
            blob = json.load(fh)
        if blob.get("format") != "repro-ridge-cost-model":
            raise ValueError(f"{path} is not a saved cost model")
        if blob["feature_version"] != FEATURE_VERSION:
            raise ModelVersionError(
                f"{path} was trained with feature_version="
                f"{blob['feature_version']}, this build extracts "
                f"v{FEATURE_VERSION} — retrain")
        model = cls(blob["names"], alpha=blob["alpha"],
                    seed=blob.get("seed", 0))
        model.mu_ = np.asarray(blob["mu"], dtype=np.float64)
        model.sigma_ = np.asarray(blob["sigma"], dtype=np.float64)
        model.coef_ = np.asarray(blob["coef"], dtype=np.float64)
        model.intercept_ = float(blob["intercept"])
        model.n_fit_ = int(blob.get("n_fit", 0))
        return model
