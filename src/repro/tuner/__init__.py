"""Auto-tuning infrastructure: constrained loop_spec_string generation,
offline candidate search (Fig 1 Box B2, §II-D), and the learned path —
feature extraction, ridge cost model, model-guided beam search, and the
one-call :func:`~repro.tuner.tune.tune` API (ROADMAP item 2)."""

from .constraints import TuningConstraints, prefix_products, prime_factors
from .evalcache import EvalCache
from .features import FEATURE_VERSION, FeatureExtractor
from .generator import Candidate, generate_candidates
from .guided import edit_neighbors, guided_search
from .model import ModelVersionError, RidgeCostModel
from .online import OnlineTuner, TuneDecision
from .search import (RacyCandidate, SearchFailure, TuneOutcome, TuneReport,
                     engine_evaluator, perfmodel_evaluator, race_verifier,
                     search)
from .tune import Evaluator, tune

__all__ = [
    "TuningConstraints", "prime_factors", "prefix_products",
    "Candidate", "generate_candidates",
    "TuneOutcome", "SearchFailure", "RacyCandidate",
    "search", "perfmodel_evaluator", "engine_evaluator", "race_verifier",
    "EvalCache",
    "FEATURE_VERSION", "FeatureExtractor",
    "RidgeCostModel", "ModelVersionError",
    "guided_search", "edit_neighbors",
    "OnlineTuner", "TuneDecision",
    "Evaluator", "TuneReport", "tune",
]
