"""Feature extraction: fixed layout, byte-level determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import ParlooperGemm, SpecError
from repro.core import LoopSpecs
from repro.platform import SPR, ZEN4
from repro.tuner import (FEATURE_VERSION, FeatureExtractor, TuningConstraints,
                         generate_candidates)
from repro.tuner.features import (machine_feature_names, machine_features,
                                  spec_feature_names, spec_features,
                                  trace_feature_names)

SPECS = (LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1), LoopSpecs(0, 16, 1))
CONS = TuningConstraints({"a": 1, "b": 2, "c": 2}, frozenset({"b", "c"}),
                         max_candidates=24)


class TestLayout:
    def test_names_align_with_vectors(self):
        ex = FeatureExtractor(base_specs=SPECS)
        v = ex.vector("aBC")
        assert v.shape == (len(ex.names),)
        assert v.dtype == np.float64
        assert len(spec_feature_names()) == len(v)

    def test_names_unique(self):
        names = (spec_feature_names() + machine_feature_names()
                 + trace_feature_names())
        assert len(names) == len(set(names))

    def test_machine_block_appended(self):
        bare = FeatureExtractor(base_specs=SPECS)
        with_m = FeatureExtractor(base_specs=SPECS, machine=SPR)
        assert len(with_m.names) == \
            len(bare.names) + len(machine_feature_names())
        np.testing.assert_array_equal(
            with_m.vector("aBC")[:len(bare.names)], bare.vector("aBC"))

    def test_version_stamped(self):
        assert FeatureExtractor(base_specs=SPECS).version == FEATURE_VERSION


class TestSpecFeatures:
    def test_parallelism_is_visible(self):
        names = spec_feature_names()
        i = names.index("spec/n_parallel")
        par = spec_features("aBC", SPECS)
        ser = spec_features("abc", SPECS)
        assert par[i] == 2.0 and ser[i] == 0.0

    def test_blocking_is_visible(self):
        ex = FeatureExtractor(base_specs=SPECS)
        flat = ex.vector("aBC")
        cands = [c for c in generate_candidates(SPECS, CONS)
                 if any(c.block_steps)]
        assert cands, "constraint set should admit blocked candidates"
        assert not np.array_equal(flat, ex.vector(cands[0]))

    def test_invalid_spec_raises_spec_error(self):
        with pytest.raises(SpecError):
            spec_features("aBCq", SPECS)

    def test_matrix_skips_invalid(self):
        ex = FeatureExtractor(base_specs=SPECS)
        X, kept = ex.matrix(["aBC", "zzz", "aCB"])
        assert kept == [0, 2]
        assert X.shape == (2, len(ex.names))

    def test_machines_distinguishable(self):
        assert not np.array_equal(machine_features(SPR),
                                  machine_features(ZEN4))


class TestDeterminism:
    def test_vector_byte_identical_in_process(self):
        ex = FeatureExtractor(base_specs=SPECS, machine=SPR, num_threads=8)
        for cand in generate_candidates(SPECS, CONS):
            assert ex.vector(cand).tobytes() == ex.vector(cand).tobytes()

    def test_vector_byte_identical_across_hash_seeds(self):
        """The contract from the module docstring: no hash(), no set
        iteration, no RNG — identical bytes under any PYTHONHASHSEED."""
        script = (
            "import numpy as np\n"
            "from repro.core import LoopSpecs\n"
            "from repro.platform import SPR\n"
            "from repro.tuner import FeatureExtractor\n"
            "specs = (LoopSpecs(0, 8, 8), LoopSpecs(0, 16, 1),"
            " LoopSpecs(0, 16, 1))\n"
            "ex = FeatureExtractor(base_specs=specs, machine=SPR,"
            " num_threads=8)\n"
            "print(ex.vector('aCB').tobytes().hex())\n")
        digests = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
        ex = FeatureExtractor(base_specs=SPECS, machine=SPR, num_threads=8)
        assert digests[0] == ex.vector("aCB").tobytes().hex()


class TestTraceFeatures:
    def test_with_trace_needs_sim_body(self):
        with pytest.raises(ValueError, match="sim_body"):
            FeatureExtractor(base_specs=SPECS, with_trace=True)

    def test_trace_block_appended_and_deterministic(self):
        g = ParlooperGemm(128, 128, 128, num_threads=4)
        base = tuple(g.loop.specs)
        ex = FeatureExtractor(base_specs=base, machine=SPR, num_threads=4,
                              with_trace=True, sim_body=g.sim_body(SPR))
        v1 = ex.vector(g.spec_string)
        v2 = ex.vector(g.spec_string)
        assert v1.tobytes() == v2.tobytes()
        assert len(v1) == (len(spec_feature_names())
                           + len(machine_feature_names())
                           + len(trace_feature_names()))
        tail = v1[-len(trace_feature_names()):]
        assert tail.any(), "trace features should be populated"
