"""The public API surface, asserted exactly.

``repro.__all__``, ``repro.tuner.__all__``, ``repro.simulator.__all__``
and ``repro.tpp.__all__`` are contracts: additions and removals must be
deliberate (update the snapshot here *and* the DESIGN.md migration notes).
"""

import repro
import repro.simulator
import repro.tpp
import repro.tuner
from repro.platform import SPR

API_SNAPSHOT = [
    # facade
    "Session", "ObsConfig", "default_session",
    # core
    "ThreadedLoop", "LoopSpecs", "SpecError",
    # kernels
    "ParlooperGemm", "ParlooperMlp", "ParlooperConv", "ParlooperSpmm",
    "ConvSpec",
    # tpp
    "BRGemmTPP", "BCSCMatrix", "DType", "Precision", "Ptr",
    # platform
    "MachineModel", "SPR", "GVT3", "ZEN4", "ADL",
    # simulator (default-session wrappers)
    "simulate", "predict",
    # serve
    "ServeSimulator", "TrafficGenerator",
    # fleet
    "FleetSimulator",
    # tuner
    "TuningConstraints", "TuneReport", "tune",
    # verify
    "verify_nest", "detect_races", "check_coverage", "run_fuzz",
    "VerificationError",
    "__version__",
]

TUNER_SNAPSHOT = [
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

SIMULATOR_SNAPSHOT = [
    "Access", "BodyEvent", "ThreadTrace", "trace_flat",
    "trace_threaded_loop",
    "LRUCache", "CacheHierarchy",
    "CompiledTrace", "ReuseStats", "compile_trace", "hit_levels",
    "stack_distances",
    "TraceCache", "global_trace_cache",
    "brgemm_event", "spmm_event", "eltwise_event", "bandwidth_event",
    "PerfPrediction", "predict", "predict_traces",
    "SimResult", "simulate", "simulate_flat", "simulate_traces",
]

TPP_SNAPSHOT = [
    "TPP",
    "DType", "Precision", "bf16_round", "from_compute", "to_compute",
    "is_bf16_representable", "tolerance_for",
    "Ptr",
    "GemmTPP", "BRGemmTPP",
    "BCSCMatrix", "BlockSpMMTPP",
    "UnaryTPP", "ZeroTPP", "CopyTPP", "IdentityTPP", "ReluTPP", "ReluBwdTPP",
    "GeluTPP", "GeluBwdTPP", "TanhTPP", "SigmoidTPP", "ExpTPP", "SqrtTPP",
    "RcpTPP", "SquareTPP", "NegTPP", "BroadcastRowTPP", "BroadcastColTPP",
    "BinaryTPP", "AddTPP", "SubTPP", "MulTPP", "DivTPP", "MaxTPP", "MinTPP",
    "BiasAddTPP", "BiasAddColTPP", "ScaleTPP", "MulAddTPP",
    "ReduceTPP", "ReduceKind", "ReduceAxis",
    "SoftmaxTPP", "SoftmaxBwdTPP", "softmax_equation",
    "LayerNormTPP", "LayerNormBwdTPP", "BatchNormStatsTPP",
    "BatchNormApplyTPP",
    "DropoutTPP", "DropoutBwdTPP",
    "TransposeTPP", "vnni_pack", "vnni_unpack", "mmla_pack_a",
    "mmla_unpack_a", "mmla_pack_b", "mmla_unpack_b", "block_2d", "unblock_2d",
]


class TestAllSnapshot:
    def test_exact_all(self):
        assert repro.__all__ == API_SNAPSHOT

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_exact_tuner_all(self):
        assert repro.tuner.__all__ == TUNER_SNAPSHOT
        for name in TUNER_SNAPSHOT:
            assert getattr(repro.tuner, name, None) is not None, name
        assert repro.TuneReport is repro.tuner.TuneReport

    def test_exact_simulator_all(self):
        assert repro.simulator.__all__ == SIMULATOR_SNAPSHOT
        for name in SIMULATOR_SNAPSHOT:
            assert getattr(repro.simulator, name, None) is not None, name

    def test_exact_tpp_all(self):
        assert repro.tpp.__all__ == TPP_SNAPSHOT
        for name in TPP_SNAPSHOT:
            assert getattr(repro.tpp, name, None) is not None, name


class TestSessionFacade:
    def test_module_wrappers_match_session_results(self):
        g = repro.ParlooperGemm(256, 256, 256, num_threads=4)
        module_pred = repro.predict(g.loop, g.sim_body(SPR), SPR,
                                    total_flops=float(g.flops))
        sess_pred = g.predict(SPR, session=repro.Session(machine=SPR))
        assert module_pred.seconds == sess_pred.seconds
        assert module_pred.total_flops == sess_pred.total_flops

    def test_default_session_is_shared(self):
        assert repro.default_session() is repro.default_session()

    def test_kernel_methods_accept_explicit_session(self):
        sess = repro.Session(machine=SPR)
        g = repro.ParlooperGemm(256, 256, 256, num_threads=4)
        a = g.simulate(SPR)
        b = g.simulate(SPR, session=sess)
        assert a.seconds == b.seconds
