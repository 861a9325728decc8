"""Entropy-triggered reflective decoding over frozen toy backends.

The engine watches per-token predictive entropy against a rolling-window
threshold; when a step spikes it optimizes a transient correction vector in
hidden-state space, samples that one token from the corrected logits, and
throws the vector away. Everything here is deterministic given a seed.
"""

from .errors import ConfigError, InputError
from .utils import entropy_from_logits, log_softmax, softmax, two_point_logits
from .backends import (AttentionBackend, MarkovBackend, ModelBackend,
                       PrefixActivations, ProjectionHead, ScriptedBackend,
                       VocabSpec, backend_from_dict, backend_to_dict,
                       build_toy_backend, load_backend, logits_at, save_backend)
from .monitor import EntropyWindow, TriggerConfig, TriggerDecision, should_trigger
from .optimizer import (AdaptiveWeightConfig, Correction, HybridLossReport,
                        ReflectionConfig, adapt_lambda, ce_positions,
                        grad_hybrid, loss_aem, loss_ce, loss_gradients,
                        optimize_delta, parse_ce_scope)
from .engine import (CorrectionSummary, DecodeConfig, DecodeTrace,
                     SamplingConfig, StepRecord, TraceTotals, decode,
                     decode_batch, nucleus_distribution, sample)
from .config import (RunConfig, decode_config_from_dict, decode_config_to_dict,
                     load_run_config, run_config_from_dict)
from .traceio import (TRACE_VERSION, parse_trace, read_trace, replay_form,
                      serialize_trace, trace_files, write_trace)
from .harness import (FAMILIES, BenchmarkResult, RunMetrics, Task, TaskResult,
                      TokenCount, avg_at_k, build_spike_backend, cons_at_k,
                      corpus_backend, critical_tokens, derive_seed,
                      extract_answer, gen_corpus, parse_corpus_spec,
                      pass_at_k, plurality_vote, run_benchmark)
from .verify import (SUITES, GridSpec, JointDescentReport, LossInstance,
                     ParetoPoint, SuiteReport, TheoremCheckReport,
                     TradeoffReport, check_joint_descent, check_theorem1,
                     check_tradeoff_bounds, default_grid, export_pareto, golden_min, lambda_sweep,
                     pareto_from_correction, pareto_from_trace,
                     prefix_instance, quadratic_instance,
                     random_prefix_instance, run_gradient_suite,
                     run_joint_descent_suite, run_overhead_suite,
                     run_theorem1_suite, run_tradeoff_suite)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveWeightConfig", "AttentionBackend", "BenchmarkResult",
    "ConfigError", "Correction", "CorrectionSummary", "DecodeConfig",
    "DecodeTrace", "EntropyWindow", "FAMILIES", "GridSpec",
    "HybridLossReport", "InputError", "JointDescentReport", "LossInstance",
    "MarkovBackend", "ModelBackend", "ParetoPoint",
    "PrefixActivations", "ProjectionHead", "ReflectionConfig", "RunConfig",
    "RunMetrics", "SUITES", "SamplingConfig", "ScriptedBackend", "StepRecord",
    "SuiteReport", "TRACE_VERSION", "Task", "TaskResult", "TheoremCheckReport",
    "TokenCount", "TraceTotals", "TradeoffReport", "TriggerConfig",
    "TriggerDecision", "VocabSpec", "adapt_lambda", "avg_at_k",
    "backend_from_dict", "backend_to_dict", "build_spike_backend",
    "build_toy_backend", "ce_positions", "check_joint_descent",
    "check_theorem1", "check_tradeoff_bounds",
    "cons_at_k", "corpus_backend", "critical_tokens", "decode", "decode_batch",
    "decode_config_from_dict", "decode_config_to_dict", "default_grid",
    "derive_seed", "entropy_from_logits", "export_pareto",
    "extract_answer", "gen_corpus", "golden_min", "grad_hybrid",
    "lambda_sweep", "load_backend", "load_run_config", "log_softmax",
    "logits_at", "loss_aem", "loss_ce", "loss_gradients",
    "nucleus_distribution", "optimize_delta", "parse_ce_scope",
    "parse_corpus_spec", "parse_trace", "pareto_from_correction",
    "pareto_from_trace", "pass_at_k", "plurality_vote", "prefix_instance",
    "quadratic_instance", "random_prefix_instance", "read_trace",
    "replay_form", "run_benchmark", "run_config_from_dict",
    "run_gradient_suite", "run_joint_descent_suite", "run_overhead_suite",
    "run_theorem1_suite", "run_tradeoff_suite", "sample", "save_backend",
    "serialize_trace", "should_trigger", "softmax", "trace_files",
    "two_point_logits", "write_trace",
]
