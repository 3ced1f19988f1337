"""Benchmark harness: the paper's sweeps as a regression-gated suite.

The paper's contribution is measurement — every section-4 figure is a
speed-vs-N sweep with the time budget attributed to the eq. 10 phases,
and the section-5 Tflops claims are numbers re-measured on every
tuning iteration.  This package gives the reproduction the same loop:

* a :class:`registry <repro.bench.registry.BenchmarkRegistry>` of
  named, paper-referenced benchmarks (:mod:`repro.bench.suites`);
* a :mod:`runner <repro.bench.runner>` that executes repeated seeded
  trials under the telemetry tracer and writes schema-versioned
  ``BENCH_*.json`` artifacts with environment fingerprints, trial
  order statistics and T_host/T_pipe/T_comm/T_barrier splits;
* a noise-aware :mod:`regression gate <repro.bench.compare>` against
  ``benchmarks/baseline.json``;
* a cProfile :mod:`phase-attribution hook <repro.bench.profiling>`
  naming the Python hotspots inside the offending phase;
* renderers (:mod:`repro.bench.report`) and a CLI
  (``python -m repro.bench run|compare|report|profile|list``).

Quick start::

    python -m repro.bench run --suite smoke --out BENCH_smoke.json
    python -m repro.bench compare BENCH_smoke.json benchmarks/baseline.json
"""

from .artifact import (
    SCHEMA,
    ArtifactError,
    benchmark_entry,
    read_artifact,
    validate_artifact,
    write_artifact,
)
from .compare import (
    IMPROVED,
    MISSING,
    NEW,
    PASS,
    REGRESSED,
    ComparisonResult,
    Verdict,
    compare_artifacts,
    compare_benchmark,
)
from .env import environment_fingerprint
from .comm import CommCapture, capture_comm_ledger
from .profiling import (
    ATTRIBUTION_RULES,
    Hotspot,
    ProfileAttribution,
    attribute_profile,
    profile_benchmark,
)
from .registry import REGISTRY, BenchContext, Benchmark, BenchmarkRegistry
from .report import (
    render_artifact_markdown,
    render_artifact_text,
    render_compare_markdown,
    render_compare_text,
    render_profile_text,
)
from .runner import run_benchmark, run_suite
from .stats import TrialStats, percentile, trial_stats

# importing the suites registers the built-in benchmarks
from . import suites  # noqa: F401  (registration side effect)

__all__ = [
    "SCHEMA",
    "ArtifactError",
    "benchmark_entry",
    "read_artifact",
    "validate_artifact",
    "write_artifact",
    "PASS",
    "REGRESSED",
    "IMPROVED",
    "NEW",
    "MISSING",
    "Verdict",
    "ComparisonResult",
    "compare_artifacts",
    "compare_benchmark",
    "environment_fingerprint",
    "CommCapture",
    "capture_comm_ledger",
    "ATTRIBUTION_RULES",
    "Hotspot",
    "ProfileAttribution",
    "attribute_profile",
    "profile_benchmark",
    "REGISTRY",
    "Benchmark",
    "BenchContext",
    "BenchmarkRegistry",
    "render_artifact_text",
    "render_artifact_markdown",
    "render_compare_text",
    "render_compare_markdown",
    "render_profile_text",
    "run_benchmark",
    "run_suite",
    "TrialStats",
    "trial_stats",
    "percentile",
    "suites",
]
