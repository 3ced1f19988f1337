"""Execute registered benchmarks and assemble ``BENCH_*.json`` artifacts.

Each trial runs under its own enabled tracer (installed as the
process-wide default for the duration, so the instrumented integrators
and simulated networks report into it), is wall-clock timed, and is
rolled up through one :class:`repro.telemetry.SpanFold` pass into the
paper's phase taxonomy, signatures and flops account.  Setup (model
sampling, network construction) runs before the clock starts, so trial
scatter in the artifact is timing noise, not workload noise — the
workloads themselves are seeded (see ``params['seed']`` in
:mod:`repro.bench.suites`).
"""

from __future__ import annotations

import time
from typing import Any

from ..parallel.ledger import merge_comm_summaries
from ..telemetry import (
    BUCKETS,
    HEADLINE,
    FlopsLedger,
    InMemorySink,
    PHASES,
    RegimeTracker,
    SignatureRecorder,
    Tracer,
    replay,
    set_tracer,
)
from .env import environment_fingerprint
from .artifact import SCHEMA, validate_artifact
from .registry import REGISTRY, Benchmark, BenchContext, BenchmarkRegistry
from .stats import percentile, trial_stats


def per_regime_efficiency(
    records: list, tracker: Any
) -> list[dict[str, Any]]:
    """Join per-blockstep efficiency records onto phase-observatory
    regime runs (matched on blockstep index), one aggregate row per
    contiguous regime run: which scheduling regime wastes which flops.
    """
    rows: list[dict[str, Any]] = []
    for run in getattr(tracker, "runs", []):
        start = run.start_blockstep
        stop = start + run.count
        peak = real = 0.0
        buckets = {b: 0.0 for b in BUCKETS}
        n_steps = 0
        for rec in records:
            if start <= rec.blockstep < stop:
                peak += rec.peak_flops
                real += rec.real_flops
                for b in BUCKETS:
                    buckets[b] += rec.buckets.get(b, 0.0)
                n_steps += 1
        if n_steps == 0:
            continue
        rows.append(
            {
                "regime": run.regime,
                "start_blockstep": start,
                "blocksteps": n_steps,
                "peak_flops": peak,
                "real_flops": real,
                "fraction_of_peak": real / peak if peak > 0 else 0.0,
                "buckets": {
                    b: {
                        "flops": buckets[b],
                        "fraction": buckets[b] / peak if peak > 0 else 0.0,
                    }
                    for b in BUCKETS
                },
            }
        )
    return rows


def _run_trial(bench: Benchmark, params: dict[str, Any]) -> dict[str, Any]:
    """One timed trial: returns wall seconds, phase split and the
    benchmark's derived values."""
    state = bench.setup(params) if bench.setup is not None else None
    sink = InMemorySink()
    tracer = Tracer(enabled=True, sinks=[sink])
    ctx = BenchContext(params=dict(params), tracer=tracer, sink=sink)
    old = set_tracer(tracer)
    try:
        t0 = time.perf_counter()
        derived = bench.fn(ctx, state)
        wall_s = time.perf_counter() - t0
    finally:
        set_tracer(old)
    # one replay of the retained events serves all three observatories:
    # phase totals, per-blockstep signatures clustered into regimes, and
    # the flops ledger priced against the paper's single host
    regimes = RegimeTracker()
    ledger = FlopsLedger()
    breakdown = replay(
        sink.events,
        SignatureRecorder(callback=regimes.update, keep=False),
        ledger,
    ).breakdown()
    out: dict[str, Any] = {
        "wall_s": wall_s,
        "derived": dict(derived or {}),
        "n_events": breakdown.n_events,
        "wall_us": dict(breakdown.wall.totals),
    }
    if breakdown.virtual is not None:
        out["virtual_us"] = dict(breakdown.virtual.totals)
    if ctx.networks:
        out["comm"] = merge_comm_summaries(
            net.ledger.summary() for net in ctx.networks
        )
    # only benchmarks that actually step an integrator produce
    # blocksteps; the waterfall is refined by the comm ledgers
    if ledger.count:
        out["signatures"] = regimes.summary()
        efficiency = ledger.summary(comm=out.get("comm"))
        regime_rows = per_regime_efficiency(ledger.records, regimes)
        if regime_rows:
            efficiency["regimes"] = regime_rows
        out["efficiency"] = efficiency
    # rank observatory: real-execution telemetry the trial attached,
    # cross-attributed against the primary network's virtual barriers
    if ctx.rank_ledgers:
        comm_src = ctx.networks[0].ledger if ctx.networks else out.get("comm")
        out["rank"] = ctx.rank_ledgers[0].summary(comm=comm_src)
    return out


def _median_across(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys: list[str] = []
    for d in dicts:
        for k in d:
            if k not in keys:
                keys.append(k)
    return {k: percentile([d.get(k, 0.0) for d in dicts], 50.0) for k in keys}


def _merge_derived(trials: list[dict[str, Any]]) -> dict[str, Any]:
    """Median for numeric derived values, last-trial value otherwise."""
    merged: dict[str, Any] = {}
    for trial in trials:
        for key, value in trial["derived"].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                merged[key] = value
            else:
                merged[key] = percentile(
                    [
                        t["derived"][key]
                        for t in trials
                        if isinstance(t["derived"].get(key), (int, float))
                    ],
                    50.0,
                )
    return merged


def run_benchmark(
    bench: Benchmark,
    params: dict[str, Any],
    repeats: int = 3,
    warmup: int = 1,
) -> dict[str, Any]:
    """Run ``bench`` ``repeats`` times (after ``warmup`` discarded
    trials) and return its artifact entry."""
    if repeats < 1:
        raise ValueError("need at least one measured trial")
    for _ in range(max(warmup, 0)):
        _run_trial(bench, params)
    trials = [_run_trial(bench, params) for _ in range(repeats)]

    wall_list = [t["wall_s"] for t in trials]
    wall_us = _median_across([t["wall_us"] for t in trials])
    total_us = sum(wall_us.values())
    entry: dict[str, Any] = {
        "name": bench.name,
        "title": bench.title,
        "paper_ref": bench.paper_ref,
        "params": dict(params),
        "repeats": repeats,
        "warmup": warmup,
        "trials": {"wall_s": wall_list},
        "stats": {"wall_s": trial_stats(wall_list).as_dict()},
        "phases": {
            "wall_us": wall_us,
            "wall_fraction": {
                p: (wall_us.get(p, 0.0) / total_us if total_us > 0 else 0.0)
                for p in PHASES
            },
            "n_events": int(percentile([t["n_events"] for t in trials], 50.0)),
        },
        "derived": _merge_derived(trials),
    }
    virtual_trials = [t["virtual_us"] for t in trials if "virtual_us" in t]
    if virtual_trials:
        entry["phases"]["virtual_us"] = _median_across(virtual_trials)
    # comm ledgers (virtual time), regime structure (counts, shares,
    # lane) and the flops waterfall are arithmetic on the seeded
    # schedule — deterministic per trial, so the last trial's harvest
    # represents them all; real-execution rank telemetry varies per
    # trial like wall_s does, and the last trial is one honest sample
    for section in ("comm", *HEADLINE):
        if section in trials[-1]:
            entry[section] = trials[-1][section]
    return entry


def run_suite(
    suite: str,
    repeats: int = 3,
    warmup: int = 1,
    label: str | None = None,
    names: list[str] | None = None,
    registry: BenchmarkRegistry | None = None,
    progress=None,
    seed: int | None = None,
) -> dict[str, Any]:
    """Run every benchmark in ``suite`` and return a validated artifact.

    ``names`` restricts the run to a subset of the suite; ``progress``
    is an optional callable receiving one line per benchmark.  ``seed``
    overrides the workload seed of every benchmark that takes one and
    lands in the artifact root, so the run can be repeated.
    """
    registry = registry if registry is not None else REGISTRY
    benchmarks = registry.select(suite)
    if names:
        wanted = set(names)
        unknown = wanted - {b.name for b in benchmarks}
        if unknown:
            raise KeyError(
                f"not in suite {suite!r}: {', '.join(sorted(unknown))}"
            )
        benchmarks = [b for b in benchmarks if b.name in wanted]
    if not benchmarks:
        raise KeyError(f"suite {suite!r} selects no benchmarks")

    entries = []
    for bench in benchmarks:
        params = bench.params_for(suite)
        if seed is not None and "seed" in params:
            params["seed"] = int(seed)
        entry = run_benchmark(bench, params, repeats=repeats, warmup=warmup)
        entries.append(entry)
        if progress is not None:
            med = entry["stats"]["wall_s"]["median"]
            progress(f"{bench.name}: median {med * 1e3:.1f} ms over {repeats} trials")

    artifact = {
        "schema": SCHEMA,
        "label": label if label is not None else suite,
        "suite": suite,
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "benchmarks": entries,
    }
    if seed is not None:
        artifact["seed"] = int(seed)
    return validate_artifact(artifact, source=f"suite {suite!r}")
