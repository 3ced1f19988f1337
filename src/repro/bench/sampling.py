"""Sampled-run estimation: price an expensive run from a cheap scout
pass plus a short measured prefix.

The paper's §5 workloads (1.8M-particle Kuiper belt over ~400 wall
hours, 2M-particle BH binary) are untouchable per-push — yet their
blockstep streams cycle through a handful of recurring regimes.  This
module is the LoopPoint recipe (functional fast-forward for basic-block
vectors, detailed simulation only for cluster representatives)
transplanted to blockstep streams.  The run is named by a serial
``repro.job/1`` ``params`` dict and built by the service's own
:func:`~repro.service.jobs.build_integrator`, so what is priced is the
run the service would execute from the same params:

1. **scout pass** — run it once on the cheap direct-summation backend
   with telemetry off, keeping only the per-blockstep block sizes.  The
   blockstep *schedule* is a property of the integrator, not of how
   forces are computed, so this functional pass yields the (near-)exact
   block-size sequence of the expensive run at a fraction of its cost —
   no frozen-timestep extrapolation, no projection error (the emulator's
   fixed-point forces can nudge a timestep across a quantisation
   boundary at some seeds; the residual mismatch is measured and
   reported as ``schedule_match``);
2. **probe windows** — replay the *target* backend (e.g. the GRAPE
   emulator datapath) over a quarter of the scouted blocksteps, split
   into short windows spread across the whole run and resumed from
   scout checkpoints, each under a
   :class:`repro.telemetry.SignatureRecorder`, and cluster the signature
   stream into regimes.  Windows — rather than one contiguous prefix —
   matter twice: they sample every phase of the workload's regime mix,
   and they average out the slow cost drift (governor ramps, cache
   warm-up) that makes the first quarter of a run systematically more
   expensive than the rest;
3. **price the remainder** — assign each unsimulated scouted blockstep
   to its nearest regime by *schedule features* alone (a scout knows
   sizes, not durations) and charge the regime's mean measured cost,
   with **seeded bootstrap error bars** over the per-regime cost
   samples.

Validation mode runs the target workload exhaustively as ground truth,
replays the estimator against the same window slices of that run, and
repeats the measurement, reporting the **median** relative error (a
single noisy window on a shared runner would otherwise dominate).  CI
pins median error ≤ 5% at ≤ 25% of blocksteps simulated.  Results ship as
``repro.phase_signature/1`` artifacts (kind ``sampled_run``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..core.individual import BlockTimestepIntegrator
from ..io.runlog import write_json_atomic
from ..schema import check, list_of
from ..service.jobs import (
    build_backend,
    build_integrator,
    build_system,
    validate_run_params,
)
from ..telemetry import (
    HEADLINE,
    InMemorySink,
    SCHEDULE_FEATURES,
    SIGNATURE_SCHEMA,
    PhaseSignature,
    RegimeTracker,
    SignatureError,
    SignatureRecorder,
    Tracer,
    regime_trace_events,
    schedule_signature,
    write_timeline,
)
from ..telemetry.signatures import SIGNATURE_SUMMARY_SPEC
from .env import environment_fingerprint

#: ``kind`` of a sampled-run estimate artifact (schema stays
#: :data:`repro.telemetry.SIGNATURE_SCHEMA`).
SAMPLE_KIND = "sampled_run"

DEFAULT_PREFIX_FRACTION = 0.25
DEFAULT_MIN_PREFIX = 32
#: Number of probe windows the blockstep budget is split into.
DEFAULT_PROBE_WINDOWS = 6
#: Probe blocksteps whose costs are excluded from regime pricing (the
#: first steps of a fresh process pay allocator/cache warm-up that the
#: steady run does not; they stay in the measured probe wall time).
DEFAULT_BURN_IN = 8
DEFAULT_BOOTSTRAP = 200
DEFAULT_BOOTSTRAP_SEED = 1899
DEFAULT_MAX_ERROR = 0.05
DEFAULT_VALIDATE_REPEATS = 3


@dataclass(frozen=True)
class RegimeEstimate:
    """One regime's contribution to the extrapolation."""

    regime: int
    n_observed: int
    n_projected: int
    mean_wall_us: float
    ci_low_us: float
    ci_high_us: float
    mean_block_size: float


@dataclass
class SampledEstimate:
    """A sampled-run extrapolation with bootstrap error bars.

    ``estimated_total_us`` covers what an exhaustive target-backend run
    would sum over its blockstep spans (startup force evaluation
    excluded on both sides, so validation compares apples to apples).
    """

    params: dict[str, Any]
    t_end: float
    scout_blocksteps: int
    scout_wall_s: float
    prefix_blocksteps: int
    prefix_wall_us: float
    projected_blocksteps: int
    schedule_match: float
    estimated_total_us: float
    ci_low_us: float
    ci_high_us: float
    regimes: list[RegimeEstimate]
    summary: dict[str, Any]
    windows: list[list[int]]
    n_bootstrap: int
    bootstrap_seed: int
    estimator_wall_s: float = 0.0
    validation: dict[str, Any] | None = None

    @property
    def simulated_fraction(self) -> float:
        """Share of the scouted blockstep schedule actually simulated
        on the target backend."""
        return self.prefix_blocksteps / self.scout_blocksteps

    def as_artifact(self) -> dict[str, Any]:
        """Every field under its own name (``summary`` as ``signatures``,
        an absent ``validation`` left out), tagged and validated."""
        art: dict[str, Any] = {
            "schema": SIGNATURE_SCHEMA,
            "kind": SAMPLE_KIND,
            "created_unix": time.time(),
            "environment": environment_fingerprint(),
            **asdict(self),
            "simulated_fraction": self.simulated_fraction,
        }
        art["signatures"] = art.pop("summary")
        if self.validation is None:
            del art["validation"]
        return validate_sample_artifact(art)


def _estimate_inside_ci(art: dict[str, Any]) -> str | None:
    if not art["ci_low_us"] <= art["estimated_total_us"] <= art["ci_high_us"]:
        return "estimate must sit inside its confidence interval"


#: A sampled-run estimate artifact.
SAMPLE_ARTIFACT_SPEC = {
    "what": "artifact root",
    "schema": SIGNATURE_SCHEMA,
    "kind": SAMPLE_KIND,
    "fields": {
        **dict.fromkeys(
            ("params", "scout_blocksteps", "prefix_blocksteps",
             "projected_blocksteps", "simulated_fraction",
             "estimated_total_us", "ci_low_us", "ci_high_us")),
        "regimes": list_of({"fields": dict.fromkeys(
            ("regime", "n_observed", "n_projected", "mean_wall_us",
             "ci_low_us", "ci_high_us"))}, nonempty=True),
        "signatures": SIGNATURE_SUMMARY_SPEC,
    },
    "rules": (_estimate_inside_ci,),
}


def validate_sample_artifact(obj: Any, source: str = "sample") -> dict[str, Any]:
    """Structural check of a sampled-run artifact; returns it."""
    return check(obj, SAMPLE_ARTIFACT_SPEC, source, SignatureError)


def write_sample_artifact(artifact: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one sampled-run artifact (atomic rename)."""
    validate_sample_artifact(artifact, source=str(path))
    return write_json_atomic(artifact, path)


def read_sample_artifact(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise SignatureError(f"{path}: cannot read artifact: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SignatureError(f"{path}: not valid JSON: {exc}") from exc
    return validate_sample_artifact(obj, source=str(path))


# -- the scout ----------------------------------------------------------------


def _scout(
    params: dict[str, Any], t_end: float, capture_at: tuple[int, ...] = ()
) -> tuple[list[int], dict[int, tuple[Any, dict]], float]:
    """The functional pass: the run ``params`` describe, built by the
    service's own :func:`~repro.service.jobs.build_integrator`, on the
    direct float64 backend with telemetry off.

    Returns ``(block sizes, checkpoints, wall seconds)``; ``checkpoints``
    maps each blockstep index in ``capture_at`` to the ``(system,
    integrator state)`` a probe window resumes from.  ``params`` are
    checked as a job's would be, and a parallel spec is refused rather
    than priced as the serial run it is not.
    """
    validate_run_params({**params, "t_end": t_end}, "sample")
    if params.get("algorithm") is not None:
        raise ValueError(
            f"sample: params.algorithm is {params['algorithm']!r} — the "
            "estimator prices serial runs only"
        )
    t0 = time.perf_counter()
    integ = build_integrator(
        build_system(params), params, tracer=Tracer(enabled=False))
    checkpoints: dict[int, tuple[Any, dict]] = {}
    for stop in sorted(capture_at):
        if stop > integ.stats.blocksteps:
            integ.run(t_end, max_blocksteps=stop - integ.stats.blocksteps)
        checkpoints[stop] = (integ.system.copy(), integ.state_dict())
    integ.run(t_end)
    wall_s = time.perf_counter() - t0
    return [int(b) for b in integ.stats.block_sizes], checkpoints, wall_s


def scout_schedule(params: dict[str, Any], t_end: float) -> tuple[list[int], float]:
    """The full blockstep schedule, cheaply: ``(block sizes, wall
    seconds)`` of one :func:`_scout` pass.

    The schedule depends only on the corrected timesteps, so this matches
    the expensive backend's schedule except where fixed-point force
    differences cross a power-of-two quantisation boundary (measured
    downstream as ``schedule_match``).
    """
    sizes, _, wall_s = _scout(params, t_end)
    return sizes, wall_s


@dataclass
class _Plan:
    """What both estimator forms fix before any target-backend step:
    the scouted schedule and the probe windows laid over it."""

    params: dict[str, Any]
    t_end: float
    scout_sizes: list[int]
    scout_wall_s: float
    windows: list[tuple[int, int]]


def _plan(params: dict[str, Any], t_end: float, min_prefix: int) -> _Plan:
    """Scout the schedule, then spread :data:`DEFAULT_PREFIX_FRACTION`
    of its blocksteps (at least ``min_prefix``) over the probe windows."""
    sizes, _, wall_s = _scout(params, t_end)
    budget = max(min_prefix, int(DEFAULT_PREFIX_FRACTION * len(sizes)))
    return _Plan(dict(params), float(t_end), sizes, wall_s,
                 probe_windows(len(sizes), budget))


# -- probe windows ----------------------------------------------------------


def probe_windows(
    total: int, budget: int, n_windows: int = DEFAULT_PROBE_WINDOWS
) -> list[tuple[int, int]]:
    """Split ``budget`` probed blocksteps into non-overlapping
    ``(start, length)`` windows spread evenly over ``total``.

    The first window is anchored at blockstep 0 (the startup-heavy
    region an exhaustive run also pays) and the last ends at the final
    scheduled blockstep, so slow cost drift over the run is sampled at
    both ends instead of extrapolated from one.
    """
    if total < 1:
        raise ValueError("no blocksteps scheduled — nothing to sample")
    budget = max(1, min(budget, total))
    m = max(1, min(n_windows, budget))
    base = budget // m
    extra = budget - base * m
    lengths = [base + (1 if i < extra else 0) for i in range(m)]
    if m == 1:
        return [(0, lengths[0])]
    free = total - budget
    windows: list[tuple[int, int]] = []
    consumed = 0
    for i, length in enumerate(lengths):
        start = consumed + round(i * free / (m - 1))
        windows.append((start, length))
        consumed += length
    return windows


# -- recorded target-backend runs ---------------------------------------------


def _recording_tracer(
    keep_events: bool,
) -> tuple[SignatureRecorder, list[Any], Tracer]:
    """An enabled tracer feeding a fresh signature recorder, and the
    list its span events land in (only kept for a timeline)."""
    recorder, film = SignatureRecorder(), InMemorySink()
    sinks = [recorder, film] if keep_events else [recorder]
    return recorder, film.events, Tracer(enabled=True, sinks=sinks)


def _run_probe_windows(
    plan: _Plan, checkpoints: dict[int, tuple[Any, dict]], keep_events: bool
) -> tuple[list[PhaseSignature], list[Any]]:
    """Resume the target backend from each scout checkpoint and record
    that window's blocksteps; returns the signatures (re-numbered to
    their global blockstep indices) and, for a timeline, the span events.

    One backend instance serves every window (each blockstep rebuilds
    the whole j-side from the particle arrays, so there is no stale
    state to carry over).
    """
    backend = build_backend(plan.params)
    signatures: list[PhaseSignature] = []
    events: list[Any] = []
    for start, length in plan.windows:
        recorder, film, tracer = _recording_tracer(keep_events)
        integ = BlockTimestepIntegrator.from_state(
            *checkpoints[start], backend=backend, tracer=tracer)
        integ.run(plan.t_end, max_blocksteps=length)
        signatures.extend(
            replace(sig, blockstep=start + j)
            for j, sig in enumerate(recorder.signatures)
        )
        events.extend(film)
    return signatures, events


def _run_exhaustive(
    plan: _Plan, keep_events: bool = False
) -> tuple[list[PhaseSignature], list[Any]]:
    """Record the whole target-backend run: the ground truth validation
    slices its probe windows out of."""
    recorder, film, tracer = _recording_tracer(keep_events)
    integ = build_integrator(
        build_system(plan.params), plan.params,
        backend=build_backend(plan.params), tracer=tracer)
    integ.run(plan.t_end)
    return recorder.signatures, film


# -- pricing ----------------------------------------------------------------


def _price_schedule(
    probe_sigs: list[PhaseSignature],
    tracker: RegimeTracker,
    remainder_sizes: list[int],
    n: int,
    burn_in: int,
    n_bootstrap: int,
    bootstrap_seed: int,
) -> tuple[float, float, float, list[RegimeEstimate]]:
    """Charge each unsimulated blockstep its regime's mean measured
    cost; returns (point estimate of the *remainder*, ci_low, ci_high,
    per-regime table).  All values are microseconds.
    """
    if not probe_sigs:
        raise ValueError("no probe signatures to price from")
    km = tracker.kmeans
    pricing = probe_sigs[min(burn_in, len(probe_sigs) // 2):]

    # observed per-regime cost samples, assigned against the *final*
    # centroids (early signatures may have trained a centroid that
    # drifted away from them)
    costs: dict[int, list[float]] = {}
    block_sums: dict[int, float] = {}
    for sig in pricing:
        idx, _ = km.nearest(sig.vector())
        costs.setdefault(idx, []).append(sig.wall_us)
        block_sums[idx] = block_sums.get(idx, 0.0) + sig.block_size
    all_costs = np.array([s.wall_us for s in pricing], dtype=np.float64)

    # unsimulated blocksteps -> regimes by schedule features alone
    proj_counts: dict[int, int] = {}
    base = len(probe_sigs)
    for i, b in enumerate(remainder_sizes):
        v = schedule_signature(base + i, int(b), n).vector()
        idx, _ = km.nearest(v, features=SCHEDULE_FEATURES)
        proj_counts[idx] = proj_counts.get(idx, 0) + 1

    def _regime_costs(regime: int) -> np.ndarray:
        observed = costs.get(regime)
        if observed:
            return np.asarray(observed, dtype=np.float64)
        return all_costs  # no survivor after re-assignment: global prior

    point = sum(
        cnt * float(_regime_costs(r).mean()) for r, cnt in proj_counts.items()
    )

    # seeded bootstrap: resample each regime's cost sample, re-price
    rng = np.random.default_rng(bootstrap_seed)
    regime_ids = sorted(set(costs) | set(proj_counts))
    boot_totals = np.empty(n_bootstrap, dtype=np.float64)
    boot_means: dict[int, np.ndarray] = {
        r: np.empty(n_bootstrap, dtype=np.float64) for r in regime_ids
    }
    for b in range(n_bootstrap):
        total = 0.0
        for r in regime_ids:
            c = _regime_costs(r)
            mean = float(rng.choice(c, size=c.size, replace=True).mean())
            boot_means[r][b] = mean
            total += proj_counts.get(r, 0) * mean
        boot_totals[b] = total

    regimes = [
        RegimeEstimate(
            regime=r,
            n_observed=len(costs.get(r, ())),
            n_projected=proj_counts.get(r, 0),
            mean_wall_us=float(_regime_costs(r).mean()),
            ci_low_us=float(np.percentile(boot_means[r], 2.5)),
            ci_high_us=float(np.percentile(boot_means[r], 97.5)),
            mean_block_size=(
                block_sums.get(r, 0.0) / len(costs[r]) if costs.get(r) else 0.0
            ),
        )
        for r in regime_ids
    ]
    ci_low = min(float(np.percentile(boot_totals, 2.5)), point)
    ci_high = max(float(np.percentile(boot_totals, 97.5)), point)
    return float(point), ci_low, ci_high, regimes


def _schedule_match(probe_sigs: list[PhaseSignature],
                    scout_sizes: list[int]) -> float:
    """Fraction of probed blocksteps whose size the scout predicted
    (matched by global blockstep index)."""
    hits = sum(
        1
        for sig in probe_sigs
        if sig.blockstep < len(scout_sizes)
        and sig.block_size == scout_sizes[sig.blockstep]
    )
    return hits / len(probe_sigs)


# -- the estimator ----------------------------------------------------------


def _cluster(signatures: list[PhaseSignature]) -> RegimeTracker:
    """The regime clustering of a signature stream, in stream order."""
    tracker = RegimeTracker()
    for sig in signatures:
        tracker.update(sig)
    return tracker


def _assemble(
    plan: _Plan, probe_sigs: list[PhaseSignature], n_bootstrap: int, wall_t0: float
) -> SampledEstimate:
    """Cluster the probe signatures, price every unprobed scouted
    blockstep by its regime and add the measured probe time."""
    tracker = _cluster(probe_sigs)
    probed = {sig.blockstep for sig in probe_sigs}
    remainder = [b for i, b in enumerate(plan.scout_sizes) if i not in probed]
    remainder_us, ci_low_r, ci_high_r, regimes = _price_schedule(
        probe_sigs, tracker, remainder, n=int(plan.params["n"]),
        burn_in=DEFAULT_BURN_IN, n_bootstrap=n_bootstrap,
        bootstrap_seed=DEFAULT_BOOTSTRAP_SEED,
    )
    prefix_wall_us = float(sum(s.wall_us for s in probe_sigs))
    return SampledEstimate(
        params=plan.params,
        t_end=plan.t_end,
        scout_blocksteps=len(plan.scout_sizes),
        scout_wall_s=float(plan.scout_wall_s),
        prefix_blocksteps=len(probe_sigs),
        prefix_wall_us=prefix_wall_us,
        projected_blocksteps=len(remainder),
        schedule_match=_schedule_match(probe_sigs, plan.scout_sizes),
        estimated_total_us=prefix_wall_us + remainder_us,
        ci_low_us=prefix_wall_us + ci_low_r,
        ci_high_us=prefix_wall_us + ci_high_r,
        regimes=regimes,
        summary=tracker.summary(),
        windows=[list(window) for window in plan.windows],
        n_bootstrap=int(n_bootstrap),
        bootstrap_seed=DEFAULT_BOOTSTRAP_SEED,
        estimator_wall_s=time.perf_counter() - wall_t0,
    )


def _write_film(
    timeline: str | Path | None,
    events: list[Any],
    signatures: list[PhaseSignature],
    plan: _Plan,
    **metadata: Any,
) -> None:
    """The span film of a recorded run with its regime lane attached."""
    if timeline is not None and events:
        write_timeline(
            timeline, events,
            metadata={"kind": SAMPLE_KIND, "params": plan.params,
                      "t_end": plan.t_end, **metadata},
            extra_events=regime_trace_events(_cluster(signatures)),
        )


def sampled_estimate(
    params: dict[str, Any],
    t_end: float,
    min_prefix: int = DEFAULT_MIN_PREFIX,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    timeline: str | Path | None = None,
) -> SampledEstimate:
    """Estimate the blockstep wall time of the run the service would
    execute from ``params`` (a serial ``repro.job/1`` run description),
    simulating only probe windows on its (expensive) backend.

    The windows resume from checkpoints a second scout pass captures at
    their starts; the estimator never sees ground truth.  ``timeline``
    writes the probe's span film with the regime lane attached.
    """
    wall_t0 = time.perf_counter()
    plan = _plan(params, t_end, min_prefix)
    _, checkpoints, ckpt_wall_s = _scout(
        params, t_end, capture_at=tuple(start for start, _ in plan.windows))
    plan.scout_wall_s += ckpt_wall_s
    probe_sigs, events = _run_probe_windows(
        plan, checkpoints, keep_events=timeline is not None)
    estimate = _assemble(plan, probe_sigs, n_bootstrap, wall_t0)
    _write_film(timeline, events, probe_sigs, plan)
    return estimate


def validate_sampling(
    params: dict[str, Any],
    t_end: float,
    min_prefix: int = DEFAULT_MIN_PREFIX,
    repeats: int = DEFAULT_VALIDATE_REPEATS,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    timeline: str | Path | None = None,
) -> SampledEstimate:
    """Sampled-vs-exhaustive validation; attaches a ``validation``
    section to the returned estimate.

    Each repeat runs the target workload **exhaustively** and replays
    the estimator against the same window slices of that run: the
    estimator sees exactly what a standalone :func:`sampled_estimate`
    would have measured (the same plan), but prediction and ground
    truth come from the same measurement window, so the reported error
    is the estimator's, not the machine's minute-to-minute drift.  The
    headline number is the **median** relative error over ``repeats``;
    individual errors are kept so a noisy outlier stays visible.
    """
    plan = _plan(params, t_end, min_prefix)
    # warm-up: allocator, caches and clock governor settle outside
    # every measured repeat
    _run_exhaustive(plan)

    repeats = max(repeats, 1)
    errors: list[float] = []
    totals: list[float] = []
    covers: list[bool] = []
    for _ in range(repeats):
        wall_t0 = time.perf_counter()
        sigs, events = _run_exhaustive(plan, keep_events=timeline is not None)
        measured_us = float(sum(s.wall_us for s in sigs))
        estimate = _assemble(
            plan,
            [sig for start, length in plan.windows
             for sig in sigs[start:start + length]],
            n_bootstrap,
            wall_t0,
        )
        errors.append(
            abs(estimate.estimated_total_us - measured_us) / measured_us)
        totals.append(measured_us)
        covers.append(estimate.ci_low_us <= measured_us <= estimate.ci_high_us)
    _write_film(timeline, events, sigs, plan, validation=True)  # the last repeat's
    estimate.validation = {
        "repeats": repeats,
        "errors": errors,
        "median_rel_error": float(np.median(errors)),
        "measured_total_us": float(np.median(totals)),
        "measured_blocksteps": len(sigs),
        "simulated_fraction": estimate.prefix_blocksteps / len(sigs),
        "ci_covers": int(sum(covers)),
    }
    return estimate


def render_estimate_text(estimate: SampledEstimate) -> str:
    """Human-readable estimate report for the CLI."""
    p = estimate.params
    regimes = HEADLINE["signatures"]
    shown = regimes.shown(regimes.read(estimate.summary))
    lines = [
        f"sampled-run estimate ({p.get('model', 'plummer')} n={p.get('n')}, "
        f"backend {p.get('backend', 'direct')}, t_end={estimate.t_end:g})",
        f"  scout: {estimate.scout_blocksteps} blocksteps scheduled in "
        f"{estimate.scout_wall_s * 1e3:.0f} ms (direct pass); schedule "
        f"match over probe {estimate.schedule_match:.1%}",
        f"  probe: {estimate.prefix_blocksteps} blocksteps simulated in "
        f"{len(estimate.windows)} window(s) "
        f"({estimate.simulated_fraction:.1%} of schedule), "
        f"{estimate.prefix_wall_us / 1e3:.2f} ms measured",
        f"  estimate: {estimate.estimated_total_us / 1e3:.2f} ms "
        f"[{estimate.ci_low_us / 1e3:.2f}, {estimate.ci_high_us / 1e3:.2f}] "
        f"(95% bootstrap, B={estimate.n_bootstrap})",
        f"  regimes: {len(estimate.regimes)} "
        f"(dominant {shown['dominant_regime']} at "
        f"{shown['dominant_share']}); lane {shown['lane']}",
    ]
    for reg in estimate.regimes:
        lines.append(
            f"    regime {reg.regime}: {reg.n_observed} observed, "
            f"{reg.n_projected} projected, "
            f"{reg.mean_wall_us:.1f} us/blockstep "
            f"[{reg.ci_low_us:.1f}, {reg.ci_high_us:.1f}], "
            f"mean block {reg.mean_block_size:.1f}"
        )
    if estimate.validation is not None:
        v = estimate.validation
        errs = ", ".join(f"{e:.2%}" for e in v["errors"])
        lines.append(
            f"  validation: measured {v['measured_total_us'] / 1e3:.2f} ms "
            f"over {v['measured_blocksteps']} blocksteps; median error "
            f"{v['median_rel_error']:.2%} over {v['repeats']} repeat(s) "
            f"[{errs}]; simulated {v['simulated_fraction']:.1%}; "
            f"CI covered {v['ci_covers']}/{v['repeats']}"
        )
    return "\n".join(lines)
