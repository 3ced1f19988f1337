"""The fig. 13/15 "fraction of peak" curve as a measured benchmark.

The paper's speed figures all share one shape: real Tflops as a
fraction of peak climbs with N — small blocks cannot fill 48 i-lanes
per chip and host time does not amortise — then saturates.  The
``efficiency_sweep`` benchmark reproduces that curve end to end on the
reproduction's own machinery: integrate a Plummer model per N under
the eq.-10 compute hook on a simulated single-host machine, replay the
span stream through a :class:`~repro.telemetry.FlopsLedger`, and
report the measured fraction of peak next to the analytic
:meth:`~repro.perfmodel.MachineModel.efficiency` prediction — plus the
per-bucket predicted-vs-measured comparison, eq. 10 terms mapped 1:1
onto the loss buckets via
:meth:`~repro.perfmodel.MachineModel.efficiency_buckets`.
"""

from __future__ import annotations

from typing import Any

from ..config import cluster_machine
from ..models import plummer_model
from ..parallel import CopyAlgorithm, SimNetwork
from ..perfmodel import MachineModel
from ..telemetry import BUCKETS, HEADLINE, FlopsLedger, efficiency_from_events
from .registry import REGISTRY, BenchContext
from .suites import DEFAULT_SEED, _EPS2, _measured_run


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


def _sweep_setup(params: dict[str, Any]) -> dict[str, Any]:
    return {
        "systems": {
            n: plummer_model(n, seed=params["seed"]) for n in params["n_values"]
        }
    }


@REGISTRY.register(
    name="efficiency_sweep",
    title="fraction of peak vs N (real Tflops waterfall)",
    paper_ref="figs. 13/15 / eq. 9-10 / section 6",
    setup=_sweep_setup,
    suites={
        "micro": {"n_values": [16, 48], "t_end": 1.0 / 64.0, "seed": DEFAULT_SEED},
        "smoke": {
            "n_values": [32, 64, 128],
            "t_end": 1.0 / 32.0,
            "seed": DEFAULT_SEED,
        },
        "full": {
            "n_values": [64, 128, 256, 512, 1024],
            "t_end": 1.0 / 16.0,
            "seed": DEFAULT_SEED,
        },
    },
)
def efficiency_sweep(ctx: BenchContext, state: Any) -> dict[str, Any]:
    machine = cluster_machine(1)
    ctx.hardware = machine
    model = MachineModel(machine)
    n_values = list(ctx.params["n_values"])
    out: dict[str, Any] = {}
    fracs: list[float] = []
    last_summary: dict[str, Any] | None = None
    for n in n_values:
        net = SimNetwork(1, machine.nic)
        algorithm = CopyAlgorithm(
            net, _EPS2, compute_time_us=model.compute_hook(n))
        start = len(ctx.sink.events)
        _measured_run(ctx, state["systems"][n], algorithm, ctx.params["t_end"])
        ledger = efficiency_from_events(
            ctx.sink.events[start:], hardware=machine
        )
        summary = ledger.summary(comm=net.ledger.summary())
        headline = HEADLINE["efficiency"].read(summary)
        fracs.append(headline["fraction_of_peak"])
        out[f"frac_peak_n{n}"] = headline["fraction_of_peak"]
        out[f"real_gflops_n{n}"] = headline["real_gflops"]
        last_summary = summary
    out["best_fraction_of_peak"] = max(fracs)
    out["monotone_in_n"] = float(
        all(b >= a - 1.0e-12 for a, b in zip(fracs, fracs[1:]))
    )
    # predicted vs measured at the largest N: eq.-10 terms 1:1 on buckets
    n_max = n_values[-1]
    out["model_frac_peak"] = model.efficiency(n_max)
    out["model_gap"] = fracs[-1] - out["model_frac_peak"]
    predicted = model.efficiency_buckets(n_max)
    assert last_summary is not None
    for b in BUCKETS:
        out[f"bucket_{b}_measured"] = last_summary["buckets"][b]["fraction"]
        out[f"bucket_{b}_model"] = predicted[b]
    return out
