"""Figs. 15-19 as measured runs on the virtual clock, pinned exactly.

The simulated cluster charges its network and the eq.-10 compute hook
to virtual clocks, so everything these runs report is a function of the
seeded workload: a rerun gives the same bits.  A band around a timed
median would hide a change that an exact pin catches, so each run's
derived values and merged comm summary are compared with ``==``
against ``virtual_runs.json``:

* ``cluster_speed`` — figs. 15/16: the copy algorithm on four hosts;
* ``multi_cluster_speed`` — figs. 17/18: copy vs hybrid across two
  clusters, compute charged by the model, comm by the simulated NIC;
* ``nic_survey`` — fig. 19 / section 4.4: one workload per NIC;
* ``efficiency_sweep`` — figs. 13/15: fraction of peak against N, the
  flops ledger's buckets next to the model's;
* ``model_sweep`` — fig. 13's model curves from the figure table.

The paper's orderings are asserted on top of the pins, and the survey's
ledgers must give back the NIC constants the simulator was given.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_virtual_runs.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.config import NICS, cluster_machine, full_machine, single_node_machine
from repro.figures import FIGURES, rows
from repro.models import plummer_model
from repro.parallel import (
    CopyAlgorithm,
    HybridAlgorithm,
    ParallelBlockIntegrator,
    SimNetwork,
)
from repro.parallel.ledger import merge_comm_summaries
from repro.perfmodel import MachineModel, fit_nics
from repro.perfmodel.flops import speed_gflops
from repro.telemetry import (
    BUCKETS,
    HEADLINE,
    InMemorySink,
    Tracer,
    efficiency_from_events,
    set_tracer,
    validate_efficiency,
)

PINS = json.loads(Path(__file__).with_name("virtual_runs.json").read_text())

EPS2 = (1.0 / 64.0) ** 2


def integrate(params, algorithm):
    """Integrate the seeded Plummer model under ``algorithm`` with an
    enabled tracer on its first network's virtual clock; returns the
    run stats, the slowest network's virtual time and the span events."""
    networks = getattr(algorithm, "networks", None) or [algorithm.network]
    sink = InMemorySink()
    tracer = networks[0].attach_tracer(Tracer(enabled=True, sinks=[sink]))
    old = set_tracer(tracer)
    try:
        system = plummer_model(params["n"], seed=params["seed"])
        stats = ParallelBlockIntegrator(system, EPS2, algorithm).run(
            params["t_end"])
    finally:
        set_tracer(old)
    return stats, max(net.clock.elapsed for net in networks), sink.events


def cluster_speed(p):
    network = SimNetwork(p["ranks"])
    stats, virtual_us, _ = integrate(p, CopyAlgorithm(network, EPS2))
    steps = max(stats.particle_steps, 1)
    model_us = MachineModel(cluster_machine(p["ranks"])).time_per_step_us(p["n"])
    ledger = network.ledger
    derived = {
        "particle_steps": stats.particle_steps,
        "virtual_ms": virtual_us / 1.0e3,
        "virtual_us_per_step": virtual_us / steps,
        "messages": network.stats.messages,
        "bytes_per_message": network.stats.bytes / max(network.stats.messages, 1),
        "barriers": network.stats.barriers,
        "barrier_us_per_step": ledger.barrier_sync_us / steps,
        "bytes_per_step": ledger.bytes / steps,
        "straggler_skew": ledger.mean_barrier_skew_us(),
        "model_us_per_step": model_us,
        "model_over_measured": model_us / (virtual_us / steps),
    }
    return derived, [network], None


def multi_cluster_speed(p):
    n, clusters = p["n"], p["clusters"]
    machine = full_machine(clusters)
    model = MachineModel(machine)
    hook = model.compute_hook(n)
    copy_net = SimNetwork(4 * clusters, machine.nic)
    copy_stats, copy_us, _ = integrate(
        p, CopyAlgorithm(copy_net, EPS2, compute_time_us=hook))
    hybrid = HybridAlgorithm(clusters, EPS2, nic=machine.nic, compute_time_us=hook)
    hyb_stats, hyb_us, _ = integrate(p, hybrid)
    copy_steps = max(copy_stats.particle_steps, 1)
    hyb_steps = max(hyb_stats.particle_steps, 1)
    copy_step, hyb_step = copy_us / copy_steps, hyb_us / hyb_steps
    model_us = model.time_per_step_us(n)
    derived = {
        "particle_steps": copy_stats.particle_steps,
        "copy_us_per_step": copy_step,
        "hybrid_us_per_step": hyb_step,
        "copy_gflops": speed_gflops(n, copy_step),
        "hybrid_gflops": speed_gflops(n, hyb_step),
        "hybrid_over_copy_speed": copy_step / hyb_step,
        "copy_barrier_us_per_step": copy_net.ledger.barrier_sync_us / copy_steps,
        "hybrid_barrier_us_per_step": sum(
            l.barrier_sync_us for l in hybrid.ledgers) / hyb_steps,
        "copy_bytes_per_step": copy_net.ledger.bytes / copy_steps,
        "hybrid_bytes_per_step": sum(l.bytes for l in hybrid.ledgers) / hyb_steps,
        "straggler_skew": copy_net.ledger.mean_barrier_skew_us(),
        "model_us_per_step": model_us,
        "model_over_measured": model_us / hyb_step,
    }
    return derived, [copy_net, *hybrid.networks], None


def nic_survey(p):
    hook = MachineModel(single_node_machine()).compute_hook(p["n"])
    derived: dict[str, Any] = {}
    networks = []
    for name in p["nics"]:
        network = SimNetwork(p["ranks"], NICS[name])
        stats, virtual_us, _ = integrate(
            p, CopyAlgorithm(network, EPS2, compute_time_us=hook))
        steps = max(stats.particle_steps, 1)
        ledger = network.ledger
        derived.update({
            f"{name}_gflops": speed_gflops(p["n"], virtual_us / steps),
            f"{name}_us_per_step": virtual_us / steps,
            f"{name}_barrier_us_per_step": ledger.barrier_sync_us / steps,
            f"{name}_bytes_per_step": ledger.bytes / steps,
            f"{name}_barrier_fraction": ledger.barrier_sync_us / virtual_us,
            f"{name}_straggler_skew": ledger.mean_barrier_skew_us(),
        })
        networks.append(network)
    derived["intel_over_ns_speed"] = (
        derived["intel82540em_gflops"] / derived["ns83820_gflops"])
    derived["best_nic_gflops"] = max(derived[f"{name}_gflops"] for name in p["nics"])
    return derived, networks, None


def efficiency_sweep(p):
    machine = cluster_machine(1)
    model = MachineModel(machine)
    n_values = p["n_values"]
    derived: dict[str, Any] = {}
    networks, summaries = [], []
    for n in n_values:
        network = SimNetwork(1, machine.nic)
        _, _, events = integrate(
            {**p, "n": n},
            CopyAlgorithm(network, EPS2, compute_time_us=model.compute_hook(n)))
        summary = efficiency_from_events(events, hardware=machine).summary(
            comm=network.ledger.summary())
        headline = HEADLINE["efficiency"].read(summary)
        derived[f"frac_peak_n{n}"] = headline["fraction_of_peak"]
        derived[f"real_gflops_n{n}"] = headline["real_gflops"]
        networks.append(network)
        summaries.append(summary)
    fracs = [derived[f"frac_peak_n{n}"] for n in n_values]
    derived["best_fraction_of_peak"] = max(fracs)
    derived["monotone_in_n"] = float(
        all(b >= a - 1.0e-12 for a, b in zip(fracs, fracs[1:])))
    # predicted vs measured at the largest N: eq.-10 terms 1:1 on buckets
    derived["model_frac_peak"] = model.efficiency(n_values[-1])
    derived["model_gap"] = fracs[-1] - derived["model_frac_peak"]
    predicted = model.efficiency_buckets(n_values[-1])
    for b in BUCKETS:
        derived[f"bucket_{b}_measured"] = summaries[-1]["buckets"][b]["fraction"]
        derived[f"bucket_{b}_model"] = predicted[b]
    return derived, networks, summaries


def model_sweep(p):
    figure = FIGURES["fig13"]
    (tflop,) = figure.anchors
    derived = {
        "points": p["points"],
        "speed_at_2e5_gflops": tflop.reproduce(figure),
        "max_speed_gflops": max(row[1] for row in rows(figure, p["points"])),
    }
    return derived, [], None


RUNS = {fn.__name__: fn for fn in (
    cluster_speed, multi_cluster_speed, nic_survey, efficiency_sweep, model_sweep)}


@pytest.fixture(scope="module")
def runs():
    return {name: RUNS[name](pin["params"]) for name, pin in PINS["runs"].items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_run_equals_its_pin(runs, name):
    """Every derived value and the merged comm summary, bit for bit
    (through JSON, as recorded)."""
    derived, networks, _ = runs[name]
    pin = PINS["runs"][name]
    assert json.loads(json.dumps(derived)) == pin["derived"]
    if networks:
        comm = merge_comm_summaries(net.ledger.summary() for net in networks)
        assert json.loads(json.dumps(comm)) == pin["comm"]
    else:
        assert "comm" not in pin


def test_the_intel_82540em_beats_the_ns_83820(runs):
    """Fig. 19's ordering from measured runs: a 3x shorter round trip
    wins at the same host count."""
    derived = runs["nic_survey"][0]
    assert derived["intel82540em_gflops"] > derived["ns83820_gflops"]
    assert derived["intel_over_ns_speed"] > 1.0


def test_multi_cluster_runs_pay_barriers(runs):
    derived = runs["multi_cluster_speed"][0]
    assert derived["copy_barrier_us_per_step"] > 0.0
    assert derived["hybrid_barrier_us_per_step"] > 0.0


def test_fraction_of_peak_is_monotone_in_n(runs):
    """The fig. 13 shape: fraction of peak does not fall as N grows, and
    every N's waterfall is a valid efficiency summary."""
    derived, _, summaries = runs["efficiency_sweep"]
    fracs = [derived[f"frac_peak_n{n}"]
             for n in PINS["runs"]["efficiency_sweep"]["params"]["n_values"]]
    assert derived["monotone_in_n"] == 1.0
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert all(0.0 <= f <= 1.0 for f in fracs)
    for summary in summaries:
        validate_efficiency(summary)


def test_the_survey_ledgers_recover_the_nics(runs):
    """Least squares over the fig. 19 survey's ledgers gives back each
    NIC's round trip and bandwidth, and the barrier flight the butterfly
    charges, rtt/2 + 16/bandwidth."""
    _, networks, _ = runs["nic_survey"]
    fits = fit_nics(net.ledger.summary() for net in networks)
    surveyed = PINS["runs"]["nic_survey"]["params"]["nics"]
    assert sorted(fits) == sorted(surveyed)
    for name in surveyed:
        nic, fit = NICS[name], fits[name]
        assert fit["rtt_latency_us"] == pytest.approx(nic.rtt_latency_us, rel=1e-12)
        assert fit["bandwidth_mbs"] == pytest.approx(nic.bandwidth_mbs, rel=1e-12)
        flight = nic.rtt_latency_us / 2.0 + 16.0 / nic.bandwidth_mbs
        assert fit["barrier_flight_us"] == pytest.approx(flight, rel=1e-12)
