"""The built-in benchmarks: the paper's sweeps as registered trials.

Importing this module populates :data:`repro.bench.registry.REGISTRY`
with the measurements behind the paper's evaluation:

* ``kernel_throughput``       — eq. 9: raw force-kernel speed;
* ``single_host_speed``       — fig. 13: one host integrating a
  Plummer model, speed in the 57-flop convention;
* ``emulated_host_force``     — section 3.4: one fully emulated
  (fixed-point, block-floating-point) GRAPE-6 force call;
* ``cluster_speed``           — figs. 15/16: the copy algorithm over a
  simulated NIC network, virtual-clock attribution;
* ``cluster_speed_exec``      — the same cluster workload's force
  sweeps dispatched on a real execution backend
  (:mod:`repro.parallel.execution`), wall-clock speedup vs inline with
  a bitwise identity check;
* ``multi_cluster_speed``     — figs. 17/18: copy vs hybrid across
  clusters as *measured* simulated runs (model-derived compute cost
  charged to the virtual clocks, comm measured by the ledger);
* ``nic_survey``              — fig. 19: the same measured run swept
  over the section-4.4 NIC models, exposing the sustained-speed knee;
* ``blockstep_phase_breakdown`` — fig. 14: the per-particle-step time
  budget split into the eq. 10 phases;
* ``model_sweep``             — the cost of regenerating a figure's
  analytic curves from the figure table (:data:`repro.figures.FIGURES`;
  fig. 13's three) — the perfmodel hot path.

Every workload generator takes an explicit ``seed`` from the params,
so the trial scatter in ``BENCH_*.json`` reflects timing noise only,
never workload noise.  Parameter sets exist for three suites:
``micro`` (unit tests), ``smoke`` (CI), ``full`` (paper-sized, for
local EXPERIMENTS.md refreshes).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..analysis import run_speed
from ..config import NICS, cluster_machine, full_machine, single_node_machine
from ..constants import FLOPS_PER_INTERACTION
from ..core import BlockTimestepIntegrator
from ..figures import FIGURES, rows
from ..forces import DirectSummation
from ..hardware import Grape6Emulator
from ..models import plummer_model
from ..parallel import (
    CopyAlgorithm,
    HybridAlgorithm,
    ParallelBlockIntegrator,
    SimNetwork,
    resolve_backend,
)
from ..perfmodel import MachineModel
from ..perfmodel.flops import speed_gflops
from ..telemetry import HEADLINE, RankLedger, T_HOST, T_PIPE
from .registry import REGISTRY, BenchContext

#: Workload seed shared by the suites (fixed: determinism satellite).
DEFAULT_SEED = 2003

_EPS2 = (1.0 / 64.0) ** 2


# -- kernel throughput (eq. 9) ---------------------------------------------


def _kernel_setup(params: dict[str, Any]) -> dict[str, Any]:
    system = plummer_model(params["n"], seed=params["seed"])
    backend = DirectSummation(_EPS2)
    backend.set_j_particles(system.pos, system.vel, system.mass)
    return {"system": system, "backend": backend, "idx": np.arange(system.n)}


@REGISTRY.register(
    name="kernel_throughput",
    title="force-kernel throughput (all pairs)",
    paper_ref="eq. 9 / section 2.1",
    setup=_kernel_setup,
    suites={
        "micro": {"n": 64, "calls": 1, "seed": DEFAULT_SEED},
        "smoke": {"n": 512, "calls": 3, "seed": DEFAULT_SEED},
        "full": {"n": 2048, "calls": 5, "seed": DEFAULT_SEED},
    },
)
def kernel_throughput(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    backend, system, idx = state["backend"], state["system"], state["idx"]
    calls = ctx.params["calls"]
    t0 = time.perf_counter()
    for _ in range(calls):
        with ctx.tracer.span("force", phase=T_PIPE, n_i=system.n):
            res = backend.forces_on(system.pos, system.vel, idx)
    elapsed = time.perf_counter() - t0
    interactions = res.interactions * calls
    ctx.tracer.count("bench.interactions", interactions)
    rate = interactions / elapsed if elapsed > 0 else 0.0
    return {
        "interactions_per_call": res.interactions,
        "interactions_per_second": rate,
        "eq9_gflops": rate * FLOPS_PER_INTERACTION / 1.0e9,
    }


# -- single-host speed vs N (fig. 13) --------------------------------------


def _single_host_setup(params: dict[str, Any]) -> dict[str, Any]:
    return {"system": plummer_model(params["n"], seed=params["seed"])}


@REGISTRY.register(
    name="single_host_speed",
    title="single-host integration speed",
    paper_ref="fig. 13 / eq. 9",
    setup=_single_host_setup,
    suites={
        "micro": {"n": 64, "t_end": 1.0 / 32.0, "seed": DEFAULT_SEED},
        "smoke": {"n": 256, "t_end": 1.0 / 16.0, "seed": DEFAULT_SEED},
        "full": {"n": 1024, "t_end": 1.0 / 8.0, "seed": DEFAULT_SEED},
    },
)
def single_host_speed(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    n = ctx.params["n"]
    t0 = time.perf_counter()
    integ = BlockTimestepIntegrator(state["system"], eps2=_EPS2)
    stats = integ.run(ctx.params["t_end"])
    elapsed = time.perf_counter() - t0
    speed = run_speed(stats, elapsed)
    measured_us_per_step = elapsed * 1.0e6 / max(stats.particle_steps, 1)
    # the paper's machine would do the same steps in this much time:
    model_us = MachineModel(single_node_machine()).time_per_step_us(n)
    return {
        "particle_steps": stats.particle_steps,
        "blocksteps": stats.blocksteps,
        "mean_block_size": stats.mean_block_size,
        "interactions_per_step": stats.interactions / max(stats.particle_steps, 1),
        "particle_steps_per_second": speed.particle_steps_per_second,
        "sustained_gflops": speed.sustained_gflops,
        "measured_us_per_step": measured_us_per_step,
        "model_us_per_step": model_us,
        "model_over_measured": model_us / measured_us_per_step,
    }


# -- one fully emulated GRAPE-6 force call (section 3.4) -------------------


def _emulator_setup(params: dict[str, Any]) -> dict[str, Any]:
    system = plummer_model(params["n"], seed=params["seed"])
    emu = Grape6Emulator(_EPS2, boards=params["boards"])
    emu.set_j_particles(system.pos, system.vel, system.mass)
    return {"system": system, "emu": emu, "idx": np.arange(system.n)}


@REGISTRY.register(
    name="emulated_host_force",
    title="emulated GRAPE-6 force evaluation",
    paper_ref="section 3.4 / figs. 4-5",
    setup=_emulator_setup,
    suites={
        "micro": {"n": 48, "boards": 1, "seed": DEFAULT_SEED},
        "smoke": {"n": 96, "boards": 1, "seed": DEFAULT_SEED},
        "full": {"n": 192, "boards": 2, "seed": DEFAULT_SEED},
    },
)
def emulated_host_force(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    emu, system, idx = state["emu"], state["system"], state["idx"]
    t0 = time.perf_counter()
    with ctx.tracer.span("grape.force", phase=T_PIPE, n_i=system.n):
        res = emu.forces_on(system.pos, system.vel, idx)
    elapsed = time.perf_counter() - t0
    ctx.tracer.count("bench.exponent_retries", emu.stats.exponent_retries)
    return {
        "interactions": res.interactions,
        "exponent_retries": emu.stats.exponent_retries,
        "us_per_interaction": elapsed * 1.0e6 / max(res.interactions, 1),
    }


# -- emulation-mode datapath comparison (section 3.4) ----------------------


def _emulator_force_setup(params: dict[str, Any]) -> dict[str, Any]:
    system = plummer_model(params["n"], seed=params["seed"])
    emus = {}
    for mode in ("batched", "faithful"):
        emu = Grape6Emulator(_EPS2, boards=params["boards"], emulation_mode=mode)
        emu.set_j_particles(system.pos, system.vel, system.mass)
        emus[mode] = emu
    return {"system": system, "emus": emus, "idx": np.arange(system.n)}


@REGISTRY.register(
    name="emulator_force",
    title="emulated force call: batched vs faithful datapath",
    paper_ref="section 3.4 (partition-independence fast path)",
    setup=_emulator_force_setup,
    suites={
        "micro": {"n": 48, "boards": 1, "calls": 1, "seed": DEFAULT_SEED},
        "smoke": {"n": 96, "boards": 1, "calls": 2, "seed": DEFAULT_SEED},
        "full": {"n": 192, "boards": 2, "calls": 3, "seed": DEFAULT_SEED},
    },
)
def emulator_force(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    """Times ``forces_on`` in both emulation modes on the same inputs,
    so the artifact tracks the batched speedup *and* the faithful-path
    cost trajectory, and asserts their bit-identity on every trial."""
    system, emus, idx = state["system"], state["emus"], state["idx"]
    calls = ctx.params["calls"]
    timings: dict[str, float] = {}
    results: dict[str, Any] = {}
    for mode, emu in emus.items():
        t0 = time.perf_counter()
        for _ in range(calls):
            with ctx.tracer.span("grape.force", phase=T_PIPE, mode=mode):
                results[mode] = emu.forces_on(system.pos, system.vel, idx)
        timings[mode] = time.perf_counter() - t0
    bit_identical = all(
        np.array_equal(getattr(results["batched"], f), getattr(results["faithful"], f))
        for f in ("acc", "jerk", "pot")
    )
    interactions = results["batched"].interactions
    return {
        "interactions_per_call": interactions,
        "batched_us_per_call": timings["batched"] * 1.0e6 / calls,
        "faithful_us_per_call": timings["faithful"] * 1.0e6 / calls,
        "batched_speedup": timings["faithful"] / max(timings["batched"], 1e-12),
        "bit_identical": float(bit_identical),
    }


# -- simulated cluster speed (figs. 15/16) ---------------------------------


def _cluster_setup(params: dict[str, Any]) -> dict[str, Any]:
    return {
        "system": plummer_model(params["n"], seed=params["seed"]),
        "network": SimNetwork(params["ranks"]),
    }


@REGISTRY.register(
    name="cluster_speed",
    title="simulated multi-host cluster (copy algorithm)",
    paper_ref="figs. 15-16 / section 4.3",
    setup=_cluster_setup,
    suites={
        "micro": {"n": 48, "ranks": 2, "t_end": 1.0 / 32.0,
                  "exec_backend": "inline", "seed": DEFAULT_SEED},
        "smoke": {"n": 128, "ranks": 4, "t_end": 1.0 / 16.0,
                  "exec_backend": "inline", "seed": DEFAULT_SEED},
        "full": {"n": 256, "ranks": 4, "t_end": 1.0 / 8.0,
                 "exec_backend": "inline", "seed": DEFAULT_SEED},
    },
)
def cluster_speed(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    n, ranks = ctx.params["n"], ctx.params["ranks"]
    network: SimNetwork = state["network"]
    ctx.attach_network(network)
    executor = resolve_backend(ctx.params.get("exec_backend", "inline"))
    try:
        integ = ParallelBlockIntegrator(
            state["system"], _EPS2,
            CopyAlgorithm(network, _EPS2, executor=executor),
        )
        stats = integ.run(ctx.params["t_end"])
    finally:
        executor.close()
    virtual_us = network.clock.elapsed
    steps = max(stats.particle_steps, 1)
    msgs = max(network.stats.messages, 1)
    model_us = MachineModel(cluster_machine(ranks)).time_per_step_us(n)
    measured_us_per_step = virtual_us / steps
    ctx.tracer.count("bench.messages", network.stats.messages)
    ctx.tracer.count("bench.bytes", network.stats.bytes)
    ledger = network.ledger
    return {
        "exec_backend": executor.name,
        "particle_steps": stats.particle_steps,
        "virtual_ms": virtual_us / 1.0e3,
        "virtual_us_per_step": measured_us_per_step,
        "messages": network.stats.messages,
        "bytes_per_message": network.stats.bytes / msgs,
        "barriers": network.stats.barriers,
        "barrier_us_per_step": ledger.barrier_sync_us / steps,
        "bytes_per_step": ledger.bytes / steps,
        "straggler_skew": ledger.mean_barrier_skew_us(),
        "model_us_per_step": model_us,
        "model_over_measured": model_us / measured_us_per_step,
    }


# -- real-core execution of the cluster workload ---------------------------


def _cluster_exec_setup(params: dict[str, Any]) -> dict[str, Any]:
    # one fresh system per execution variant: both must see identical
    # initial conditions, and the reference must stay untouched by the
    # other variant's run
    return {
        "system_inline": plummer_model(params["n"], seed=params["seed"]),
        "system_exec": plummer_model(params["n"], seed=params["seed"]),
    }


@REGISTRY.register(
    name="cluster_speed_exec",
    title="cluster force sweep on real cores vs inline",
    paper_ref="section 4 (real multi-host execution)",
    setup=_cluster_exec_setup,
    suites={
        "micro": {"n": 96, "ranks": 8, "calls": 1,
                  "exec_backend": "process:2", "seed": DEFAULT_SEED},
        "smoke": {"n": 1024, "ranks": 8, "calls": 2,
                  "exec_backend": "process:2", "seed": DEFAULT_SEED},
        "full": {"n": 2048, "ranks": 16, "calls": 3,
                 "exec_backend": "process:4", "seed": DEFAULT_SEED},
    },
)
def cluster_speed_exec(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    """The cluster workload's force phase on real cores.

    Runs the copy algorithm's full-block force sweeps (the O(N^2/p)
    tiles every simulated host computes per blockstep, at the
    pipeline-bound block sizes of the paper's section 4 runs) twice on
    identical systems: once inline, once on the configured execution
    backend.  Derives the wall-clock speedup and asserts that forces,
    virtual clocks and comm ledgers are bitwise identical — the
    execution engine may only change *where* the compute runs, never
    what it computes.
    """
    n, ranks, calls = ctx.params["n"], ctx.params["ranks"], ctx.params["calls"]

    def sweep(system, exec_spec, network):
        executor = resolve_backend(exec_spec)
        algo = CopyAlgorithm(network, _EPS2, executor=executor)
        idx = np.arange(system.n)
        try:
            # one warm call primes the pool/arena outside the clock
            algo.set_j_particles(system.pos, system.vel, system.mass)
            algo.forces_on(system.pos, system.vel, idx)
            t0 = time.perf_counter()
            for _ in range(calls):
                with ctx.tracer.span("force", phase=T_PIPE, n_i=system.n):
                    algo.set_j_particles(system.pos, system.vel, system.mass)
                    res = algo.forces_on(system.pos, system.vel, idx)
                algo.exchange_updated(idx)
            elapsed = time.perf_counter() - t0
        finally:
            executor.close()
        return res, elapsed

    # attach before running: attach_network resets the ledger, so it
    # must never run between the sweep and the identity comparison
    net_inline, net_exec = SimNetwork(ranks), SimNetwork(ranks)
    res_inline, wall_inline = sweep(state["system_inline"], "inline", net_inline)
    exec_spec = ctx.params.get("exec_backend", "process")
    ctx.attach_network(net_exec)
    res_exec, wall_exec = sweep(state["system_exec"], exec_spec, net_exec)

    bit_identical = all(
        np.array_equal(getattr(res_inline, f), getattr(res_exec, f))
        for f in ("acc", "jerk", "pot")
    ) and res_inline.interactions == res_exec.interactions
    virtual_identical = bool(
        np.array_equal(net_inline.clock.snapshot(), net_exec.clock.snapshot())
        and net_inline.ledger.summary() == net_exec.ledger.summary()
    )
    interactions = res_exec.interactions * calls
    return {
        "exec_backend": exec_spec,
        "interactions_per_call": res_exec.interactions,
        "inline_wall_s": wall_inline,
        "exec_wall_s": wall_exec,
        "exec_speedup": wall_inline / max(wall_exec, 1e-12),
        "exec_interactions_per_second": interactions / max(wall_exec, 1e-12),
        "bit_identical": float(bit_identical),
        "virtual_identical": float(virtual_identical),
    }


# -- rank observatory: real execution under instrumentation ----------------


def _exec_observatory_setup(params: dict[str, Any]) -> dict[str, Any]:
    # one fresh system per backend variant: the integrator mutates its
    # system, and the bitwise identity check needs identical starts
    return {
        key: plummer_model(params["n"], seed=params["seed"])
        for key in ("inline", "thread", "exec")
    }


@REGISTRY.register(
    name="exec_observatory",
    title="rank observatory: inline vs thread vs process",
    paper_ref="sections 4/6 (real per-host measurement)",
    setup=_exec_observatory_setup,
    suites={
        "micro": {"n": 32, "ranks": 2, "t_end": 1.0 / 64.0,
                  "exec_backend": "process:2", "seed": DEFAULT_SEED},
        "smoke": {"n": 96, "ranks": 4, "t_end": 1.0 / 32.0,
                  "exec_backend": "process:2", "seed": DEFAULT_SEED},
        "full": {"n": 192, "ranks": 4, "t_end": 1.0 / 16.0,
                 "exec_backend": "process:4", "seed": DEFAULT_SEED},
    },
)
def exec_observatory(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    """The same integration on all three execution backends, observed.

    Each variant runs the copy algorithm with a
    :class:`~repro.telemetry.ranks.RankLedger` attached, so every
    ``run_tasks`` dispatch returns real per-task wall/CPU/rusage
    samples.  Derives the headline rank-observatory numbers from the
    configured backend (real straggler skew, arena publish bytes per
    blockstep, and the real-vs-virtual placement gap) and asserts the
    standing guarantee: with the observatory *on*, final particle
    state and virtual clocks are still bitwise identical across all
    three backends.
    """
    ranks, t_end = ctx.params["ranks"], ctx.params["t_end"]
    exec_spec = ctx.params.get("exec_backend", "process:2")

    def observed_run(system, spec, network, ledger):
        executor = resolve_backend(spec)
        try:
            integ = ParallelBlockIntegrator(
                system, _EPS2,
                CopyAlgorithm(network, _EPS2, executor=executor),
            ).observe_ranks(ledger)
            t0 = time.perf_counter()
            stats = integ.run(t_end)
            wall = time.perf_counter() - t0
        finally:
            executor.close()
        return stats, wall

    # the reference variants run first: attach_network wires the
    # tracer's virtual clock to the exec variant's network, and only
    # that variant's spans should carry its virtual timestamps
    net_inline, net_thread = SimNetwork(ranks), SimNetwork(ranks)
    led_inline, led_thread = RankLedger(), RankLedger()
    _, wall_inline = observed_run(
        state["inline"], "inline", net_inline, led_inline)
    _, wall_thread = observed_run(
        state["thread"], "thread:2", net_thread, led_thread)

    net_exec = SimNetwork(ranks)
    led_exec = RankLedger()
    ctx.attach_network(net_exec)
    _, wall_exec = observed_run(
        state["exec"], exec_spec, net_exec, led_exec)
    ctx.attach_rank_ledger(led_exec)

    headline = HEADLINE["rank"].read(led_exec.summary(comm=net_exec.ledger))
    bit_identical = all(
        np.array_equal(getattr(state["inline"], f), getattr(state[k], f))
        for k in ("thread", "exec")
        for f in ("pos", "vel")
    )
    virtual_identical = all(
        np.array_equal(net_inline.clock.snapshot(), net.clock.snapshot())
        for net in (net_thread, net_exec)
    )
    ctx.tracer.count("bench.rank_tasks", headline["tasks"])
    return {
        "exec_backend": exec_spec,
        "blocksteps": headline["blocksteps"],
        "rank_tasks": headline["tasks"],
        "inline_wall_s": wall_inline,
        "thread_wall_s": wall_thread,
        "exec_wall_s": wall_exec,
        "real_skew_us": headline["real_skew_us_mean"],
        "publish_bytes_per_step": headline["publish_bytes_per_step"],
        "placement_gap": headline["placement_gap_us_mean"] or 0.0,
        "utilisation": headline["utilisation"],
        "bit_identical": float(bit_identical),
        "virtual_identical": float(virtual_identical),
    }


# -- measured multi-cluster sweeps (figs. 17-19) ---------------------------


def _measured_run(ctx: BenchContext, system, algorithm, t_end: float):
    """Integrate ``system`` under ``algorithm`` and return
    ``(stats, virtual_us)`` (slowest clock across all of the
    algorithm's networks)."""
    networks = getattr(algorithm, "networks", None) or [algorithm.network]
    for i, net in enumerate(networks):
        ctx.attach_network(net, primary=(i == 0))
    integ = ParallelBlockIntegrator(system, _EPS2, algorithm)
    stats = integ.run(t_end)
    virtual_us = max(net.clock.elapsed for net in networks)
    return stats, virtual_us


def _multi_cluster_setup(params: dict[str, Any]) -> dict[str, Any]:
    # one fresh system per variant: the integrator mutates its system,
    # and both variants must integrate the same initial conditions
    return {
        "system_copy": plummer_model(params["n"], seed=params["seed"]),
        "system_hybrid": plummer_model(params["n"], seed=params["seed"]),
    }


@REGISTRY.register(
    name="multi_cluster_speed",
    title="measured multi-cluster runs: copy vs hybrid",
    paper_ref="figs. 17-18 / section 4.3",
    setup=_multi_cluster_setup,
    suites={
        "micro": {"n": 48, "clusters": 2, "t_end": 1.0 / 32.0,
                  "seed": DEFAULT_SEED},
        "smoke": {"n": 96, "clusters": 2, "t_end": 1.0 / 32.0,
                  "seed": DEFAULT_SEED},
        "full": {"n": 256, "clusters": 4, "t_end": 1.0 / 16.0,
                 "seed": DEFAULT_SEED},
    },
)
def multi_cluster_speed(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    """Figs. 17/18 as *measured* simulated runs, not model curves.

    Both variants span ``4 * clusters`` hosts: the flat copy algorithm
    (every host exchanges with every other over the NIC ring) versus
    the hybrid (2-D grid inside each cluster, copy ring between
    clusters).  Compute cost is eq. 10's per-host terms
    (:meth:`MachineModel.compute_hook`); communication and barriers are
    *not* modelled — the simulated network pays them and the comm
    ledger measures them in virtual time — so the run's sustained speed
    is a measurement whose comm side is real (simulated) traffic, and
    ``model_over_measured`` checks the closed loop.
    """
    n, clusters = ctx.params["n"], ctx.params["clusters"]
    t_end = ctx.params["t_end"]
    machine = full_machine(clusters)
    model = MachineModel(machine)
    hook = model.compute_hook(n)

    copy_net = SimNetwork(4 * clusters, machine.nic)
    copy_alg = CopyAlgorithm(copy_net, _EPS2, compute_time_us=hook)
    copy_stats, copy_us = _measured_run(
        ctx, state["system_copy"], copy_alg, t_end)
    copy_steps = max(copy_stats.particle_steps, 1)

    hybrid_alg = HybridAlgorithm(
        clusters, _EPS2, nic=machine.nic, compute_time_us=hook)
    hyb_stats, hyb_us = _measured_run(
        ctx, state["system_hybrid"], hybrid_alg, t_end)
    hyb_steps = max(hyb_stats.particle_steps, 1)

    model_us = model.time_per_step_us(n)
    copy_ledger = copy_net.ledger
    hyb_sync = sum(l.barrier_sync_us for l in hybrid_alg.ledgers)
    hyb_bytes = sum(l.bytes for l in hybrid_alg.ledgers)
    return {
        "particle_steps": copy_stats.particle_steps,
        "copy_us_per_step": copy_us / copy_steps,
        "hybrid_us_per_step": hyb_us / hyb_steps,
        "copy_gflops": speed_gflops(n, copy_us / copy_steps),
        "hybrid_gflops": speed_gflops(n, hyb_us / hyb_steps),
        "hybrid_over_copy_speed": (copy_us / copy_steps)
        / (hyb_us / hyb_steps),
        "copy_barrier_us_per_step": copy_ledger.barrier_sync_us / copy_steps,
        "hybrid_barrier_us_per_step": hyb_sync / hyb_steps,
        "copy_bytes_per_step": copy_ledger.bytes / copy_steps,
        "hybrid_bytes_per_step": hyb_bytes / hyb_steps,
        "straggler_skew": copy_ledger.mean_barrier_skew_us(),
        "model_us_per_step": model_us,
        "model_over_measured": model_us / (hyb_us / hyb_steps),
    }


def _nic_survey_setup(params: dict[str, Any]) -> dict[str, Any]:
    # one fresh system per NIC (the integrator mutates its system; all
    # NICs must see identical initial conditions and block schedules)
    return {
        nic: plummer_model(params["n"], seed=params["seed"])
        for nic in params["nics"]
    }


@REGISTRY.register(
    name="nic_survey",
    title="NIC latency/bandwidth survey (sustained-speed knee)",
    paper_ref="fig. 19 / section 4.4",
    setup=_nic_survey_setup,
    suites={
        "micro": {"n": 48, "ranks": 4, "t_end": 1.0 / 32.0,
                  "nics": ["ns83820", "intel82540em"],
                  "seed": DEFAULT_SEED},
        "smoke": {"n": 96, "ranks": 8, "t_end": 1.0 / 32.0,
                  "nics": ["ns83820", "tigon2", "intel82540em", "myrinet"],
                  "seed": DEFAULT_SEED},
        "full": {"n": 256, "ranks": 16, "t_end": 1.0 / 16.0,
                 "nics": ["ns83820", "tigon2", "intel82540em", "myrinet"],
                 "seed": DEFAULT_SEED},
    },
)
def nic_survey(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    """Fig. 19's tuning study as measured runs: the same workload on
    the same host count, swapping only the NIC model.  The knee the
    paper found — barrier latency, not bandwidth, capping sustained
    speed at large p — shows up as the barrier fraction of virtual
    time; the 82540EM beats the NS 83820 because its round trip is 3x
    shorter."""
    n, ranks, t_end = ctx.params["n"], ctx.params["ranks"], ctx.params["t_end"]
    hook = MachineModel(single_node_machine()).compute_hook(n)
    out: dict[str, Any] = {}
    speeds: dict[str, float] = {}
    for nic_name in ctx.params["nics"]:
        nic = NICS[nic_name]
        network = SimNetwork(ranks, nic)
        algorithm = CopyAlgorithm(network, _EPS2, compute_time_us=hook)
        stats, virtual_us = _measured_run(
            ctx, state[nic_name], algorithm, t_end)
        steps = max(stats.particle_steps, 1)
        ledger = network.ledger
        gflops = speed_gflops(n, virtual_us / steps)
        speeds[nic_name] = gflops
        out[f"{nic_name}_gflops"] = gflops
        out[f"{nic_name}_us_per_step"] = virtual_us / steps
        out[f"{nic_name}_barrier_us_per_step"] = (
            ledger.barrier_sync_us / steps)
        out[f"{nic_name}_bytes_per_step"] = ledger.bytes / steps
        out[f"{nic_name}_barrier_fraction"] = (
            ledger.barrier_sync_us / virtual_us if virtual_us > 0 else 0.0)
        out[f"{nic_name}_straggler_skew"] = ledger.mean_barrier_skew_us()
    if "ns83820" in speeds and "intel82540em" in speeds:
        out["intel_over_ns_speed"] = (
            speeds["intel82540em"] / speeds["ns83820"])
    out["best_nic_gflops"] = max(speeds.values())
    return out


# -- blockstep phase breakdown on the emulator (fig. 14 / eq. 10) ----------


def _breakdown_setup(params: dict[str, Any]) -> dict[str, Any]:
    return {"system": plummer_model(params["n"], seed=params["seed"])}


@REGISTRY.register(
    name="blockstep_phase_breakdown",
    title="emulated-host blockstep time budget",
    paper_ref="fig. 14 / eq. 10",
    setup=_breakdown_setup,
    suites={
        "micro": {"n": 32, "t_end": 1.0 / 32.0, "seed": DEFAULT_SEED},
        "smoke": {"n": 64, "t_end": 1.0 / 16.0, "seed": DEFAULT_SEED},
        "full": {"n": 128, "t_end": 1.0 / 8.0, "seed": DEFAULT_SEED},
    },
)
def blockstep_phase_breakdown(ctx: BenchContext, state: dict[str, Any]) -> dict[str, Any]:
    integ = BlockTimestepIntegrator(
        state["system"], eps2=_EPS2, backend=Grape6Emulator(_EPS2)
    )
    t0 = time.perf_counter()
    stats = integ.run(ctx.params["t_end"])
    elapsed = time.perf_counter() - t0
    return {
        "particle_steps": stats.particle_steps,
        "blocksteps": stats.blocksteps,
        "mean_block_size": stats.mean_block_size,
        "measured_us_per_step": elapsed * 1.0e6 / max(stats.particle_steps, 1),
    }


# -- analytic model regeneration (figs. 13-18 curves) ----------------------


@REGISTRY.register(
    name="model_sweep",
    title="analytic perfmodel curve regeneration",
    paper_ref="fig. 13 (model curves, from the figure table)",
    suites={
        "micro": {"points": 4, "sweeps": 1},
        "smoke": {"points": 12, "sweeps": 25},
        "full": {"points": 24, "sweeps": 100},
    },
)
def model_sweep(ctx: BenchContext, state: Any) -> dict[str, Any]:
    # ``sweeps`` repeats the whole curve regeneration so the smoke
    # timing sits well above scheduler jitter (a single sweep is
    # sub-millisecond, which would drown the regression gate in noise).
    points = ctx.params["points"]
    sweeps = ctx.params.get("sweeps", 1)
    figure = FIGURES["fig13"]
    t0 = time.perf_counter()
    with ctx.tracer.span("model.sweep", phase=T_HOST, points=points):
        for _ in range(sweeps):
            table = rows(figure, points)
    elapsed = time.perf_counter() - t0
    (tflop,) = figure.anchors
    return {
        "points": points,
        "us_per_point": elapsed * 1.0e6 / (points * sweeps),
        "speed_at_2e5_gflops": tflop.reproduce(figure),
        "max_speed_gflops": max(row[1] for row in table),
    }
