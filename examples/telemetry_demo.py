#!/usr/bin/env python
"""Trace a run and print the paper-style phase breakdown.

The paper's whole evaluation (figs. 13-19) is built from one habit:
attribute every microsecond of a run to host computation, GRAPE
pipeline time, communication, and synchronisation, then tune the
dominant term.  This demo does the same attribution on the
reproduction's real code paths:

1. a Plummer integration on the emulated single-host GRAPE-6, traced
   and rolled up into the T_host/T_pipe/T_comm/T_barrier taxonomy of
   section 4 (eq. 10);
2. the same workload on a 4-host simulated cluster (copy algorithm),
   where the *virtual* clock attribution shows the communication and
   barrier terms the single host does not have;
3. the run quantities - block sizes, interactions, NIC messages,
   exponent retries - read from the stats objects that count them
   (the tracer records spans only).

Given a trace path, step 1's spans are also written there by a
:class:`TimelineSink` as a Chrome-trace timeline (what ran when, per
blockstep) - load it in ``chrome://tracing`` or
https://ui.perfetto.dev.

Usage:  python examples/telemetry_demo.py [N] [trace.json]
"""

from __future__ import annotations

import sys

from repro import BlockTimestepIntegrator, constant_softening, plummer_model, telemetry
from repro.hardware import Grape6Emulator
from repro.io import format_table
from repro.parallel.copy_algorithm import CopyAlgorithm
from repro.parallel.driver import ParallelBlockIntegrator
from repro.parallel.simcomm import SimNetwork


def traced_run(make_integrator, t_end: float, virtual_clock=None, sinks=()):
    """Run one workload under a fresh tracer (``sinks`` are added to
    it and closed after the run); returns (breakdown, integrator)."""
    sink = telemetry.InMemorySink()
    tracer = telemetry.Tracer(enabled=True, sinks=[sink, *sinks],
                              virtual_clock=virtual_clock)
    old = telemetry.set_tracer(tracer)
    try:
        integ = make_integrator()
        integ.run(t_end)
    finally:
        telemetry.set_tracer(old)
    tracer.close()
    breakdown = telemetry.PhaseAggregator().consume(sink.events).breakdown()
    return breakdown, integ


def quantity_table(rows) -> str:
    return format_table(("quantity", "read from", "value"), rows)


def main(n: int = 64, trace_path: str | None = None) -> None:
    eps = constant_softening(n)
    eps2 = eps * eps
    t_end = 0.0625
    print(f"# telemetry demo, N = {n}, t_end = {t_end}\n")

    # 1. single host + emulated GRAPE ----------------------------------------
    print("## single host, emulated GRAPE-6 (wall-clock attribution)\n")
    emulator = Grape6Emulator(eps2)
    timeline = () if trace_path is None else (
        telemetry.TimelineSink(trace_path, workload="plummer", n=n),)
    breakdown, integ = traced_run(
        lambda: BlockTimestepIntegrator(
            plummer_model(n, seed=4), eps2=eps2, backend=emulator
        ),
        t_end,
        sinks=timeline,
    )
    print(telemetry.render_breakdown(breakdown, title="emulated single host"))
    print()
    if trace_path is not None:
        print(f"wrote {trace_path} ({breakdown.n_events} spans); load it in "
              "chrome://tracing or https://ui.perfetto.dev\n")

    # 2. simulated 4-host cluster --------------------------------------------
    print("## 4 hosts, copy algorithm over simulated NICs "
          "(virtual-clock attribution)\n")
    network = SimNetwork(4)
    breakdown_p, integ_p = traced_run(
        lambda: ParallelBlockIntegrator(
            plummer_model(n, seed=4), eps2, CopyAlgorithm(network, eps2)
        ),
        t_end,
        virtual_clock=lambda: network.clock.elapsed,
    )
    print(telemetry.render_breakdown(
        breakdown_p, title="simulated 4-host cluster", spans=False
    ))
    print()
    print("  (the virtual columns are the simulated machine's time — the")
    print("   T_comm/T_barrier terms behind the 1/N wall of figs. 16/18)")
    print()

    # 3. the run quantities, from the stats objects that count them ---------
    print("## run quantities (emulated-hardware leg)\n")
    print(quantity_table([
        ("core.blocksteps", "integ.stats", integ.stats.blocksteps),
        ("core.block_size (mean)", "integ.stats", f"{integ.stats.mean_block_size:.4g}"),
        ("core.interactions", "integ.stats", integ.stats.interactions),
        ("grape.jmem_loads", "emulator.stats", emulator.stats.jmem_loads),
        ("grape.jmem_loads_elided", "emulator.stats", emulator.stats.jmem_loads_elided),
        ("grape.exponent_retries", "emulator.stats", emulator.stats.exponent_retries),
    ]))
    print()
    print("## run quantities (cluster leg)\n")
    comm = network.ledger.summary()
    print(quantity_table([
        ("core.block_size (mean)", "integ.stats", f"{integ_p.stats.mean_block_size:.4g}"),
        ("net.messages", "net.stats", network.stats.messages),
        ("net.bytes", "net.stats", network.stats.bytes),
        ("net.barriers", "net.stats", network.stats.barriers),
        ("net.barrier_rounds", "net.ledger.summary()", comm["barrier_rounds"]),
        ("net.barrier_sync_us", "net.ledger.summary()", f"{comm['barrier_sync_us']:.4g}"),
        ("net.mean_barrier_skew_us", "net.ledger.summary()",
         f"{comm['mean_barrier_skew_us']:.4g}"),
    ]))

if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 64,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
