#!/usr/bin/env python
"""The rank observatory, live: what the real cores did.

The virtual-time machinery prices what an ideal GRAPE-6 cluster
*would* do; the rank observatory measures what the host actually did
while simulating it.  Every ``run_tasks`` dispatch is bracketed with
real clocks (``time.perf_counter``, ``time.thread_time``) and OS counters
(``getrusage``: maxrss, context switches, page faults), folded into
one ``repro.rank_sample/1`` record per blockstep.  This demo:

1. integrates a small Plummer model twice on a process pool — once
   with the observatory attached, once without — and shows the final
   particle state is **bit-identical** (observation is free of
   side effects on the physics, the PR's standing guarantee);
2. prints the per-rank busy/idle account (the identity
   ``busy + idle == span`` holds exactly, by construction), the real
   straggler skew per blockstep, and shared-segment traffic;
3. cross-attributes real skew against the virtual barrier skew the
   comm ledger predicted — the *placement gap* — and decomposes idle
   rank-time into imbalance vs dispatch overhead (sum-preserving,
   the efficiency-waterfall discipline);
4. optionally writes a Chrome trace with one real-clock lane per rank
   next to the virtual lanes (pass a path as the second argument).

Usage:  python examples/rank_observatory_demo.py [N] [trace.json]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import constant_softening, plummer_model, telemetry
from repro.parallel import (
    CopyAlgorithm,
    ParallelBlockIntegrator,
    SimNetwork,
    resolve_backend,
)

RANKS = 2
BACKEND = "process:2"


def integrate(n: int, t_end: float, ledger=None):
    """One parallel integration; returns (system, network, wall-run)."""
    eps = constant_softening(n)
    system = plummer_model(n, seed=13)
    network = SimNetwork(RANKS)
    executor = resolve_backend(BACKEND)
    integ = ParallelBlockIntegrator(
        system, eps * eps, CopyAlgorithm(network, eps * eps, executor=executor)
    )
    if ledger is not None:
        integ.observe_ranks(ledger)
    try:
        integ.run(t_end)
    finally:
        executor.close()
    return system, network


def main(n: int = 48, trace_path: str | None = None) -> None:
    t_end = 1.0 / 16.0

    print(f"# 1. bit-identity: observatory on vs off (N={n}, {BACKEND})\n")
    ledger = telemetry.RankLedger()
    observed, network = integrate(n, t_end, ledger)
    bare, _ = integrate(n, t_end, None)
    identical = bool(
        np.array_equal(observed.pos, bare.pos)
        and np.array_equal(observed.vel, bare.vel)
    )
    print(f"final state bit-identical with observer attached: {identical}")

    doc = ledger.summary(comm=network.ledger)
    telemetry.validate_rank_section(doc)

    print(f"\n# 2. per-rank real-execution account ({doc['blocksteps']} "
          f"blocksteps, {doc['tasks']} tasks)\n")
    print(f"{'rank':>4s}  {'tasks':>5s}  {'busy [ms]':>10s}  "
          f"{'cpu [ms]':>9s}  {'mean task [us]':>14s}")
    for row in doc["ranks"]:
        print(
            f"{row['rank']:4d}  {row['tasks']:5d}  "
            f"{row['busy_us'] / 1e3:10.2f}  {row['cpu_us'] / 1e3:9.2f}  "
            f"{row['mean_task_us']:14.1f}"
        )
    print(
        f"\nutilisation          : {doc['utilisation']:.1%} "
        f"(busy {doc['busy_us'] / 1e3:.2f} ms of "
        f"{doc['rank_span_us'] / 1e3:.2f} ms rank-time; "
        "busy + idle == span, exactly)"
    )
    print(
        f"real straggler skew  : mean {doc['real_skew_us']['mean']:.1f} us, "
        f"max {doc['real_skew_us']['max']:.1f} us per blockstep"
    )
    print(
        f"segment traffic      : {doc['publish_bytes_per_step']:.0f} "
        f"publish B/step, {doc['attach_bytes']} attach bytes total"
    )
    print(
        f"worker high-water    : {doc['maxrss_kb']:.0f} kB maxrss, "
        f"{doc['ctx_switches']['voluntary']} voluntary ctx switches"
    )

    placement = doc.get("placement")
    if placement:
        print("\n# 3. placement gap: real vs virtual skew\n")
        gap = placement["gap_us"]["mean"]
        print(
            f"virtual barrier skew : "
            f"{placement['virtual_skew_us']['mean']:.2f} us/blockstep "
            "(what the ideal cluster model predicts)"
        )
        print(
            f"real dispatch skew   : "
            f"{placement['real_skew_us']['mean']:.2f} us/blockstep "
            "(what the host's cores measured)"
        )
        print(f"placement gap        : {gap:+.2f} us/blockstep")
        for name in telemetry.IDLE_BUCKETS:
            info = placement["buckets"][name]
            print(f"  - idle from {name:9s}: {info['us'] / 1e3:8.2f} ms "
                  f"({info['fraction']:.1%})")
        print("(the two buckets sum to total idle exactly)")

    if trace_path:
        events = telemetry.rank_trace_events(ledger)
        telemetry.write_timeline(trace_path, [], extra_events=events)
        print(f"\nwrote {trace_path} ({len(events)} events; per-rank real "
              "lanes — load in chrome://tracing)")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 48,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
