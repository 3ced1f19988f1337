"""S1 — what the supervisor's always-on sink set costs a blockstep.

Replays the tracer calls one blockstep of
``BlockTimestepIntegrator.step`` issues (five spans and the ``observe``
hook, no physics) through the tracer the job supervisor installs,
one stage of the sink chain at a time, and reports the blockstep
*floor* of every stage: the minimum over rounds of the mean over a
400-blockstep replay, which is what the chain costs when nothing else
has the core.  The stage table of ``docs/observability.md`` and
EXPERIMENTS.md is this file's output::

    PYTHONPATH=src python benchmarks/test_sink_budget.py

Point ``PYTHONPATH`` at another checkout's ``src`` to read that commit
with the same script (only public names are used; the chain itself is
``repro.service.always_on_sinks``, so the commit must export it).
"""

from __future__ import annotations

import cProfile
import time

from repro.io import format_table
from repro.service import always_on_sinks
from repro.telemetry import T_HOST, T_PIPE, RegimeTracker, SpanFold, Tracer

#: Particle count and block sizes of the replayed stream (the sizes
#: cycle, so every stage sees the same mix of regimes).
N = 128
BLOCK_SIZES = (1, 2, 3, 6, 12, 24, 48, 96, 128)

#: Blocksteps per replay and replays per stage (the rounds are spread
#: over a few seconds so that one of them meets a quiet moment).
BLOCKSTEPS = 400
ROUNDS = 60

#: Bound on the whole chain [us per blockstep] on the reference box
#: (ISSUE 24).
BUDGET_US = 40.0

#: Floor of :func:`yardstick` on the undisturbed reference box: the
#: pure-Python segment of ``benchmarks/e2e/yardstick.py`` (3.05 ms over
#: 20 segments there).  The box wanders 10-40 % for minutes at a time;
#: the budget is read in units of its undisturbed speed.
YARDSTICK_REF_S = 3.05e-3 / 20


def replay_blocksteps(tracer: Tracer, blocksteps: int = BLOCKSTEPS) -> None:
    """The tracer calls of ``blocksteps`` direct-summation blocksteps."""
    span, observe = tracer.span, tracer.observe
    sizes, n_sizes = BLOCK_SIZES, len(BLOCK_SIZES)
    for i in range(blocksteps):
        n_b = sizes[i % n_sizes]
        with span("blockstep", phase=T_HOST, n_block=n_b, n=N, t=i / 1024):
            with span("predict"):
                pass
            with span("force", phase=T_PIPE, n_i=n_b):
                pass
            with span("correct"):
                pass
            with span("schedule"):
                pass
        observe("core.block_size", n_b)


def supervisor_tracer() -> Tracer:
    """The tracer ``Supervisor._execute_run`` installs for a run job on
    direct summation: one fold serving the regime tracker and the flops
    ledger, nothing retained."""
    fold, _, _ = always_on_sinks()
    return Tracer(enabled=True, sinks=[fold])


#: The chain grown one stage at a time: (stage name, tracer factory).
STAGES = (
    ("span open/close + observe hook",
     lambda: Tracer(enabled=True)),
    ("SpanFold.emit x 5",
     lambda: Tracer(enabled=True, sinks=[SpanFold()])),
    ("BlockstepRecord + RegimeTracker.on_blockstep",
     lambda: Tracer(enabled=True, sinks=[SpanFold([RegimeTracker()])])),
    ("FlopsLedger.on_blockstep", supervisor_tracer),
)


def yardstick() -> float:
    """Seconds for a fixed piece of interpreter-bound work that no
    change to ``src/`` can speed up."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for k in range(3000):
        acc += k * k
        seen[k & 63] = acc
    return time.perf_counter() - t0


def stage_floors(rounds: int = ROUNDS) -> tuple[list[float], float]:
    """Cumulative blockstep floor [us] after each stage of
    :data:`STAGES`, rounds interleaved across the stages, and the
    machine's speed index over the same rounds (1.0 = the undisturbed
    reference box, 1.2 = its fastest moment was 20 % slower)."""
    floors = [float("inf")] * len(STAGES)
    fastest_yardstick = float("inf")
    for _ in range(rounds):
        fastest_yardstick = min(fastest_yardstick, yardstick())
        for i, (_, factory) in enumerate(STAGES):
            tracer = factory()
            t0 = time.perf_counter()
            replay_blocksteps(tracer)
            per_step = (time.perf_counter() - t0) / BLOCKSTEPS * 1.0e6
            floors[i] = min(floors[i], per_step)
    return floors, fastest_yardstick / YARDSTICK_REF_S


def calls_per_blockstep(tracer: Tracer, blocksteps: int = BLOCKSTEPS) -> float:
    """Python-level calls a replayed blockstep makes through ``tracer``:
    the call counts of every entry ``cProfile`` keeps, one per code
    object.  (``pstats`` keys functions by file, line and name, so the
    generated ``__init__``s of two dataclasses are one entry there and
    the count runs low.)"""
    profile = cProfile.Profile()
    profile.enable()
    replay_blocksteps(tracer, blocksteps)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) / blocksteps


def stage_calls() -> list[float]:
    """Cumulative Python-level calls a blockstep after each stage, every
    regime already seen."""
    calls = []
    for _, factory in STAGES:
        tracer = factory()
        replay_blocksteps(tracer, 2 * len(BLOCK_SIZES))
        calls.append(calls_per_blockstep(tracer))
    return calls


def stage_table(floors: list[float], calls: list[float]) -> str:
    rows, us_before, calls_before = [], 0.0, 0.0
    for (name, _), floor, count in zip(STAGES, floors, calls):
        rows.append((name, f"{floor - us_before:.1f}", f"{floor:.1f}",
                     f"{count - calls_before:.0f}", f"{count:.0f}"))
        us_before, calls_before = floor, count
    return format_table(
        ["stage", "us / blockstep", "cumulative", "calls", "cumulative"], rows)


def test_sink_set_within_budget():
    floors, speed_index = stage_floors()
    print("\n=== Supervisor sink set, blockstep floors at N = 128 ===")
    print(stage_table(floors, stage_calls()))
    print(f"machine speed index {speed_index:.2f}")
    # a slow stretch of the box is not the chain's cost; a fast machine
    # earns no allowance
    cost = floors[-1] / max(speed_index, 1.0)
    assert cost <= BUDGET_US, (
        f"the supervisor's sink set costs {floors[-1]:.1f} us a blockstep "
        f"at speed index {speed_index:.2f} (budget {BUDGET_US:g})")


if __name__ == "__main__":
    floors, speed_index = stage_floors()
    print(stage_table(floors, stage_calls()))
    print(f"machine speed index {speed_index:.2f}")
