"""cProfile hook that maps Python hotspots onto the telemetry phases.

The telemetry layer says *which paper phase* (eq. 10) got slower; this
module says *which Python functions inside that phase* are to blame —
the two views a regression report needs side by side (the fig. 19 NIC
hunt needed exactly this pairing: phase attribution pointed at
``T_comm``, host profiling pointed at the driver).

Attribution works on the profiler's call graph:

1. functions in phase-owning modules are attributed directly
   (``repro.forces``/``repro.hardware`` -> pipe, the host-side
   ``repro.core`` modules -> host, the simulated network -> comm with
   its barrier -> barrier, telemetry itself -> other, i.e. overhead);
2. everything else (numpy internals, builtins) inherits the dominant
   phase of its callers, propagated to a fixed point — first demanding
   all callers known, then accepting partial knowledge so cycles and
   mixed call sites resolve.  So does ``repro`` code that works for
   whoever calls it (a rule whose phase is None): the loader and binder
   the compiled tiles share, and the opening and closing of a
   span - which the tracer's own self times (``core.step_self_s``) also
   charge to the span they happen in.

Self time (``tottime``) is what gets summed per phase, so the split is
exact: every profiled microsecond lands in exactly one phase bucket.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Any

from ..telemetry import (
    PHASES,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    InMemorySink,
    SpanEvent,
    Tracer,
    set_tracer,
)
from .registry import Benchmark, BenchContext

#: (filename, lineno, funcname) — pstats' function key.
FuncKey = tuple[str, int, str]

#: Ordered direct-attribution rules by module path: (path fragment,
#: function name or None for any, phase or None for "as its callers").
#: First match wins; paths are '/'-normalised.
ATTRIBUTION_RULES: list[tuple[str, str | None, str | None]] = [
    ("repro/parallel/simcomm.py", "barrier", T_BARRIER),
    ("repro/parallel/barrier.py", None, T_BARRIER),
    ("repro/parallel/simcomm.py", None, T_COMM),
    ("repro/parallel/virtualtime.py", None, T_COMM),
    ("repro/parallel/", None, T_COMM),
    ("repro/forces/compiled.py", None, None),
    ("repro/forces/", None, T_PIPE),
    ("repro/hardware/", None, T_PIPE),
    ("repro/telemetry/tracer.py", "span", None),
    ("repro/telemetry/tracer.py", "__enter__", None),
    ("repro/telemetry/tracer.py", "__exit__", None),
    ("repro/telemetry/", None, T_OTHER),
    ("repro/core/", None, T_HOST),
    ("repro/perfmodel/", None, T_HOST),
    ("repro/models/", None, T_HOST),
]


def _direct_phase(func: FuncKey) -> str | None:
    filename = func[0].replace("\\", "/")
    for fragment, name, phase in ATTRIBUTION_RULES:
        if fragment in filename and (name is None or func[2] == name):
            return phase
    return None


def _propagate(stats: dict[FuncKey, tuple]) -> dict[FuncKey, str]:
    """Phase per function: direct rules, then caller-graph inheritance."""
    phase_of: dict[FuncKey, str] = {}
    for func in stats:
        phase = _direct_phase(func)
        if phase is not None:
            phase_of[func] = phase

    def votes_for(callers: dict) -> dict[str, float]:
        votes: dict[str, float] = {}
        for caller, entry in callers.items():
            phase = phase_of.get(caller)
            if phase is not None and phase != T_OTHER:
                # entry = (cc, nc, tt, ct) contributed via this caller
                votes[phase] = votes.get(phase, 0.0) + entry[3]
        return votes

    for require_all_callers in (True, False):
        for _ in range(len(stats) + 1):
            changed = False
            for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
                if func in phase_of or not callers:
                    continue
                known = [c for c in callers if c in phase_of]
                if require_all_callers and len(known) != len(callers):
                    continue
                votes = votes_for(callers)
                if votes:
                    phase_of[func] = max(votes, key=lambda p: votes[p])
                    changed = True
                elif known:
                    # every known caller is overhead -> overhead
                    phase_of[func] = T_OTHER
                    changed = True
            if not changed:
                break
    return phase_of


@dataclass(frozen=True)
class Hotspot:
    """One profiled function with its phase attribution."""

    where: str
    phase: str
    calls: int
    self_s: float
    cum_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "where": self.where,
            "phase": self.phase,
            "calls": self.calls,
            "self_s": self.self_s,
            "cum_s": self.cum_s,
        }


@dataclass
class ProfileAttribution:
    """Profiled self-time split into the paper's phase taxonomy."""

    benchmark: str
    total_s: float
    phase_self_s: dict[str, float] = field(default_factory=dict)
    hotspots: list[Hotspot] = field(default_factory=list)
    #: the profiled trial's spans (empty when attributing a bare
    #: profiler): its exact phase budget and its timeline
    events: list[SpanEvent] = field(default_factory=list, repr=False)

    @property
    def attributed_s(self) -> float:
        return sum(
            t for p, t in self.phase_self_s.items() if p != T_OTHER
        )

    @property
    def attributed_fraction(self) -> float:
        """Share of profiled self time landing in a paper phase (not
        'other'); the acceptance bar for the profiling hook."""
        return self.attributed_s / self.total_s if self.total_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "total_s": self.total_s,
            "phase_self_s": dict(self.phase_self_s),
            "attributed_fraction": self.attributed_fraction,
            "hotspots": [h.as_dict() for h in self.hotspots],
        }


def _short_location(func: FuncKey) -> str:
    filename, lineno, name = func
    if filename.startswith("~") or filename == "<string>":
        return f"{name}"
    parts = filename.replace("\\", "/").split("/")
    return f"{'/'.join(parts[-3:])}:{lineno}({name})"


def attribute_profile(
    profiler: cProfile.Profile, benchmark: str, top: int = 15
) -> ProfileAttribution:
    """Roll a finished profiler up into a phase-attributed summary."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    phase_of = _propagate(stats)

    phase_self: dict[str, float] = {p: 0.0 for p in PHASES}
    rows: list[tuple[float, Hotspot]] = []
    total = 0.0
    for func, (cc, _nc, tt, ct, _callers) in stats.items():
        phase = phase_of.get(func, T_OTHER)
        phase_self[phase] = phase_self.get(phase, 0.0) + tt
        total += tt
        rows.append(
            (
                tt,
                Hotspot(
                    where=_short_location(func),
                    phase=phase,
                    calls=cc,
                    self_s=tt,
                    cum_s=ct,
                ),
            )
        )
    rows.sort(key=lambda r: -r[0])
    return ProfileAttribution(
        benchmark=benchmark,
        total_s=total,
        phase_self_s=phase_self,
        hotspots=[h for _, h in rows[:top]],
    )


def profile_benchmark(
    bench: Benchmark, params: dict[str, Any], top: int = 15
) -> ProfileAttribution:
    """Run one trial of ``bench`` under cProfile (setup untimed and
    unprofiled, like the runner) and attribute the result; the trial's
    spans ride along in ``events`` (the cProfile overhead inflates their
    wall times uniformly; relative shares survive)."""
    state = bench.setup(params) if bench.setup is not None else None
    sink = InMemorySink()
    tracer = Tracer(enabled=True, sinks=[sink])
    ctx = BenchContext(params=dict(params), tracer=tracer, sink=sink)
    profiler = cProfile.Profile()
    old = set_tracer(tracer)
    try:
        profiler.enable()
        bench.fn(ctx, state)
        profiler.disable()
    finally:
        set_tracer(old)
    attribution = attribute_profile(profiler, benchmark=bench.name, top=top)
    attribution.events = sink.events
    return attribution
