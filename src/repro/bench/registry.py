"""Benchmark registry: named, paper-referenced, suite-grouped sweeps.

A benchmark is a function that runs one *trial* of one of the paper's
measurements (a kernel timing, a speed-vs-N sweep point, a phase
breakdown) under an enabled tracer, and returns the derived numbers it
wants recorded.  The registry gives each a stable name (the regression
gate keys on it), a paper reference (figure/equation/section), and
per-suite parameter sets so the same sweep runs at CI-smoke size and
at full paper size without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..telemetry import InMemorySink, Tracer


@dataclass
class BenchContext:
    """What a benchmark trial gets to work with.

    ``tracer`` is enabled and already installed as the process-wide
    default, so instrumented library code (integrators, emulator,
    simulated networks) reports into it without plumbing; the benchmark
    may add its own spans for phases the library does not bracket.
    """

    params: dict[str, Any]
    tracer: Tracer
    sink: InMemorySink
    #: Simulated networks the trial attached; the runner harvests their
    #: comm ledgers into the artifact's ``comm`` section.
    networks: list = field(default_factory=list)
    #: Rank ledgers the trial attached (real-execution observatory);
    #: the runner harvests the first into the artifact's ``rank``
    #: section, cross-attributed against the trial's comm ledgers.
    rank_ledgers: list = field(default_factory=list)

    def attach_rank_ledger(self, ledger) -> None:
        """Register a :class:`repro.telemetry.ranks.RankLedger` whose
        summary should land in the artifact's ``rank`` section."""
        self.rank_ledgers.append(ledger)

    def attach_network(self, network) -> None:
        """Register a simulated network with the trial.

        Resets the network's traffic counters and comm ledger (fresh
        trial — counters must not carry over on a reused network),
        records it for ledger harvesting, and wires the trial's tracer
        to the network's virtual clock so spans carry virtual
        timestamps (fig. 16 plots the virtual, not the wall,
        attribution).
        """
        network.reset_stats()
        network.attach_tracer(self.tracer)
        self.networks.append(network)


#: Trial function: (ctx, state) -> derived-values dict (floats/ints).
BenchFn = Callable[[BenchContext, Any], dict[str, Any]]
#: Optional untimed per-trial setup: params -> state handed to the fn.
SetupFn = Callable[[dict[str, Any]], Any]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    fn: BenchFn
    title: str
    paper_ref: str
    setup: SetupFn | None = None
    #: Suite name -> parameter dict.  A benchmark belongs to exactly
    #: the suites it has parameters for.
    suites: dict[str, dict[str, Any]] = field(default_factory=dict)

    def params_for(self, suite: str) -> dict[str, Any]:
        try:
            return dict(self.suites[suite])
        except KeyError:
            raise KeyError(
                f"benchmark {self.name!r} has no parameters for suite {suite!r}"
            ) from None


class BenchmarkRegistry:
    """Name -> Benchmark mapping with a decorator-style register."""

    def __init__(self) -> None:
        self._benchmarks: dict[str, Benchmark] = {}

    def register(
        self,
        name: str,
        title: str,
        paper_ref: str,
        suites: dict[str, dict[str, Any]],
        setup: SetupFn | None = None,
    ) -> Callable[[BenchFn], BenchFn]:
        if name in self._benchmarks:
            raise ValueError(f"benchmark {name!r} already registered")

        def decorate(fn: BenchFn) -> BenchFn:
            self._benchmarks[name] = Benchmark(
                name=name,
                fn=fn,
                title=title,
                paper_ref=paper_ref,
                setup=setup,
                suites={k: dict(v) for k, v in suites.items()},
            )
            return fn

        return decorate

    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            known = ", ".join(sorted(self._benchmarks)) or "(none)"
            raise KeyError(f"unknown benchmark {name!r}; registered: {known}") from None

    def select(self, suite: str) -> list[Benchmark]:
        """Benchmarks belonging to ``suite``, registration order."""
        return [b for b in self._benchmarks.values() if suite in b.suites]

    def suites(self) -> list[str]:
        out: list[str] = []
        for b in self._benchmarks.values():
            for s in b.suites:
                if s not in out:
                    out.append(s)
        return out

    def __iter__(self):
        return iter(self._benchmarks.values())

    def __len__(self) -> int:
        return len(self._benchmarks)

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks


#: The process-wide registry the built-in suites register into.
REGISTRY = BenchmarkRegistry()
