"""Parallel block-timestep integration driver.

Couples the serial :class:`repro.core.individual.BlockTimestepIntegrator`
with one of the parallel force algorithms: forces come from the
algorithm (which charges virtual communication/computation time), and
after every blockstep the algorithm's coherence exchange runs.

Because all three algorithms compute the same float64 sums up to
reassociation, a parallel run tracks the serial trajectory; the
copy algorithm is numerically *identical* to serial (each particle's
force is always a complete sum on one node), which tests assert
bitwise.
"""

from __future__ import annotations

from ..core.individual import BlockTimestepIntegrator
from ..core.particles import ParticleSystem
from ..telemetry import T_COMM


class ParallelBlockIntegrator(BlockTimestepIntegrator):
    """Block-timestep Hermite integration over a parallel force backend.

    Parameters
    ----------
    system, eps2:
        As for the serial integrator.
    algorithm:
        A parallel force backend (:class:`CopyAlgorithm`,
        :class:`RingAlgorithm` or :class:`Grid2DAlgorithm`) — it must
        also provide ``exchange_updated(block)`` and a ``network``.
    kwargs:
        Forwarded to the serial integrator.
    """

    #: Rank observatory hook (:meth:`observe_ranks`); ``None`` keeps
    #: real-execution instrumentation off.  Class-level default so
    #: construction paths that bypass ``__init__`` (``from_state``
    #: during checkpoint resume) stay unobserved rather than broken.
    rank_ledger = None

    def __init__(self, system: ParticleSystem, eps2: float, algorithm, **kwargs) -> None:
        self.algorithm = algorithm
        super().__init__(system, eps2, backend=algorithm, **kwargs)

    def observe_ranks(self, ledger) -> "ParallelBlockIntegrator":
        """Attach a :class:`repro.telemetry.ranks.RankLedger`.

        Wires the ledger's ``observe`` into the algorithm's execution
        backend (every ``run_tasks`` dispatch reports real per-task
        timings) and arranges one ``advance`` per blockstep, so the
        ledger's records line up one-to-one with the comm ledger's
        per-blockstep barriers — the pairing the real-vs-virtual
        placement attribution relies on.  Returns ``self`` for
        chaining.
        """
        self.rank_ledger = ledger
        executor = getattr(self.algorithm, "executor", None)
        if executor is not None and ledger is not None:
            executor.attach_observer(ledger.observe)
        return self

    def step(self) -> tuple[float, int]:
        result = super().step()
        # the parent stashes the block it just advanced; reading it back
        # avoids re-scanning the (already mutated) schedule — one O(N)
        # next_block() scan per step, not three
        block = self._last_block
        network = self.algorithm.network
        m0, b0 = network.stats.messages, network.stats.bytes
        with self.tracer.span(
                "net.exchange", phase=T_COMM, n_block=block.size) as span:
            self.algorithm.exchange_updated(block)
            span.set(
                messages=network.stats.messages - m0,
                bytes=network.stats.bytes - b0,
            )
        if self.rank_ledger is not None:
            self.rank_ledger.advance(t=self.t, n_block=block.size)
        return result

    @classmethod
    def from_state(
        cls,
        system: ParticleSystem,
        state: dict,
        backend=None,
        tracer=None,
        algorithm=None,
    ) -> "ParallelBlockIntegrator":
        """Rebuild a parallel integrator mid-run from ``state_dict``.

        ``algorithm`` is the freshly constructed parallel force backend
        (it is not checkpointed: every blockstep rebuilds the whole
        j-side from the particle arrays - the copy algorithm predicts it
        into its resident set, the others have it predicted and uploaded
        - so an identically configured algorithm reproduces the same
        forces and the same virtual-time charges going forward).
        ``backend`` is accepted for signature compatibility but the
        algorithm, when given, always serves as the force backend.
        """
        if algorithm is None:
            algorithm = backend
        if algorithm is None:
            raise ValueError("ParallelBlockIntegrator.from_state needs an algorithm")
        integ = super().from_state(system, state, backend=algorithm, tracer=tracer)
        integ.algorithm = algorithm
        return integ

    @property
    def virtual_time_us(self) -> float:
        """Simulated wall-clock of the parallel run so far."""
        return self.algorithm.network.clock.elapsed
