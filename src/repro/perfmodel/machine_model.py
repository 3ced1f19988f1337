"""The per-configuration timing model behind every figure.

For a machine with ``h = p * c`` hosts (p per cluster, c clusters) a
blockstep of n_b particles costs, per host (eq. 10 extended)::

    T_bs = share * t_host(N)          # integrate its share
         + dma + share * t_hif        # host <-> GRAPE traffic
         + ceil(share/48) * t_pass(N) # pipeline passes
         + t_sync(h)                  # butterfly flights   (h > 1)
         + t_exchange(n_b, c)         # copy exchange       (c > 1)

with ``share = n_b / h``, and the time per particle-step is
``T_bs / n_b``.  Speed follows eq. (9): S = 57 N / T_step.

The first three lines — what one host pays for one force call — are
stated once, in :meth:`MachineModel.force_call_us`.  The analytic
curves evaluate it at the mean block size from :mod:`blockstats`,
:class:`repro.perfmodel.des.BlockstepDES` over a sampled block-size
distribution, and the simulated-cluster runs charge it per rank through
:meth:`MachineModel.compute_hook`, so the three renderings of the
machine price compute identically and differ only in how they pay for
communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..constants import FLOPS_PER_INTERACTION
from .blockstats import BLOCK_MODELS, BlockStatModel
from .comm_model import ClusterExchangeModel, SyncModel
from .flops import speed_gflops
from .grape_time import GrapeTimeModel, HostInterfaceModel
from .host_model import HostTimeModel


@dataclass(frozen=True)
class StepTimeBreakdown:
    """Per-particle-step cost split [microseconds]; figs. 14/16/18
    report ``total``, figs. 13/15/17/19 report the derived speed."""

    n: int
    block_size: float
    host_us: float
    hif_us: float
    grape_us: float
    sync_us: float
    exchange_us: float

    @property
    def total_us(self) -> float:
        return (
            self.host_us + self.hif_us + self.grape_us + self.sync_us + self.exchange_us
        )

    @property
    def speed_gflops(self) -> float:
        return speed_gflops(self.n, self.total_us)


class MachineModel:
    """T_step(N) and S(N) for one machine configuration.

    Parameters
    ----------
    machine:
        Hardware configuration (nodes per cluster, clusters, NIC, host).
    softening:
        Which workload scaling law to use ("constant", "n13", "4overN").
    block_model:
        Override the scaling law (e.g. a freshly fitted one).
    """

    def __init__(
        self,
        machine: MachineConfig,
        softening: str = "constant",
        block_model: BlockStatModel | None = None,
        host_grape_overlap: float = 0.0,
    ) -> None:
        if not 0.0 <= host_grape_overlap <= 1.0:
            raise ValueError("host_grape_overlap must be in [0, 1]")
        self.machine = machine
        self.blocks = block_model if block_model is not None else BLOCK_MODELS[softening]
        self.host_model = HostTimeModel(machine.node.host)
        self.grape = GrapeTimeModel(machine.node)
        self.hif = HostInterfaceModel(machine.node)
        self.sync = SyncModel(machine.nic)
        self.exchange = ClusterExchangeModel(machine.nic, machine.node)
        #: Fraction of the shorter of (host work, pipeline time) hidden
        #: by double-buffering i-blocks.  The paper's code is additive
        #: (eq. 10); production GRAPE libraries later overlapped the
        #: two with the firsthalf/lasthalf split — see the ablation
        #: bench.
        self.host_grape_overlap = float(host_grape_overlap)

    # -- eq. 10, stated once ---------------------------------------------------

    def force_call_us(
        self, n: int, n_i: float, n_j: float
    ) -> tuple[float, float, float]:
        """The per-host part of eq. 10: (host, interface, pipeline)
        microseconds of one host's force call on ``n_i`` targets
        against ``n_j`` sources in a system of ``n`` particles.

        Host work is per integrated particle at the system's cache
        footprint, ``n_i * t_host(N)``; the interface moves the
        targets' records and pays one DMA invocation; the pipelines
        need ``ceil(n_i / 48)`` passes over the ``n_j`` stored sources.
        The ``host_grape_overlap`` credit is taken here, against the
        host component.
        """
        host = n_i * self.host_model.t_step_us(n)
        grape = self.grape.blockstep_us(n_j, n_i)
        host -= self.host_grape_overlap * min(host, grape)
        return host, self.hif.blockstep_us(n_i), grape

    def compute_hook(self, n: int):
        """The ``(rank, n_i, n_j) -> microseconds`` compute charge the
        parallel algorithms take (``compute_time_us=``) for a run of
        ``n`` particles: :meth:`force_call_us` on that rank's tile.
        Communication and synchronisation are not in it — the
        simulated network pays those with its own messages."""

        def hook(rank: int, n_i: int, n_j: int) -> float:
            del rank
            host, hif, grape = self.force_call_us(n, n_i, n_j)
            return host + grape + hif

        return hook

    def _blockstep_terms_us(self, n: int, n_b: float) -> tuple[float, ...]:
        """(host, interface, pipeline, sync, exchange) of one blockstep
        of ``n_b`` particles on the slowest host: its share's force
        call against all N sources plus the two network terms."""
        m = self.machine
        return (
            *self.force_call_us(n, n_b / m.nodes, n),
            self.sync.blockstep_us(m.nodes),
            self.exchange.blockstep_us(n_b, m.clusters, m.nodes_per_cluster),
        )

    def blockstep_us(self, n: int, n_b: float) -> float:
        """Wall time of one blockstep of n_b particles (slowest host)."""
        host, hif, grape, sync, exchange = self._blockstep_terms_us(n, n_b)
        return host + grape + hif + sync + exchange

    # -- figure-level quantities ---------------------------------------------

    def step_time_breakdown(self, n: int) -> StepTimeBreakdown:
        """Mean time per particle-step, split by component."""
        if n < 2:
            raise ValueError("need at least two particles")
        self.grape.check_capacity(n)
        n_b = min(self.blocks.mean_block_size(n), float(n))
        return StepTimeBreakdown(
            n, n_b, *(t / n_b for t in self._blockstep_terms_us(n, n_b))
        )

    def time_per_step_us(self, n: int) -> float:
        """Figs. 14/16/18: CPU time per particle-step."""
        return self.step_time_breakdown(n).total_us

    def speed_gflops(self, n: int) -> float:
        """Figs. 13/15/17/19: sustained speed, eq. (9)."""
        return self.step_time_breakdown(n).speed_gflops

    def time_per_step_constant_host_us(self, n: int) -> float:
        """Fig. 14's dashed curve: same model with constant T_host."""
        b = self.step_time_breakdown(n)
        const_host = self.host_model.t_step_constant_us() / self.machine.nodes
        return const_host + b.hif_us + b.grape_us + b.sync_us + b.exchange_us

    def efficiency(self, n: int) -> float:
        """Fraction of the configuration's theoretical peak achieved."""
        return self.speed_gflops(n) * 1.0e9 / self.machine.peak_flops

    def efficiency_buckets(self, n: int) -> dict[str, float]:
        """Predicted loss-bucket fractions of peak, eq.-10 terms mapped
        onto the :data:`repro.telemetry.efficiency.BUCKETS` taxonomy.

        ``real`` is the useful-work fraction (57 N flops over the peak
        flops the step duration affords); ``pipeline_idle`` is the
        pipeline time beyond that (under-populated passes and rounding);
        ``jmem`` is the host-interface/DMA term — the model folds
        j-memory traffic into ``t_hif``, so that is where the measured
        j-memory bucket lands; ``host``/``comm``/``barrier`` map to
        T_host/T_exchange/T_sync; ``retry`` is not modelled (0.0); the
        remainder goes to ``other``.  Fractions plus ``real`` sum to
        1.0, mirroring the measured waterfall for 1:1 comparison.
        """
        b = self.step_time_breakdown(n)
        total = b.total_us
        if total <= 0.0:
            return {"real": 0.0, "pipeline_idle": 0.0, "jmem": 0.0, "retry": 0.0,
                    "host": 0.0, "comm": 0.0, "barrier": 0.0, "other": 0.0}
        rate_per_us = self.machine.peak_flops / 1.0e6
        useful_us = FLOPS_PER_INTERACTION * n / rate_per_us
        real = min(useful_us, total) / total
        out = {
            "real": real,
            "pipeline_idle": max(b.grape_us - useful_us, 0.0) / total,
            "jmem": b.hif_us / total,
            "retry": 0.0,
            "host": b.host_us / total,
            "comm": b.exchange_us / total,
            "barrier": b.sync_us / total,
        }
        out["other"] = max(1.0 - sum(out.values()), 0.0)
        return out

    def sweep(self, n_values) -> list[StepTimeBreakdown]:
        """Evaluate the model over a grid of N (one figure's curve)."""
        return [self.step_time_breakdown(int(n)) for n in n_values]


#: Step ratio of :func:`crossover`'s bracketing scan (24 points a decade).
_BRACKET_RATIO = 1.1


def crossover(
    fast: MachineModel, slow: MachineModel, lo: float, hi: float
) -> int | None:
    """The N in ``[lo, hi]`` from which ``fast`` outruns ``slow`` — the
    crossover the paper reads off figs. 15 and 17 — as the model's own
    integer: ``fast`` is faster at the returned N and not at N - 1.

    A geometric scan up from ``lo`` brackets the first sign change and
    bisection resolves it to one particle.  ``None`` when ``fast`` is
    still behind at ``hi``; ``ValueError`` when either machine's
    j-memory cannot hold ``hi`` particles.
    """
    for model in (fast, slow):
        model.grape.check_capacity(int(hi))

    def ahead(n: int) -> bool:
        return fast.speed_gflops(n) > slow.speed_gflops(n)

    behind, n = None, int(lo)
    while not ahead(n):
        if n >= int(hi):
            return None
        behind, n = n, min(max(n + 1, int(n * _BRACKET_RATIO)), int(hi))
    if behind is None:  # ahead from lo on
        return n
    while n - behind > 1:
        mid = (behind + n) // 2
        if ahead(mid):
            n = mid
        else:
            behind = mid
    return n
