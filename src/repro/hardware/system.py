"""Host-side view of an emulated GRAPE-6: boards, exponent management,
and the retry loop (paper, sections 2 and 3.4).

:class:`Grape6Emulator` is a drop-in
:class:`repro.forces.direct.ForceBackend`, so the block-timestep
integrator can run on the emulated hardware unchanged.  It

* stripes the j-particles round-robin over all chips (the host library
  writes each particle to exactly one chip memory — the local-memory
  design of section 3.4): the machine's memories are one
  :class:`~repro.hardware.memory.StripedStore`, chip ``c`` of ``k``
  reading rows ``c::k`` of it, so a load is one quantise-and-install,
* quantises the i-block and broadcasts it to every board (the storage
  formats through their compiled twins,
  :func:`repro.hardware.pipeline.quantize` /
  :func:`~repro.hardware.pipeline.round_float`),
* declares per-i-particle block exponents — reusing each particle's
  exponent from its previous force evaluation, "almost always okay",
  from one (3, N) table — and retries with larger exponents on
  overflow,
* reduces the boards' exact partial sums and converts to float.

The force returned for a given particle set is bit-identical for any
number of chips/modules/boards (tested property), because every level
of the reduction is exact integer arithmetic.

Two datapaths compute that same force, both through the one pipeline
tile (:func:`repro.hardware.pipeline.partial_lanes`):

``emulation_mode="faithful"``
    walks the hardware schedule — per board, per module, per chip, in
    passes of 48 i-particles, one tile call per pass on the chip's own
    memory — with object-dtype big-integer partial sums up the adder
    tree.  Slow, but structurally the machine.
``emulation_mode="batched"`` (default)
    exploits the partition-independence property itself: one tile call
    over the machine's whole j-set, which the striped store holds in
    the tile's own layout, and the host side in two crossings a
    blockstep - the load and one call from raw targets to forces
    (:mod:`repro.hardware.batched`).  Bit-identical to the faithful
    path — enforced by the emulation-mode property tests — at an order
    of magnitude less host time, whatever the chip count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import BoardConfig
from ..forces.kernels import ForceJerkResult
from ..telemetry import T_PIPE, get_tracer
from .batched import GatheredJSet, gather_chips
from .blockfloat import BlockFloatAccumulator, BlockFloatOverflow, suggest_exponent
from .board import ProcessorBoard
from .chip import BlockExponents, charge_block
from .memory import StripedStore
from .pipeline import (
    PLANE_OUTPUTS, TILE_FITS, TILE_OVERFLOWS, TILE_SATURATES, TILE_UNCACHED, UNCACHED, JSet,
    PipelineFormats, forces, quantize, round_float,
)
from .predictor_unit import predict_memory
from .summation import reduce_partials

#: Valid values of ``Grape6Emulator.emulation_mode``.
EMULATION_MODES = ("batched", "faithful")


@dataclass
class EmulatorStats:
    """Operation counters of an emulator instance."""

    force_evaluations: int = 0
    interactions: int = 0
    exponent_retries: int = 0
    jmem_loads: int = 0
    #: jmem loads elided because the resident j-set was unchanged.
    jmem_loads_elided: int = 0


class Grape6Emulator:
    """Functional GRAPE-6 backend.

    Parameters
    ----------
    eps2:
        Softening squared (written to the chips' softening registers).
    boards:
        Number of processor boards (1-4 per host on the real machine,
        but any positive count is allowed for partition-independence
        tests).
    board_config, formats:
        Hardware parameterisation; defaults are the real machine's.
    exponent_guard:
        Extra bits added to the initial exponent guess (fewer retries
        at slightly coarser quantisation; the hardware equivalent is
        the host library's guess policy).
    emulation_mode:
        ``"batched"`` (default) for the vectorised one-tile datapath,
        ``"faithful"`` for the per-chip hardware schedule.  Both
        produce bit-identical results; see the module docstring.
    """

    def __init__(
        self,
        eps2: float,
        boards: int = 1,
        board_config: BoardConfig | None = None,
        formats: PipelineFormats | None = None,
        exponent_guard: int = 2,
        emulation_mode: str = "batched",
    ) -> None:
        if boards < 1:
            raise ValueError("need at least one board")
        if emulation_mode not in EMULATION_MODES:
            raise ValueError(
                f"emulation_mode must be one of {EMULATION_MODES}, got {emulation_mode!r}"
            )
        self.eps2 = float(eps2)
        self.formats = formats if formats is not None else PipelineFormats.default()
        board_config = board_config if board_config is not None else BoardConfig()
        #: The machine's memories and chip registers as one striped store.
        self.jmem = StripedStore(boards * board_config.chips, board_config.chip.jmem_capacity)
        self.boards = [ProcessorBoard(board_config, self.formats, self.jmem, b * board_config.chips)
                       for b in range(boards)]
        self._all_chips = [c for b in self.boards for c in b.all_chips]
        self._chip = self._all_chips[0].config  # every chip's
        for b in self.boards:
            b.set_eps2(self.eps2)
        self.exponent_guard = int(exponent_guard)
        self.emulation_mode = emulation_mode
        self.stats = EmulatorStats()
        # every softening register holding the machine's value, bit for bit
        self._uniform_eps2 = np.full(len(self._all_chips), self.eps2).tobytes()

        self._mass_total = 0.0
        # the last load's barycentre, or until a guess needs it the
        # (mass, x, mass total) it is taken from, as bytes
        self._j_com: np.ndarray | tuple = np.zeros(3)
        # the last load's mass as given (bytes); its rounding is _mass,
        # its sum _mass_total
        self._mass_in: bytes | None = None
        # (generation, shapes, x bytes, v bytes) of set_j_particles' last load
        self._resident: tuple = (-1, None, None, None)
        # per-host-particle exponents (acc, jerk, pot) from the previous
        # call, UNCACHED where none was declared yet; grown on demand
        self._exp = np.full((3, 0), UNCACHED)

    # -- ForceBackend interface ----------------------------------------------

    @property
    def n_chips(self) -> int:
        return len(self._all_chips)

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Stripe the j-set over the chip memories (round-robin).

        The coordinates are expected to be already predicted to the
        current time (the integrator's convention); hardware-accurate
        predictor mode is exercised through the ``g6_*`` host library
        or by passing ``t`` to :meth:`forces_on`.

        A reload of exactly the resident j-set is elided entirely: when
        nothing wrote the memories since this method loaded them and the
        inputs equal the resident ones bit for bit (shapes, then x
        first, stopping at the first difference).
        """
        with get_tracer().span("grape.jmem_load", phase=T_PIPE, n_j=x.shape[0]):
            x = np.ascontiguousarray(x, dtype=np.float64)
            v = np.ascontiguousarray(v, dtype=np.float64)
            m = np.ascontiguousarray(m, dtype=np.float64)
            held = (self.jmem.generation, (x.shape, v.shape, m.shape), x.tobytes())
            if (
                held == self._resident[:3]
                and v.tobytes() == self._resident[3]
                and m.tobytes() == self._mass_in
            ):
                self.stats.jmem_loads_elided += 1
            else:
                self._load(None, x, v, m, {})
                self._resident = (self.jmem.generation, *held[1:], v.tobytes())
        self.stats.jmem_loads += 1

    def load_j_particles(self, host_index, x, v, m, **derivs) -> None:
        """Write a j-set into the machine's memories (the ``g6_*`` upload).

        Takes what :meth:`~repro.hardware.chip.GrapeChip.load_j_particles`
        takes (derivatives ``a`` / ``jdot`` / ``snap`` and ``t0``
        optional; ``host_index`` None for ``0 .. n-1``), quantised once
        straight into the striped store (chip ``c`` of ``k`` holds rows
        ``c::k``: since every format is elementwise, the words per-chip
        loads would hold).  A mass bitwise equal to the last one loaded
        is not re-rounded, nor summed again.
        """
        if host_index is not None:
            host_index = np.asarray(host_index, dtype=np.int64)
        self._load(host_index, np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64),
                   np.ascontiguousarray(m, dtype=np.float64), derivs)

    def _load(self, host_index, x, v, m, derivs: dict) -> None:
        mass_in = m.tobytes()
        if mass_in != self._mass_in:
            self._mass_in, self._mass = mass_in, round_float(self.formats.word, m)
            self._mass_total = float(m.sum())
        self.jmem.load(self.formats, host_index, x, v, self._mass, **derivs)
        self._j_com = (mass_in, x.tobytes(), self._mass_total)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
        t: float | None = None,
    ) -> ForceJerkResult:
        """Evaluate acc/jerk/pot on the targets from the loaded j-set.

        With ``t`` given, the (emulated) on-chip predictor pipelines
        extrapolate the stored j-particles to that time first — the
        hardware-accurate mode the ``g6_*`` host library drives.
        ``indices`` are the targets' host indices (non-negative).
        """
        n_j = self.jmem.used
        if n_j == 0:
            raise RuntimeError("set_j_particles() must be called first")
        xi = np.asarray(xi, dtype=np.float64)
        vi = np.asarray(vi, dtype=np.float64)
        n_i = xi.shape[0]
        i_index = None if indices is None else np.asarray(indices, dtype=np.int64)
        with get_tracer().span("grape.force", phase=T_PIPE, n_i=n_i, n_j=n_j) as span:
            attempt = self._datapath(xi, vi, i_index, t)
            exponents, retries = None, 0  # None: the table's
            while True:
                answer, exponents, out = attempt(exponents)
                if answer == TILE_FITS:
                    break
                if answer == TILE_UNCACHED:
                    exponents = self._initial_exponents(xi, vi, i_index).planes
                    continue
                self.stats.exponent_retries += 1
                retries += 1
                if retries == 16:  # 128 bits above the first guess: a term is not finite
                    raise BlockFloatOverflow("exponent retry loop failed to converge")
                exponents = exponents + 8
            if retries:
                span.set(exponent_retries=retries)
        self.stats.force_evaluations += 1
        interactions = n_i * n_j - (n_i if indices is not None else 0)
        self.stats.interactions += interactions
        return ForceJerkResult(*out, interactions=interactions)

    # -- datapaths --------------------------------------------------------------

    def _datapath(self, xi, vi, i_index, t):
        """One evaluation attempt under declared (7, n_i) exponents (the
        table's if None), answering as :func:`~repro.hardware.pipeline.forces`.

        The one-tile shortcut is only valid when every chip's softening
        register holds the machine-level value: the multiset argument
        assumes all chips compute the same pure pairwise function.  A
        heterogeneous register file (a mis-programmed chip, the fault
        the self-test injects) drops back to the faithful per-chip
        schedule so the degradation stays observable.
        """
        store = self.jmem
        if self.emulation_mode == "batched" and store.eps2.tobytes() == self._uniform_eps2:
            j_set = store.j_set if t is None and not store.detached else self._j_set(t)

            def batched(exponents):
                out = forces(j_set, xi, vi, i_index, self._exp, exponents, self.eps2,
                             self.formats)
                # the pipelines have streamed (also when a *total*
                # overflows): charge each chip the faithful schedule's
                # cycles; a saturating term stops them, and charges nothing
                if out[0] in (TILE_FITS, TILE_OVERFLOWS):
                    charge_block(store, self._chip, len(xi))
                return out

            return batched
        if i_index is not None and i_index.size and i_index.min() < 0:
            raise ValueError(f"negative particle index {i_index.min()} in indices")
        xi_q, vi_w = quantize(self.formats.pos, xi), round_float(self.formats.word, vi)

        def faithful(planes):
            if planes is None:
                return TILE_UNCACHED, None, None
            exponents = BlockExponents.from_planes(planes)
            try:
                partial = reduce_partials(
                    board.partial_forces(xi_q, vi_w, exponents, t=t, i_index=i_index)
                    for board in self.boards
                )
                out = tuple(  # the boards' exact sums to float: acc, jerk, pot
                    np.ascontiguousarray(BlockFloatAccumulator(e).to_float(sums))
                    for e, sums in ((planes[0, :, None], partial.acc),
                                    (planes[3, :, None], partial.jerk), (planes[6], partial.pot))
                )
            except BlockFloatOverflow:
                return TILE_SATURATES, planes, None
            if i_index is not None:  # remember the declared exponents
                self._exp[:, i_index] = planes[::3]
            return TILE_FITS, planes, out

        return faithful

    def _j_set(self, t: float | None) -> JSet:
        """The j-set the tile streams when it is not the striped store's
        own: the chip memories (:meth:`_gathered`), predicted to ``t``
        if given."""
        gather = self._gathered()
        rows = (gather.pos_q, gather.vel) if t is None else predict_memory(gather, t, self.formats)
        return JSet(rows[0].T, rows[1].T, gather.mass, gather.host_index)

    def _gathered(self) -> GatheredJSet:
        """The machine's j-set, row-major: the striped store's own rows
        while every chip reads its stripe, else (after a direct chip
        load, tests poking one memory) the chip memories gathered."""
        store = self.jmem
        return gather_chips(self._all_chips) if store.detached else store.rows

    # -- exponent management ---------------------------------------------------

    def _initial_exponents(
        self, xi: np.ndarray, vi: np.ndarray, indices: np.ndarray | None
    ) -> BlockExponents:
        """Previous-step exponents where cached, heuristic guess elsewhere.

        The cached rows are one take from the (3, N) table, straight
        into the tile's (7, n_i) stack; only rows the table lacks run
        the heuristic, and after the first call the cache takes over
        (the paper: "the value of the exponent at the previous timestep
        is almost always okay").
        """
        if indices is None:
            return self._guess_exponents(xi, vi)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.max() >= self._exp.shape[1]:
            grown = np.full((3, max(idx.max() + 1, 2 * self._exp.shape[1], 64)), UNCACHED)
            grown[:, : self._exp.shape[1]] = self._exp
            self._exp = grown
        planes = self._exp[PLANE_OUTPUTS, idx]
        if idx.size and planes[0].min() == UNCACHED:  # the least int64: one is uncached
            rows = np.flatnonzero(planes[0] == UNCACHED)
            planes[:, rows] = self._guess_exponents(xi[rows], vi[rows]).planes
        return BlockExponents.from_planes(planes)

    def _guess_exponents(self, xi: np.ndarray, vi: np.ndarray) -> BlockExponents:
        """The heuristic treats the j-set as a point mass at its
        barycentre: |a| ~ M/(d^2+eps^2), |phi| ~ M/d, |jdot| ~ |a| * v/d —
        crude, but the retry loop makes any guess safe."""
        if isinstance(self._j_com, tuple):  # m @ x of C-order copies, as at the load
            mass_in, x_in, total = self._j_com
            m = np.frombuffer(mass_in).copy()
            x = np.frombuffer(x_in).reshape(len(m), 3).copy()
            self._j_com = (m @ x) / total if total > 0 else np.zeros(3)
        d2 = np.sum((xi - self._j_com) ** 2, axis=1) + self.eps2 + 1e-300
        d = np.sqrt(d2)
        vmag = np.linalg.norm(vi, axis=1) + 1e-300
        acc_est = self._mass_total / d2
        guard = self.exponent_guard
        return BlockExponents(
            acc=suggest_exponent(acc_est) + guard,
            jerk=suggest_exponent(acc_est * vmag / d) + guard,
            pot=suggest_exponent(self._mass_total / d) + guard,
        )

    @property
    def exp_cache_entries(self) -> int:
        """Number of host particles with a cached block exponent."""
        return int(np.count_nonzero(self._exp[0] != UNCACHED))

    # -- introspection ------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Emulated busy cycles of the slowest chip (machine time)."""
        return int(self.jmem.cycles.max())

    @property
    def jmem_used(self) -> int:
        return self.jmem.used

    @property
    def lanes_per_chip(self) -> int:
        """i-particles one chip serves concurrently (48 on the real
        machine: 6 pipelines x 8-way VMP).  An i-block streams the
        j-memory in passes of this many slots whether or not they are
        filled — the under-population loss of fig. 13."""
        return self._chip.iparallel

    def peak_flops(self) -> float:
        """Peak speed of this backend [flop/s], 57-op convention.

        The introspection consumers (efficiency observatory, perfmodel
        comparisons) call this instead of re-deriving pipeline counts
        from configuration dicts; it sums the actual chip population,
        so heterogeneous test rigs account correctly.
        """
        return sum(chip.config.peak_flops for chip in self._all_chips)
