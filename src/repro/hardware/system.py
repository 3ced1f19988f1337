"""Host-side view of an emulated GRAPE-6: boards, exponent management,
and the retry loop (paper, sections 2 and 3.4).

:class:`Grape6Emulator` is a drop-in
:class:`repro.forces.direct.ForceBackend`, so the block-timestep
integrator can run on the emulated hardware unchanged.  It

* stripes the j-particles round-robin over all chips (the host library
  writes each particle to exactly one chip memory — the local-memory
  design of section 3.4),
* quantises the i-block and broadcasts it to every board,
* declares per-i-particle block exponents — reusing each particle's
  exponent from its previous force evaluation, "almost always okay" —
  and retries with larger exponents on overflow,
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
    exploits the partition-independence property itself: because the
    force depends only on the *multiset* of quantised pairwise
    contributions, all chip memories are gathered into one contiguous
    j-set (once per jmem load) and one tile call covers the whole
    (n_i, n_j) interaction, its carry-save lanes staying native int64
    (:mod:`repro.hardware.batched`).  Bit-identical to the faithful
    path — enforced by the emulation-mode property tests — at an
    order of magnitude less host time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..config import BoardConfig
from ..forces.kernels import ForceJerkResult
from ..telemetry import T_PIPE, get_tracer
from .batched import GatheredJSet, gather_chips, memory_version, predict_gather
from .blockfloat import BlockFloatAccumulator, BlockFloatOverflow, suggest_exponent
from .board import ProcessorBoard
from .chip import BlockExponents, charge_block
from .pipeline import PipelineFormats, partial_lanes
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
    #: jmem loads elided because the j-set fingerprint was unchanged.
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
        self.boards = [ProcessorBoard(board_config, self.formats) for _ in range(boards)]
        for b in self.boards:
            b.set_eps2(self.eps2)
        self.exponent_guard = int(exponent_guard)
        self.emulation_mode = emulation_mode
        self.stats = EmulatorStats()

        self._all_chips = [c for b in self.boards for c in b.all_chips]
        self._n_j = 0
        self._mass_total = 0.0
        self._j_com = np.zeros(3)
        # cached per-host-particle exponents from the previous call,
        # stored as flat int64 arrays indexed by host id (grown on
        # demand) so lookup and write-back are single fancy-index ops
        self._exp_valid = np.zeros(0, dtype=bool)
        self._exp_acc = np.zeros(0, dtype=np.int64)
        self._exp_jerk = np.zeros(0, dtype=np.int64)
        self._exp_pot = np.zeros(0, dtype=np.int64)
        # gathered j-set cache (batched datapath) and jmem fingerprint
        self._gather: GatheredJSet | None = None
        self._j_fingerprint: bytes | None = None
        self._j_fingerprint_version: int = -1

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

        The whole j-set is quantised once and the chips receive
        zero-copy strided views (chip ``c`` holds rows ``c::k`` — the
        same round-robin stripe as per-chip index builds, without the
        per-chip allocations).  A reload whose (x, v, m) fingerprint
        matches the data already resident in the memories is elided
        entirely.
        """
        tracer = get_tracer()
        with tracer.span("grape.jmem_load", phase=T_PIPE, n_j=x.shape[0]):
            x = np.ascontiguousarray(x, dtype=np.float64)
            v = np.ascontiguousarray(v, dtype=np.float64)
            m = np.ascontiguousarray(m, dtype=np.float64)
            digest = self._jset_fingerprint(x, v, m)
            if (
                digest == self._j_fingerprint
                and self._j_fingerprint_version == memory_version(self._all_chips)
            ):
                # memories already hold exactly this j-set (and nobody
                # wrote them since): skip the re-quantisation
                self.stats.jmem_loads_elided += 1
                tracer.count("grape.jmem_load_skips")
            else:
                self._load_j_set(x, v, m, digest)
        self.stats.jmem_loads += 1
        tracer.count("grape.jmem_loads")
        tracer.gauge("grape.jmem_used", self.jmem_used)

    def _load_j_set(
        self, x: np.ndarray, v: np.ndarray, m: np.ndarray, digest: bytes
    ) -> None:
        n = x.shape[0]
        self._n_j = n
        self._mass_total = float(m.sum())
        self._j_com = (
            (m @ x) / self._mass_total if self._mass_total > 0 else np.zeros(3)
        )
        k = self.n_chips
        pos_q = self.formats.pos.quantize(x)
        vel = self.formats.word.round(v)
        mass = self.formats.word.round(m)
        host_index = np.arange(n, dtype=np.int64)
        # one block of zeros serves every chip's and the gather's
        # higher derivatives and t0; read-only, so a stray in-place
        # write cannot leak across the views
        zero3 = np.zeros((n, 3))
        zero1 = np.zeros(n)
        zero3.flags.writeable = zero1.flags.writeable = False
        for c, chip in enumerate(self._all_chips):
            chip.memory.load_preformatted(
                host_index[c::k], pos_q[c::k], vel[c::k], mass[c::k],
                zero3[c::k], zero1[c::k],
            )
        get_tracer().count("grape.jmem_writes", n)
        # the quantised full arrays double as the gathered j-set — the
        # batched datapath needs no per-call concatenation at all
        self._gather = GatheredJSet(
            pos_q=pos_q,
            vel=vel,
            mass=mass,
            host_index=host_index,
            acc=zero3,
            jerk=zero3,
            snap=zero3,
            t0=zero1,
            chip_sizes=tuple(chip.memory.n for chip in self._all_chips),
            version=memory_version(self._all_chips),
        )
        self._j_fingerprint = digest
        self._j_fingerprint_version = self._gather.version

    @staticmethod
    def _jset_fingerprint(x: np.ndarray, v: np.ndarray, m: np.ndarray) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((x.shape, v.shape, m.shape)).encode())
        h.update(x)
        h.update(v)
        h.update(m)
        return h.digest()

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
        """
        if self._n_j == 0:
            raise RuntimeError("set_j_particles() must be called first")
        xi = np.asarray(xi, dtype=np.float64)
        vi = np.asarray(vi, dtype=np.float64)
        n_i = xi.shape[0]

        tracer = get_tracer()
        with tracer.span("grape.force", phase=T_PIPE, n_i=n_i, n_j=self._n_j) as span:
            xi_q = self.formats.pos.quantize(xi)
            vi_w = self.formats.word.round(vi)

            i_index = (
                np.asarray(indices, dtype=np.int64) if indices is not None else None
            )
            exponents = self._initial_exponents(xi, vi, indices)
            retries = 0
            for _ in range(16):
                try:
                    acc, jerk, pot = self._evaluate_once(
                        xi_q, vi_w, exponents, t, i_index
                    )
                    break
                except BlockFloatOverflow:
                    self.stats.exponent_retries += 1
                    retries += 1
                    exponents = exponents.bump(8)
            else:  # 128 bits above the first guess: a pair term is not finite
                raise BlockFloatOverflow("exponent retry loop failed to converge")
            if retries:
                span.set(exponent_retries=retries)
                tracer.count("grape.exponent_retries", retries)

        self._remember_exponents(indices, exponents)
        self.stats.force_evaluations += 1
        interactions = n_i * self._n_j - (n_i if indices is not None else 0)
        self.stats.interactions += interactions
        tracer.count("grape.interactions", interactions)
        return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)

    # -- datapaths --------------------------------------------------------------

    def _evaluate_once(
        self,
        xi_q: np.ndarray,
        vi_w: np.ndarray,
        exponents: BlockExponents,
        t: float | None,
        i_index: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One evaluation attempt under the declared exponents.

        Raises :class:`BlockFloatOverflow` for the host retry loop;
        dispatches on :attr:`emulation_mode`.

        The one-tile shortcut is only valid when every chip's softening
        register holds the machine-level value: the multiset argument
        assumes all chips compute the same pure pairwise function.  A
        heterogeneous register file (a mis-programmed chip, the fault
        the self-test injects) drops back to the faithful per-chip
        schedule so the degradation stays observable.
        """
        if self.emulation_mode == "batched" and all(
            chip._eps2 == self.eps2 for chip in self._all_chips
        ):
            return self._evaluate_batched(xi_q, vi_w, exponents, t, i_index)
        partial = reduce_partials(
            board.partial_forces(xi_q, vi_w, exponents, t=t, i_index=i_index)
            for board in self.boards
        )
        return self._to_float(partial, exponents)

    def _evaluate_batched(
        self,
        xi_q: np.ndarray,
        vi_w: np.ndarray,
        exponents: BlockExponents,
        t: float | None,
        i_index: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gather = self._gathered()
        if t is None:
            cj_q, cj_v = gather.cpos_q, gather.cvel
        else:
            cj_q, cj_v = predict_gather(gather, self.formats, t)
        stacked = exponents.stacked()
        hi, lo = partial_lanes(
            xi_q,
            vi_w,
            cj_q,
            cj_v,
            gather.mass,
            gather.host_index,
            stacked,
            self.eps2,
            self.formats,
            i_index=i_index,
        )
        # the pipelines have streamed: charge each chip the cycles the
        # faithful schedule would have cost it (also when the *total*
        # overflows below and the host retries — the hardware streams
        # the whole memory before the saturation flag is read; an
        # attempt aborted by per-contribution saturation charges
        # nothing, where the faithful schedule charges the passes before
        # the saturating one — attempt-local, never in a result)
        charge_block(self._all_chips, xi_q.shape[0], gather.chip_sizes)
        out = BlockFloatAccumulator(stacked).to_float_lanes(hi, lo)
        return np.ascontiguousarray(out[:3].T), np.ascontiguousarray(out[3:6].T), out[6]

    def _gathered(self) -> GatheredJSet:
        """The contiguous j-set, rebuilt only when a memory changed.

        Plain :meth:`set_j_particles` loads install the gather
        directly; direct chip loads (the ``g6_*`` library's predictor
        uploads, tests poking memories) bump the memory write
        generations and trigger a rebuild here.
        """
        version = memory_version(self._all_chips)
        if self._gather is None or self._gather.version != version:
            self._gather = gather_chips(self._all_chips)
        return self._gather

    # -- exponent management ---------------------------------------------------

    def _initial_exponents(
        self, xi: np.ndarray, vi: np.ndarray, indices: np.ndarray | None
    ) -> BlockExponents:
        """Previous-step exponents where cached, heuristic guess elsewhere.

        The heuristic treats the j-set as a point mass at its barycentre:
        |a| ~ M/(d^2+eps^2), |phi| ~ M/d, |jdot| ~ |a| * v/d — crude, but
        the retry loop makes any guess safe, and after the first call the
        cache takes over (the paper: "the value of the exponent at the
        previous timestep is almost always okay").
        """
        d2 = np.sum((xi - self._j_com) ** 2, axis=1) + self.eps2 + 1e-300
        d = np.sqrt(d2)
        vmag = np.linalg.norm(vi, axis=1) + 1e-300
        acc_est = self._mass_total / d2
        pot_est = self._mass_total / d
        jerk_est = acc_est * vmag / d

        guard = self.exponent_guard
        e_acc = suggest_exponent(acc_est) + guard
        e_pot = suggest_exponent(pot_est) + guard
        e_jerk = suggest_exponent(jerk_est) + guard

        if indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
            in_range = idx < self._exp_valid.size
            cached = np.zeros(idx.shape, dtype=bool)
            cached[in_range] = self._exp_valid[idx[in_range]]
            rows = np.flatnonzero(cached)
            if rows.size:
                src = idx[rows]
                e_acc[rows] = self._exp_acc[src]
                e_jerk[rows] = self._exp_jerk[src]
                e_pot[rows] = self._exp_pot[src]
        return BlockExponents(acc=e_acc, jerk=e_jerk, pot=e_pot)

    def _remember_exponents(
        self, indices: np.ndarray | None, exponents: BlockExponents
    ) -> None:
        if indices is None:
            return
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        need = int(idx.max()) + 1
        if need > self._exp_valid.size:
            self._grow_exp_cache(need)
        self._exp_acc[idx] = exponents.acc
        self._exp_jerk[idx] = exponents.jerk
        self._exp_pot[idx] = exponents.pot
        self._exp_valid[idx] = True

    def _grow_exp_cache(self, need: int) -> None:
        size = max(need, 2 * self._exp_valid.size, 64)
        for name in ("_exp_acc", "_exp_jerk", "_exp_pot"):
            grown = np.zeros(size, dtype=np.int64)
            grown[: getattr(self, name).size] = getattr(self, name)
            setattr(self, name, grown)
        valid = np.zeros(size, dtype=bool)
        valid[: self._exp_valid.size] = self._exp_valid
        self._exp_valid = valid

    @property
    def exp_cache_entries(self) -> int:
        """Number of host particles with a cached block exponent."""
        return int(self._exp_valid.sum())

    # -- conversion -------------------------------------------------------------

    def _to_float(
        self, partial, exponents: BlockExponents
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        acc = BlockFloatAccumulator(exponents.acc[:, None]).to_float(partial.acc)
        jerk = BlockFloatAccumulator(exponents.jerk[:, None]).to_float(partial.jerk)
        pot = BlockFloatAccumulator(exponents.pot).to_float(partial.pot)
        return np.ascontiguousarray(acc), np.ascontiguousarray(jerk), pot

    # -- introspection ------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Emulated busy cycles of the slowest chip (machine time)."""
        return max(chip.cycles for chip in self._all_chips)

    @property
    def jmem_used(self) -> int:
        return sum(chip.memory.n for chip in self._all_chips)

    @property
    def lanes_per_chip(self) -> int:
        """i-particles one chip serves concurrently (48 on the real
        machine: 6 pipelines x 8-way VMP).  An i-block streams the
        j-memory in passes of this many slots whether or not they are
        filled — the under-population loss of fig. 13."""
        return self._all_chips[0].config.iparallel

    def peak_flops(self) -> float:
        """Peak speed of this backend [flop/s], 57-op convention.

        The introspection consumers (efficiency observatory, perfmodel
        comparisons) call this instead of re-deriving pipeline counts
        from configuration dicts; it sums the actual chip population,
        so heterogeneous test rigs account correctly.
        """
        return sum(chip.config.peak_flops for chip in self._all_chips)
