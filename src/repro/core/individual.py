"""Individual (block) timestep Hermite integrator — the paper's workload.

This is the algorithm every GRAPE benchmark in the paper runs: the
Aarseth individual-timestep scheme in its blockstep form, with the
4th-order Hermite predictor/corrector.  One **blockstep** is:

1. find the minimum next-update time and the block of particles that
   share it (:class:`repro.core.scheduler.BlockScheduler`);
2. predict all particles to the block time: the j-side for the force,
   the block's own rows for the corrector;
3. evaluate force + jerk on the block from all N particles (this is the
   O(n_b * N) work the GRAPE hardware executes);
4. apply the Hermite corrector to the block, choose new quantised
   timesteps, and update the schedule.

Where the j-side prediction goes depends on the force backend and is
settled once, when the integrator is built or restored
(:meth:`BlockTimestepIntegrator._j_side`).  A backend with
``predict_j`` (:class:`~repro.forces.direct.DirectSummation`, and the
copy algorithm, :class:`~repro.parallel.copy_algorithm.CopyAlgorithm`,
whose every simulated node predicts its own copy) keeps a resident
j-set and has all N predicted straight into it
(:func:`~repro.core.hermite_tile.predict_j_set`), as the real machine's
predictor pipelines extrapolate their j-memory (eqs. 6-7); only the
block's rows come back, so the host touches O(n_b) rows, as in the
``t_host`` term of the paper's eq. 10, and the force call is handed
only the block's indices.  Any other backend (the emulator, the
``g6_*`` library, the ring, 2-D grid and hybrid algorithms) is uploaded
the whole set: the host predicts all N
(:func:`~repro.core.hermite_tile.predict_hermite`), then
``set_j_particles`` and ``forces_on``.  Step 4 is one call into
:mod:`repro.core.hermite_tile`.

The integrator records per-blockstep statistics (block sizes, step
counts, interaction counts) because these are exactly the quantities
the paper's performance model is built from: speed
``S = 57 N n_steps`` (eq. 9) and the block-size distribution that sets
communication efficiency (figs. 13-18).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..forces.direct import DirectSummation, ForceBackend
from ..telemetry import T_HOST, T_PIPE, Tracer, get_tracer
from .hermite_tile import advance_block, predict_hermite
from .particles import ParticleSystem
from .predictor import predict_taylor
from .scheduler import BlockScheduler
from .timestep import DEFAULT_ETA, DEFAULT_ETA_START, initial_dt, quantize_block_dt


@dataclass
class StepStatistics:
    """Counters and traces from a block-timestep run.

    ``block_sizes`` holds one entry per blockstep and is the empirical
    input to :mod:`repro.perfmodel.blockstats`.
    """

    blocksteps: int = 0
    particle_steps: int = 0
    interactions: int = 0
    block_sizes: list[int] = field(default_factory=list)

    @property
    def mean_block_size(self) -> float:
        return self.particle_steps / self.blocksteps if self.blocksteps else 0.0

    def merge(self, other: "StepStatistics") -> None:
        self.blocksteps += other.blocksteps
        self.particle_steps += other.particle_steps
        self.interactions += other.interactions
        self.block_sizes.extend(other.block_sizes)


class BlockTimestepIntegrator:
    """Hermite integrator with individual, power-of-two block timesteps.

    Parameters
    ----------
    system:
        Particle state, integrated in place.
    eps2:
        Softening squared (use :mod:`repro.core.softening` for the
        paper's three laws).
    eta, eta_start:
        Aarseth accuracy parameters for running and startup steps.
    backend:
        Force backend (float64 direct summation by default; pass a
        :class:`repro.forces.grape_api.Grape6Library` to run on the
        hardware emulator).
    dt_max, dt_min:
        Block-hierarchy bounds.
    record_block_sizes:
        Keep the per-blockstep size trace (cheap; on by default).
    tracer:
        Telemetry tracer; defaults to the process-wide tracer (which is
        disabled unless the application opted in), so the spans below
        cost one attribute test per phase per blockstep when off.
    """

    def __init__(
        self,
        system: ParticleSystem,
        eps2: float,
        eta: float = DEFAULT_ETA,
        eta_start: float = DEFAULT_ETA_START,
        backend: ForceBackend | None = None,
        dt_max: float = 0.125,
        dt_min: float = 2.0**-40,
        record_block_sizes: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.system = system
        self.eps2 = float(eps2)
        self.eta = float(eta)
        self.eta_start = float(eta_start)
        self.backend = backend if backend is not None else DirectSummation(eps2)
        self.dt_max = float(dt_max)
        self.dt_min = float(dt_min)
        self.record_block_sizes = record_block_sizes
        self._tracer = tracer
        self.t = 0.0
        self.stats = StepStatistics()
        #: Block advanced by the most recent :meth:`step` — read by
        #: subclasses that post-process the block (e.g. the parallel
        #: driver's coherence exchange) without re-scanning the
        #: schedule.
        self._last_block: np.ndarray | None = None

        # scratch buffers for the all-particle prediction (avoid
        # per-blockstep allocation; see the optimisation guide)
        self._xp = np.empty_like(system.pos)
        self._vp = np.empty_like(system.vel)
        self._forces_at = self._j_side(self.backend)

        self._initialize()
        self.scheduler = BlockScheduler(system.t, system.dt)

    @property
    def tracer(self) -> Tracer:
        """The effective tracer (explicit one, else the process default).

        Tolerates instances assembled without ``__init__`` (the
        snapshot-restart path rebuilds integrators attribute by
        attribute).
        """
        tracer = getattr(self, "_tracer", None)
        return tracer if tracer is not None else get_tracer()

    # -- startup ------------------------------------------------------------

    def _initialize(self) -> None:
        s = self.system
        with self.tracer.span("force", phase=T_PIPE, n_i=s.n, startup=True):
            self.backend.set_j_particles(s.pos, s.vel, s.mass)
            res = self.backend.forces_on(s.pos, s.vel, np.arange(s.n))
        s.acc[...] = res.acc
        s.jerk[...] = res.jerk
        s.pot[...] = res.pot
        self.stats.interactions += res.interactions

        dt0 = initial_dt(s.acc, s.jerk, self.eta_start)
        s.dt[...] = quantize_block_dt(
            dt0, 0.0, None, dt_max=self.dt_max, dt_min=self.dt_min
        )
        s.t[...] = 0.0

    # -- state introspection (checkpoint/resume) ----------------------------

    def state_dict(self) -> dict:
        """Integrator state beyond the particle arrays.

        Together with ``self.system`` this is everything a resumed run
        needs to continue bit-identically: the accuracy parameters, the
        system clock, the run counters and the scheduler's pending
        block times.  The force backend is *not* part of the state —
        every blockstep rebuilds the whole j-side from the particle
        arrays (predicted into the backend's resident set, or predicted
        here and uploaded), so a freshly built backend of the same
        configuration reproduces the same forces (property-pinned in the
        emulation-mode tests).
        """
        return {
            "kind": "block",
            "t": float(self.t),
            "eps2": float(self.eps2),
            "eta": float(self.eta),
            "eta_start": float(self.eta_start),
            "dt_max": float(self.dt_max),
            "dt_min": float(self.dt_min),
            "record_block_sizes": bool(self.record_block_sizes),
            "stats": {
                "blocksteps": int(self.stats.blocksteps),
                "particle_steps": int(self.stats.particle_steps),
                "interactions": int(self.stats.interactions),
                "block_sizes": np.array(self.stats.block_sizes, dtype=np.int64),
            },
            "scheduler_t_next": np.array(self.scheduler.t_next),
        }

    @classmethod
    def from_state(
        cls,
        system: ParticleSystem,
        state: dict,
        backend: ForceBackend | None = None,
        tracer: Tracer | None = None,
    ) -> "BlockTimestepIntegrator":
        """Rebuild an integrator mid-run from :meth:`state_dict`.

        Bypasses ``__init__`` — the startup force evaluation and
        timestep assignment must *not* rerun, or the restored run would
        diverge from the uninterrupted one at the first blockstep.
        """
        if state.get("kind") != "block":
            raise ValueError(f"not a block-integrator state: {state.get('kind')!r}")
        integ = cls.__new__(cls)
        integ.system = system
        integ.eps2 = float(state["eps2"])
        integ.eta = float(state["eta"])
        integ.eta_start = float(state["eta_start"])
        integ.backend = backend if backend is not None else DirectSummation(integ.eps2)
        integ.dt_max = float(state["dt_max"])
        integ.dt_min = float(state["dt_min"])
        integ.record_block_sizes = bool(state["record_block_sizes"])
        integ._tracer = tracer
        integ.t = float(state["t"])
        st = state["stats"]
        integ.stats = StepStatistics(
            blocksteps=int(st["blocksteps"]),
            particle_steps=int(st["particle_steps"]),
            interactions=int(st["interactions"]),
            block_sizes=np.asarray(st["block_sizes"], dtype=np.int64).tolist(),
        )
        integ._xp = np.empty_like(system.pos)
        integ._vp = np.empty_like(system.vel)
        integ._forces_at = integ._j_side(integ.backend)
        integ._last_block = None
        integ.scheduler = BlockScheduler.from_t_next(state["scheduler_t_next"])
        return integ

    # -- one blockstep ------------------------------------------------------

    def step(self) -> tuple[float, int]:
        """Advance one blockstep; returns (new system time, block size)."""
        s = self.system
        tracer = self.tracer
        t_block, block = self.scheduler.next_block()
        self._last_block = block

        # j-memory counters before the blockstep: their deltas go on the
        # blockstep span so the phase observatory can fingerprint cache
        # behaviour per blockstep (emulator backends only).
        backend_stats = getattr(self.backend, "stats", None) if tracer.enabled else None
        if backend_stats is not None:
            jmem0 = getattr(backend_stats, "jmem_loads", 0)
            elided0 = getattr(backend_stats, "jmem_loads_elided", 0)

        with tracer.span(
            "blockstep", phase=T_HOST, n_block=block.size, n=s.n, t=t_block
        ) as bs_span:
            acc1, jerk1, pot1, interactions = self._forces_at(t_block, block, tracer)

            # Corrector, timestep criterion, quantisation and the scatter
            # into the particle arrays: the host's O(n_b) share, one call.
            with tracer.span("correct"):
                dt_new = advance_block(
                    s, block, t_block, self._xp, self._vp, acc1, jerk1, pot1,
                    self.eta, self.dt_max, self.dt_min,
                    blockstep=self.stats.blocksteps,
                )
            with tracer.span("schedule"):
                self.scheduler.update(block, t_block, dt_new)

            if backend_stats is not None:
                bs_span.set(
                    jmem_loads=int(getattr(backend_stats, "jmem_loads", 0) - jmem0),
                    jmem_elided=int(
                        getattr(backend_stats, "jmem_loads_elided", 0) - elided0
                    ),
                )

        n_b = block.size
        self.t = t_block
        self.stats.blocksteps += 1
        self.stats.particle_steps += n_b
        self.stats.interactions += interactions
        if self.record_block_sizes:
            self.stats.block_sizes.append(n_b)
        tracer.observe("core.block_size", n_b)
        return t_block, n_b

    # -- the j-side of a blockstep: predict and force ------------------------

    def _j_side(self, backend):
        """The predict and force phases of a blockstep on ``backend``:
        :meth:`_resident_j` if it predicts its own j-set (``predict_j``),
        else :meth:`_uploaded_j`.  Each takes ``(t_block, block,
        tracer)``, fills the block's rows of ``_xp``/``_vp`` and returns
        ``(acc, jerk, pot, interactions)`` on the block, the arrays
        contiguous float64."""
        return self._resident_j if hasattr(backend, "predict_j") else self._uploaded_j

    def _uploaded_j(self, t_block, block, tracer):
        """Predict all N here and upload them; forces on the block."""
        s = self.system
        with tracer.span("predict"):
            xp, vp = predict_hermite(
                t_block, s.t, s.pos, s.vel, s.acc, s.jerk, self._xp, self._vp
            )
        with tracer.span("force", phase=T_PIPE, n_i=block.size):
            self.backend.set_j_particles(xp, vp, s.mass)
            res = self.backend.forces_on(xp[block], vp[block], block)
        return (
            np.ascontiguousarray(res.acc, dtype=np.float64),
            np.ascontiguousarray(res.jerk, dtype=np.float64),
            np.ascontiguousarray(res.pot, dtype=np.float64),
            res.interactions,
        )

    def _resident_j(self, t_block, block, tracer):
        """The backend predicts its resident j-set and the block's rows;
        forces on the block from the set's own particles."""
        with tracer.span("predict"):
            self.backend.predict_j(t_block, self.system, self._xp, self._vp, block)
        with tracer.span("force", phase=T_PIPE, n_i=block.size):
            res = self.backend.forces_on(None, None, block)
        return res.acc, res.jerk, res.pot, res.interactions

    def run(self, t_end: float, max_blocksteps: int | None = None) -> StepStatistics:
        """Integrate until every particle's time reaches at least ``t_end``.

        The loop steps while the *earliest* pending block time is
        <= t_end, which leaves all particles with t in
        [t_end - dt_max, t_end + dt_max]; call :meth:`synchronize` for
        an exactly time-synchronised snapshot.
        """
        steps = 0
        while True:
            if self.scheduler.next_time() > t_end:
                break
            self.step()
            steps += 1
            if max_blocksteps is not None and steps >= max_blocksteps:
                break
        return self.stats

    # -- synchronisation ----------------------------------------------------

    def synchronize(self, t_sync: float | None = None) -> ParticleSystem:
        """Snapshot with all particles predicted to a common time.

        Uses the full Taylor predictor (through snap and crackle) so the
        synchronised state is accurate to the integrator's order.  The
        internal state is not modified.
        """
        s = self.system
        if t_sync is None:
            t_sync = float(s.t.max())
        snap = s.copy()
        xp, vp = predict_taylor(
            t_sync, s.t, s.pos, s.vel, s.acc, s.jerk, s.snap, s.crackle
        )
        snap.pos[...] = xp
        snap.vel[...] = vp
        snap.t[...] = t_sync
        return snap
