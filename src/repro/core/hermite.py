"""Shared-timestep 4th-order Hermite integrator.

All particles advance with the same (adaptive) step.  This is the
scheme the paper's section 5 uses as a strawman when comparing against
shared-timestep treecodes ("If we use shared timestep, we need at least
100 times more particle steps"), and it serves here as the reference
integrator: simple, clearly correct, and the baseline for validating
the block-timestep integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..forces.direct import DirectSummation, ForceBackend
from ..telemetry import T_HOST, T_PIPE, Tracer, get_tracer
from .corrector import hermite_correct
from .particles import ParticleSystem
from .predictor import predict_hermite
from .timestep import DEFAULT_ETA, aarseth_dt, initial_dt


@dataclass
class SharedStepStatistics:
    """Counters for a shared-timestep run."""

    steps: int = 0
    particle_steps: int = 0
    interactions: int = 0


class HermiteIntegrator:
    """Shared adaptive-timestep Hermite integrator (P(EC) form).

    Parameters
    ----------
    system:
        Particle state; integrated in place.
    eps2:
        Softening squared.
    eta:
        Aarseth accuracy parameter.
    backend:
        Force backend; defaults to float64 direct summation.
    dt_max:
        Cap on the shared step.
    tracer:
        Telemetry tracer (defaults to the process-wide one, disabled
        unless the application opted in).
    """

    def __init__(
        self,
        system: ParticleSystem,
        eps2: float,
        eta: float = DEFAULT_ETA,
        backend: ForceBackend | None = None,
        dt_max: float = 0.125,
        tracer: Tracer | None = None,
    ) -> None:
        self.system = system
        self.eps2 = float(eps2)
        self.eta = float(eta)
        self.backend = backend if backend is not None else DirectSummation(eps2)
        self.dt_max = float(dt_max)
        self.t = 0.0
        self.stats = SharedStepStatistics()
        self._tracer = tracer
        self._initialize_forces()

    @property
    def tracer(self) -> Tracer:
        tracer = getattr(self, "_tracer", None)
        return tracer if tracer is not None else get_tracer()

    def _all_indices(self) -> np.ndarray:
        return np.arange(self.system.n)

    def _initialize_forces(self) -> None:
        s = self.system
        with self.tracer.span("force", phase=T_PIPE, n_i=s.n, startup=True):
            self.backend.set_j_particles(s.pos, s.vel, s.mass)
            res = self.backend.forces_on(s.pos, s.vel, self._all_indices())
        s.acc[...] = res.acc
        s.jerk[...] = res.jerk
        s.pot[...] = res.pot
        self.stats.interactions += res.interactions

    # -- state introspection (checkpoint/resume) ----------------------------

    def state_dict(self) -> dict:
        """Integrator state beyond the particle arrays (see the block
        integrator's :meth:`BlockTimestepIntegrator.state_dict`; the
        shared scheme has no scheduler to capture)."""
        return {
            "kind": "shared",
            "t": float(self.t),
            "eps2": float(self.eps2),
            "eta": float(self.eta),
            "dt_max": float(self.dt_max),
            "stats": {
                "steps": int(self.stats.steps),
                "particle_steps": int(self.stats.particle_steps),
                "interactions": int(self.stats.interactions),
            },
        }

    @classmethod
    def from_state(
        cls,
        system: ParticleSystem,
        state: dict,
        backend: ForceBackend | None = None,
        tracer: Tracer | None = None,
    ) -> "HermiteIntegrator":
        """Rebuild mid-run from :meth:`state_dict` without rerunning the
        startup force evaluation."""
        if state.get("kind") != "shared":
            raise ValueError(f"not a shared-integrator state: {state.get('kind')!r}")
        integ = cls.__new__(cls)
        integ.system = system
        integ.eps2 = float(state["eps2"])
        integ.eta = float(state["eta"])
        integ.backend = backend if backend is not None else DirectSummation(integ.eps2)
        integ.dt_max = float(state["dt_max"])
        integ.t = float(state["t"])
        st = state["stats"]
        integ.stats = SharedStepStatistics(
            steps=int(st["steps"]),
            particle_steps=int(st["particle_steps"]),
            interactions=int(st["interactions"]),
        )
        integ._tracer = tracer
        return integ

    def _shared_dt(self) -> float:
        s = self.system
        if np.all(s.snap == 0.0) and np.all(s.crackle == 0.0):
            dt = initial_dt(s.acc, s.jerk, self.eta)
        else:
            dt = aarseth_dt(s.acc, s.jerk, s.snap, s.crackle, self.eta)
        return float(min(self.dt_max, dt.min()))

    def step(self) -> float:
        """Advance all particles by one shared step; returns new time."""
        s = self.system
        tracer = self.tracer
        with tracer.span("step", phase=T_HOST, n=s.n):
            with tracer.span("timestep"):
                dt = self._shared_dt()
            t_new = self.t + dt

            with tracer.span("predict"):
                xp, vp = predict_hermite(t_new, s.t, s.pos, s.vel, s.acc, s.jerk)
            with tracer.span("force", phase=T_PIPE, n_i=s.n):
                self.backend.set_j_particles(xp, vp, s.mass)
                res = self.backend.forces_on(xp, vp, self._all_indices())

            with tracer.span("correct"):
                corr = hermite_correct(
                    np.full(s.n, dt), xp, vp, s.acc, s.jerk, res.acc, res.jerk
                )
                s.pos[...] = corr.pos
                s.vel[...] = corr.vel
                s.acc[...] = res.acc
                s.jerk[...] = res.jerk
                s.snap[...] = corr.snap_end
                s.crackle[...] = corr.crackle
                s.pot[...] = res.pot
                s.t[...] = t_new
                s.dt[...] = dt

        self.t = t_new
        self.stats.steps += 1
        self.stats.particle_steps += s.n
        self.stats.interactions += res.interactions
        return self.t

    def run(self, t_end: float) -> SharedStepStatistics:
        """Integrate until the system time reaches (at least) ``t_end``."""
        guard = 0
        while self.t < t_end:
            self.step()
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - runaway protection
                raise RuntimeError("step-count guard tripped; dt collapsed?")
        return self.stats
