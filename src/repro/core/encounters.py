"""Close-encounter detection and accretional merging.

The paper's first production application (section 5; Kokubo et al.'s
planetesimal runs) follows *accretion*: planetesimals that touch merge
into larger bodies.  This module supplies the two pieces GRAPE hosts
implement for that workload:

* :func:`find_collisions` — detect overlapping pairs in the current
  block (the host checks only freshly-updated particles, exactly as the
  production codes do);
* :func:`merge_particles` — perfect-accretion merger: mass and momentum
  conserved, position/velocity at the centre of mass;
* :class:`AccretionSimulation` — a driver that runs the block-timestep
  integrator, merging on contact and rebuilding the integrator (the
  particle count changes, so the schedule is rebuilt from the merged
  state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .individual import BlockTimestepIntegrator
from .particles import ParticleSystem


def find_collisions(
    pos: np.ndarray,
    radii: np.ndarray,
    candidates: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Overlapping pairs (i < j), optionally restricted to pairs with at
    least one member in ``candidates``.

    Contact criterion: |x_i - x_j| < r_i + r_j.
    """
    n = pos.shape[0]
    if candidates is None:
        candidates = np.arange(n)
    pairs: set[tuple[int, int]] = set()
    for i in np.asarray(candidates):
        dx = pos - pos[i]
        d2 = np.einsum("ij,ij->i", dx, dx)
        limit = (radii + radii[i]) ** 2
        hits = np.flatnonzero(d2 < limit)
        for j in hits:
            if j != i:
                pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pairs)


def merge_particles(
    system: ParticleSystem, radii: np.ndarray, i: int, j: int
) -> tuple[ParticleSystem, np.ndarray]:
    """Perfect accretion of particles i and j.

    Returns a new (n-1)-particle system and the new radius array: the
    merger sits at the pair's barycentre with the combined momentum;
    the merged radius preserves volume (r^3 additive).
    """
    if i == j:
        raise ValueError("cannot merge a particle with itself")
    i, j = min(i, j), max(i, j)
    m = system.mass
    m_new = m[i] + m[j]
    if m_new <= 0:
        raise ValueError("merging massless particles")
    x_new = (m[i] * system.pos[i] + m[j] * system.pos[j]) / m_new
    v_new = (m[i] * system.vel[i] + m[j] * system.vel[j]) / m_new
    r_new = (radii[i] ** 3 + radii[j] ** 3) ** (1.0 / 3.0)

    keep = np.ones(system.n, dtype=bool)
    keep[j] = False
    mass = m[keep].copy()
    pos = system.pos[keep].copy()
    vel = system.vel[keep].copy()
    new_radii = radii[keep].copy()
    mass[i] = m_new
    pos[i] = x_new
    vel[i] = v_new
    new_radii[i] = r_new
    return ParticleSystem(mass, pos, vel), new_radii


@dataclass
class AccretionEvent:
    """Record of one merger."""

    t: float
    mass: float
    survivor_count: int


@dataclass
class AccretionStats:
    mergers: int = 0
    events: list[AccretionEvent] = field(default_factory=list)


class AccretionSimulation:
    """Block-timestep integration with perfect accretion on contact.

    Parameters
    ----------
    system:
        Initial particles.
    radii:
        Physical radii (collision cross-sections), same length as the
        system.
    eps2:
        Softening squared (should be << the radii for meaningful
        collisions).
    check_interval:
        Collision checks run every this many blocksteps (checking every
        step is exact but costs an O(n_b N) scan; production codes
        amortise the same way).
    integrator_kwargs:
        Forwarded to :class:`BlockTimestepIntegrator`.
    """

    def __init__(
        self,
        system: ParticleSystem,
        radii: np.ndarray,
        eps2: float,
        check_interval: int = 1,
        **integrator_kwargs,
    ) -> None:
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (system.n,):
            raise ValueError("one radius per particle required")
        if np.any(radii < 0):
            raise ValueError("negative radius")
        self.system = system
        self.radii = radii.copy()
        self.eps2 = float(eps2)
        self.check_interval = max(1, int(check_interval))
        self.integrator_kwargs = integrator_kwargs
        self.stats = AccretionStats()
        self.t = 0.0
        #: Simulation time at which the current integrator's clock
        #: started (mergers rebuild the integrator with a fresh clock).
        self._t_offset = 0.0
        self._integ = BlockTimestepIntegrator(system, eps2, **integrator_kwargs)

    def run(self, t_end: float, max_blocksteps: int | None = None) -> AccretionStats:
        """Integrate with collision handling until ``t_end`` of total
        simulation time (merger clock restarts included)."""
        steps = 0
        while True:
            if self._t_offset + self._integ.scheduler.next_time() > t_end:
                break
            t_block, _ = self._integ.step()
            self.t = self._t_offset + t_block
            steps += 1
            if steps % self.check_interval == 0:
                self._handle_collisions(self.t)
            if max_blocksteps is not None and steps >= max_blocksteps:
                break
        return self.stats

    def _handle_collisions(self, t_block: float) -> None:
        while True:
            pairs = find_collisions(self.system.pos, self.radii)
            if not pairs:
                return
            i, j = pairs[0]
            merged, new_radii = merge_particles(self.system, self.radii, i, j)
            self.system = merged
            self.radii = new_radii
            self.stats.mergers += 1
            self.stats.events.append(
                AccretionEvent(t=t_block, mass=float(merged.mass[i]),
                               survivor_count=merged.n)
            )
            # particle count changed: rebuild the integrator/schedule;
            # its clock restarts at zero, so advance the global offset
            self._t_offset = t_block
            self.system.t[...] = 0.0
            self._integ = BlockTimestepIntegrator(
                self.system, self.eps2, **self.integrator_kwargs
            )

    @property
    def n(self) -> int:
        return self.system.n
