"""Ahmad-Cohen neighbour scheme with the Hermite integrator.

This is the algorithm of the paper's reference [10] (Makino & Aarseth
1992, "On a Hermite integrator with Ahmad-Cohen scheme"), the standard
production scheme of collisional N-body codes and the workload the
GRAPE series was designed around: the *regular* force from distant
particles changes slowly and is recomputed rarely (on GRAPE), while the
*irregular* force from a small neighbour sphere is updated every
(short) step.

Force split, per particle::

    a = a_irr(neighbours)  +  a_reg(everything else)

* irregular steps advance the particle with freshly evaluated
  neighbour forces plus the regular force *extrapolated* by its own
  polynomial;
* regular steps (every dt_reg, a power-of-two multiple of the
  irregular step) evaluate the full force, refresh the regular
  polynomial, and rebuild the neighbour list.

The Hermite corrector at a regular step uses the full force, so the
integration accuracy is unaffected by how the split is bookkept; the
scheme's benefit is that full O(N) force sums happen only at regular
steps — the cost ratio tests assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..forces.kernels import acc_jerk_pot_on_targets, pairwise_acc_jerk_pot
from .corrector import hermite_correct
from .neighbors import NeighborLists
from .particles import ParticleSystem
from .predictor import predict_hermite
from .scheduler import BlockScheduler
from .timestep import (
    DEFAULT_ETA,
    DEFAULT_ETA_START,
    aarseth_dt,
    initial_dt,
    quantize_block_dt,
)


@dataclass
class ACStatistics:
    """Work counters of an Ahmad-Cohen run."""

    irregular_steps: int = 0
    regular_steps: int = 0
    blocksteps: int = 0
    #: Pairwise interactions in neighbour (irregular) sums.
    irregular_interactions: int = 0
    #: Pairwise interactions in full-force (regular) sums.
    regular_interactions: int = 0

    @property
    def interactions(self) -> int:
        return self.irregular_interactions + self.regular_interactions

    @property
    def regular_fraction(self) -> float:
        """Fraction of particle-steps that needed a full force sum."""
        total = self.irregular_steps + self.regular_steps
        return self.regular_steps / total if total else 0.0


class AhmadCohenIntegrator:
    """Hermite integrator with the Ahmad-Cohen regular/irregular split.

    Parameters
    ----------
    system:
        Particle state, integrated in place.
    eps2:
        Softening squared.
    eta_irr, eta_reg:
        Aarseth accuracy parameters for the irregular and regular
        steps (the regular force is smoother; a larger eta is safe).
    neighbor_target:
        Neighbours per particle the radius controller aims for.
    dt_max:
        Cap on both step hierarchies.
    """

    def __init__(
        self,
        system: ParticleSystem,
        eps2: float,
        eta_irr: float = DEFAULT_ETA,
        eta_reg: float = 0.05,
        neighbor_target: int = 10,
        dt_max: float = 0.125,
        dt_min: float = 2.0**-40,
    ) -> None:
        self.system = system
        self.eps2 = float(eps2)
        self.eta_irr = float(eta_irr)
        self.eta_reg = float(eta_reg)
        self.dt_max = float(dt_max)
        self.dt_min = float(dt_min)
        self.t = 0.0
        self.stats = ACStatistics()

        n = system.n
        self.neighbors = NeighborLists(n, target=neighbor_target,
                                       r_initial=self._initial_radius())
        # regular-force polynomial per particle
        self.a_reg = np.zeros((n, 3))
        self.j_reg = np.zeros((n, 3))
        self.t_reg = np.zeros(n)
        self.dt_reg = np.zeros(n)
        # irregular force at the particle's own time
        self.a_irr = np.zeros((n, 3))
        self.j_irr = np.zeros((n, 3))

        self._xp = np.empty_like(system.pos)
        self._vp = np.empty_like(system.vel)

        self._initialize()
        self.scheduler = BlockScheduler(system.t, system.dt)

    # -- setup -----------------------------------------------------------------

    def _initial_radius(self) -> float:
        """Starting neighbour radius ~ the interparticle spacing scaled
        to enclose the target count in a Heggie-unit system (the radius
        controller refines it from here)."""
        return 0.5

    def _initialize(self) -> None:
        s = self.system
        n = s.n
        full = acc_jerk_pot_on_targets(
            s.pos, s.vel, s.pos, s.vel, s.mass, self.eps2, exclude_self=True
        )
        self.stats.regular_interactions += full.interactions
        s.pot[...] = full.pot

        self.neighbors.rebuild_all(s.pos)
        for i in range(n):
            a_i, j_i = self._irregular_force_single(i, s.pos, s.vel)
            self.a_irr[i] = a_i
            self.j_irr[i] = j_i
        self.a_reg[...] = full.acc - self.a_irr
        self.j_reg[...] = full.jerk - self.j_irr
        # total polynomial used to predict this particle as a source
        s.acc[...] = full.acc
        s.jerk[...] = full.jerk

        dt0 = initial_dt(full.acc, full.jerk, DEFAULT_ETA_START)
        s.dt[...] = quantize_block_dt(dt0, 0.0, None, dt_max=self.dt_max,
                                      dt_min=self.dt_min)
        s.t[...] = 0.0
        self.t_reg[...] = 0.0
        # regular steps start a few octaves above the irregular ones
        self.dt_reg[...] = np.minimum(4.0 * s.dt, self.dt_max)

    # -- force helpers -----------------------------------------------------------

    def _irregular_force_single(
        self, i: int, xp: np.ndarray, vp: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour-sum force on one particle at predicted coordinates."""
        nb = self.neighbors.of(i)
        if nb.size == 0:
            return np.zeros(3), np.zeros(3)
        acc, jerk, _ = pairwise_acc_jerk_pot(
            xp[i : i + 1],
            vp[i : i + 1],
            xp[nb],
            vp[nb],
            self.system.mass[nb],
            self.eps2,
        )
        self.stats.irregular_interactions += nb.size
        return acc[0], jerk[0]

    def _reg_prediction(self, i: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Regular force and jerk extrapolated to time t for particles i."""
        dt = (t - self.t_reg[i])[:, None]
        return self.a_reg[i] + dt * self.j_reg[i], self.j_reg[i]

    # -- stepping ------------------------------------------------------------------

    def step(self) -> tuple[float, int]:
        """Advance one (irregular) blockstep; regular steps fire for the
        particles whose regular time comes due at this block time."""
        s = self.system
        t_block, block = self.scheduler.next_block()

        xp, vp = predict_hermite(
            t_block, s.t, s.pos, s.vel, s.acc, s.jerk, self._xp, self._vp
        )

        dt_block = t_block - s.t[block]
        # block times are sums of powers of two: exact comparison
        reg_due = t_block >= self.t_reg[block] + self.dt_reg[block]

        # combined old force at the start of each particle's step
        dt_old = (s.t[block] - self.t_reg[block])[:, None]
        a_reg_old = self.a_reg[block] + dt_old * self.j_reg[block]
        j_reg_old = self.j_reg[block]
        a0 = self.a_irr[block] + a_reg_old
        j0 = self.j_irr[block] + j_reg_old

        # new irregular forces (current neighbour lists, predicted coords)
        a_irr_new = np.empty((block.size, 3))
        j_irr_new = np.empty((block.size, 3))
        for row, i in enumerate(block):
            a_irr_new[row], j_irr_new[row] = self._irregular_force_single(int(i), xp, vp)

        a1 = np.empty((block.size, 3))
        j1 = np.empty((block.size, 3))

        # regular-step particles: full force, refreshed polynomial
        reg_rows = np.flatnonzero(reg_due)
        if reg_rows.size:
            gi = block[reg_rows]
            full = acc_jerk_pot_on_targets(
                xp[gi], vp[gi], xp, vp, s.mass, self.eps2, exclude_self=True
            )
            self.stats.regular_interactions += full.interactions
            a1[reg_rows] = full.acc
            j1[reg_rows] = full.jerk
            s.pot[gi] = full.pot

        # irregular-only particles: extrapolated regular + new irregular
        irr_rows = np.flatnonzero(~reg_due)
        if irr_rows.size:
            gi = block[irr_rows]
            a_reg_now, j_reg_now = self._reg_prediction(gi, t_block)
            a1[irr_rows] = a_irr_new[irr_rows] + a_reg_now
            j1[irr_rows] = j_irr_new[irr_rows] + j_reg_now

        corr = hermite_correct(dt_block, xp[block], vp[block], a0, j0, a1, j1)
        s.pos[block] = corr.pos
        s.vel[block] = corr.vel
        s.acc[block] = a1
        s.jerk[block] = j1
        s.snap[block] = corr.snap_end
        s.crackle[block] = corr.crackle
        s.t[block] = t_block
        self.a_irr[block] = a_irr_new
        self.j_irr[block] = j_irr_new

        # regular bookkeeping: new split, neighbour rebuild, new dt_reg
        if reg_rows.size:
            for row in reg_rows:
                i = int(block[row])
                dt_r = t_block - self.t_reg[i]
                a_reg_new = a1[row] - a_irr_new[row]
                j_reg_new = j1[row] - j_irr_new[row]
                # reconstruct regular snap/crackle over the regular step
                da = self.a_reg[i] - a_reg_new
                s2 = (-6.0 * da - dt_r * (4.0 * self.j_reg[i] + 2.0 * j_reg_new)) / dt_r**2
                s3 = (12.0 * da + 6.0 * dt_r * (self.j_reg[i] + j_reg_new)) / dt_r**3
                dt_reg_ideal = aarseth_dt(
                    a_reg_new[None], j_reg_new[None], s2[None], s3[None], self.eta_reg
                )[0]

                # rebuild the neighbour sphere at the predicted positions
                self.neighbors.rebuild(i, xp)
                a_i, j_i = self._irregular_force_single(i, xp, vp)
                self.a_irr[i] = a_i
                self.j_irr[i] = j_i
                self.a_reg[i] = a1[row] - a_i
                self.j_reg[i] = j1[row] - j_i
                self.t_reg[i] = t_block
                new_dt_reg = quantize_block_dt(
                    np.array([dt_reg_ideal]),
                    t_block,
                    dt_old=np.array([dt_r]),
                    dt_max=self.dt_max,
                    dt_min=self.dt_min,
                )[0]
                self.dt_reg[i] = new_dt_reg
            self.stats.regular_steps += reg_rows.size

        # new irregular steps from the combined derivatives
        dt_ideal = aarseth_dt(a1, j1, corr.snap_end, corr.crackle, self.eta_irr)
        dt_new = quantize_block_dt(
            dt_ideal,
            t_block,
            dt_old=np.asarray(dt_block),
            dt_max=self.dt_max,
            dt_min=self.dt_min,
        )
        # an irregular step may never outrun the regular schedule
        dt_new = np.minimum(dt_new, self.dt_reg[block])
        # and dt_reg must stay a power-of-two multiple: both are powers
        # of two and dt_new <= dt_reg, so divisibility holds
        s.dt[block] = dt_new
        self.scheduler.update(block, t_block, dt_new)

        self.t = t_block
        self.stats.blocksteps += 1
        self.stats.irregular_steps += int(irr_rows.size)
        return t_block, int(block.size)

    def run(self, t_end: float, max_blocksteps: int | None = None) -> ACStatistics:
        """Integrate until the earliest pending block time passes t_end."""
        steps = 0
        while True:
            if self.scheduler.next_time() > t_end:
                break
            self.step()
            steps += 1
            if max_blocksteps is not None and steps >= max_blocksteps:
                break
        return self.stats

    def synchronize(self, t_sync: float | None = None) -> ParticleSystem:
        """All particles predicted to a common time (see the plain
        block integrator)."""
        from .predictor import predict_taylor

        s = self.system
        if t_sync is None:
            t_sync = float(s.t.max())
        out = s.copy()
        xp, vp = predict_taylor(
            t_sync, s.t, s.pos, s.vel, s.acc, s.jerk, s.snap, s.crackle
        )
        out.pos[...] = xp
        out.vel[...] = vp
        out.t[...] = t_sync
        return out
