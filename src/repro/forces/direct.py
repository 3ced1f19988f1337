"""Direct-summation force backend and the backend protocol.

The integrators in :mod:`repro.core` are written against the small
:class:`ForceBackend` protocol so the same Hermite scheme can run on

* :class:`DirectSummation` — float64 numpy (this module),
* :class:`repro.forces.grape_api.Grape6Library` — the GRAPE-6 host
  library facade (numpy- or emulator-backed),
* :class:`repro.parallel` drivers — the simulated parallel machines.

This mirrors the structure of real GRAPE codes, where the force loop
behind ``calculate_force()`` may be the host CPU or the hardware.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..constants import G_NBODY
from ..core.hermite_tile import predict_j_set
from . import kernels
from .kernels import ForceJerkResult, ResidentSet


class ForceBackend(Protocol):
    """Minimal interface the integrators need from a force engine."""

    def set_j_particles(
        self, x: np.ndarray, v: np.ndarray, m: np.ndarray
    ) -> None:
        """Load the full source-particle set (positions at their own times
        are handled by the caller; the backend receives predicted data)."""
        ...

    def forces_on(
        self, xi: np.ndarray, vi: np.ndarray, indices: np.ndarray | None
    ) -> ForceJerkResult:
        """Evaluate acc/jerk/pot on the given targets from the loaded
        j-set.  ``indices`` gives the j-indices of the targets when the
        targets are a subset of the sources (for self-exclusion); None
        means the targets are external to the j-set."""
        ...


class DirectSummation:
    """Reference O(N^2) backend: float64, one i-particle at a time against
    a resident j-set.

    The j-set lives here, in the tile's component-major layout with
    ``G m`` beside it (:class:`~repro.forces.kernels.ResidentSet`).
    :meth:`set_j_particles` copies a predicted set in; :meth:`predict_j`
    predicts a particle system into it itself, as GRAPE-6's predictor
    pipelines do (eqs. 6-7), so a blockstep hands over only its block.

    Parameters
    ----------
    eps2:
        Softening length squared.
    """

    def __init__(self, eps2: float) -> None:
        if eps2 < 0.0:
            raise ValueError("eps2 must be non-negative")
        self.eps2 = float(eps2)
        self._j: ResidentSet | None = None
        #: Cumulative pairwise interactions evaluated (flop accounting).
        self.interaction_count: int = 0

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Copy the (n, 3) positions and velocities and (n,) masses in: a
        later change to the caller's arrays is not seen until the next
        load."""
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        if x.shape != v.shape or x.shape[0] != m.shape[0] or x.ndim != 2 or x.shape[1] != 3:
            raise ValueError("inconsistent j-particle array shapes")
        if m.ndim != 1:
            raise ValueError(f"mj has shape {m.shape}, want ({x.shape[0]},)")
        j_set = self._j
        if j_set is None or j_set.n != len(m):
            j_set = self._j = ResidentSet(len(m))
        j_set.load(x, v, m)

    def predict_j(self, t: float, system, xp: np.ndarray, vp: np.ndarray,
                  block: np.ndarray) -> None:
        """Predict every particle of ``system`` to ``t`` into the j-set
        (eqs. 6-7 through the jerk term,
        :func:`~repro.core.hermite_tile.predict_j_set`: the bits of
        :func:`~repro.core.hermite_tile.predict_hermite`), with ``G m``
        beside it, and the rows ``block`` of the (N, 3) predictions
        ``xp``, ``vp``; their other rows are left as they were.  The
        forces on the block are then ``forces_on(None, None, block)``."""
        s, j_set = system, self._j
        if j_set is None or j_set.n != s.n:
            j_set = self._j = ResidentSet(s.n)
        predict_j_set(t, s.t, s.pos, s.vel, s.acc, s.jerk, j_set.cj, xp, vp, block)
        np.multiply(G_NBODY, s.mass, out=j_set.gm)

    @property
    def n_j(self) -> int:
        return 0 if self._j is None else self._j.n

    def forces_on(
        self,
        xi: np.ndarray | None,
        vi: np.ndarray | None,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Forces on targets ``xi``, ``vi`` (n_i, 3), or, with ``xi`` and
        ``vi`` None, on the j-set's own particles ``indices`` (as
        :meth:`predict_j` left them); with ``indices`` given the targets
        are among the sources and the self pair is left out."""
        j_set = self._j
        if j_set is None:
            raise RuntimeError("set_j_particles() must be called before forces_on()")
        if xi is None and indices is None:
            raise ValueError("forces_on(None, None, indices) needs the indices")
        exclude_self = indices is not None
        acc, jerk, pot = kernels._tier.forces(j_set, xi, vi, indices, self.eps2, exclude_self)
        n_i = len(pot)
        interactions = n_i * j_set.n - (n_i if exclude_self else 0)
        self.interaction_count += interactions
        return ForceJerkResult(acc, jerk, pot, interactions)
