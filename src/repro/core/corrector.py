"""Fourth-order Hermite corrector (Makino & Aarseth 1992).

Given the force and jerk at the beginning of the step (``a0``, ``j0``)
and at the predicted end of the step (``a1``, ``j1``), the two-point
Hermite interpolation yields the 2nd and 3rd derivatives of the
acceleration over the step::

    a2 = [ -6 (a0 - a1) - dt (4 j0 + 2 j1) ] / dt^2
    a3 = [ 12 (a0 - a1) + 6 dt (j0 + j1) ] / dt^3

and the corrected position and velocity are the predicted values plus
the 4th/5th-order correction terms::

    x_c = x_p + dt^4/24 a2 + dt^5/120 a3
    v_c = v_p + dt^3/6  a2 + dt^4/24  a3

The derivatives ``a2`` (evaluated at the end of the step,
``a2_end = a2 + dt a3``) and ``a3`` also feed the Aarseth timestep
criterion (:mod:`repro.core.timestep`).

:func:`hermite_correct` is the reference: the block integrator reaches
it through :func:`repro.core.hermite_tile.advance_block`, whose compiled
tier repeats the expressions below operation for operation (and whose
numpy tier calls this function).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CorrectorResult:
    """Corrected state and reconstructed higher derivatives for a block.

    ``snap_end`` and ``crackle`` are a^(2) and a^(3) evaluated at the
    *end* of the step (a^(3) is constant over the step at this order),
    ready to be stored for the next prediction and for the timestep
    criterion.
    """

    pos: np.ndarray
    vel: np.ndarray
    snap_end: np.ndarray
    crackle: np.ndarray


def hermite_correct(
    dt: np.ndarray,
    xp: np.ndarray,
    vp: np.ndarray,
    a0: np.ndarray,
    j0: np.ndarray,
    a1: np.ndarray,
    j1: np.ndarray,
) -> CorrectorResult:
    """Apply the Hermite corrector to a block of particles.

    Parameters
    ----------
    dt:
        (n,) timesteps of the block particles.
    xp, vp:
        (n, 3) predicted positions/velocities at the end of the step.
    a0, j0:
        (n, 3) acceleration and jerk at the start of the step.
    a1, j1:
        (n, 3) acceleration and jerk evaluated at the predicted state.

    Notes
    -----
    The implementation follows the interpolation form above; with
    ``h = dt`` all divisions are by per-particle scalars, so the routine
    is fully vectorised over the block.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt <= 0.0):
        raise ValueError("corrector requires positive timesteps")
    h = dt[:, None]
    da = a0 - a1
    a2 = (-6.0 * da - h * (4.0 * j0 + 2.0 * j1)) / h**2
    a3 = (12.0 * da + 6.0 * h * (j0 + j1)) / h**3

    vel = vp + (h**3 / 6.0) * a2 + (h**4 / 24.0) * a3
    pos = xp + (h**4 / 24.0) * a2 + (h**5 / 120.0) * a3

    snap_end = a2 + h * a3
    return CorrectorResult(pos=pos, vel=vel, snap_end=snap_end, crackle=a3)
