"""Predictor polynomials (paper, eqs. 6-7).

On GRAPE-6 the predictor runs in hardware: the predictor pipeline on
each chip extrapolates the stored j-particles to the current system
time before they enter the force pipeline.  Equations (6)-(7) of the
paper are Taylor expansions around each particle's own time ``t_0``
including the second derivative of the acceleration (``a^(2)``, the
"snap"), which the host uploads together with position, velocity,
acceleration and jerk::

    x_p = x_0 + dt v_0 + dt^2/2 a_0 + dt^3/6 adot_0 - dt^4/24 a2_0
    v_p = v_0 + dt a_0 + dt^2/2 adot_0 + dt^3/6 a2_0

(The sign of the quartic term follows the paper's eq. 6 verbatim; it
reflects the convention in which the stored a^(2) coefficient is the
corrector's backward-difference estimate.  The plain Hermite scheme
truncates both expansions after the jerk term, which is what
``predict_hermite`` implements; ``predict_with_snap`` keeps the higher
terms like the hardware.)

All functions are vectorised over particles and allocate nothing when
given ``out`` buffers.  ``predict_hermite`` is the one every integrator
calls once per blockstep, so it is one of the two entry points of the
compiled Hermite tile: it lives, with its numpy reference, in
:mod:`repro.core.hermite_tile` and is re-exported here.
"""

from __future__ import annotations

import numpy as np

from .hermite_tile import predict_hermite

__all__ = ["predict_hermite", "predict_with_snap", "predict_taylor"]


def predict_with_snap(
    t_now: float,
    t0: np.ndarray,
    x0: np.ndarray,
    v0: np.ndarray,
    a0: np.ndarray,
    j0: np.ndarray,
    s0: np.ndarray,
    out_x: np.ndarray | None = None,
    out_v: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hardware-style predictor keeping the a^(2) (snap) terms, eqs. (6)-(7).

    The position expansion carries ``- dt^4/24 s0`` with the paper's
    sign convention and the velocity expansion ``+ dt^3/6 s0``.
    """
    dt = (t_now - t0)[:, None]
    if out_x is None:
        out_x = np.empty_like(x0)
    if out_v is None:
        out_v = np.empty_like(v0)
    # x: (((-s*dt/24 + j/6)*dt + a/2)*dt + v)*dt + x
    np.multiply(s0, -dt / 24.0, out=out_x)
    out_x += j0 / 6.0
    out_x *= dt
    out_x += 0.5 * a0
    out_x *= dt
    out_x += v0
    out_x *= dt
    out_x += x0

    # v: ((s*dt/6 + j/2)*dt + a)*dt + v
    np.multiply(s0, dt / 6.0, out=out_v)
    out_v += 0.5 * j0
    out_v *= dt
    out_v += a0
    out_v *= dt
    out_v += v0
    return out_x, out_v


def predict_taylor(
    t_now: float,
    t0: np.ndarray,
    x0: np.ndarray,
    v0: np.ndarray,
    a0: np.ndarray,
    j0: np.ndarray,
    s0: np.ndarray,
    c0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Taylor prediction through the crackle (a^(3)) term.

    Unlike :func:`predict_with_snap`, which reproduces the paper's
    hardware-convention signs verbatim, this is the mathematically
    standard expansion; it is used to synchronise all particles to a
    common time at the integrator's full order (for energy checks and
    snapshots).
    """
    dt = (t_now - t0)[:, None]
    xp = (
        x0
        + dt * v0
        + (dt**2 / 2.0) * a0
        + (dt**3 / 6.0) * j0
        + (dt**4 / 24.0) * s0
        + (dt**5 / 120.0) * c0
    )
    vp = (
        v0
        + dt * a0
        + (dt**2 / 2.0) * j0
        + (dt**3 / 6.0) * s0
        + (dt**4 / 24.0) * c0
    )
    return xp, vp
