"""Pairwise force kernels with second derivatives (snap) — the
6th-order Hermite substrate.

The GRAPE lineage's next step after the paper (GRAPE-DR-era codes,
Nitadori & Makino 2008) moved to 6th-order Hermite integration, which
needs the *second* time derivative of the pairwise acceleration::

    a_ij    = m r / R^3
    adot_ij = m [ v/R^3 ]           - 3 alpha a_ij
    a2_ij   = m [ (a_j - a_i)/R^3 ] - 6 alpha adot_ij - 3 beta a_ij

with R^2 = r^2 + eps^2, alpha = (r.v)/R^2 and
beta = (v^2 + r.(a_j - a_i))/R^2 + alpha^2 (r, v the relative position
and velocity).  The snap term needs the Newtonian accelerations of both
partners, so the evaluation is two-pass: accelerations first, then the
snap sweep using them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import G_NBODY
from .kernels import (
    acc_jerk_pot_on_targets,
    component_major,
    difference_tiles,
    plane_dot,
    softened_rinv,
)


@dataclass
class SnapResult:
    """Acc, jerk, snap and potential on a set of particles."""

    acc: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    pot: np.ndarray
    interactions: int


def acc_jerk_snap_all(
    x: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    eps2: float,
) -> SnapResult:
    """Two-pass all-pairs evaluation of acc, jerk, snap and potential.

    Pass 1 computes Newtonian accelerations (float64 direct sum); pass 2
    uses them for the relative-acceleration term of the snap.  With
    ``b = (v^2 + r.(a_j - a_i))/R^2`` (so ``beta = b + alpha^2``) the
    pair term collapses to
    ``a2_ij = m/R^3 [da - 6 alpha dv + (15 alpha^2 - 3 b) dr]``, which
    pass 2 evaluates on the force kernel's component-major i-tiles.
    """
    first = acc_jerk_pot_on_targets(x, v, x, v, m, eps2, exclude_self=True)

    c = component_major(x, v, first.acc)
    gm = G_NBODY * np.asarray(m, dtype=np.float64)
    snap = np.empty((3, c.shape[1]))
    for rows, buf in difference_tiles(c, c, scratch=8):
        dx, dv, da, tmp = buf[:3], buf[3:6], buf[6:9], buf[9:12]
        rinv2, mrinv3, alpha, b, w = buf[12:]
        rinv = softened_rinv(dx, tmp, eps2, mrinv3, mask_self=True)
        np.multiply(rinv, rinv, out=rinv2)
        mrinv3 *= rinv2
        mrinv3 *= gm
        plane_dot(dx, dv, tmp, alpha)
        alpha *= rinv2
        plane_dot(dv, dv, tmp, b)
        b += plane_dot(dx, da, tmp, w)
        b *= rinv2
        b *= 3.0
        np.multiply(alpha, alpha, out=w)
        w *= 15.0
        w -= b
        w *= mrinv3  # coefficient of dr
        alpha *= mrinv3
        alpha *= -6.0  # coefficient of dv
        da *= mrinv3
        dv *= alpha
        da += dv
        dx *= w
        da += dx
        snap[:, rows] = da.sum(axis=2)

    return SnapResult(
        acc=first.acc,
        jerk=first.jerk,
        snap=np.ascontiguousarray(snap.T),
        pot=first.pot,
        interactions=first.interactions * 2,
    )
