"""Vectorised pairwise force / jerk / potential kernels.

Implements equations (1)-(3) of the paper::

    a_i    = sum_j G m_j r_ij / (r_ij^2 + eps^2)^{3/2}
    adot_i = sum_j G m_j [ v_ij / (r_ij^2 + eps^2)^{3/2}
                           - 3 (v_ij . r_ij) r_ij / (r_ij^2 + eps^2)^{5/2} ]
    phi_i  = - sum_j G m_j / (r_ij^2 + eps^2)^{1/2}

with ``r_ij = x_j - x_i`` and ``v_ij = v_j - v_i``.

Layout.  The kernel is component-major, like the GRAPE-6 datapath it
stands in for: a fixed set of i-particles is held while the whole j-set
streams past once.  Particle arrays are transposed to ``(3k, n)`` blocks
(x, y, z, vx, vy, vz rows), one broadcast subtract builds the
``(3k, n_i, n_j)`` difference block, the scalars of a pair (``r^2``,
``r.v``, ``1/r``, ``m/r^3``, ``alpha``) are ``(n_i, n_j)`` planes of one
tile buffer updated with ``out=``, and the weighted planes are reduced by
a single ``sum(axis=2)`` over the contiguous j axis.  Every numpy call
handles all components at once: tiny tiles are bound by the number of
calls, big ones by bytes moved.

Working set.  The i-particles are cut into tiles whose whole buffer
(``planes x 8 B x n_j x rows``) fits :data:`TILE_BYTES`, so the ~25
passes over a tile hit cache instead of DRAM.  The tile height is derived
from ``n_j`` alone; there is no knob.

Why no BLAS.  Results are bit-identical across any partition of the
i-particles (rank decompositions, tile heights, execution backends),
because each output row is elementwise IEEE arithmetic on that row
followed by numpy's pairwise summation along a contiguous axis of length
``n_j`` - both independent of how many other rows share the tile.
``dot``/``matmul``/``einsum`` pick their blocking from the operand
shapes and would break that.

Two tiers, one behaviour.  The tile above is the numpy tier
(:func:`numpy_tile_sums`): the reference, and what runs where there is
no C compiler.  Beneath :func:`pairwise_acc_jerk_pot` sits a compiled
tier (``pairwise_tile.c``, built and loaded by :mod:`.compiled`) that
holds one i-particle in registers while the j-set streams past, like the
hardwired pipeline, and is **bitwise identical** to the numpy tier: the
same IEEE operations in the same order per pair, no fused multiply-add,
and the j-sum in numpy's pairwise-summation order.  It is checked against
the numpy tier when it is loaded and refused on any difference, so every
bit-identity pin holds on either tier and nothing selects one:
:data:`KERNEL_TIER` and :data:`KERNEL_TIER_REASON` say which tier serves
this process and why.

Flop accounting follows the paper's convention of 38 ops per force and
19 per jerk (57 total).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..constants import FLOPS_PER_INTERACTION, G_NBODY
from .compiled import TileSums, TileUnavailable, load_pairwise_tile

#: Bytes of pairwise intermediates one i-tile may occupy.  Measured on
#: the claim workloads' tile shapes (EXPERIMENTS.md, "Pairwise kernel"):
#: 256 KiB and 2 MiB are 10-25 % slower, un-tiled 1.5-2x slower.
TILE_BYTES: int = 1 << 20


@dataclass
class ForceJerkResult:
    """Result of a force evaluation on a set of target (i-) particles.

    Attributes
    ----------
    acc:
        (n, 3) accelerations.
    jerk:
        (n, 3) time derivatives of the acceleration.
    pot:
        (n,) potentials (negative, excluding self-interaction).
    interactions:
        Number of pairwise interactions evaluated (for flop accounting).
    """

    acc: np.ndarray
    jerk: np.ndarray
    pot: np.ndarray
    interactions: int

    @property
    def flops(self) -> int:
        """Flops at the paper's 57-op convention (eq. 9)."""
        return self.interactions * FLOPS_PER_INTERACTION


def component_major(*arrays: np.ndarray) -> np.ndarray:
    """Stack ``(n, 3)`` arrays into one contiguous ``(3k, n)`` float64 block."""
    out = np.empty((3 * len(arrays), len(arrays[0])))
    for k, a in enumerate(arrays):
        out[3 * k : 3 * k + 3] = np.asarray(a).T
    return out


def difference_tiles(
    ci: np.ndarray, cj: np.ndarray, scratch: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Cut the i-particles into cache-sized tiles of pairwise differences.

    ``ci`` and ``cj`` are component-major ``(k, n_i)`` / ``(k, n_j)``
    blocks.  Yields ``(rows, buf)`` with ``buf`` a contiguous
    ``(k + scratch, n_rows, n_j)`` buffer whose first ``k`` planes hold
    ``cj - ci[:, rows]`` and whose last ``scratch`` planes are work
    space; reduce planes with ``sum(axis=2)``.  The buffer is local to
    the call and overwritten by the next tile.
    """
    k, n_i = ci.shape
    n_j = cj.shape[1]
    planes = k + scratch
    height = max(1, min(n_i, TILE_BYTES // (8 * planes * max(n_j, 1))))
    flat = np.empty(planes * height * n_j)  # one buffer, reused by every tile
    for lo in range(0, n_i, height):
        rows = slice(lo, min(lo + height, n_i))
        n_rows = rows.stop - lo
        buf = flat[: planes * n_rows * n_j].reshape(planes, n_rows, n_j)
        np.subtract(cj[:, None, :], ci[:, rows, None], out=buf[:k])
        yield rows, buf


def plane_dot(
    a: np.ndarray, b: np.ndarray, tmp: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``a[0] b[0] + a[1] b[1] + a[2] b[2]`` of two 3-plane blocks into the
    plane ``out``; ``tmp`` is a 3-plane scratch block."""
    np.multiply(a, b, out=tmp)
    np.add(tmp[0], tmp[1], out=out)
    out += tmp[2]
    return out


def softened_rinv(
    dx: np.ndarray, tmp: np.ndarray, eps2: float, out: np.ndarray, mask_self: bool
) -> np.ndarray:
    """``1 / sqrt(dx.dx + eps2)`` into the plane ``out`` (``tmp``: 3-plane
    scratch).

    With ``mask_self`` the result is exactly 0 where ``r^2 <= eps2``
    (zero separation): ``r^2`` is set to inf there before the root, so
    nothing is divided by zero, and every weight derived from the result
    (``m/r``, ``m/r^3``, ``alpha``) is exactly 0 for the self pair -
    ``0 * inf`` cannot appear even at ``eps2 = 0``.
    """
    plane_dot(dx, dx, tmp, out)
    out += eps2
    if mask_self:
        np.putmask(out, out <= eps2, np.inf)
    np.sqrt(out, out=out)
    return np.divide(1.0, out, out=out)


def numpy_tile_sums(
    ci: np.ndarray,
    cj: np.ndarray,
    gm: np.ndarray,
    eps2: float,
    mask_self: bool,
    sums: np.ndarray,
) -> None:
    """The numpy tier, and the reference the compiled tier must match bit
    for bit: j-sums of acc(3), jerk(3) and ``m/r`` into ``sums`` ``(7, n_i)``
    from component-major targets ``ci`` ``(6, n_i)``, sources ``cj``
    ``(6, n_j)`` and ``gm = G m_j``."""
    for rows, buf in difference_tiles(ci, cj, scratch=7):
        dx, dv, mrinv, tmp = buf[:3], buf[3:6], buf[6], buf[7:10]
        alpha, rinv2, mrinv3 = buf[10], buf[11], buf[12]
        rinv = softened_rinv(dx, tmp, eps2, mrinv, mask_self)
        plane_dot(dx, dv, tmp, alpha)  # r.v
        np.multiply(rinv, rinv, out=rinv2)
        mrinv *= gm  # rinv -> m/r, the potential plane
        np.multiply(mrinv, rinv2, out=mrinv3)
        alpha *= 3.0
        alpha *= rinv2  # 3 (v.r) / r^2 -- the alpha factor of the jerk (eq. 2)
        np.multiply(mrinv3, alpha, out=rinv2)
        np.multiply(dx, rinv2, out=tmp)
        dv *= mrinv3
        dv -= tmp
        dx *= mrinv3
        sums[:, rows] = buf[:7].sum(axis=2)


def resolve_kernel_tier() -> tuple[TileSums, str, str]:
    """``(tile, KERNEL_TIER, KERNEL_TIER_REASON)``: the compiled tile if it
    can be built, loaded and matches :func:`numpy_tile_sums` bitwise,
    else the numpy tile and why.  There is nothing to configure.

    This runs at import, so nothing the loader meets may escape it: a
    platform it did not foresee (no home directory, no ``os.getuid``)
    is one more reason for the numpy tier, not a package that cannot be
    imported."""
    try:
        tile, built = load_pairwise_tile(numpy_tile_sums)
    except TileUnavailable as exc:
        return numpy_tile_sums, "numpy", str(exc)
    except Exception as exc:
        return numpy_tile_sums, "numpy", f"loader failed: {exc!r}"
    return tile, "c", built


#: Which tier serves :func:`pairwise_acc_jerk_pot` in this process (``"c"``
#: or ``"numpy"``) and why.  Resolved once, at import, so that no build,
#: ``dlopen`` or self-check falls inside anything a caller times and
#: forked pool workers inherit the loaded library.  The tiers differ in
#: speed only; every bit of every result is the same.
_tile_sums, KERNEL_TIER, KERNEL_TIER_REASON = resolve_kernel_tier()


def pairwise_acc_jerk_pot(
    xi: np.ndarray,
    vi: np.ndarray,
    xj: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    eps2: float,
    exclude_self: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation of eqs. (1)-(3) on targets i from sources j.

    Parameters
    ----------
    xi, vi:
        (n_i, 3) positions and velocities of the particles receiving the
        force.
    xj, vj, mj:
        (n_j, 3) positions, velocities and (n_j,) masses of the sources.
    eps2:
        Square of the softening length (eps^2 in the equations).
    exclude_self:
        If True, zero-distance pairs are excluded from the sums, which
        implements self-interaction removal when the i-set is a subset
        of the j-set.  With softening, a zero-distance pair would not be
        singular but would still contribute a spurious self-potential.

    Returns
    -------
    acc (n_i, 3), jerk (n_i, 3), pot (n_i,).  Each row depends only on
    that target and on the j-set: any row subset or partition of the
    targets gives bitwise the same rows.
    """
    ci = component_major(xi, vi)
    cj = component_major(xj, vj)
    gm = G_NBODY * np.asarray(mj, dtype=np.float64)
    if gm.shape != (cj.shape[1],):
        raise ValueError(f"mj has shape {gm.shape}, want ({cj.shape[1]},)")
    sums = np.empty((7, ci.shape[1]))  # j-sums of acc(3), jerk(3), m/r
    _tile_sums(ci, cj, gm, float(eps2), bool(exclude_self), sums)
    acc = np.ascontiguousarray(sums[:3].T)
    jerk = np.ascontiguousarray(sums[3:6].T)
    return acc, jerk, -sums[6]


def acc_jerk_pot_on_targets(
    xi: np.ndarray,
    vi: np.ndarray,
    xj: np.ndarray,
    vj: np.ndarray,
    mj: np.ndarray,
    eps2: float,
    exclude_self: bool = False,
) -> ForceJerkResult:
    """Forces on arbitrary targets from arbitrary sources, with the
    interaction count the flop accounting needs.

    The kernel holds a cache-sized tile of i-particles while all
    j-particles stream past, which mirrors the GRAPE-6 execution model:
    the hardware processes i-particles 48-at-a-time while streaming all
    j-particles from the on-board memories.
    """
    acc, jerk, pot = pairwise_acc_jerk_pot(
        xi, vi, xj, vj, mj, eps2, exclude_self=exclude_self
    )
    n_i = acc.shape[0]
    interactions = n_i * len(mj) - (n_i if exclude_self else 0)
    return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)


def potential_energy(x: np.ndarray, m: np.ndarray, eps2: float) -> float:
    """Total (softened) potential energy ``U = 1/2 sum_i m_i phi_i``.

    Uses the same pairwise softening as the force kernel so that the
    energy-conservation diagnostics are consistent with the dynamics.
    """
    cx = component_major(x)
    m = np.asarray(m, dtype=np.float64)
    gm = G_NBODY * m
    u = 0.0
    for rows, buf in difference_tiles(cx, cx, scratch=4):
        mrinv = softened_rinv(buf[:3], buf[3:6], eps2, buf[6], mask_self=True)
        mrinv *= gm
        u -= 0.5 * float(np.sum(m[rows] * mrinv.sum(axis=1)))
    return u


def kinetic_energy(v: np.ndarray, m: np.ndarray) -> float:
    """Total kinetic energy ``T = 1/2 sum_i m_i v_i^2``."""
    return float(0.5 * np.sum(m * np.einsum("ij,ij->i", v, v)))
