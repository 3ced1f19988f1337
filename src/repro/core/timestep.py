"""Timestep criteria and block (power-of-two) quantisation.

Individual timesteps are the reason GRAPE-class machines exist: orbital
timescales in a collisional system span many orders of magnitude, so a
shared timestep wastes a factor >100 of work (section 5 of the paper
makes exactly this argument against shared-timestep treecodes).

Two ingredients:

* the **Aarseth criterion** for the continuous "ideal" timestep,

      dt = sqrt( eta * (|a| |a2| + |j|^2) / (|j| |a3| + |a2|^2) )

  with ``a2``/``a3`` from the Hermite corrector;

* the **block quantisation**: timesteps are rounded down to powers of
  two (dt = 2^-k) and a particle's time must stay commensurable with
  its step (t must be a multiple of dt).  A step may shrink at any
  block boundary, but may at most double, and only when the current
  time is a multiple of the doubled step.  This makes "blocks" of
  particles share the same update time, which is what the GRAPE
  hardware parallelises over.
"""

from __future__ import annotations

import numpy as np

#: Default accuracy parameter of the Aarseth criterion.
DEFAULT_ETA: float = 0.02

#: Default initial-step accuracy parameter (more conservative, applied
#: to the |a|/|j| estimate available before the first corrector pass).
DEFAULT_ETA_START: float = 0.01


class NonFiniteForce(ValueError):
    """A block particle's force is not finite.

    The criterion of such a particle is NaN, which the quantisation would
    turn into the *longest* legal step (``frexp(nan)`` has exponent 0, so
    the floor is 0.5 and the one-doubling rule makes it ``2 dt_old``) and
    the run would continue on garbage.  :func:`repro.core.hermite_tile
    .advance_block` raises this instead, before it writes anything;
    ``particle`` is the system index and ``blockstep`` the ordinal of
    the blockstep, where the caller gave one.
    """

    def __init__(
        self, message: str, particle: int | None = None, blockstep: int | None = None
    ) -> None:
        super().__init__(message)
        self.particle = particle
        self.blockstep = blockstep


def aarseth_dt(
    acc: np.ndarray,
    jerk: np.ndarray,
    snap: np.ndarray,
    crackle: np.ndarray,
    eta: float = DEFAULT_ETA,
) -> np.ndarray:
    """Aarseth timestep for a block of particles, vectorised.

    A tiny floor is applied to the denominator so that particles with
    momentarily vanishing higher derivatives (e.g. perfectly symmetric
    configurations) get a large but finite step rather than inf/nan.
    """
    a = np.linalg.norm(acc, axis=-1)
    j = np.linalg.norm(jerk, axis=-1)
    s = np.linalg.norm(snap, axis=-1)
    c = np.linalg.norm(crackle, axis=-1)
    num = a * s + j * j
    den = j * c + s * s
    tiny = np.finfo(np.float64).tiny
    dt = np.sqrt(eta * (num + tiny) / (den + tiny))
    return np.asarray(dt)


def initial_dt(
    acc: np.ndarray, jerk: np.ndarray, eta: float = DEFAULT_ETA_START
) -> np.ndarray:
    """Startup timestep ``dt = eta |a| / |j|`` used before the first
    corrector pass provides snap/crackle."""
    a = np.linalg.norm(acc, axis=-1)
    j = np.linalg.norm(jerk, axis=-1)
    tiny = np.finfo(np.float64).tiny
    return np.asarray(eta * (a + tiny) / (j + tiny))


def floor_power_of_two(dt: np.ndarray | float) -> np.ndarray | float:
    """Largest power of two <= dt (elementwise).

    Uses exact base-2 exponent extraction, so the result is an exact
    power of two representable in float64.
    """
    dt_arr = np.asarray(dt, dtype=np.float64)
    if np.any(dt_arr <= 0.0):
        raise ValueError("timesteps must be positive")
    # frexp: dt = m * 2^e with 0.5 <= m < 1, so the floor power of two
    # is 2^(e-1) = ldexp(0.5, e); when dt is already exactly 2^k the
    # mantissa is 0.5 and the identity holds with equality.
    _, exponent = np.frexp(dt_arr)
    result = np.ldexp(0.5, exponent)
    if np.isscalar(dt):
        return float(result)
    return np.asarray(result)


def quantize_block_dt(
    dt_ideal: np.ndarray,
    t_now: float | np.ndarray,
    dt_old: np.ndarray | None = None,
    dt_max: float = 0.125,
    dt_min: float = 2.0**-40,
) -> np.ndarray:
    """Quantise ideal timesteps onto the block hierarchy.

    Rules (standard Aarseth blockstep scheme):

    * the new step is a power of two, ``dt_min <= dt <= dt_max``;
    * shrinking below the previous step is always allowed (halving as
      many times as needed);
    * growing is limited to one doubling per step, and only if the
      current time ``t_now`` is commensurable with the doubled step
      (``t_now`` is an integer multiple of ``2*dt_old``);
    * the returned step always keeps ``t_now`` commensurable:
      ``t_now % dt == 0``.

    Parameters
    ----------
    dt_ideal:
        (n,) continuous timestep estimates.
    t_now:
        Current system time (scalar) or per-particle times.
    dt_old:
        Previous steps; None on startup (no doubling restriction, but
        commensurability with t_now is still enforced).
    """
    dt_ideal = np.asarray(dt_ideal, dtype=np.float64)
    dt = np.minimum(dt_ideal, dt_max)
    dt = np.maximum(dt, dt_min)
    dt = np.asarray(floor_power_of_two(dt))

    if dt_old is not None:
        dt_old = np.asarray(dt_old, dtype=np.float64)
        # at most one doubling
        dt = np.minimum(dt, 2.0 * dt_old)
        # doubling only allowed on commensurable boundaries
        wants_double = dt > dt_old
        if np.any(wants_double):
            t_arr = np.broadcast_to(np.asarray(t_now, dtype=np.float64), dt.shape)
            ok = _commensurable(t_arr, dt)
            dt = np.where(wants_double & ~ok, dt_old, dt)
    else:
        # startup: halve until commensurable with t_now
        t_arr = np.broadcast_to(np.asarray(t_now, dtype=np.float64), dt.shape).copy()
        for _ in range(80):
            bad = ~_commensurable(t_arr, dt) & (dt > dt_min)
            if not np.any(bad):
                break
            dt = np.where(bad, dt * 0.5, dt)
    return np.asarray(dt)


def _commensurable(t: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """True where t is an integer multiple of dt (exact in binary)."""
    with np.errstate(invalid="ignore"):
        k = t / dt
    return np.asarray(k == np.floor(k))


def commensurable(t: float, dt: float) -> bool:
    """Scalar convenience wrapper around :func:`_commensurable`."""
    return bool(_commensurable(np.asarray([t]), np.asarray([dt]))[0])
