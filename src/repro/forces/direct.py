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

from .kernels import ForceJerkResult, acc_jerk_pot_on_targets


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
    """Reference O(N^2) backend: float64, numpy-vectorised, i-tiled.

    Parameters
    ----------
    eps2:
        Softening length squared.
    """

    def __init__(self, eps2: float) -> None:
        if eps2 < 0.0:
            raise ValueError("eps2 must be non-negative")
        self.eps2 = float(eps2)
        self._xj: np.ndarray | None = None
        self._vj: np.ndarray | None = None
        self._mj: np.ndarray | None = None
        #: Cumulative pairwise interactions evaluated (flop accounting).
        self.interaction_count: int = 0

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        if x.shape != v.shape or x.shape[0] != m.shape[0] or x.ndim != 2 or x.shape[1] != 3:
            raise ValueError("inconsistent j-particle array shapes")
        self._xj, self._vj, self._mj = x, v, m

    @property
    def n_j(self) -> int:
        return 0 if self._xj is None else self._xj.shape[0]

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        if self._xj is None or self._vj is None or self._mj is None:
            raise RuntimeError("set_j_particles() must be called before forces_on()")
        result = acc_jerk_pot_on_targets(
            xi,
            vi,
            self._xj,
            self._vj,
            self._mj,
            self.eps2,
            exclude_self=indices is not None,
        )
        self.interaction_count += result.interactions
        return result
