"""A ``g6_*``-style host-library facade.

Real GRAPE-6 applications talk to the hardware through a small C API
(``g6_open`` / ``g6_set_ti`` / ``g6_set_j_particle`` /
``g6calc_firsthalf`` / ``g6calc_lasthalf`` ...).  This module mirrors
that call structure so that a port of an existing GRAPE application
maps one-to-one onto the reproduction, and so the *hardware-accurate*
execution mode is exercised: j-particles are uploaded once with their
predictor coefficients at their own times, the host sets the system
time ``ti``, and the (emulated) predictor pipelines extrapolate on
board — exactly the division of labour of eqs. (6)-(7).

Backends:

* ``backend="emulator"`` — the bit-level :class:`repro.hardware`
  machine (fixed point, block floating point, on-chip prediction);
* ``backend="host"`` — float64 reference arithmetic with the same
  call flow (useful for accuracy comparisons).
"""

from __future__ import annotations

import numpy as np

from .kernels import ForceJerkResult, acc_jerk_pot_on_targets


class Grape6Library:
    """Session object mirroring the GRAPE-6 host library.

    Parameters
    ----------
    n_max:
        Capacity of the j-particle memory to allocate.
    eps2:
        Softening squared (the real API passes eps2 per call; a single
        register per session keeps this facade simple).
    backend:
        "emulator" or "host".
    boards:
        Number of emulated boards (emulator backend).
    emulation_mode:
        Emulator datapath, "batched" (default) or "faithful" — see
        :class:`repro.hardware.system.Grape6Emulator`.
    """

    def __init__(
        self,
        n_max: int,
        eps2: float,
        backend: str = "emulator",
        boards: int = 1,
        emulation_mode: str = "batched",
    ) -> None:
        if n_max < 1:
            raise ValueError("n_max must be positive")
        if backend not in ("emulator", "host"):
            raise ValueError("backend must be 'emulator' or 'host'")
        self.n_max = n_max
        self.eps2 = float(eps2)
        self.backend = backend
        self._open = True
        self._ti = 0.0

        # j-particle store (host mirror of the board memories)
        self._tj = np.zeros(n_max)
        self._mass = np.zeros(n_max)
        self._x = np.zeros((n_max, 3))
        self._v = np.zeros((n_max, 3))
        self._a = np.zeros((n_max, 3))
        self._jerk = np.zeros((n_max, 3))
        self._snap = np.zeros((n_max, 3))
        self._present = np.zeros(n_max, dtype=bool)
        self._dirty = True

        if backend == "emulator":
            from ..hardware.system import Grape6Emulator

            self._emulator = Grape6Emulator(
                eps2, boards=boards, emulation_mode=emulation_mode
            )
        else:
            self._emulator = None

    # -- session ----------------------------------------------------------------

    def g6_close(self) -> None:
        self._open = False

    def g6_npipes(self) -> int:
        """i-particles the hardware accepts per call (48 per chip)."""
        return 48

    def _check_open(self) -> None:
        if not self._open:
            raise RuntimeError("library session is closed")

    # -- uploads ----------------------------------------------------------------

    def g6_set_ti(self, ti: float) -> None:
        """Set the system time the predictors extrapolate to."""
        self._check_open()
        self._ti = float(ti)

    def g6_set_j_particle(
        self,
        address: int,
        tj: float,
        dtj: float,
        mass: float,
        x,
        v,
        a=(0.0, 0.0, 0.0),
        jerk=(0.0, 0.0, 0.0),
        snap=(0.0, 0.0, 0.0),
    ) -> None:
        """Upload one j-particle at memory ``address``.

        The real call passes a2/18, a1/6, a/2 pre-scaled; this facade
        takes plain derivatives and handles scaling internally.  ``dtj``
        is accepted for signature fidelity (the hardware uses it for
        predictor range checks) but not otherwise needed here.
        """
        self._check_open()
        del dtj
        if not 0 <= address < self.n_max:
            raise IndexError("j-particle address out of range")
        self._tj[address] = tj
        self._mass[address] = mass
        self._x[address] = np.asarray(x, dtype=np.float64)
        self._v[address] = np.asarray(v, dtype=np.float64)
        self._a[address] = np.asarray(a, dtype=np.float64)
        self._jerk[address] = np.asarray(jerk, dtype=np.float64)
        self._snap[address] = np.asarray(snap, dtype=np.float64)
        self._present[address] = True
        self._dirty = True

    def g6_set_j_particles(self, addresses, tj, mass, x, v, a=None, jerk=None, snap=None) -> None:
        """Vectorised bulk upload (extension; the C API loops)."""
        self._check_open()
        addresses = np.asarray(addresses, dtype=np.int64)
        if np.any(addresses < 0) or np.any(addresses >= self.n_max):
            raise IndexError("j-particle address out of range")
        self._tj[addresses] = tj
        self._mass[addresses] = mass
        self._x[addresses] = x
        self._v[addresses] = v
        n = addresses.size
        self._a[addresses] = a if a is not None else np.zeros((n, 3))
        self._jerk[addresses] = jerk if jerk is not None else np.zeros((n, 3))
        self._snap[addresses] = snap if snap is not None else np.zeros((n, 3))
        self._present[addresses] = True
        self._dirty = True

    # -- force calls --------------------------------------------------------------

    def _predicted_j(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Host-side reference prediction of the loaded j-set to ti."""
        idx = np.flatnonzero(self._present)
        from ..core.predictor import predict_with_snap

        xp, vp = predict_with_snap(
            self._ti,
            self._tj[idx],
            self._x[idx],
            self._v[idx],
            self._a[idx],
            self._jerk[idx],
            self._snap[idx],
        )
        return idx, xp, vp, self._mass[idx]

    def g6calc(
        self, xi: np.ndarray, vi: np.ndarray, indices: np.ndarray | None = None
    ) -> ForceJerkResult:
        """Combined firsthalf+lasthalf: forces on the i-particles from
        the loaded, predicted j-set.

        On the emulator backend the prediction runs in the emulated
        predictor pipelines from the *stored-format* coefficients; on
        the host backend it runs in float64.
        """
        self._check_open()
        xi = np.asarray(xi, dtype=np.float64)
        vi = np.asarray(vi, dtype=np.float64)
        if not np.any(self._present):
            raise RuntimeError("no j-particles loaded")

        if self._emulator is not None:
            self._sync_emulator()
            return self._emulator_calc(xi, vi, indices)

        idx, xp, vp, mass = self._predicted_j()
        del idx
        return acc_jerk_pot_on_targets(
            xi, vi, xp, vp, mass, self.eps2, exclude_self=indices is not None
        )

    # kept as two calls for API fidelity ------------------------------------------

    def g6calc_firsthalf(self, xi, vi, indices=None) -> None:
        """Start a force calculation (stores the request)."""
        self._pending = (np.asarray(xi, dtype=np.float64), np.asarray(vi, dtype=np.float64), indices)

    def g6calc_lasthalf(self) -> ForceJerkResult:
        """Retrieve the results of the pending calculation."""
        if not hasattr(self, "_pending") or self._pending is None:
            raise RuntimeError("no pending g6calc_firsthalf")
        xi, vi, indices = self._pending
        self._pending = None
        return self.g6calc(xi, vi, indices)

    # -- emulator plumbing -----------------------------------------------------------

    def _sync_emulator(self) -> None:
        """Push the host mirror into the emulated chip memories with
        full predictor data (only when dirty), in one machine-wide load
        striped round-robin over the chips."""
        if not self._dirty:
            return
        idx = np.flatnonzero(self._present)
        self._emulator.load_j_particles(
            idx,
            self._x[idx],
            self._v[idx],
            self._mass[idx],
            a=self._a[idx],
            jdot=self._jerk[idx],
            snap=self._snap[idx],
            t0=self._tj[idx],
        )
        self._dirty = False

    def _emulator_calc(self, xi, vi, indices) -> ForceJerkResult:
        """Emulated force with on-chip prediction to ti.

        Delegates to the emulator's own retry loop (which dispatches on
        its emulation mode); the on-chip predictor pipelines extrapolate
        the stored-format coefficients to ``ti``.
        """
        return self._emulator.forces_on(xi, vi, indices, t=self._ti)
