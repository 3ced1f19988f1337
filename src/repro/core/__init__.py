"""The collisional N-body core: 4th-order Hermite integration with
shared and individual (block) timesteps.

This is the workload the GRAPE-6 machine was built for.  The package
follows the classic structure of Aarseth-style codes:

* :mod:`particles` — structure-of-arrays particle state,
* :mod:`predictor` — the predictor polynomials of eqs. (6)-(7),
* :mod:`corrector` — the Hermite corrector (Makino & Aarseth 1992),
* :mod:`timestep` — the Aarseth timestep criterion and the power-of-two
  block quantisation,
* :mod:`hermite_tile` — the three above as the host's two calls per
  blockstep (predict all, where the backend does not predict its own
  j-set; advance the block), numpy or ``hermite_tile.c``,
* :mod:`scheduler` — the block-timestep scheduler,
* :mod:`hermite` — shared-timestep Hermite integrator,
* :mod:`individual` — the individual/block timestep integrator used in
  all the paper's benchmarks,
* :mod:`softening` — the paper's three softening-length choices,
* :mod:`diagnostics` — conserved-quantity bookkeeping.
"""

from .particles import ParticleSystem
from .softening import (
    constant_softening,
    n_dependent_softening,
    strong_softening,
    softening_by_name,
)
from .hermite import HermiteIntegrator
from .hermite6 import Hermite6Integrator
from .individual import BlockTimestepIntegrator, StepStatistics
from .ahmad_cohen import ACStatistics, AhmadCohenIntegrator
from .neighbors import NeighborLists
from .diagnostics import EnergyDiagnostics
from .timestep import NonFiniteForce

__all__ = [
    "ParticleSystem",
    "HermiteIntegrator",
    "Hermite6Integrator",
    "BlockTimestepIntegrator",
    "AhmadCohenIntegrator",
    "ACStatistics",
    "NeighborLists",
    "StepStatistics",
    "EnergyDiagnostics",
    "NonFiniteForce",
    "constant_softening",
    "n_dependent_softening",
    "strong_softening",
    "softening_by_name",
]
