"""grape6-repro: reproduction of "Performance evaluation and tuning of
GRAPE-6 — towards 40 'real' Tflops" (Makino, Kokubo & Fukushige, SC'03).

The package provides four layers:

* :mod:`repro.core` / :mod:`repro.forces` / :mod:`repro.models` — a real,
  runnable Hermite individual-timestep N-body library (the workload the
  machine was built for);
* :mod:`repro.hardware` — a functional emulator of the GRAPE-6 pipeline
  chip, module, board and cluster hierarchy, with fixed-point and
  block-floating-point arithmetic;
* :mod:`repro.parallel` — a virtual-time message-passing substrate with
  the paper's parallel algorithms (copy / ring / 2-D hybrid);
* :mod:`repro.perfmodel` — the performance model and discrete-event
  simulator that regenerate every figure of the paper's evaluation;
* :mod:`repro.telemetry` — tracing and phase attribution that
  measure the real code paths the way section 4 measured the machine
  (``T_host`` / ``T_pipe`` / ``T_comm`` / ``T_barrier``).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from . import constants
from . import telemetry
from .config import (
    BoardConfig,
    ChipConfig,
    HostConfig,
    MachineConfig,
    NICConfig,
    NodeConfig,
    NICS,
    cluster_machine,
    full_machine,
    single_node_machine,
)
from .core import (
    AhmadCohenIntegrator,
    BlockTimestepIntegrator,
    EnergyDiagnostics,
    HermiteIntegrator,
    ParticleSystem,
    StepStatistics,
    constant_softening,
    n_dependent_softening,
    softening_by_name,
    strong_softening,
)
from .forces import DirectSummation
from . import hardware, parallel  # the other tiles' owners: every tile resolves at import
from .models import (
    binary_black_hole_model,
    cold_sphere,
    king_model,
    kuiper_belt_model,
    plummer_model,
    uniform_sphere,
)

__version__ = "1.0.0"

__all__ = [
    "constants",
    "telemetry",
    "ChipConfig",
    "BoardConfig",
    "NodeConfig",
    "HostConfig",
    "MachineConfig",
    "NICConfig",
    "NICS",
    "single_node_machine",
    "cluster_machine",
    "full_machine",
    "ParticleSystem",
    "HermiteIntegrator",
    "BlockTimestepIntegrator",
    "AhmadCohenIntegrator",
    "StepStatistics",
    "EnergyDiagnostics",
    "DirectSummation",
    "constant_softening",
    "n_dependent_softening",
    "strong_softening",
    "softening_by_name",
    "plummer_model",
    "kuiper_belt_model",
    "binary_black_hole_model",
    "king_model",
    "uniform_sphere",
    "cold_sphere",
    "__version__",
]
