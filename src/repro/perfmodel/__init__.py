"""Performance model of GRAPE-6 — the machinery behind figs. 13-19.

The paper's wall-clock per particle-step decomposes as (eq. 10)::

    T_single = T_host + T_comm + T_GRAPE

extended for parallel runs by per-blockstep synchronisation and
inter-cluster exchange terms.  This package implements each term as a
calibrated, documented model:

* :mod:`blockstats` — block-size and step-rate scaling laws measured
  from real runs of :class:`repro.core.BlockTimestepIntegrator`;
* :mod:`host_model` — T_host with the cache-hit-rate refinement
  (fig. 14's dotted curve);
* :mod:`grape_time` — pipeline pass timing and host-interface traffic;
* :mod:`comm_model` — butterfly synchronisation and the multi-cluster
  copy-algorithm exchange;
* :mod:`machine_model` — the per-configuration T_step(N) model that
  produces every speed curve (figs. 13, 15, 17, 19) and time-per-step
  curve (figs. 14, 16, 18); eq. 10's per-host terms are stated once
  there (``MachineModel.force_call_us``), and so is the crossover
  search (``crossover``);
* :mod:`des` — a discrete-event blockstep simulation over a synthetic
  timestep-level population (cross-validates the analytic model and
  captures block-to-block variability);
* :mod:`flops` — the 57-op accounting convention (eq. 9);
* :mod:`applications` — the section-5 sustained-speed accounting for
  the Kuiper-belt and binary-black-hole production runs, and the
  treecode comparison arithmetic.

Calibration: hardware constants come from the paper (90 MHz, 6
pipelines, 48-fold i-parallelism, NIC latencies/bandwidths of
section 4.4); workload scaling laws are measured by
``blockstats.measure_block_scaling``; the remaining free constants
(host microseconds-per-step, per-blockstep synchronisation flights)
are pinned to the paper's anchors — 1 Tflops at N=2e5 single-node, the
N~3000 two-node crossover — and recorded in EXPERIMENTS.md.
"""

from .flops import speed_gflops, speed_from_interactions
from .blockstats import (
    BlockStatModel,
    BLOCK_MODELS,
    measure_block_scaling,
    fit_power_law,
)
from .host_model import HostTimeModel
from .grape_time import GrapeTimeModel, HostInterfaceModel
from .comm_model import SyncModel, ClusterExchangeModel
from .machine_model import MachineModel, StepTimeBreakdown, crossover
from .des import BlockstepDES, LevelPopulation
from .applications import (
    ApplicationRun,
    KUIPER_BELT_RUN,
    BINARY_BH_RUN,
    treecode_comparison,
)
from .tuning import (
    ConfigurationChoice,
    best_configuration,
    crossover_table,
    tuning_ladder,
)
from .calibrate import (
    CALIBRATION_SCHEMA,
    CalibrationError,
    calibrate_artifacts,
    calibrated_environment,
    fit_environment,
    load_calibration,
    merge_calibration,
    save_calibration,
    validate_calibration,
)

__all__ = [
    "speed_gflops",
    "speed_from_interactions",
    "BlockStatModel",
    "BLOCK_MODELS",
    "measure_block_scaling",
    "fit_power_law",
    "HostTimeModel",
    "GrapeTimeModel",
    "HostInterfaceModel",
    "SyncModel",
    "ClusterExchangeModel",
    "MachineModel",
    "StepTimeBreakdown",
    "crossover",
    "BlockstepDES",
    "LevelPopulation",
    "ApplicationRun",
    "KUIPER_BELT_RUN",
    "BINARY_BH_RUN",
    "treecode_comparison",
    "ConfigurationChoice",
    "best_configuration",
    "crossover_table",
    "tuning_ladder",
    "CALIBRATION_SCHEMA",
    "CalibrationError",
    "calibrate_artifacts",
    "calibrated_environment",
    "fit_environment",
    "load_calibration",
    "merge_calibration",
    "save_calibration",
    "validate_calibration",
]
