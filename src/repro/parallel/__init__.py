"""Simulated parallel substrate and the paper's parallel algorithms.

The paper's multi-node performance is shaped by three algorithms for
distributing an O(N^2) individual-timestep force calculation
(section 3.2):

* the **copy** algorithm — every node holds the full system, updates a
  share of each block, and exchanges the updated particles (used
  *across* clusters, section 4.3);
* the **ring** algorithm — disjoint subsets, the active block circulates;
* the **2-D hybrid** algorithm (Makino 2002) — an r x r grid where each
  row/column holds a copy, partial forces are summed over columns and
  updates broadcast along rows and columns (used *inside* a cluster,
  realised partly in hardware by the network boards).

All three are implemented functionally over a virtual-time
message-passing network (:class:`SimNetwork`), so tests can verify
both that the parallel forces equal the serial ones and that the
communication-volume/latency accounting matches the analytic models in
:mod:`repro.perfmodel`.
"""

from .virtualtime import VirtualClock
from .execution import (
    EXEC_BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    Tile,
    WorkerLost,
    resolve_backend,
)
from .ledger import (
    COMM_LEDGER_SCHEMA,
    BarrierRecord,
    CommLedger,
    ExchangeRecord,
    LedgerError,
    LinkStats,
    merge_comm_summaries,
    validate_comm_ledger,
)
from .network_tile import MessageSizeError
from .simcomm import MessageStats, SimNetwork
from .topology import Grid2D
from .copy_algorithm import CopyAlgorithm
from .ring_algorithm import RingAlgorithm
from .grid2d import Grid2DAlgorithm
from .hybrid import HybridAlgorithm
from .driver import ParallelBlockIntegrator

__all__ = [
    "VirtualClock",
    "EXEC_BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "ProcessBackend",
    "WorkerLost",
    "Tile",
    "resolve_backend",
    "SimNetwork",
    "MessageStats",
    "MessageSizeError",
    "COMM_LEDGER_SCHEMA",
    "CommLedger",
    "LinkStats",
    "BarrierRecord",
    "ExchangeRecord",
    "LedgerError",
    "validate_comm_ledger",
    "merge_comm_summaries",
    "Grid2D",
    "CopyAlgorithm",
    "RingAlgorithm",
    "Grid2DAlgorithm",
    "HybridAlgorithm",
    "ParallelBlockIntegrator",
]
