"""Snapshot I/O, checkpoints, atomic JSON writes and table formatting."""

from .snapshot import (
    decode_json_safe,
    encode_json_safe,
    read_snapshot,
    rng_from_state,
    rng_state,
    write_snapshot,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    checkpoint_provenance,
    read_checkpoint,
    restore_integrator,
    write_checkpoint,
)
from .runlog import write_json_atomic
from .tables import format_table, markdown_table

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "encode_json_safe",
    "decode_json_safe",
    "rng_state",
    "rng_from_state",
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "checkpoint_provenance",
    "read_checkpoint",
    "restore_integrator",
    "write_checkpoint",
    "write_json_atomic",
    "format_table",
    "markdown_table",
]
