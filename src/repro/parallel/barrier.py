"""Synchronisation primitives and their cost models (paper, section 4.4).

"With our current code, synchronization is done through butterfly
message exchange using TCP/IP, which is about two times faster than the
use of MPI_barrier provided by MPICH/p4 over TCP/IP."

:func:`butterfly_barrier_us` gives the analytic cost used by the
performance model; :meth:`repro.parallel.simcomm.SimNetwork.barrier`
is the executable counterpart.  Both count rounds with
:func:`butterfly_rounds` and price a message with
:func:`message_time_us`, so they cannot diverge.
"""

from __future__ import annotations

from ..config import NICConfig


def butterfly_rounds(p: int) -> int:
    """Rounds of the butterfly/dissemination barrier: ceil(log2 p)."""
    if p < 1:
        raise ValueError("p must be positive")
    return (p - 1).bit_length()


def message_time_us(nic: NICConfig, overhead_us: float, nbytes):
    """Post-to-arrival time of one message (of each message, given an
    array of sizes): half the round trip, the host's per-message
    overhead, and the bytes at the NIC's bandwidth."""
    return (
        nic.rtt_latency_us / 2.0
        + overhead_us
        + nbytes / nic.bandwidth_mbs  # MB/s == bytes/us
    )


def butterfly_barrier_us(p: int, nic: NICConfig, payload_bytes: int = 16) -> float:
    """Time for one butterfly barrier over p hosts.

    Each round is a pairwise exchange: one message flight (half the
    round-trip latency plus the tiny payload's serialisation).  Rounds
    are serial, so the cost is rounds x flight time.
    """
    return butterfly_rounds(p) * message_time_us(nic, 0.0, payload_bytes)


def mpich_barrier_us(p: int, nic: NICConfig) -> float:
    """The MPI_Barrier the authors replaced: ~2x the butterfly cost."""
    return 2.0 * butterfly_barrier_us(p, nic)
