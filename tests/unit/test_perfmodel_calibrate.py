"""The ledger-fed NIC fit (repro.perfmodel.calibrate.fit_nics)."""

import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.parallel import SimNetwork
from repro.perfmodel.calibrate import fit_nics


def _network_summary(nic, p, payload_bytes):
    """Measured ledger of one allgather + one barrier on ``nic``."""
    net = SimNetwork(p, nic)
    with net.exchange_phase("ring"):
        net.allgather(nbytes_each=payload_bytes)
    net.barrier()
    return net.ledger.summary()


class TestFits:
    def test_nic_constants_recovered_exactly(self):
        # two payload sizes per NIC -> the 16-byte collective regime and
        # the payload regime span the fitted line; the linear cost model
        # is exact, so the fit must return the configured constants
        fits = fit_nics([
            _network_summary(NIC_NS83820, 4, 600),
            _network_summary(NIC_NS83820, 4, 60000),
            _network_summary(NIC_INTEL82540EM, 8, 2100),
            _network_summary(NIC_INTEL82540EM, 8, 84000),
        ])
        ns = fits[NIC_NS83820.name]
        intel = fits[NIC_INTEL82540EM.name]
        assert ns["rtt_latency_us"] == pytest.approx(
            NIC_NS83820.rtt_latency_us, rel=1e-6)
        assert ns["bandwidth_mbs"] == pytest.approx(
            NIC_NS83820.bandwidth_mbs, rel=1e-6)
        assert intel["rtt_latency_us"] == pytest.approx(
            NIC_INTEL82540EM.rtt_latency_us, rel=1e-6)
        assert intel["bandwidth_mbs"] == pytest.approx(
            NIC_INTEL82540EM.bandwidth_mbs, rel=1e-6)
        # barrier flight per round: rtt/2 + 16 bytes / bandwidth
        assert ns["barrier_flight_us"] == pytest.approx(
            NIC_NS83820.rtt_latency_us / 2.0
            + 16.0 / NIC_NS83820.bandwidth_mbs, rel=1e-6)
