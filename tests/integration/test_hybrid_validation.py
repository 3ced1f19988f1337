"""The full-machine hybrid algorithm and the model/simulation
cross-validation."""

import numpy as np
import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820, cluster_machine
from repro.core import BlockTimestepIntegrator
from repro.models import plummer_model
from repro.parallel import (
    CopyAlgorithm,
    Grid2DAlgorithm,
    HybridAlgorithm,
    ParallelBlockIntegrator,
    SimNetwork,
)
from repro.perfmodel import MachineModel
from repro.perfmodel.validate import validate_grid_cluster

N = 96
T_END = 0.0625


class TestHybridAlgorithm:
    @pytest.mark.parametrize("clusters", [1, 2, 4])
    def test_matches_serial(self, clusters, eps2):
        serial_sys = plummer_model(N, seed=81)
        serial = BlockTimestepIntegrator(serial_sys, eps2)
        serial.run(T_END)

        system = plummer_model(N, seed=81)
        hybrid = HybridAlgorithm(clusters, eps2)
        integ = ParallelBlockIntegrator(system, eps2, hybrid)
        integ.run(T_END)
        np.testing.assert_allclose(system.pos, serial_sys.pos, atol=1e-9)

    def test_inter_cluster_traffic_scales_with_clusters(self, eps2):
        volumes = {}
        for c in (2, 4):
            system = plummer_model(N, seed=82)
            hybrid = HybridAlgorithm(c, eps2)
            integ = ParallelBlockIntegrator(system, eps2, hybrid)
            integ.run(T_END)
            volumes[c] = hybrid.inter_net.stats.bytes
        # ring allgather: (c-1) shifts of ~n_b/c records -> total inter-
        # cluster bytes grow with cluster count
        assert volumes[4] > volumes[2]

    def test_single_cluster_uses_no_inter_network(self, eps2):
        system = plummer_model(N, seed=83)
        hybrid = HybridAlgorithm(1, eps2)
        integ = ParallelBlockIntegrator(system, eps2, hybrid)
        integ.run(T_END)
        assert hybrid.inter_net.stats.bytes == 0

    def test_clocks_globally_synchronised(self, eps2):
        system = plummer_model(N, seed=84)
        hybrid = HybridAlgorithm(2, eps2)
        integ = ParallelBlockIntegrator(system, eps2, hybrid)
        integ.run(T_END)
        times = [net.clock.elapsed for net in hybrid.cluster_nets]
        assert max(times) - min(times) < 1e-9

    def test_faster_nic_reduces_elapsed(self, eps2):
        elapsed = {}
        for nic in (NIC_NS83820, NIC_INTEL82540EM):
            system = plummer_model(N, seed=85)
            hybrid = HybridAlgorithm(2, eps2, nic=nic)
            integ = ParallelBlockIntegrator(system, eps2, hybrid)
            integ.run(T_END)
            elapsed[nic.name] = hybrid.elapsed_us
        assert elapsed["intel82540em"] < elapsed["ns83820"]

    def test_validation(self, eps2):
        with pytest.raises(ValueError):
            HybridAlgorithm(0, eps2)


class TestModelSimulationCrossValidation:
    """The analytic model and the executable simulation charge compute
    with one function (``MachineModel.force_call_us``, handed to the
    algorithms as ``compute_hook``), so whatever separates them is the
    communication model.  Before that function existed the validation
    hook left out the DMA term and charged every grid cell its whole
    row, and the two errors cancelled near N = 128 (EXPERIMENTS.md,
    "The evaluation stated once")."""

    @pytest.mark.parametrize("n", [96, 128, 192, 512])
    @pytest.mark.parametrize("algorithm", [CopyAlgorithm, Grid2DAlgorithm])
    def test_one_host_closure(self, algorithm, n, eps2):
        """On one host no message is sent, so nothing can hide a
        compute mismatch: the virtual time of the run's blocksteps is
        the sum of ``blockstep_us`` over its block trace."""
        machine = cluster_machine(1)
        model = MachineModel(machine)
        net = SimNetwork(1, machine.nic)
        integ = ParallelBlockIntegrator(
            plummer_model(n, seed=31), eps2,
            algorithm(net, eps2, compute_time_us=model.compute_hook(n)),
        )
        constructed_us = net.clock.elapsed  # the start-up force pass
        stats = integ.run(T_END)
        predicted = sum(model.blockstep_us(n, float(b)) for b in stats.block_sizes)
        assert net.clock.elapsed - constructed_us == pytest.approx(
            predicted, rel=1e-12
        )

    def test_exact_agreement_under_ideal_messaging(self):
        """Agreement is exact where there is nothing to message (one
        host).  On four hosts under ideal-messaging accounting (one
        butterfly flight per blockstep) the simulation is 9 % dearer at
        N = 128: it also pays the row reduction and the column
        broadcast, and each grid cell charges host work for its whole
        row.  That gap is the communication model, not compute."""
        assert validate_grid_cluster(n=128, hosts=1).ratio == pytest.approx(
            1.0, rel=1e-12
        )
        result = validate_grid_cluster(n=128, sync_flights=1.0)
        assert result.ratio == pytest.approx(1.087, abs=0.03)

    def test_production_calibration_prices_in_software_overhead(self):
        """With the paper-calibrated 3 flights, the model is dearer than
        ideal messaging by design: the gap IS the modelled MPI/TCP
        overhead above raw wire latency."""
        result = validate_grid_cluster(n=128)
        assert 0.25 < result.ratio < 0.8

    def test_ratio_stable_across_n(self):
        """The ideal-messaging gap stays inside its measured band
        (1.07 / 1.13 / 1.33 at N = 96 / 192 / 512) and widens with N:
        blocks grow, and with them the reduction and broadcast bytes
        the analytic sync-only term does not carry."""
        ratios = [
            validate_grid_cluster(n=n, sync_flights=1.0).ratio
            for n in (96, 192, 512)
        ]
        assert all(1.04 < r < 1.40 for r in ratios)
        assert ratios == sorted(ratios)
