"""Property-based tests: eq. 10's per-host terms are stated once
(``MachineModel.force_call_us``) and everything else is a projection of
that one statement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import MachineModel
from repro.perfmodel.tuning import STANDARD_CONFIGURATIONS

models = st.builds(
    lambda label, overlap: MachineModel(
        STANDARD_CONFIGURATIONS[label](), host_grape_overlap=overlap
    ),
    st.sampled_from(list(STANDARD_CONFIGURATIONS)),
    st.sampled_from([0.0, 0.5]),
)
system_sizes = st.integers(2, 2_000_000)


class TestOneCostFunction:
    @settings(max_examples=200, deadline=None)
    @given(models, system_sizes, st.floats(1e-3, 1.0))
    def test_blockstep_is_the_share_s_force_call_plus_network(self, model, n, frac):
        n_b = max(1.0, frac * n)
        m = model.machine
        host, hif, grape = model.force_call_us(n, n_b / m.nodes, n)
        network = model.sync.blockstep_us(m.nodes) + model.exchange.blockstep_us(
            n_b, m.clusters, m.nodes_per_cluster
        )
        assert model.blockstep_us(n, n_b) == pytest.approx(
            host + hif + grape + network, rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(models, system_sizes)
    def test_breakdown_is_the_mean_blockstep_per_particle(self, model, n):
        b = model.step_time_breakdown(n)
        assert b.total_us * b.block_size == pytest.approx(
            model.blockstep_us(n, b.block_size), rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(models, system_sizes, st.integers(0, 4096), st.integers(1, 2_000_000))
    def test_hook_charges_the_force_call(self, model, n, n_i, n_j):
        charge = model.compute_hook(n)(0, n_i, n_j)
        assert charge == pytest.approx(
            sum(model.force_call_us(n, n_i, n_j)), rel=1e-12
        )
        if n_i == 0:
            assert charge == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(STANDARD_CONFIGURATIONS)), system_sizes,
           st.integers(1, 4096))
    def test_overlap_credit_is_taken_from_the_host_term(self, label, n, n_i):
        machine = STANDARD_CONFIGURATIONS[label]()
        host, hif, grape = MachineModel(machine).force_call_us(n, n_i, n)
        h2, hif2, grape2 = MachineModel(
            machine, host_grape_overlap=0.5
        ).force_call_us(n, n_i, n)
        assert (hif2, grape2) == (hif, grape)
        assert h2 == pytest.approx(host - 0.5 * min(host, grape), rel=1e-12)
