"""Property: a ``params`` dict means one run.

The sampled-run estimator prices a run by scouting its blockstep
schedule; the service executes it.  Both are handed the same
``repro.job/1`` run ``params``, so for *any* valid description the
schedule ``scout_schedule`` returns must equal, element for element,
the ``block_sizes`` in the final checkpoint of a supervisor job run
from it — whichever accuracy parameter (``eta``, ``eta_start``,
``dt_max``, ``dt_min``), softening, seed or N the description sets.
The scout is a direct-summation pass by construction, so a ``grape``
description is compared against the direct-backend job.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.sampling import scout_schedule
from repro.io.checkpoint import read_checkpoint
from repro.service.jobs import JobSpec
from repro.service.supervisor import Supervisor

T_END = 1.0 / 16.0

run_params = st.fixed_dictionaries(
    {
        "model": st.just("plummer"),
        "n": st.integers(8, 20),
    },
    optional={
        "dt_max": st.sampled_from([2.0**-k for k in range(3, 11)]),
        "seed": st.integers(0, 40),
        "eta": st.floats(0.005, 0.05),
        "eta_start": st.floats(0.0005, 0.02),
        # at or below the smallest dt_max drawn, so always a legal pair
        "dt_min": st.sampled_from([2.0**-40, 2.0**-14, 2.0**-10]),
        "eps": st.sampled_from([1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0]),
        "backend": st.sampled_from(["direct", "grape"]),
    },
)


def service_schedule(params):
    """Block sizes recorded by a supervisor job run from ``params``."""
    doc = {"schema": "repro.job/1", "kind": "run", "name": "prop",
           "params": {**params, "t_end": T_END, "backend": "direct"}}
    with tempfile.TemporaryDirectory() as tmp:
        sup = Supervisor.submit(
            JobSpec.from_dict(doc), Path(tmp) / "prop", threaded_bus=False)
        assert sup.execute() == "completed"
        final = read_checkpoint(sup.paths.latest_checkpoint())
    return [int(b) for b in final.integrator_state["stats"]["block_sizes"]]


class TestOneRunDescription:
    @settings(max_examples=12, deadline=None)
    @given(params=run_params)
    def test_scout_schedules_the_run_the_service_executes(self, params):
        scouted, _ = scout_schedule(params, T_END)
        assert scouted == service_schedule(params)
