"""A run is described once (``repro.service.jobs.RUN_PARAMS``).

Pinned here: the table refuses, at ``submit``, every malformed value it
has a rule for (each used to surface as a bare ``ValueError`` inside
``execute``); its defaults cannot drift from ``core``'s; the integrator
constructors are reached only through ``build_integrator``; the doc
table lists exactly the table's keys; one parser reads a backend spec
for the validator and the resolver; and the sampled-run estimator
prices that same description — pinned plan, serial specs only.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.bench.sampling import sampled_estimate, validate_sampling
from repro.core.individual import BlockTimestepIntegrator
from repro.core.timestep import DEFAULT_ETA, DEFAULT_ETA_START
from repro.parallel.execution import parse_backend_spec, resolve_backend
from repro.service.cli import main as service_main
from repro.service.jobs import (
    JOB_SCHEMA,
    RUN_PARAMS,
    JobError,
    JobSpec,
    _validate_exec_backend,
)

REPO = Path(__file__).resolve().parents[2]
BASE = {"model": "plummer", "n": 16, "seed": 3, "t_end": 0.25}


def run_doc(**params):
    return {"schema": JOB_SCHEMA, "kind": "run", "name": "demo",
            "params": {**BASE, **params}}


#: key -> (accepted values, refused values)
CASES = {
    "model": (["king"], ["spiral", 3]),
    "model_args": ([{}], [[], "w0=3"]),
    "n": ([2], [1, 2.5, "many", True]),
    "seed": ([0], ["s", -1, 1.5, True]),
    "t_end": ([1], [0, -1.0, "late", float("inf")]),
    "eta": ([0.01], ["fast", 0, -0.02, True, float("nan")]),
    "eta_start": ([0.001], ["slow", 0]),
    "dt_max": ([2.0**-5], [-1, 0, "big"]),
    "dt_min": ([2.0**-20], [-1, 0, 0.5]),  # 0.5 > the default dt_max
    "eps": ([0, 0.25], ["x", -0.1]),
    "backend": (["grape"], ["fpga", 7]),
    "boards": ([2], [0, 1.5, "two"]),
    "emulation_mode": (["faithful"], ["psychic"]),
    "algorithm": (["ring"], ["hybrid"]),
    "ranks": ([], [0, "two", 2]),  # alone: needs an algorithm
    "nic": (["myrinet"], ["token-ring"]),
}


class TestRunParamsTable:
    def test_cases_cover_the_table(self):
        assert set(CASES) == set(RUN_PARAMS) and len(RUN_PARAMS) == 16

    @pytest.mark.parametrize(
        "key,value", [(k, v) for k, (good, _) in CASES.items() for v in good])
    def test_accepted(self, key, value):
        assert JobSpec.from_dict(run_doc(**{key: value})).params[key] == value

    @pytest.mark.parametrize(
        "key,value", [(k, v) for k, (_, bad) in CASES.items() for v in bad])
    def test_refused_naming_the_key(self, key, value):
        with pytest.raises(JobError, match=key):
            JobSpec.from_dict(run_doc(**{key: value}))

    @pytest.mark.parametrize("params,named", [
        ({"eta": "fast"}, "params.eta"),
        ({"dt_max": -1}, "params.dt_max"),
        ({"backend": "grape", "boards": 0}, "params.boards"),
        ({"eps": "x"}, "params.eps"),
        ({"seed": "s"}, "params.seed"),
        ({"dtmax": 0.01}, "params.dtmax"),
    ])
    def test_documents_that_used_to_die_in_execute(self, params, named):
        with pytest.raises(JobError, match=re.escape(named)):
            JobSpec.from_dict(run_doc(**params))

    def test_cross_field_rules(self):
        JobSpec.from_dict(run_doc(algorithm="grid2d", ranks=4))
        for params in ({"algorithm": "grid2d", "ranks": 3},
                       {"algorithm": "copy", "backend": "grape"},
                       {"dt_max": 2.0**-8, "dt_min": 2.0**-6}):
            with pytest.raises(JobError):
                JobSpec.from_dict(run_doc(**params))

    def test_submit_refuses_and_leaves_no_job_directory(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(run_doc(eta="fast")))
        jobs = tmp_path / "jobs"
        assert service_main(["submit", str(spec), "--dir", str(jobs)]) == 2
        assert "params.eta" in capsys.readouterr().err
        assert not (jobs / "demo").exists()
        assert service_main(["validate", str(spec)]) == 2

    def test_defaults_mirror_core(self):
        core = inspect.signature(BlockTimestepIntegrator.__init__).parameters
        assert RUN_PARAMS["eta"].default == DEFAULT_ETA == core["eta"].default
        assert (RUN_PARAMS["eta_start"].default == DEFAULT_ETA_START
                == core["eta_start"].default)
        for key in ("dt_max", "dt_min"):
            assert RUN_PARAMS[key].default == core[key].default

    def test_constructors_only_inside_build_integrator(self):
        """No second place may turn a params dict into an integrator."""
        call = re.compile(r"\b(?:Parallel)?Block(?:Timestep)?Integrator\(")
        src = REPO / "src" / "repro"
        files = [*(src / "service").glob("*.py"), src / "bench" / "sampling.py"]
        hits = []
        for path in files:
            function = None
            for line in path.read_text().splitlines():
                match = re.match(r"\s*def (\w+)", line)
                function = match.group(1) if match else function
                if call.search(line):
                    hits.append((path.name, function))
        assert hits and set(hits) == {("jobs.py", "build_integrator")}

    def test_doc_table_lists_the_table(self):
        doc = (REPO / "docs" / "service.md").read_text()
        table = doc[doc.index("| key | rule | default | read by |"):]
        table = table[:table.index("\n\n")]
        keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert keys == list(RUN_PARAMS)


#: spec -> parsed, or None where both callers must refuse it
BACKEND_SPECS = {
    "inline": ("inline", None),
    "thread": ("thread", None),
    "thread:2": ("thread", 2),
    "inline:1": ("inline", 1),
    "process:12": ("process", 12),
    "thread:+2": None,
    "thread: 2": None,
    "thread:2_0": None,
    "process:0": None,
    "process:-1": None,
    "thread:": None,
    "mpi:4": None,
}


class TestOneBackendSpecParser:
    @pytest.mark.parametrize("spec,parsed", BACKEND_SPECS.items())
    def test_validator_and_resolver_agree(self, spec, parsed):
        if parsed is None:
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                parse_backend_spec(spec)
            with pytest.raises(JobError, match=re.escape(repr(spec))):
                _validate_exec_backend(spec, "job spec")
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                resolve_backend(spec)
            return
        assert parse_backend_spec(spec) == parsed
        _validate_exec_backend(spec, "job spec")
        if parsed[0] != "process":  # no pool is spawned to agree on a name
            backend = resolve_backend(spec)
            assert backend.name == parsed[0]
            if parsed[1] is not None and parsed[0] != "inline":
                assert backend.workers == parsed[1]
            backend.close()


PINNED = {"model": "plummer", "n": 64, "seed": 13, "eta": 0.02}


class TestEstimatorPricesTheDescribedRun:
    def test_pinned_ci_configuration(self):
        """The deterministic fields of CI's ``bench sample`` run."""
        est = sampled_estimate({**PINNED, "backend": "grape"}, t_end=1.0)
        assert est.scout_blocksteps == 625
        assert est.windows == [[0, 26], [120, 26], [240, 26],
                               [359, 26], [479, 26], [599, 26]]
        assert est.prefix_blocksteps == 156
        assert est.projected_blocksteps == 469
        assert est.schedule_match == pytest.approx(155 / 156, abs=1e-12)

    def test_parallel_spec_is_refused_not_priced_serially(self):
        with pytest.raises(ValueError, match="algorithm"):
            sampled_estimate({**PINNED, "algorithm": "copy", "ranks": 2}, 0.25)

    def test_bad_value_is_the_services_job_error(self):
        with pytest.raises(JobError, match="params.dt_max"):
            sampled_estimate({**PINNED, "dt_max": -1}, 0.25)

    def test_both_forms_share_one_plan(self):
        params = {**PINNED, "n": 16, "backend": "direct"}
        est = sampled_estimate(params, 0.25, min_prefix=8, n_bootstrap=20)
        val = validate_sampling(params, 0.25, min_prefix=8, repeats=1,
                                n_bootstrap=20)
        assert val.windows == est.windows
        assert val.scout_blocksteps == est.scout_blocksteps
        assert (sum(r.n_projected for r in val.regimes)
                == sum(r.n_projected for r in est.regimes)
                == est.projected_blocksteps)
