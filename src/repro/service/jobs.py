"""Job specifications (``repro.job/1``) and the on-disk job directory.

A job is one JSON document of the one kind ``run``: a checkpointed
integration that samples a model, integrates it to ``t_end`` under the
block-timestep Hermite scheme and emits snapshot-bus records and
periodic checkpoints.  This is the paper's production workload (§5)
made survivable.  Benchmark sweeps are the bench CLI's
(``python -m repro.bench run``), not a job kind.

Job directory layout (all relative to the directory ``submit``
creates)::

    job.json          the spec, verbatim
    state.json        live status (atomic rewrite per update)
    bus.jsonl         the snapshot-bus archive
    progress.log      the progress reporter's lines
    checkpoints/      ckpt_<blockstep>.npz, newest wins on resume
    final.npz         the completed run's raw particle state
"""

from __future__ import annotations

import inspect
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..config import NIC_NS83820, NICS
from ..core.individual import BlockTimestepIntegrator
from ..core.particles import ParticleSystem
from ..core.softening import constant_softening
from ..core.timestep import DEFAULT_ETA, DEFAULT_ETA_START
from ..io.runlog import write_json_atomic
from ..parallel.execution import parse_backend_spec
from ..schema import NONNEG, POSITIVE, check, integer, one_of, opt
from ..models import (
    cold_sphere,
    king_model,
    kuiper_belt_model,
    plummer_model,
    uniform_sphere,
)

#: Bump on breaking spec-layout changes.
JOB_SCHEMA = "repro.job/1"
#: Bump on breaking state-layout changes.
STATE_SCHEMA = "repro.job_state/1"

#: Job lifecycle states.  ``interrupted`` always implies a usable
#: checkpoint exists (SIGTERM, wall/step budget); ``failed`` does not.
STATUSES = (
    "queued", "running", "interrupted", "completed", "failed",
)

#: Model name -> sampler.  Every sampler takes (n, seed, **extra).
MODELS: dict[str, Callable[..., ParticleSystem]] = {
    "plummer": plummer_model,
    "king": king_model,
    "uniform": uniform_sphere,
    "cold": cold_sphere,
    "kuiper": kuiper_belt_model,
}


class JobError(ValueError):
    """Raised for malformed job specs and job directories."""


@dataclass
class JobSpec:
    """Validated in-memory form of one job document."""

    kind: str
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    #: Checkpoint cadence in blocksteps (run jobs).
    checkpoint_every: int = 64
    #: Additional wall-clock checkpoint cadence in seconds (optional).
    checkpoint_every_s: float | None = None
    #: Emit a ``state`` record every this many blocksteps.
    sample_every: int = 16
    #: Budgets: the supervisor checkpoints and exits ``interrupted``
    #: when either is exceeded (cumulative across resume segments for
    #: wall seconds).
    max_wall_s: float | None = None
    max_blocksteps: int | None = None
    #: Free-text provenance, kept in ``job.json``.
    notes: str | None = None
    #: Execution backend for rank compute (run jobs with a parallel
    #: algorithm): ``inline`` | ``thread[:N]`` | ``process[:N]``.
    #: Purely a placement choice — results are bit-identical across
    #: backends, so resume may legally switch it.
    exec_backend: str = "inline"

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "params": dict(self.params),
            "checkpoint_every": self.checkpoint_every,
            "sample_every": self.sample_every,
        }
        for key in ("checkpoint_every_s", "max_wall_s", "max_blocksteps", "notes"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.exec_backend != "inline":
            doc["exec_backend"] = self.exec_backend
        return doc

    @classmethod
    def from_dict(cls, doc: Any, source: str = "job spec") -> "JobSpec":
        check(doc, {"what": "spec", "schema": JOB_SCHEMA}, source, JobError)
        kind = doc.get("kind")
        if kind != "run":
            raise JobError(
                f"{source}: kind {kind!r} is not 'run', the only job kind; "
                "a benchmark sweep is `python -m repro.bench run --out X.json`"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not re.fullmatch(r"[\w.-]{1,64}", name):
            raise JobError(
                f"{source}: 'name' must be 1-64 word characters/dots/dashes"
            )
        # an absent cadence takes its default; a null one is refused
        doc = {"params": {}, "checkpoint_every": cls.checkpoint_every,
               "sample_every": cls.sample_every, **doc}
        check(doc, _SPEC_FIELDS, source, JobError)
        spec = cls(
            kind=kind,
            name=name,
            params=dict(doc["params"]),
            checkpoint_every=doc["checkpoint_every"],
            checkpoint_every_s=doc.get("checkpoint_every_s"),
            sample_every=doc["sample_every"],
            max_wall_s=doc.get("max_wall_s"),
            max_blocksteps=doc.get("max_blocksteps"),
            notes=doc.get("notes"),
            exec_backend=doc.get("exec_backend", "inline"),
        )
        _validate_exec_backend(spec.exec_backend, source)
        validate_run_params(spec.params, source)
        return spec


#: The rules of a spec's own keys (the run's ``params`` are
#: :data:`RUN_PARAMS`'), in the :mod:`repro.schema` vocabulary.
_SPEC_FIELDS = {"fields": {
    "params": dict,
    "checkpoint_every": integer(1),
    "sample_every": integer(1),
    "checkpoint_every_s": opt(POSITIVE),
    "max_wall_s": opt(POSITIVE),
    "max_blocksteps": opt(integer(1)),
    "notes": opt(str),
}}


#: Parallel algorithms a run job may name (hybrid is driven through
#: the bench suites, not the job runner, because its host count is a
#: cluster count).
RUN_ALGORITHMS = ("copy", "ring", "grid2d")


class Param(NamedTuple):
    """One run parameter: the rule a value must satisfy
    (:mod:`repro.schema` vocabulary) and what an absent one means."""

    rule: Any
    default: Any = None


_CORE_DEFAULTS = inspect.signature(BlockTimestepIntegrator.__init__).parameters

#: What a ``run`` job's ``params`` may say, and the only statement of
#: it: :func:`validate_run_params` checks a document against the rules,
#: every builder below reads absent keys through :func:`run_param`, and
#: the table in ``docs/service.md`` is pinned to the key set.  ``n`` and
#: ``t_end`` are required; an absent ``eps`` is the paper's constant
#: law (:func:`resolve_eps2`), an absent ``algorithm`` a serial run.
RUN_PARAMS: dict[str, Param] = {
    "model": Param(opt(one_of(MODELS)), "plummer"),
    "model_args": Param(opt(dict), {}),
    "n": Param(integer(2)),
    "seed": Param(opt(integer(0)), 1),
    "t_end": Param(POSITIVE),
    "eta": Param(opt(POSITIVE), DEFAULT_ETA),
    "eta_start": Param(opt(POSITIVE), DEFAULT_ETA_START),
    "dt_max": Param(opt(POSITIVE), _CORE_DEFAULTS["dt_max"].default),
    "dt_min": Param(opt(POSITIVE), _CORE_DEFAULTS["dt_min"].default),
    "eps": Param(opt(NONNEG)),
    "backend": Param(opt(one_of(("direct", "grape"))), "direct"),
    "boards": Param(opt(integer(1)), 1),
    "emulation_mode": Param(opt(one_of(("batched", "faithful"))), "batched"),
    "algorithm": Param(opt(one_of(RUN_ALGORITHMS))),
    "ranks": Param(opt(integer(1)), 2),
    "nic": Param(opt(one_of(NICS)), NIC_NS83820.name),
}


def run_param(params: dict[str, Any], key: str) -> Any:
    """``params[key]``, or the table's default where it is absent."""
    value = params.get(key)
    return RUN_PARAMS[key].default if value is None else value


def _cross_field_rules(params: dict[str, Any]) -> str | None:
    """The cross-field rules (each field already satisfies its own)."""
    dt_min, dt_max = run_param(params, "dt_min"), run_param(params, "dt_max")
    if dt_min > dt_max:
        return f"dt_min {dt_min:g} exceeds dt_max {dt_max:g}"
    algorithm = params.get("algorithm")
    if algorithm is None:
        if params.get("ranks") is not None:
            return ("'ranks' needs an 'algorithm' "
                    f"({', '.join(RUN_ALGORITHMS)})")
        return None
    if run_param(params, "backend") != "direct":
        return "parallel algorithms require backend 'direct'"
    ranks = run_param(params, "ranks")
    if algorithm == "grid2d" and int(ranks ** 0.5 + 0.5) ** 2 != ranks:
        return f"grid2d needs a square rank count, got {ranks}"
    return None


_RUN_SPEC = {"fields": {"params": {
    "fields": {key: param.rule for key, param in RUN_PARAMS.items()},
    "rules": (_cross_field_rules,),
}}}


def validate_run_params(params: dict[str, Any], source: str) -> None:
    """Refuse (``JobError``, naming ``params.<key>``) a run description
    the builders below could not construct."""
    for key in params:
        if key not in RUN_PARAMS:
            raise JobError(
                f"{source}: params.{key} is not a run parameter "
                f"(have {', '.join(RUN_PARAMS)})"
            )
    check({"params": params}, _RUN_SPEC, source, JobError)


def _validate_exec_backend(spec: Any, source: str) -> None:
    """Check an execution-backend spec string (``name`` or ``name:N``)
    with the resolver's own parser; builds no pool or thread."""
    try:
        parse_backend_spec(spec)
    except ValueError as exc:
        raise JobError(f"{source}: exec_backend: {exc}") from None


def load_job(path: str | Path) -> JobSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise JobError(f"{path}: cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}: not valid JSON: {exc}") from exc
    return JobSpec.from_dict(doc, source=str(path))


# -- the job directory ------------------------------------------------------


@dataclass(frozen=True)
class JobPaths:
    """Resolved paths inside one job directory."""

    root: Path

    @property
    def spec(self) -> Path:
        return self.root / "job.json"

    @property
    def state(self) -> Path:
        return self.root / "state.json"

    @property
    def archive(self) -> Path:
        return self.root / "bus.jsonl"

    @property
    def progress(self) -> Path:
        return self.root / "progress.log"

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def final_snapshot(self) -> Path:
        return self.root / "final.npz"

    def checkpoint_path(self, blockstep: int) -> Path:
        return self.checkpoints / f"ckpt_{blockstep:010d}.npz"

    def checkpoint_files(self) -> list[Path]:
        """Every checkpoint, oldest first by blockstep index (file-name
        order)."""
        if not self.checkpoints.is_dir():
            return []
        return sorted(self.checkpoints.glob("ckpt_*.npz"))

    def latest_checkpoint(self) -> Path | None:
        """Newest checkpoint by blockstep index."""
        found = self.checkpoint_files()
        return found[-1] if found else None


def write_state(paths: JobPaths, status: str, **fields: Any) -> dict[str, Any]:
    """Atomically rewrite ``state.json`` (temp + rename)."""
    if status not in STATUSES:
        raise JobError(f"unknown status {status!r}")
    state = {
        "schema": STATE_SCHEMA,
        "status": status,
        "updated_unix": time.time(),
        "pid": os.getpid(),
        **fields,
    }
    paths.root.mkdir(parents=True, exist_ok=True)
    write_json_atomic(state, paths.state)
    return state


def read_state(paths: JobPaths) -> dict[str, Any]:
    try:
        state = json.loads(paths.state.read_text())
    except OSError as exc:
        raise JobError(f"{paths.state}: cannot read state: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{paths.state}: not valid JSON: {exc}") from exc
    return check(state, {"what": "state", "schema": STATE_SCHEMA},
                 str(paths.state), JobError)


# -- workload construction --------------------------------------------------


def build_system(params: dict[str, Any]) -> ParticleSystem:
    """Sample the run job's initial model (seeded, reproducible)."""
    model = MODELS[run_param(params, "model")]
    return model(params["n"], seed=run_param(params, "seed"),
                 **run_param(params, "model_args"))


def resolve_eps2(params: dict[str, Any]) -> float:
    """Softening squared: explicit ``eps`` wins, else the paper's
    constant law (eps = 1/64)."""
    eps = params.get("eps")
    if eps is None:
        eps = constant_softening(int(params["n"]))
    return float(eps) ** 2


def build_backend(params: dict[str, Any]):
    """The force backend the spec asks for (None = direct float64)."""
    if run_param(params, "backend") != "grape":
        return None
    from ..hardware.system import Grape6Emulator

    return Grape6Emulator(
        resolve_eps2(params),
        boards=int(run_param(params, "boards")),
        emulation_mode=run_param(params, "emulation_mode"),
    )


def build_parallel(params: dict[str, Any], exec_backend: str = "inline"):
    """The parallel force algorithm a run job asks for, or None.

    Returns a configured algorithm (copy/ring/grid2d over a fresh
    :class:`~repro.parallel.SimNetwork`) whose rank compute runs on
    ``exec_backend``; the caller owns the algorithm's
    ``executor.close()``.  Serial runs (no ``algorithm`` param) return
    None.
    """
    algorithm = params.get("algorithm")
    if algorithm is None:
        return None
    from ..parallel import (
        CopyAlgorithm,
        Grid2DAlgorithm,
        RingAlgorithm,
        SimNetwork,
    )

    network = SimNetwork(
        int(run_param(params, "ranks")), NICS[run_param(params, "nic")])
    cls = {
        "copy": CopyAlgorithm,
        "ring": RingAlgorithm,
        "grid2d": Grid2DAlgorithm,
    }[algorithm]
    return cls(network, resolve_eps2(params), executor=exec_backend)


def build_integrator(
    system: ParticleSystem,
    params: dict[str, Any],
    *,
    backend=None,
    algorithm=None,
    tracer=None,
) -> BlockTimestepIntegrator:
    """The integrator ``params`` describe, started on ``system``.

    The one place a run description becomes a constructor call, so the
    supervisor and the sampled-run estimator cannot mean different runs
    by the same ``params``.  ``backend`` is the force backend (None =
    direct float64 summation, as :func:`build_backend` returns for a
    direct spec); ``algorithm`` (from :func:`build_parallel`) makes it
    the parallel driver instead.
    """
    accuracy = {key: float(run_param(params, key))
                for key in ("eta", "eta_start", "dt_max", "dt_min")}
    eps2 = resolve_eps2(params)
    if algorithm is not None:
        from ..parallel.driver import ParallelBlockIntegrator

        return ParallelBlockIntegrator(
            system, eps2, algorithm, tracer=tracer, **accuracy)
    return BlockTimestepIntegrator(
        system, eps2=eps2, backend=backend, tracer=tracer, **accuracy)
