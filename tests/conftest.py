"""Shared fixtures for the test suite.

Fixtures use small particle counts so the whole suite stays fast; the
physics scales, so correctness at N=64..512 implies correctness of the
algorithms the paper ran at N=2e6 (the *performance* at large N is the
job of the perfmodel tests, which are analytic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.softening import constant_softening
from repro.forces import compiled
from repro.models import plummer_model

#: eps = 1/64 — the paper's constant softening.
EPS = constant_softening(256)
EPS2 = EPS * EPS


def tiers(name: str, numpy, served) -> list:
    """The tiers of tile ``name`` a property is asked of: ``numpy``, and
    ``served`` if this process serves the compiled tier (ids ``numpy``
    and ``c``)."""
    compiled_tier = [pytest.param(served, id="c")] if compiled.TIERS[name][0] == "c" else []
    return [pytest.param(numpy, id="numpy")] + compiled_tier


def needs_compiled(*names: str):
    """Skip unless this process serves every tile of ``names`` compiled."""
    fallen = [f"{name}: {compiled.TIERS[name][1]}" for name in names
              if compiled.TIERS[name][0] != "c"]
    return pytest.mark.skipif(
        bool(fallen), reason=f"this process runs the numpy tier: {'; '.join(fallen)}"
    )


@pytest.fixture
def eps2() -> float:
    return EPS2


@pytest.fixture
def small_plummer():
    """64-particle Plummer sphere (fresh copy per test)."""
    return plummer_model(64, seed=101)


@pytest.fixture
def medium_plummer():
    """256-particle Plummer sphere (fresh copy per test)."""
    return plummer_model(256, seed=202)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_two_body(separation: float = 1.0, mass: float = 0.5):
    """Equal-mass circular binary in the xy-plane (analytic reference)."""
    from repro.core.particles import ParticleSystem

    m = np.array([mass, mass])
    x = np.array([[separation / 2, 0.0, 0.0], [-separation / 2, 0.0, 0.0]])
    # circular velocity: v^2 = G m_other^2 / (M r) -> for equal masses
    # each orbits the COM at r/2 with v = sqrt(G m_tot / (2 r)) / ...
    v_circ = np.sqrt(mass / (2.0 * separation))
    v = np.array([[0.0, v_circ, 0.0], [0.0, -v_circ, 0.0]])
    return ParticleSystem(m, x, v)


@pytest.fixture
def two_body():
    return make_two_body()
