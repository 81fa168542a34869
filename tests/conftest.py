import math
import subprocess

import numpy as np
import pytest

from mfpce.orthopoly import Normal, Uniform, VariableSpec


@pytest.fixture(scope="session")
def unit_uniform_specs():
    """Two uniform variables already on the standard interval."""
    return (
        VariableSpec("x1", Uniform(-1.0, 1.0)),
        VariableSpec("x2", Uniform(-1.0, 1.0)),
    )


@pytest.fixture(scope="session")
def mixed_specs():
    """A uniform/normal pair with non-trivial physical ranges."""
    return (
        VariableSpec("u", Uniform(2.0, 6.0)),
        VariableSpec("g", Normal(-1.0, 0.5)),
    )


@pytest.fixture(scope="session")
def ishigami_range_specs():
    return tuple(
        VariableSpec(f"xi_{i}", Uniform(-math.pi, math.pi)) for i in (1, 2, 3)
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))


@pytest.fixture
def spawned(monkeypatch):
    """Every child started through ``subprocess.Popen``, in start order."""
    children = []
    popen = subprocess.Popen
    monkeypatch.setattr(
        subprocess, "Popen", lambda *a, **k: children.append(popen(*a, **k)) or children[-1]
    )
    return children
