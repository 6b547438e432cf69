import numpy as np
import pytest

from sassc import io, solvers
from sassc.solvers import SolverParams, solve_pdhg


@pytest.fixture(scope="session")
def tiny_instance():
    return io.make_instance("tiny")


@pytest.fixture(scope="session")
def tiny_solution(tiny_instance):
    """Tight solve of the tiny instance, shared across test modules."""
    params = SolverParams(kkt_tolerance=1e-8)
    return solve_pdhg(tiny_instance, params)


@pytest.fixture(scope="session")
def small_instance():
    """Default template shrunk to n1d=8, S=4 for fast solver tests."""
    return io.make_instance("default", n1d=8, scenario_count=4)


@pytest.fixture(scope="session")
def small_solution(small_instance):
    return solve_pdhg(small_instance, SolverParams())


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(count)`` makes ``solvers.worker_count()`` return
    ``count`` on any machine, for the rest of the test."""
    def use(count: int) -> None:
        monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setenv("SASSC_THREADS", str(count))
        assert solvers.worker_count() == count
    return use


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
