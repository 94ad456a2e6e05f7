import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

from hypokit import EnsembleParams, builtin_potential
from hypokit.spectral import assemble_generator, build_basis

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cosine_spec():
    return builtin_potential("cosine", {"h": 1.0, "L": 1.0})


@pytest.fixture(scope="session")
def pendulum_spec():
    # unit-stiffness cell: V(q) = cos q on [0, 2pi)
    return builtin_potential("cosine", {"h": 1.0, "L": 2.0 * math.pi})


@pytest.fixture(scope="session")
def quad_spec():
    # confining quadratic clipped onto a 14-sigma cell
    return builtin_potential("quadratic", {"omega": 1.0, "L": 14.0})


@pytest.fixture(scope="session")
def unit_params():
    return EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)


@pytest.fixture(scope="session")
def cosine_asm(cosine_spec, unit_params):
    basis = build_basis(cosine_spec, unit_params, Kq=16, Np=32, n_quad=256)
    return assemble_generator(basis, unit_params.gamma)


@pytest.fixture(scope="session")
def cosine_asm_small(cosine_spec, unit_params):
    basis = build_basis(cosine_spec, unit_params, Kq=8, Np=12, n_quad=128)
    return assemble_generator(basis, unit_params.gamma)


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) -> (fn(*args), the tracemalloc peak in bytes above what was traced before the call)."""

    def run(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return run
