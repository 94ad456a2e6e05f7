import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypokit import (
    EnsembleParams,
    FullSpace,
    InvalidArgumentError,
    PhaseState,
    Torus,
    builtin_potential,
    eval_hamiltonian,
)


def fd_grad(spec, q, h=1e-6):
    g = np.zeros_like(q, dtype=float)
    for i in range(q.size):
        e = np.zeros_like(q)
        e[i] = h
        g[i] = (spec.eval((q + e)[None, :])[0] - spec.eval((q - e)[None, :])[0]) / (2 * h)
    return g


def test_flat_is_zero_everywhere():
    spec = builtin_potential("flat", {"d": 1, "L": 1.0})
    q = np.linspace(0, 1, 7)[:, None]
    assert np.all(spec.eval(q) == 0)
    assert np.all(spec.grad(q) == 0)
    assert np.all(spec.hessian(q) == 0)
    assert isinstance(spec.domain, Torus)


def test_quadratic_on_fullspace():
    spec = builtin_potential("quadratic", {"omega": 1.0, "d": 1})
    assert isinstance(spec.domain, FullSpace)
    assert spec.eval(np.array([[2.0]]))[0] == 2.0
    assert spec.grad(np.array([[2.0]]))[0, 0] == 2.0


def test_cosine_pinned_gradient():
    spec = builtin_potential("cosine", {"h": 1.0, "L": 1.0})
    # V(q) = cos(2 pi q), so V'(1/4) = -2 pi
    g = spec.grad(np.array([[0.25]]))[0, 0]
    assert g == pytest.approx(-2.0 * math.pi, abs=1e-12)
    assert spec.eval(np.array([[0.25]]))[0] == pytest.approx(0.0, abs=1e-12)


def test_unknown_name_and_missing_param():
    with pytest.raises(InvalidArgumentError):
        builtin_potential("nope", {})
    with pytest.raises(InvalidArgumentError):
        builtin_potential("separable", {})  # parts is mandatory
    with pytest.raises(InvalidArgumentError):
        builtin_potential("cosine", {"h": 1.0, "L": 1.0, "junk": 2})


def test_torus_eval_periodic_at_dyadic_points():
    spec = builtin_potential("cosine", {"h": 0.7, "L": 1.0})
    # dyadic rationals: q + L is exactly representable, so wrap is exact
    q = np.array([0.0, 0.125, 0.25, 0.5, 0.75])[:, None]
    assert np.array_equal(spec.eval(q), spec.eval(q + 1.0))
    assert np.array_equal(spec.grad(q), spec.grad(q + 1.0))


@pytest.mark.parametrize(
    "name,params",
    [
        ("cosine", {"h": 1.0, "L": 1.0}),
        ("cosine", {"h": 0.5, "modes": 2, "L": 2.0}),
        ("quadratic", {"omega": 1.3}),
        ("quadratic", {"omega": 1.0, "L": 14.0}),
        ("double_well", {"a": 1.0, "b": 1.0}),
        ("double_well", {"a": 0.5, "b": 1.2, "L": 10.0}),
    ],
)
def test_grad_hessian_match_finite_differences(name, params):
    spec = builtin_potential(name, params)
    pts = [0.1, 0.45, 1.7, -0.8] if isinstance(spec.domain, FullSpace) else [0.1, 0.3, 0.45]
    for q0 in pts:
        q = np.array([q0], dtype=float)
        g = spec.grad(q[None, :])[0]
        assert np.allclose(g, fd_grad(spec, q), atol=1e-5, rtol=1e-5)
        h = 1e-5
        hess_fd = (spec.grad(q[None, :] + h)[0, 0] - spec.grad(q[None, :] - h)[0, 0]) / (2 * h)
        assert spec.hessian(q[None, :])[0, 0, 0] == pytest.approx(hess_fd, rel=1e-4, abs=1e-4)


def test_separable_sums_parts_exactly():
    spec = builtin_potential(
        "separable",
        {"parts": [{"name": "cosine", "params": {"h": 1.0, "L": 1.0}},
                   {"name": "cosine", "params": {"h": 0.5, "L": 1.0}}]},
    )
    assert spec.domain.dim == 2
    p1 = builtin_potential("cosine", {"h": 1.0, "L": 1.0})
    p2 = builtin_potential("cosine", {"h": 0.5, "L": 1.0})
    q = np.array([[0.2, 0.7], [0.05, 0.4]])
    want = p1.eval(q[:, :1]) + p2.eval(q[:, 1:])
    assert np.allclose(spec.eval(q), want, atol=1e-14)
    hess = spec.hessian(q)
    assert np.allclose(hess[:, 0, 1], 0.0)  # cross terms vanish for sums
    assert np.allclose(hess[:, 0, 0], p1.hessian(q[:, :1])[:, 0, 0])


@given(st.floats(min_value=-0.49, max_value=0.49), st.floats(min_value=0.1, max_value=3.0))
def test_hamiltonian_quadratic_identity(q0, p0):
    spec = builtin_potential("quadratic", {"omega": 1.0})
    params = EnsembleParams(beta=1.0, mass=2.0)
    s = PhaseState(np.array([q0]), np.array([p0]))
    assert eval_hamiltonian(spec, params, s) == pytest.approx(0.5 * q0 * q0 + p0 * p0 / 4.0)


def test_hamiltonian_pinned_values():
    spec = builtin_potential("quadratic", {"omega": 1.0})
    params = EnsembleParams()
    assert eval_hamiltonian(spec, params, PhaseState(np.array([1.0]), np.array([1.0]))) == 1.0
    cos1 = builtin_potential("cosine", {"h": 1.0, "L": 1.0})
    val = eval_hamiltonian(cos1, params, PhaseState(np.array([0.25]), np.array([2.0])))
    assert val == pytest.approx(2.0, abs=1e-12)


def test_phase_state_validation():
    with pytest.raises(InvalidArgumentError):
        PhaseState(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        PhaseState(np.zeros((2, 2)), np.zeros((2, 2)))


def test_ensemble_params_validation():
    with pytest.raises(InvalidArgumentError):
        EnsembleParams(beta=0.0)
    with pytest.raises(InvalidArgumentError):
        EnsembleParams(mass=-1.0)
    with pytest.raises(InvalidArgumentError):
        EnsembleParams(gamma=-0.1)
    EnsembleParams(gamma=0.0)  # frictionless is allowed


CONTRACT_CASES = {
    "flat-d1": ("flat", {"d": 1}),
    "flat-d2": ("flat", {"d": 2, "L": 2.0}),
    "quadratic-d1": ("quadratic", {"omega": 1.3}),
    "quadratic-d3": ("quadratic", {"omega": 1.3, "d": 3}),
    "quadratic-L-d1": ("quadratic", {"omega": 1.3, "L": 3.0}),
    "quadratic-L-d3": ("quadratic", {"omega": 1.3, "L": 3.0, "d": 3}),
    "double_well": ("double_well", {"a": 0.5, "b": 1.2}),
    "double_well-L": ("double_well", {"a": 0.5, "b": 1.2, "L": 4.0}),
    "cosine-modes2-d2": ("cosine", {"h": 0.7, "modes": 2, "d": 2}),
    "separable-torus": ("separable", {"parts": [{"name": "cosine", "params": {"h": 1.0, "L": 1.0}},
                                                {"name": "cosine", "params": {"h": 0.5, "L": 1.0, "modes": 2}}]}),
    "separable-R2": ("separable", {"parts": [{"name": "quadratic", "params": {"omega": 1.3}},
                                             {"name": "double_well", "params": {"a": 0.5}}]}),
}


@pytest.mark.parametrize("name, params", CONTRACT_CASES.values(), ids=CONTRACT_CASES.keys())
@pytest.mark.parametrize("batch", [(), (5,), (5, 3)], ids=["point", "n", "n-m"])
def test_builtins_follow_the_one_shape_contract(name, params, batch):
    """(..., d) in; (...), (..., d), (..., d, d) float64 out, each row bitwise its single-point call."""
    spec = builtin_potential(name, params)
    d = spec.domain.dim
    q = np.random.default_rng(3).uniform(-2.0, 2.0, size=batch + (d,))
    outs = (spec.eval(q), spec.grad(q), spec.hessian(q))
    for out, shape, f in zip(outs, (batch, batch + (d,), batch + (d, d)), (spec.eval, spec.grad, spec.hessian)):
        assert out.shape == shape and out.dtype == np.float64
        for idx in np.ndindex(batch):
            assert np.array_equal(out[idx], f(q[idx]))
    if name == "separable":
        parts = [builtin_potential(p["name"], p["params"]) for p in params["parts"]]
        cols = [q[..., :1], q[..., 1:]]
        assert np.array_equal(outs[0], parts[0].eval(cols[0]) + parts[1].eval(cols[1]))
        assert np.array_equal(outs[1], np.concatenate([s.grad(c) for s, c in zip(parts, cols)], axis=-1))
        diag = np.concatenate([s.hessian(c)[..., 0] for s, c in zip(parts, cols)], axis=-1)
        assert np.array_equal(outs[2], diag[..., None] * np.eye(d))


@pytest.mark.parametrize("name, params, message", [
    ("cosine", {"L": "abc"}, "'L' must be a real number"),
    ("cosine", {"h": [1]}, "'h' must be a real number"),
    ("cosine", {"modes": 1.5}, "'modes' must be an integer"),
    ("cosine", {"d": True}, "'d' must be an integer"),
    ("flat", {"d": "2"}, "'d' must be an integer"),
    ("quadratic", {"L": None, "omega": "1"}, "'omega' must be a real number"),
    ("double_well", {"b": {}}, "'b' must be a real number"),
])
def test_potential_parameter_of_the_wrong_type_is_refused(name, params, message):
    with pytest.raises(InvalidArgumentError, match=message):
        builtin_potential(name, params)


def test_integral_values_count_as_integers():
    assert builtin_potential("cosine", {"d": 2.0, "modes": 2.0}).domain.dim == 2
    assert builtin_potential("cosine", {"modes": 2.0}).name == builtin_potential("cosine", {"modes": 2}).name
    assert builtin_potential("flat", {"d": np.int64(3), "L": 2}).domain == Torus(2.0, 3)
