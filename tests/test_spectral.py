import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypokit import (
    EnsembleParams,
    InvalidArgumentError,
    UnsupportedDomainError,
    builtin_potential,
    spectral,
)
from hypokit.model import _center_cell
from hypokit.spectral import (
    GAUSS_HERMITE_MAX_NODES,
    assemble_generator,
    build_basis,
    hermite_values,
    poincare_constant,
    project_phase_function,
    project_position_function,
    reduced_generator,
    semigroup_decay_check,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)


def test_flat_basis_gram_is_scaled_identity(unit_params):
    spec = builtin_potential("flat", {"L": 2.0})
    basis = build_basis(spec, unit_params, Kq=4, Np=3, n_quad=64)
    assert basis.size == 9 * 3
    # flat weight: Fourier modes orthonormal up to the cell volume
    assert np.allclose(basis.gram_q, 2.0 * np.eye(9), atol=1e-12)


def test_basis_preconditions(unit_params):
    flat = builtin_potential("flat", {"L": 1.0})
    with pytest.raises(InvalidArgumentError):
        build_basis(flat, unit_params, Kq=0, Np=4, n_quad=64)
    with pytest.raises(InvalidArgumentError):
        build_basis(flat, unit_params, Kq=4, Np=1, n_quad=64)
    with pytest.raises(InvalidArgumentError):
        build_basis(flat, unit_params, Kq=8, Np=4, n_quad=32)  # < 8 Kq
    full = builtin_potential("quadratic", {"omega": 1.0})
    with pytest.raises(UnsupportedDomainError):
        build_basis(full, unit_params, Kq=4, Np=4, n_quad=64)


def _levels(red):
    """Hermite level of each reduced coordinate."""
    r = red.basis.wq.shape[1]
    return np.repeat(np.arange(red.basis.Np), r)[r - red.n0:]


def _same_bits(a, b):
    """Equal values with equal signs of zero, which np.array_equal alone does not tell apart."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_reduced_symmetry_and_friction_diagonal(cosine_asm):
    """L_ham exactly antisymmetric; the friction diagonal of -L is -gamma (-n / m) on level n, bitwise:
    -0.0 on level 0 and gamma n / m above it."""
    red = reduced_generator(cosine_asm.basis)
    ham = -red.neg_operator(0.0)
    assert ham.shape == (red.dim, red.dim)
    assert np.array_equal(ham, -ham.T)
    for gamma in (0.125, 1.0, 8.0):
        diag = np.concatenate(red.level_blocks(gamma).diags)
        assert _same_bits(diag, -gamma * (-_levels(red) / cosine_asm.basis.mass))
        assert np.all(diag >= 0.0) and np.all(np.signbit(diag[: red.n0])) and not np.any(diag[: red.n0])


def test_ham_couples_adjacent_levels_only(cosine_asm_small):
    red = reduced_generator(cosine_asm_small.basis)
    ham = -red.neg_operator(0.0)
    lev = _levels(red)
    far = np.abs(lev[:, None] - lev[None, :]) != 1
    assert np.all(ham[far] == 0.0)
    assert np.any(ham[~far] != 0.0)


def test_reduced_generator_stores_no_dense_array(cosine_asm):
    """At Kq16/Np32 (dim 1055) the level blocks total a few kB, not dim^2 doubles."""
    red = reduced_generator(cosine_asm.basis)
    arrays = [v for v in vars(red).values() if isinstance(v, np.ndarray)]
    assert all(a.ndim < 2 or a.shape[0] < red.dim for a in arrays)
    assert sum(a.nbytes for a in arrays) < 1_000_000


def test_reduced_round_trip(cosine_asm_small):
    red = reduced_generator(cosine_asm_small.basis)
    y = np.random.default_rng(0).standard_normal(red.dim)
    assert np.abs(red.to_reduced(red.to_full(y)) - y).max() <= 1e-13 * np.abs(y).max()


def test_pi0_is_momentum_average_projection(cosine_asm_small):
    """Pi0 keeps the first n0 reduced coordinates: functions of q live there only."""
    basis = cosine_asm_small.basis
    red = reduced_generator(basis)
    z_q = red.to_reduced(project_phase_function(
        basis, lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p)))
    z_p = red.to_reduced(project_phase_function(
        basis, lambda q, p: np.cos(2 * math.pi * q) * p))
    assert np.linalg.norm(z_q[: red.n0]) > 0.1
    assert np.abs(z_q[red.n0:]).max() <= 1e-12
    assert np.abs(z_p[: red.n0]).max() <= 1e-12


@pytest.mark.parametrize("beta,mass,gamma", [(1.0, 1.0, 1.0), (2.0, 0.5, 0.3)])
def test_generator_acts_as_analytic_langevin_generator(cosine_spec, beta, mass, gamma):
    """L p = -V'(q) - gamma p / m, and L_ham H = 0, on projected functions."""
    params = EnsembleParams(beta=beta, mass=mass, gamma=gamma)
    basis = build_basis(cosine_spec, params, Kq=8, Np=12, n_quad=128)
    red = reduced_generator(basis)

    def proj(f):
        return red.to_reduced(project_phase_function(basis, f))

    z_p = proj(lambda q, p: np.ones_like(q) * p)
    want = proj(lambda q, p: -cosine_spec.grad(q) - gamma * p / mass)
    got = -red.neg_operator(gamma) @ z_p
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    z_h = proj(lambda q, p: cosine_spec.eval(q)[:, None] + p * p / (2.0 * mass))
    assert np.abs(red.neg_operator(0.0) @ z_h).max() <= 1e-10 * np.linalg.norm(z_h)


def test_assembly_rejects_mismatched_params(cosine_spec, unit_params):
    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=4, n_quad=64)
    with pytest.raises(InvalidArgumentError, match="gamma must be positive"):
        assemble_generator(basis, 0.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_assembly_refuses_a_friction_that_is_not_positive_and_finite(cosine_spec, unit_params, gamma):
    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=4, n_quad=64)
    with pytest.raises(InvalidArgumentError, match="gamma must be"):
        assemble_generator(basis, gamma)


def test_assembly_params_are_the_basis_ensemble_at_the_bound_friction(cosine_spec):
    basis = build_basis(cosine_spec, EnsembleParams(beta=2.0, mass=0.5), Kq=4, Np=4, n_quad=64)
    assert basis.spec is cosine_spec and basis.L == cosine_spec.domain.length
    assert assemble_generator(basis, 8.0).params == EnsembleParams(beta=2.0, mass=0.5, gamma=8.0)


def test_reduced_generator_shape_and_stability(cosine_asm_small):
    red = reduced_generator(cosine_asm_small.basis)
    assert red.dim == cosine_asm_small.basis.size - 1  # one constant deflated
    ev = np.linalg.eigvals(-red.neg_operator(1.0))
    assert ev.real.max() <= 1e-10  # generator spectrum sits in the left half-plane


def test_ou_gap_pinned_values(quad_spec):
    # drift-matrix oracle: gap = gamma/2 below critical damping
    params = EnsembleParams(beta=1.0, mass=1.0, gamma=0.5)
    basis = build_basis(quad_spec, params, Kq=16, Np=32, n_quad=256)
    res = spectral_gap(assemble_generator(basis, params.gamma))
    assert res.gap == pytest.approx(0.25, abs=1e-6)
    assert res.eig_count_checked == basis.size - 1

    params4 = EnsembleParams(beta=1.0, mass=1.0, gamma=4.0)
    basis4 = build_basis(quad_spec, params4, Kq=16, Np=32, n_quad=256)
    res4 = spectral_gap(assemble_generator(basis4, params4.gamma))
    assert res4.gap == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-6)


def test_cosine_gap_value_is_resolution_stable(cosine_spec, unit_params, cosine_asm):
    # measured drift (16,32) -> (24,48) is 2.3e-4 relative; the next
    # refinement moves only 1.4e-5, so 1e-3 is a safe Cauchy threshold
    gap = spectral_gap(cosine_asm).gap
    basis2 = build_basis(cosine_spec, unit_params, Kq=24, Np=48, n_quad=384)
    gap2 = spectral_gap(assemble_generator(basis2, unit_params.gamma)).gap
    assert gap2 == pytest.approx(gap, rel=1e-3)


def test_poincare_flat_torus(unit_params):
    spec = builtin_potential("flat", {"L": 1.0})
    r = poincare_constant(build_basis(spec, unit_params, Kq=16, Np=2))
    assert r == pytest.approx(4.0 * math.pi**2, abs=1e-10)
    # beta rescaling leaves R_nu alone for the flat measure
    r2 = poincare_constant(build_basis(spec, EnsembleParams(beta=2.0), Kq=16, Np=2))
    assert r2 == pytest.approx(4.0 * math.pi**2, abs=1e-8)


def test_poincare_rejects_full_space(unit_params):
    full = builtin_potential("quadratic", {"omega": 1.0})
    with pytest.raises(UnsupportedDomainError):
        poincare_constant(build_basis(full, unit_params, Kq=8, Np=2))


def test_semigroup_decay_prefactor_one(cosine_spec, unit_params):
    for spec in (builtin_potential("flat", {"L": 1.0}), cosine_spec):
        basis = build_basis(spec, unit_params, Kq=16, Np=2, n_quad=256)
        r_nu = poincare_constant(basis)
        res = semigroup_decay_check(basis, r_nu, times=[0.01, 0.1, 1.0])
        assert res.ok
        assert res.max_ratio <= 1.0 + 1e-8


def test_semigroup_decay_reads_beta_from_the_basis(cosine_spec):
    """At beta = 2 the bound is exp(-r_nu t / 2), with no beta passed to the check."""
    params = EnsembleParams(beta=2.0)
    basis = build_basis(cosine_spec, params, Kq=16, Np=2, n_quad=256)
    r_nu = poincare_constant(basis)
    times = np.array([0.01, 0.1, 1.0])
    res = semigroup_decay_check(basis, r_nu, times)
    assert np.array_equal(res.bounds, np.exp(-r_nu * times / 2.0))
    assert res.ok and res.max_ratio <= 1.0 + 1e-8
    # at beta = 2 the slowest mode decays at r_nu / 2 exactly, so the beta = 1 bound would fail
    assert np.any(res.norms > np.exp(-r_nu * times))


@pytest.mark.parametrize("times, r_scale, want", [
    ([math.nan], 1.0, None), ([math.inf], 1.0, None), ([-1.0], 1.0, None),
    ([1.0], math.nan, None), ([1.0], math.inf, None), ([1.0], 0.0, None), ([1.0], -1.0, None),
    ([0.0, 1e300], 0.5, (True, 1.0)), ([1e300], 2.0, (False, math.inf)),
    ([1.0, 10.0, 100.0, 1e4], 1.0, (True, pytest.approx(1.00099, rel=1e-5))),
])
def test_semigroup_decay_check_refuses_bad_inputs_and_reads_long_times(cosine_spec, times, r_scale, want):
    """Times that are not finite and nonnegative, and an r_nu that is not positive and finite, are refused.
    Each ratio is exp(t (lambda_max(S) + r_nu / beta)), so a long time reads 0 or inf, never NaN, and warns
    of nothing (RuntimeWarnings are errors here).  The slack is on the rate: on this basis the refined r_nu
    is 2.5e-9 relative above the basis's own rate, inside DECAY_TOL, so the bound holds at every time, while
    its ratio at t = 1e4 reads 1.00099."""
    basis = build_basis(cosine_spec, EnsembleParams(beta=50.0), Kq=16, Np=2)
    r_nu = r_scale * poincare_constant(basis)
    if want is None:
        with pytest.raises(InvalidArgumentError):
            semigroup_decay_check(basis, r_nu, times)
    else:
        res = semigroup_decay_check(basis, r_nu, times)
        assert (res.ok, res.max_ratio) == want


@pytest.mark.parametrize("name, pot, beta, Kq", [
    ("cosine", {"h": 1.0, "L": 1.0}, 1.0, 8),
    ("cosine", {"h": 1.0, "L": 1.0}, 50.0, 8),  # rank 10 of 17: the Gram cut drops part of each derivative
    ("double_well", {"L": 4.0}, 5.0, 24),
])
def test_overdamped_poisson_is_the_large_friction_limit(name, pot, beta, Kq):
    """d(gamma) = sigma^2_Langevin(gamma) / gamma - sigma^2_overdamped of cos_q shrinks like 1 / gamma^2:
    -(1/beta) M^T M is the large-friction limit of the Galerkin Langevin generator, on rank-cut bases too."""
    basis = build_basis(builtin_potential(name, pot), EnsembleParams(beta=beta), Kq=Kq, Np=16)
    c = 2.0 * math.pi / basis.L
    ovd = solve_poisson_overdamped(basis, project_position_function(basis, lambda q: np.cos(c * q))).sigma2
    phi = project_phase_function(basis, lambda q, p: np.cos(c * q) + np.zeros_like(p))
    d = [solve_poisson(assemble_generator(basis, g), phi).sigma2 / g - ovd for g in (64.0, 256.0, 1024.0)]
    assert 14.0 <= d[0] / d[1] <= 18.0 and 14.0 <= d[1] / d[2] <= 18.0


def test_flat_overdamped_poisson_closed_form(unit_params):
    """For the flat torus, -L phi = cos(2 pi q) solves exactly: sigma2 = 1/(4 pi^2)."""
    spec = builtin_potential("flat", {"L": 1.0})
    basis = build_basis(spec, unit_params, Kq=16, Np=2, n_quad=256)
    phi_q = project_position_function(basis, lambda q: np.cos(2 * math.pi * q))
    sol = solve_poisson_overdamped(basis, phi_q)
    assert sol.sigma2 == pytest.approx(1.0 / (4.0 * math.pi**2), abs=1e-8)


def test_langevin_poisson_ou_oracle(quad_spec):
    # time-average of the position coordinate: sigma2 = 2 gamma exactly for OU
    params = EnsembleParams(beta=1.0, mass=1.0, gamma=0.5)
    basis = build_basis(quad_spec, params, Kq=16, Np=32, n_quad=256)
    asm = assemble_generator(basis, params.gamma)
    phi = project_phase_function(
        basis, lambda q, p: _center_cell(q, 14.0) * np.ones_like(p)
    )
    sol = solve_poisson(asm, phi)
    assert sol.sigma2 == pytest.approx(2.0 * params.gamma, abs=1e-6)


def test_solve_poisson_holds_one_sectors_couplings_at_a_time(cosine_spec, unit_params, traced_peak):
    """At Kq16/Np64 the traced peak was 619 kB with both sectors' couplings cached and is 463 kB:
    one sector's couplings (137 kB) and chain (153 kB) with their vectors, under twice their sum."""
    basis = build_basis(cosine_spec, unit_params, Kq=16, Np=64, n_quad=256)
    asm = assemble_generator(basis, 1.0)
    red = reduced_generator(basis)
    largest = 0
    for s in range(red.basis.n_sectors):
        blocks = red.level_blocks(1.0, sector=s)
        chain_bytes = traced_peak(spectral.hermite_chain, blocks, 0.0)[1]
        largest = max(largest, sum(b.nbytes for b in blocks.couplings) + chain_bytes)
    phi = project_phase_function(basis, lambda q, p: np.cos(2 * math.pi * q) + np.sin(2 * math.pi * q) + p)
    sol, peak = traced_peak(solve_poisson, asm, phi)
    assert sol.sigma2 > 0
    assert peak < 2 * largest


def test_poisson_insensitive_to_constant_shift(cosine_asm):
    basis = cosine_asm.basis
    f = lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p)
    g = lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p) + 5.0
    s1 = solve_poisson(cosine_asm, project_phase_function(basis, f))
    s2 = solve_poisson(cosine_asm, project_phase_function(basis, g))
    assert s2.sigma2 == pytest.approx(s1.sigma2, rel=1e-10)


def test_projection_round_trip(cosine_asm_small):
    basis = cosine_asm_small.basis
    f = lambda q, p: np.sin(2 * math.pi * q) * np.ones_like(p)
    coeffs = project_phase_function(basis, f)
    p = np.array([-0.5, 0.0, 1.3])
    c = coeffs.reshape(basis.Np, basis.n_q)  # Hermite-major
    got = basis.F @ c.T @ hermite_values(basis.Np, p / basis.sigma_p).T  # (nodes, p)
    assert np.allclose(got, np.sin(2 * math.pi * basis.nodes)[:, None], atol=1e-10)


def test_position_projection_round_trip(cosine_asm_small):
    basis = cosine_asm_small.basis
    coeffs = project_position_function(basis, lambda q: np.cos(4 * math.pi * q))
    nodes = basis.nodes
    vals = basis.F @ coeffs
    assert np.allclose(vals, np.cos(4 * math.pi * nodes), atol=1e-10)


@pytest.mark.parametrize("name,pot,beta,Kq", [
    ("cosine", {"h": 1.0, "L": 1.0}, 1.0, 8),
    ("cosine", {"h": 1.0, "L": 1.0}, 2.0, 8),
    ("quadratic", {"omega": 1.0, "L": 14.0}, 1.0, 4),
])
def test_gram_solves_match_cholesky_on_full_rank_bases(name, pot, beta, Kq):
    """Solving through the basis whitening equals a Cholesky solve when nothing is cut.

    Both are compared in the L2(mu) norm of the functions the coefficients
    represent: the coefficients themselves agree only to cond(gram_q) * eps,
    8.6e5 * eps for the 14-sigma quadratic cell at Kq=4.
    """
    spec = builtin_potential(name, pot)
    params = EnsembleParams(beta=beta, mass=1.0, gamma=1.0)
    basis = build_basis(spec, params, Kq=Kq, Np=6, n_quad=128)
    assert basis.wq.shape[1] == basis.n_q
    cho = sla.cho_factor(basis.gram_q)
    u = sla.cholesky(basis.gram_q)  # gram_q = u^T u

    def close(got, want):
        assert np.linalg.norm(u @ (got - want)) <= 1e-12 * np.linalg.norm(u @ want)

    f_q = lambda q: np.cos(2 * math.pi * q / basis.L) + 0.3 * np.sin(6 * math.pi * q / basis.L)
    close(project_position_function(basis, f_q),
          sla.cho_solve(cho, basis.F.T @ (basis.weights * f_q(basis.nodes))))

    f_qp = lambda q, p: spec.eval(q)[:, None] + p * p / 2.0 + p * np.sin(2 * math.pi * q / basis.L)
    x, w = np.polynomial.hermite_e.hermegauss(basis.Np + 8)
    t = f_qp(basis.nodes[:, None], basis.sigma_p * x[None, :]) @ (
        (w / math.sqrt(2 * math.pi))[:, None] * hermite_values(basis.Np, x))
    close(project_phase_function(basis, f_qp).reshape(basis.Np, basis.n_q).T,
          sla.cho_solve(cho, basis.F.T @ (basis.weights[:, None] * t)))

    # the overdamped operator -(1/beta) M^T M, M = c_t q0, against its exact Galerkin form
    wq0 = basis.wq @ basis.q0
    want = -(1.0 / beta) * (wq0.T @ basis.D.T @ basis.gram_q @ basis.D @ wq0)
    assert np.linalg.norm(spectral._overdamped_reduced(basis) - want) <= 1e-12 * np.linalg.norm(want)


def _shift_invariants(spec, params):
    """(gap, Langevin Poisson sigma^2 of cos 2 pi q, r_nu) on a small basis."""
    basis = build_basis(spec, params, Kq=6, Np=8, n_quad=64)
    asm = assemble_generator(basis, params.gamma)
    phi = project_phase_function(basis, lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p))
    return (spectral_gap(asm).gap, solve_poisson(asm, phi).sigma2, poincare_constant(basis))


@pytest.fixture(scope="module")
def unshifted_invariants(cosine_spec, unit_params):
    return _shift_invariants(cosine_spec, unit_params)


@settings(max_examples=20)
@given(c=st.floats(min_value=-800.0, max_value=800.0))
@example(c=-800.0)
@example(c=800.0)
def test_outputs_invariant_under_constant_shift_of_v(cosine_spec, unit_params, unshifted_invariants, c):
    """V + c gives the same gap, sigma^2 and r_nu: the weight is unnormalized everywhere."""
    shifted = dataclasses.replace(cosine_spec, eval=lambda q: cosine_spec.eval(q) + c)
    got = _shift_invariants(shifted, unit_params)
    for g, w in zip(got, unshifted_invariants):
        assert g == pytest.approx(w, rel=1e-12)


# ---------------------------------------------------------------------------
# reflection-parity sectors


def _asymmetric_spec():
    """cos 2 pi q + 0.3 sin 4 pi q on the unit torus: not even about q = 0."""
    c = 2.0 * math.pi
    base = builtin_potential("cosine", {"L": 1.0})
    return dataclasses.replace(
        base,
        eval=lambda q: np.cos(c * q[..., 0]) + 0.3 * np.sin(2.0 * c * q[..., 0]),
        grad=lambda q: -c * np.sin(c * q) + 0.6 * c * np.cos(2.0 * c * q),
        hessian=None,
        name="asymmetric",
    )


SPLIT_OBSERVABLES = ("cos_q", "sin_q", "q_centered", "p1", "p_squared", "energy")

# (potential, params, ensemble, gamma, Kq, Np): frictions on both sides of 1, a
# gap in the odd sector (h=5), three wells per cell, beta/m != 1, the two
# confining cells, rank-cut beta=50 bases and the shortest Hermite chains.
SPLIT_CASES = [
    ("cosine", {"h": 1.0, "L": 1.0}, {}, 0.125, 10, 20),
    ("cosine", {"h": 1.0, "L": 1.0}, {}, 8.0, 10, 20),
    ("cosine", {"h": 5.0, "L": 1.0}, {}, 1.0, 10, 20),
    ("cosine", {"h": 1.0, "L": 1.0, "modes": 3}, {}, 1.0, 10, 20),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 2.0, "mass": 0.5}, 1.0, 10, 20),
    ("double_well", {"L": 4.0}, {}, 1.0, 10, 20),
    ("quadratic", {"omega": 1.0, "L": 14.0}, {}, 1.0, 10, 20),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 50.0}, 1.0, 4, 8),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 50.0}, 1.0, 6, 8),
    ("cosine", {"h": 1.0, "L": 1.0}, {}, 1.0, 6, 2),
    ("cosine", {"h": 1.0, "L": 1.0}, {}, 1.0, 6, 3),
]


def _assert_spectra_match(got, want, norm1):
    """Same multiset of eigenvalues, to 1e-10 ||L||_1, by an optimal one-to-one matching."""
    from scipy.optimize import linear_sum_assignment

    assert got.size == want.size
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-10 * norm1


def _assert_split_matches_full_operator(spec, params, basis):
    """Gap, spectrum, ||L||_1 and the six Poisson sigma^2 against the one full -L of the same frame."""
    from hypokit import cli

    asm = assemble_generator(basis, params.gamma)
    red = reduced_generator(basis)
    full = red.neg_operator(params.gamma)  # sector=None: every coordinate, block diagonal in the sectors
    norm1 = float(np.linalg.norm(full, 1))
    want = sla.eigvals(full)
    res = spectral_gap(asm)
    assert res.gap == pytest.approx(float(want.real.min()), rel=1e-10)
    assert res.norm1 == pytest.approx(norm1, rel=1e-12)
    assert res.eig_count_checked == red.dim
    _assert_spectra_match(res.eigenvalues, want, norm1)
    for name in SPLIT_OBSERVABLES:
        f = cli._observable(name, spec, params)
        phi = project_phase_function(
            basis, lambda q, p: f(q[..., None], p[..., None]) + np.zeros((q.size, p.size)))
        b = red.to_reduced(phi)
        z = sla.solve(full, b)
        sigma2 = 2.0 * float(z @ b) / red.basis.mass_nu
        # relative where sigma^2 is a sum of like-signed terms; the Cauchy-Schwarz
        # scale of the pairing bounds the error where it cancels to ~0 (p1 in a harmonic cell)
        pairing = 2.0 * float(np.linalg.norm(z) * np.linalg.norm(b)) / red.basis.mass_nu
        assert solve_poisson(asm, phi).sigma2 == pytest.approx(sigma2, rel=1e-10, abs=1e-10 * pairing), name
    return res, want, norm1


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", SPLIT_CASES)
def test_sector_solves_match_the_full_operator(name, pot, ens, gamma, Kq, Np):
    spec = builtin_potential(name, pot)
    params = EnsembleParams(gamma=gamma, **ens)
    basis = build_basis(spec, params, Kq=Kq, Np=Np)
    assert basis.n_sectors == 2
    _assert_split_matches_full_operator(spec, params, basis)


def test_sector_solves_match_the_full_operator_at_the_defaults(cosine_spec, unit_params, cosine_asm):
    """Kq16/Np32 splits 1055 = 527 + 528; the 1.5x refinement of spectrum agrees too."""
    red = reduced_generator(cosine_asm.basis)
    assert [red.sector_index(s).size for s in range(red.basis.n_sectors)] == [527, 528]
    assert red.sector_names == ("even", "odd")
    res, want, norm1 = _assert_split_matches_full_operator(cosine_spec, unit_params, cosine_asm.basis)
    assert res.sector == "even"
    from hypokit import cli

    def rows(eigs):  # the --dump-eigs rows
        return eigs[cli._eig_row_order(eigs, norm1)]

    assert np.abs(rows(res.eigenvalues) - rows(want)).max() <= 1e-10 * norm1
    basis2 = build_basis(cosine_spec, unit_params, Kq=24, Np=48)
    red2 = reduced_generator(basis2)
    assert [red2.sector_index(s).size for s in range(2)] == [1175, 1176]
    refined = spectral_gap(assemble_generator(basis2, unit_params.gamma)).gap
    assert refined == pytest.approx(float(sla.eigvals(red2.neg_operator(1.0)).real.min()), rel=1e-10)


def test_sectors_do_not_couple(cosine_asm_small):
    """c_t has only off-parity blocks, so -L is exactly block diagonal in the sectors."""
    red = reduced_generator(cosine_asm_small.basis)
    same = red.basis.labels[:, None] == red.basis.labels[None, :]
    assert np.all(red.c_t[same] == 0.0) and np.any(red.c_t != 0.0)
    full = red.neg_operator(0.7)
    idx = [red.sector_index(s) for s in range(2)]
    assert np.all(full[np.ix_(idx[0], idx[1])] == 0.0)
    assert np.sort(np.concatenate(idx)).tolist() == list(range(red.dim))
    for s in range(2):
        assert np.array_equal(red.neg_operator(0.7, sector=s), full[np.ix_(idx[s], idx[s])])


def test_gap_sector_is_the_parity_of_the_slowest_mode(cosine_spec, unit_params):
    """At h=5 the slowest mode is odd under (q, p) -> (-q, -p)."""
    spec = builtin_potential("cosine", {"h": 5.0, "L": 1.0})
    basis = build_basis(spec, unit_params, Kq=10, Np=20)
    assert spectral_gap(assemble_generator(basis, unit_params.gamma)).sector == "odd"


def test_asymmetric_potential_keeps_one_sector(unit_params):
    """An off-parity Gram block of O(0.1) leaves one sector: the full operator, as before the split."""
    spec = _asymmetric_spec()
    basis = build_basis(spec, unit_params, Kq=8, Np=12)
    assert basis.n_sectors == 1 and np.all(basis.labels == 0)
    red = reduced_generator(basis)
    assert red.sector_names == ("all",)
    assert np.array_equal(red.neg_operator(1.0, sector=0), red.neg_operator(1.0))
    res, _, _ = _assert_split_matches_full_operator(spec, unit_params, basis)
    assert res.sector == "all"
    evals, vecs = sla.eigh(basis.gram_q)  # the one-set whitening is the plain eigh of the Gram
    keep = evals > 1e-11 * evals[-1]
    assert np.array_equal(basis.wq, vecs[:, keep] / np.sqrt(evals[keep]))


@pytest.mark.parametrize("beta,Kq,Np,rank", [(1.0, 16, 32, 33), (50.0, 4, 8, 7)])
def test_parity_whitening_keeps_the_rank(cosine_spec, beta, Kq, Np, rank):
    """The cut is global, so splitting the whitening by parity keeps rank_q."""
    params = EnsembleParams(beta=beta)
    basis = build_basis(cosine_spec, params, Kq=Kq, Np=Np)
    assert basis.n_sectors == 2
    assert basis.wq.shape[1] == rank


def test_default_gap_solves_only_half_size_matrices(cosine_asm, monkeypatch):
    """spectral_gap on an even potential never hands the eigensolver more than ceil(N/2) + 1 rows."""
    real = spectral._gap_of_operator
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_gap_of_operator", spy)
    res = spectral_gap(cosine_asm)
    n = reduced_generator(cosine_asm.basis).dim
    assert sorted(sizes) == [527, 528] and sum(sizes) == res.eig_count_checked == n
    assert max(sizes) <= math.ceil(n / 2) + 1


def test_dense_gap_forms_each_sector_once(cosine_asm_small, monkeypatch):
    """The dense gap solves the dense form of the level blocks it already holds: one level_blocks call per
    sector, and each sector's operator is neg_operator's bit for bit."""
    red = reduced_generator(cosine_asm_small.basis)
    dense = [red.neg_operator(cosine_asm_small.gamma, sector=s) for s in range(2)]
    asked, solved = [], []
    real_blocks, real_gap = spectral.ReducedGenerator.level_blocks, spectral._gap_of_operator

    def spy_blocks(red, gamma, levels=None, sector=None):
        asked.append(sector)
        return real_blocks(red, gamma, levels, sector)

    def spy_gap(op):
        solved.append(op)
        return real_gap(op)

    monkeypatch.setattr(spectral.ReducedGenerator, "level_blocks", spy_blocks)
    monkeypatch.setattr(spectral, "_gap_of_operator", spy_gap)
    spectral_gap(cosine_asm_small)
    assert asked == [0, 1]
    assert all(_same_bits(a, b) and a.flags.f_contiguous for a, b in zip(solved, dense, strict=True))


def test_poisson_solves_a_zero_sector_to_exact_zeros(cosine_asm_small):
    """A right-hand side that is exactly zero in one sector gives exactly zero there."""
    red = reduced_generator(cosine_asm_small.basis)
    y = np.zeros(red.dim)
    y[red.sector_index(1)] = np.random.default_rng(1).standard_normal(red.sector_index(1).size)
    sol = solve_poisson(cosine_asm_small, red.to_full(y))
    assert np.all(red.to_reduced(sol.phi_coeffs)[red.sector_index(0)] == 0.0)
    z = sla.solve(red.neg_operator(1.0), red.to_reduced(red.to_full(y)))
    assert sol.sigma2 == pytest.approx(2.0 * float(z @ red.to_reduced(red.to_full(y))) / red.basis.mass_nu, rel=1e-10)
    assert sol.residual <= 1e-14


def test_exactly_singular_pivot_is_a_numerical_failure():
    from hypokit.errors import NumericalFailureError
    from hypokit.spectral import _lu_solve

    with pytest.raises(NumericalFailureError, match="singular"):
        _lu_solve(np.zeros((3, 3), order="F"), np.ones(3))


# (potential, params, ensemble, gamma, Kq, Np): the defaults at three frictions, spectrum's
# refinement, a double well, a confining cell, a rank-cut beta = 50 basis
EIGVALS_CASES = [
    *[("cosine", {"h": 1.0, "L": 1.0}, {}, g, 16, 32) for g in (0.125, 1.0, 8.0)],
    ("cosine", {"h": 1.0, "L": 1.0}, {}, 1.0, 24, 48),
    ("double_well", {"L": 4.0}, {}, 1.0, 10, 20),
    ("quadratic", {"omega": 1.0, "L": 14.0}, {}, 1.0, 10, 20),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 50.0}, 1.0, 4, 8),
]


def _sector_operators(spec, params, Kq, Np):
    red = reduced_generator(build_basis(spec, params, Kq=Kq, Np=Np))
    return [red.neg_operator(params.gamma, sector=s) for s in range(red.basis.n_sectors)]


def _eigvals_bitwise(ops) -> bool:
    """Whether the gap eigensolve gives SciPy's eigenvalues bit for bit, in the same order."""
    for op in ops:
        want = sla.eigvals(op, check_finite=False)
        got = spectral._gap_of_operator(op)
        if got.dtype != want.dtype or not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return False
    return True


def _bitwise_case_operators(case):
    name, pot, ens, gamma, Kq, Np = case
    spec = _asymmetric_spec() if name == "asymmetric" else builtin_potential(name, pot)
    return _sector_operators(spec, EnsembleParams(gamma=gamma, **ens), Kq, Np)


# every EIGVALS_CASES entry and the one-sector asymmetric potential
BITWISE_CASES = [*EIGVALS_CASES, ("asymmetric", {}, {}, 1.0, 8, 12)]


@pytest.fixture(scope="module")
def single_thread_bits():
    """_eigvals_bitwise of each BITWISE_CASES entry, computed in a child process with one BLAS thread.

    NumPy and SciPy link separate OpenBLAS builds, which agree bit for bit with one thread (the
    setting of the README's reproducibility section and of the benchmark), not with several.
    """
    child = ("import json, test_spectral as t; "
             "print(json.dumps([t._eigvals_bitwise(t._bitwise_case_operators(c)) for c in t.BITWISE_CASES]))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([os.path.dirname(__file__), *sys.path])}
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("gamma", [0.125, 1.0, 8.0])
@pytest.mark.parametrize("name,pot,ens,Kq,Np", [(n, p, e, kq, np_) for n, p, e, g, kq, np_ in EIGVALS_CASES if g == 1.0])
def test_poisson_chain_matches_the_dense_solve(name, pot, ens, Kq, Np, gamma):
    """sigma^2 and the solution of the Hermite-chain Poisson solve against a dense solve per sector."""
    basis = build_basis(builtin_potential(name, pot), EnsembleParams(**ens), Kq=Kq, Np=Np)
    red = reduced_generator(basis)
    y = np.random.default_rng(Kq * Np).standard_normal(red.dim)
    sol = solve_poisson(assemble_generator(basis, gamma), red.to_full(y))
    z_rhs = red.to_reduced(red.to_full(y))
    want = np.empty_like(z_rhs)
    for s in range(red.basis.n_sectors):
        idx = red.sector_index(s)
        want[idx] = sla.solve(red.neg_operator(gamma, sector=s), z_rhs[idx])
    # compared in full coefficients: on the quadratic and beta = 50 Grams to_reduced(to_full(z)) is z only to ~1e-8
    assert np.linalg.norm(sol.phi_coeffs - red.to_full(want)) <= 1e-10 * np.linalg.norm(red.to_full(want))
    assert sol.sigma2 == pytest.approx(2.0 * float(want @ z_rhs) / red.basis.mass_nu, rel=1e-10)
    assert sol.residual <= 1e-13


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", EIGVALS_CASES)
def test_gap_eigensolve_is_bitwise_scipy_eigvals(name, pot, ens, gamma, Kq, Np, single_thread_bits):
    """With one BLAS thread the gap eigensolve returns the bits of scipy.linalg.eigvals on every
    sector operator, so reports stay byte-identical to the SciPy-backed solve."""
    assert single_thread_bits[BITWISE_CASES.index((name, pot, ens, gamma, Kq, Np))]


def test_gap_eigensolve_is_bitwise_scipy_eigvals_in_one_sector(single_thread_bits):
    assert len(_bitwise_case_operators(BITWISE_CASES[-1])) == 1
    assert single_thread_bits[-1]


def test_gap_eigensolve_failure_is_a_numerical_failure(cosine_asm_small):
    """NumPy refuses a non-finite operator; its LinAlgError becomes a numerical failure (exit 2)."""
    from hypokit.errors import NumericalFailureError

    op = reduced_generator(cosine_asm_small.basis).neg_operator(1.0, sector=0)
    op[1, 0] = np.nan
    with pytest.raises(NumericalFailureError, match="eigenvalue solver failed"):
        spectral._gap_of_operator(op)


def test_scan_rows_match_the_full_operator(cosine_spec, unit_params):
    from hypokit.hypo import gamma_scan

    basis = build_basis(cosine_spec, unit_params, Kq=8, Np=16)
    red = reduced_generator(basis)
    ladder = [0.125 * 2.0**k for k in range(7)]
    rows = gamma_scan(basis, ladder, max_workers=1).table.gaps
    want = [float(sla.eigvals(red.neg_operator(g)).real.min()) for g in ladder]
    assert rows == pytest.approx(want, rel=1e-10)


# Dense rung gaps (spectral.spectral_gap) on the ladder 0.125:2:7 of the larger scan bases, pinned:
# computing them costs 14 dense sector eigensolves of 527-1176 rows per basis, 5-20 s each.
PINNED_DENSE_RUNGS = {
    ("cosine", 2.0 * math.pi, 1.0, 16, 32): [0.13193614449244315, 0.2565294327546154, 0.4703311991709052,
                                             0.7117305674424695, 0.5623888070152198, 0.28970857403723776,
                                             0.14549014924265805],
    ("cosine", 1.0, 1.0, 24, 48): [0.13413253952961035, 0.26763675960326744, 0.5319121995343874,
                                   1.0477428667307744, 2.015872037998491, 3.431174872338482, 4.715263157960544],
    ("double_well", 4.0, None, 16, 32): [0.08997421518824782, 0.14851354805940653, 0.22938508730715326,
                                         0.3007683233810831, 0.2730189610344054, 0.17063997175136802,
                                         0.09148375737280814],
    ("cosine", 1.0, 5.0, 16, 32): [0.11524332072984828, 0.23048136176536146, 0.4609221033016906,
                                   0.7210803576198793, 1.178244914995481, 2.130980354600828, 4.109337227834553],
}


def _scan_cases():
    """(potential, params, ensemble, Kq, Np, n_quad, ladder): criterion 7's pendulum, TestGammaScan's
    harmonic cell, each basis of EIGVALS_CASES but the defaults (the pinned rows of
    test_default_scan_solves_dense_only_on_the_coarse_basis), and double_well L=4 and cosine h=5."""
    ladder = [0.125 * 2.0**k for k in range(7)]
    cases = [
        ("cosine", {"h": 1.0, "L": 2.0 * math.pi}, {}, 16, 32, 256, ladder),
        ("quadratic", {"omega": 1.0, "L": 14.0}, {}, 8, 16, 64, [0.125 * 2.1**k for k in range(7)]),
    ]
    for name, pot, ens, _, Kq, Np in EIGVALS_CASES:
        case = (name, pot, ens, Kq, Np, None, ladder)
        if case not in cases and (Kq, Np, ens) != (16, 32, {}):
            cases.append(case)
    cases += [("double_well", {"L": 4.0}, {}, 16, 32, None, ladder), ("cosine", {"h": 5.0, "L": 1.0}, {}, 16, 32, None, ladder)]
    return cases


@pytest.mark.parametrize("name,pot,ens,Kq,Np,n_quad,ladder", _scan_cases())
def test_scan_rungs_match_the_dense_gap(name, pot, ens, Kq, Np, n_quad, ladder):
    """Every rung is the dense gap to 1e-10, and the guard fired exactly where the gap of the
    rung below is more than CONVERGENCE_RTOL off it (double_well at gamma = 1/8 and 1/4) and some
    sector did not go dense; a one-rung ladder has no base and solves every sector dense."""
    from hypokit.hypo import gamma_scan

    basis = build_basis(builtin_potential(name, pot), EnsembleParams(**ens), Kq=Kq, Np=Np, n_quad=n_quad)
    res = gamma_scan(basis, ladder, max_workers=2)
    rungs = spectral.rung_ladder(basis)
    want = PINNED_DENSE_RUNGS.get((name, pot["L"], pot.get("h"), Kq, Np))
    want = np.array(want or [spectral.contour_gap(rungs[0], g, None).gap for g in ladder])
    base = np.array([spectral.rung_gap(rungs[1:], g).gap for g in ladder] if len(rungs) > 1 else want)
    assert res.row_errors == {}
    assert res.table.gaps == pytest.approx(want, rel=1e-10)
    guard = [m["guard"] for m in res.rung_methods]
    dense = [set(m["sectors"].values()) == {"dense"} for m in res.rung_methods]
    assert guard == [bool(off) and not d for off, d in zip(np.abs(want - base) > spectral.CONVERGENCE_RTOL * base, dense)]


def test_default_scan_solves_dense_only_on_the_coarse_basis(tmp_path, monkeypatch):
    """Kq16/Np32 scans from a Kq8/Np16 dense base: the eigensolve sees only its sectors, 135 and
    136, once per rung, every rung is refined by the contour in both sectors, and the rows are the
    pinned dense ones."""
    from hypokit import cli

    real = spectral._gap_of_operator
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_gap_of_operator", spy)
    assert cli.main(["scan", "--threads", "2", "--report", str(tmp_path / "rep.json")]) == 0
    with open(tmp_path / "rep.json") as fh:
        report = json.load(fh)
    assert sorted(sizes) == [135] * 7 + [136] * 7
    methods = report["diagnostics"]["rung_methods"]
    assert [m["gamma"] for m in methods] == [0.125 * 2.0**k for k in range(7)]
    assert all(m["sectors"] == {"even": "contour", "odd": "contour"} and not m["guard"] for m in methods)
    pinned = [0.13420578526658788, 0.2678710960619917, 0.5323788407419694, 1.0479845452024361,
              2.015884925705092, 3.43117486157212, 4.71526315796104]
    assert [row["gap"] for row in report["results"]["rows"]] == pytest.approx(pinned, rel=1e-12)


def test_a_contour_gap_off_the_coarse_base_gives_the_dense_rung(cosine_asm_small, monkeypatch):
    """A contour result 2 % off the coarse gap fires the guard: the rung is the dense gap, bitwise.
    The small basis would be solved dense at once, so the crossover is lowered to reach the guard.
    A rung whose sectors all went dense (the contour could not settle them) is left as it is: its
    gap is already the dense one, and the guard does not solve it again."""
    from hypokit import hypo

    real, methods = spectral.contour_gap, []
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    red = spectral.rung_ladder(cosine_asm_small.basis)[0]

    def off(rung, gamma, base):
        res = real(rung, gamma, base)
        if base is not None and rung.dim == red.dim:  # the top rung's contour around the rung below
            methods.append(res.method)
        return res if set(res.method.values()) == {"dense"} else dataclasses.replace(res, gap=1.02 * base.gap)

    monkeypatch.setattr(spectral, "contour_gap", off)
    ladder = [0.125 * 2.0**k for k in range(7)]
    res = hypo.gamma_scan(cosine_asm_small.basis, ladder)
    assert np.array_equal(res.table.gaps, [real(red, g, None).gap for g in ladder])
    assert [m["sectors"] for m in res.rung_methods] == methods and len(methods) == 7
    guard = [m["guard"] for m in res.rung_methods]
    assert guard == [set(m.values()) != {"dense"} for m in methods] and any(guard)


def test_small_scan_basis_solves_every_rung_dense_at_once(cosine_spec, unit_params, monkeypatch):
    """Kq4/Np8 (sectors of 36): contour_gap solves every sector dense at once and the guard does not
    run; each rung is the dense gap, the same bits as the contour and guard path, which fires on every
    rung there."""
    from hypokit import hypo

    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=8, n_quad=64)
    ladder = [0.125 * 2.0**k for k in range(7)]
    res = hypo.gamma_scan(basis, ladder)
    red = reduced_generator(basis)
    assert np.array_equal(res.table.gaps, [spectral.contour_gap(red, g, None).gap for g in ladder])
    assert all(m["sectors"] == {"even": "dense", "odd": "dense"} and not m["guard"] for m in res.rung_methods)
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    guarded = hypo.gamma_scan(basis, ladder)
    assert all(m["guard"] for m in guarded.rung_methods)
    assert np.array_equal(res.table.gaps, guarded.table.gaps)


def test_small_scan_basis_solves_no_coarse_gap(cosine_spec, unit_params, monkeypatch):
    """Kq4/Np8: every sector is below DENSE_SECTOR_MAX, so the ladder is one rung, solved dense, and
    no rung solves the coarse Kq2/Np4 gap: the eigensolve sees only the scan sectors."""
    from hypokit import hypo

    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=8, n_quad=64)
    [red] = spectral.rung_ladder(basis)
    real, sizes = spectral._gap_of_operator, []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_gap_of_operator", spy)
    hypo.gamma_scan(basis, [0.125 * 2.0**k for k in range(7)])
    assert sorted(sizes) == sorted([red.sector_index(s).size for s in range(2)] * 7)


# rung_gap against the dense gap: every EIGVALS_CASES basis, and four potentials at the defaults
# across the friction range
RUNG_CASES = EIGVALS_CASES + [
    (name, pot, {}, gamma, 16, 32)
    for name, pot in (("cosine", {"h": 1.0, "L": 1.0}), ("cosine", {"h": 5.0, "L": 1.0}),
                      ("double_well", {"L": 4.0}), ("quadratic", {"omega": 1.0, "L": 14.0}))
    for gamma in (1 / 64, 1 / 8, 1.0, 8.0)
    if (name, pot, {}, gamma, 16, 32) not in EIGVALS_CASES
]


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", RUNG_CASES)
def test_rung_gap_matches_the_dense_gap(name, pot, ens, gamma, Kq, Np):
    """The one gap path of spectrum and scan gives the dense gap to 1e-10 and its sector; it counts
    the eigenvalues it computed."""
    basis = build_basis(builtin_potential(name, pot), EnsembleParams(**ens), Kq=Kq, Np=Np)
    res = spectral.rung_gap(spectral.rung_ladder(basis), gamma)
    dense = spectral_gap(assemble_generator(basis, gamma))
    assert res.gap == pytest.approx(dense.gap, rel=1e-10)
    assert res.sector == dense.sector
    assert res.eig_count_checked == res.eigenvalues.size > 0


def test_level_blocks_are_the_scaled_gamma_free_couplings(cosine_asm_small):
    """Each sector's couplings are bitwise the sqrt(n / beta m) c_t gather of each level, formed from
    three gathered blocks; only the diagonals scale with gamma, each bitwise -gamma (-n / m)."""
    basis = cosine_asm_small.basis
    red, labels = reduced_generator(basis), basis.labels
    for sector in (None, 0, 1):
        masks = [np.ones(labels.size - (n == 0), bool) if sector is None
                 else (labels[1:] if n == 0 else labels) == (sector + n) % 2 for n in range(basis.Np)]
        want = [math.sqrt(n / (basis.beta * basis.mass)) * (red.c_t @ basis.q0 if n == 1 else red.c_t)[
                np.ix_(masks[n], masks[n - 1])] for n in range(1, basis.Np)]
        slow, fast = red.level_blocks(0.125, sector=sector), red.level_blocks(8.0, sector=sector)
        for blocks in (slow, fast):
            assert len(blocks.couplings) == len(want)
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(blocks.couplings, want))
        index = np.flatnonzero(np.concatenate(masks))
        if sector is not None:
            assert np.array_equal(red.sector_index(sector), index)
        for gamma, blocks in ((0.125, slow), (8.0, fast)):
            assert [d.size for d in blocks.diags] == [int(m.sum()) for m in masks]
            assert _same_bits(np.concatenate(blocks.diags), -gamma * (-_levels(red)[index] / basis.mass))
    top3, every = red.level_blocks(8.0, levels=3), red.level_blocks(1.0)
    assert len(top3.diags) == 3 and len(top3.couplings) == 2
    assert all(np.array_equal(a, b) for a, b in zip(top3.couplings, every.couplings))


@pytest.mark.parametrize("levels", [0, -1])
def test_levels_below_one_are_refused(cosine_asm_small, levels):
    """No level is no operator: level_blocks and neg_operator refuse it by name, not with an IndexError."""
    red = reduced_generator(cosine_asm_small.basis)
    for build in (red.level_blocks, red.neg_operator):
        with pytest.raises(InvalidArgumentError, match=f"levels must be at least 1, got {levels}"):
            build(1.0, levels=levels)


def test_overflowing_friction_is_a_failed_rung_without_a_warning(cosine_spec, unit_params):
    """A rung whose gamma (Np - 1) / m overflows is refused by level_blocks, with no RuntimeWarning."""
    from hypokit.hypo import gamma_scan

    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=8, n_quad=64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = gamma_scan(basis, [0.125 * 2.0**k for k in range(7)] + [1e308])
    assert [str(w.message) for w in caught] == []
    assert list(res.row_errors) == [1e308] and "overflows" in res.row_errors[1e308]
    assert np.isfinite(res.table.gaps[:7]).all()


def _assert_same_scan(one, other):
    assert np.array_equal(one.table.gaps, other.table.gaps)
    assert (one.slope_small_gamma, one.slope_large_gamma, one.lambda_bar) == (
        other.slope_small_gamma, other.slope_large_gamma, other.lambda_bar)
    assert one.row_errors == other.row_errors == {}
    assert one.rung_methods == other.rung_methods


def test_scan_results_do_not_depend_on_the_thread_count(cosine_asm, cosine_asm_small, monkeypatch):
    """Rows, slopes and lambda_bar are the same bits on one thread and on two at the defaults,
    where each chain factors 8 contour shifts, and on seven threads switching every 10 us on a
    small basis, taken through the contour as well; the scan reads 7 usable cores, so it starts
    all seven whatever the host's count."""
    import os
    import sys

    from hypokit.hypo import gamma_scan

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)))

    ladder = [0.125 * 2.0**k for k in range(7)]
    red = reduced_generator(cosine_asm.basis)
    assert [spectral.contour_batch(b) for b in _sector_blocks(red, 1.0)] == [8, 8]
    _assert_same_scan(*(gamma_scan(cosine_asm.basis, ladder, max_workers=w) for w in (1, 2)))
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    one = gamma_scan(cosine_asm_small.basis, ladder)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        many = gamma_scan(cosine_asm_small.basis, ladder, max_workers=7)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_scan(one, many)


def test_whitening_with_an_eigenvector_across_both_sets_keeps_one_sector(unit_params, monkeypatch):
    """The flat Gram is L * I, so an eigensolver may return any rotation of its eigenvectors;
    one that mixes the sets leaves one sector instead of mislabelled ones."""
    real = sla.eigh

    def mixing(a, *args, **kwargs):
        evals, vecs = real(a, *args, **kwargs)
        even, odd = np.flatnonzero(vecs[0] != 0)[0], np.flatnonzero(vecs[-1] != 0)[0]
        c = math.sqrt(0.5)
        vecs[:, [even, odd]] = vecs[:, [even, odd]] @ np.array([[c, -c], [c, c]])
        return evals, vecs

    spec = builtin_potential("flat", {"L": 1.0})
    assert build_basis(spec, unit_params, Kq=4, Np=4).n_sectors == 2
    monkeypatch.setattr(sla, "eigh", mixing)
    basis = build_basis(spec, unit_params, Kq=4, Np=4)
    assert basis.n_sectors == 1
    _assert_split_matches_full_operator(spec, unit_params, basis)


def test_gauss_hermite_limit_is_where_the_rule_overflows():
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x, w = np.polynomial.hermite_e.hermegauss(GAUSS_HERMITE_MAX_NODES)
        assert np.all(np.isfinite(x)) and w.sum() == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)
        with pytest.raises(FloatingPointError):
            np.polynomial.hermite_e.hermegauss(GAUSS_HERMITE_MAX_NODES + 1)


@pytest.mark.parametrize("n", [GAUSS_HERMITE_MAX_NODES - 1, GAUSS_HERMITE_MAX_NODES, 408, 1032])
def test_gauss_hermite_rule_keeps_numpys_bits_and_stays_finite_above_them(n):
    x, w = spectral._gauss_hermite(n)
    if n <= GAUSS_HERMITE_MAX_NODES:
        want = np.polynomial.hermite_e.hermegauss(n)
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip((x, w), want))
    assert x.shape == w.shape == (n,) and np.all(np.isfinite(x)) and np.all(np.isfinite(w))
    assert w.sum() / math.sqrt(2 * math.pi) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Hermite chain and the contour-integral gap


def _sector_blocks(red, gamma):
    return [red.level_blocks(gamma, sector=s) for s in range(red.basis.n_sectors)]


def test_level_blocks_apply_the_dense_operator(cosine_asm_small):
    red = reduced_generator(cosine_asm_small.basis)
    x = np.random.default_rng(3).standard_normal((red.dim, 4))
    for s, blocks in enumerate(_sector_blocks(red, 0.7)):
        op = red.neg_operator(0.7, sector=s)
        assert np.abs(blocks.matvec(x[: op.shape[0]]) - op @ x[: op.shape[0]]).max() <= 1e-13 * np.abs(op).max()
        assert np.allclose(blocks.matvec(x[: op.shape[0], 0]), op @ x[: op.shape[0], 0], rtol=0, atol=1e-12)
        assert blocks.norm1() == pytest.approx(sla.norm(op, 1), rel=1e-14)
        flip = blocks.reversal[:, None]  # -L^T x = J (-L) J x
        assert np.abs(flip * blocks.matvec(flip * x[: op.shape[0]]) - op.T @ x[: op.shape[0]]).max() <= (
            1e-13 * np.abs(op).max())


@pytest.mark.parametrize("mu", [0.7 + 0.3j, 2.0 - 9.0j, 0.4])
def test_chain_solve_residual(cosine_asm_small, mu):
    """(-L - mu) x = v on each sector of Kq8/Np12, against the dense sector operator."""
    red = reduced_generator(cosine_asm_small.basis)
    for s, blocks in enumerate(_sector_blocks(red, 1.0)):
        op = red.neg_operator(1.0, sector=s)
        v = np.random.default_rng(s).standard_normal((op.shape[0], 3))
        x = spectral.hermite_chain(blocks, mu).solve(v)
        assert x.shape == v.shape and (x.dtype == float) == (not isinstance(mu, complex))
        res = (op - mu * np.eye(op.shape[0])) @ x - v
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(v)


def test_chain_with_an_array_of_shifts_solves_each(cosine_asm_small):
    blocks = reduced_generator(cosine_asm_small.basis).level_blocks(1.0, sector=1)
    shifts = np.array([0.7 + 0.3j, 1.5 + 4.0j])
    v = np.random.default_rng(5).standard_normal((int(blocks.start[-1]), 2))
    x = spectral.hermite_chain(blocks, shifts).solve(v)
    assert x.shape == (2,) + v.shape
    for mu, xm in zip(shifts, x):
        assert np.abs(xm - spectral.hermite_chain(blocks, mu).solve(v)).max() <= 1e-13 * np.abs(xm).max()


def test_chain_moments_are_the_weighted_sum_of_the_solutions(cosine_asm_small):
    blocks = reduced_generator(cosine_asm_small.basis).level_blocks(1.0, sector=0)
    rng = np.random.default_rng(11)
    shifts = np.array([0.7 + 0.3j, 1.5 + 4.0j, 0.2 - 2.0j])
    weights = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = rng.standard_normal((int(blocks.start[-1]), 4))
    chain = spectral.hermite_chain(blocks, shifts)
    want = np.tensordot(weights, chain.solve(v), axes=1)
    got = chain.moments(v, weights)
    assert got.shape == (2,) + v.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_contour_batch_is_the_largest_power_of_two_in_the_budget(cosine_spec, unit_params):
    for (Kq, Np), batch in (((16, 32), 8), ((24, 48), 4)):
        red = reduced_generator(build_basis(cosine_spec, unit_params, Kq=Kq, Np=Np))
        assert [spectral.contour_batch(b) for b in _sector_blocks(red, 1.0)] == [batch, batch]
    huge = spectral.LevelBlocks([np.zeros(400)] * 20, [np.zeros((400, 400))] * 19)  # 51 MB per shift
    assert spectral.contour_batch(huge) == 1
    tiny = spectral.LevelBlocks([np.zeros(2)] * 2, [np.zeros((2, 2))])
    assert spectral.contour_batch(tiny) == spectral.CONTOUR_NODES // 2


def _coarse_base(spec, params, Kq, Np, monkeypatch):
    """(dense gap on the first halving of the basis, reduced generator of the basis), both read from
    rung_ladder; its crossover is lowered while it is built, so the beta = 50 Kq4/Np8 basis, one
    rung at the crossover, has a halving too."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "DENSE_SECTOR_MAX", 0)
        rungs = spectral.rung_ladder(build_basis(spec, params, Kq=Kq, Np=Np))
    return spectral.contour_gap(rungs[1], params.gamma, None), rungs[0]


@pytest.mark.parametrize("gamma", [0.125, 1.0, 8.0])
@pytest.mark.parametrize("name,pot,ens,Kq,Np", [(n, p, e, kq, np_) for n, p, e, g, kq, np_ in EIGVALS_CASES if g == 1.0])
def test_contour_gap_does_not_depend_on_the_batch(name, pot, ens, Kq, Np, gamma, monkeypatch):
    """Each sector's contour reads the same gap, to 1e-12, whether a chain factors 1, 2, 4 or all 8 shifts."""
    base, red = _coarse_base(builtin_potential(name, pot), EnsembleParams(gamma=gamma, **ens), Kq, Np, monkeypatch)
    g = base.gap
    near = base.eigenvalues[base.eigenvalues.real < 2.0 * g]
    center, a = 1.375 * g, 1.125 * g
    b = max(1.5 * float(np.abs(near.imag).max(initial=0.0)) + g, a)
    for blocks in _sector_blocks(red, gamma):
        per_shift = 16 * sum(d.size**2 for d in blocks.diags)
        gaps = []
        for batch in (1, 2, 4, 8):
            monkeypatch.setattr(spectral, "CONTOUR_CHUNK_BYTES", batch * per_shift)
            assert spectral.contour_batch(blocks) == batch
            eigs = spectral._contour_sector_eigs(blocks, center, a, b, blocks.norm1())
            gaps.append(eigs if eigs is None else eigs.real.min(initial=math.inf))
        if gaps[0] is None or gaps[0] == math.inf:
            assert all(x == gaps[0] for x in gaps)
        else:
            assert gaps[1:] == pytest.approx([gaps[0]] * 3, rel=1e-12)


# tracemalloc peak of contour_gap at Kq24/Np48 around the Kq16/Np32 gap (spectrum's default
# refinement) when each chain solved its 4 shifts and the contour then summed the solutions
CONTOUR_PEAK_KQ24_BYTES = 5_320_740


def test_contour_gap_peak_memory(cosine_spec, unit_params):
    """At spectrum's refinement the peak stays at most what it was before the moment sweep;
    at the scan basis it is the budget's pivot inverses, the sweep's solutions, the moments and
    their sums, the probes, and at most 512 kB of level blocks and per-level arrays."""
    import tracemalloc

    def peak(Kq, Np, base_kq, base_np):
        base = spectral_gap(assemble_generator(build_basis(cosine_spec, unit_params, Kq=base_kq, Np=base_np), 1.0))
        red = reduced_generator(build_basis(cosine_spec, unit_params, Kq=Kq, Np=Np))
        spectral.contour_gap(red, 1.0, base)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            res = spectral.contour_gap(red, 1.0, base)
            return tracemalloc.get_traced_memory()[1], res, red
        finally:
            tracemalloc.stop()

    used, res, _ = peak(24, 48, 16, 32)
    assert res.method == {"even": "contour", "odd": "contour"}
    assert used <= CONTOUR_PEAK_KQ24_BYTES
    used, res, red = peak(16, 32, 8, 16)
    assert res.method == {"even": "contour", "odd": "contour"}
    blocks = max(_sector_blocks(red, 1.0), key=lambda b: b.start[-1])
    k, batch, probes = int(blocks.start[-1]), spectral.contour_batch(blocks), spectral.CONTOUR_PROBES
    need = (batch * 16 * sum(d.size**2 for d in blocks.diags)  # pivot inverses
            + batch * k * probes * 16  # the sweep's solutions
            + 2 * k * probes * (16 + 8)  # the moments of one batch and their sums over batches
            + k * probes * 8)  # the probe block
    assert used <= need + 512 * 1024


def _refined(spec, params, Kq, Np, factor=1.5):
    """(base dense gap, refined assembly) as spectrum builds them."""
    basis = build_basis(spec, params, Kq=Kq, Np=Np)
    basis2 = basis.resized(math.ceil(factor * Kq), math.ceil(factor * Np))
    return spectral_gap(assemble_generator(basis, params.gamma)), assemble_generator(basis2, params.gamma)


def _contour(asm, base):
    return spectral.contour_gap(reduced_generator(asm.basis), asm.gamma, base)


CONTOUR_CASES = EIGVALS_CASES + [
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 2.0, "mass": 0.5}, 1.0, 16, 32),
    ("cosine", {"h": 5.0, "L": 1.0}, {}, 1.0, 16, 32),
]


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", CONTOUR_CASES)
def test_contour_gap_matches_the_dense_gap(name, pot, ens, gamma, Kq, Np, monkeypatch):
    """On the base basis itself, so the dense gap is the oracle at no extra cost; sectors below the
    crossover run the contour too."""
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    params = EnsembleParams(gamma=gamma, **ens)
    base, asm = _refined(builtin_potential(name, pot), params, Kq, Np, factor=1.0)
    res = _contour(asm, base)
    assert res.gap == pytest.approx(base.gap, rel=1e-10)


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np,method", [
    ("double_well", {"L": 4.0}, {}, 1.0, 10, 20, {"even": "empty", "odd": "contour"}),  # even: nothing inside
    ("quadratic", {"omega": 1.0, "L": 14.0}, {}, 1.0, 10, 20, {"even": "contour", "odd": "contour"}),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 50.0}, 1.0, 4, 8, {"even": "contour", "odd": "contour"}),
])
def test_contour_gap_matches_the_dense_refinement(name, pot, ens, gamma, Kq, Np, method, monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)  # the beta = 50 refinement has sectors of 53 and 54
    params = EnsembleParams(gamma=gamma, **ens)
    base, asm = _refined(builtin_potential(name, pot), params, Kq, Np)
    res = _contour(asm, base)
    dense = spectral_gap(asm)
    assert res.gap == pytest.approx(dense.gap, rel=1e-10) and res.method == method
    assert (abs(res.gap - base.gap) <= 0.01 * base.gap) == (abs(dense.gap - base.gap) <= 0.01 * base.gap)


def test_contour_gap_in_one_sector(unit_params):
    base, asm = _refined(_asymmetric_spec(), unit_params, 8, 12)
    res = _contour(asm, base)
    assert res.method == {"all": "contour"}
    assert res.gap == pytest.approx(spectral_gap(asm).gap, rel=1e-10)


def test_saturated_probe_block_falls_back_to_the_dense_gap(cosine_spec, unit_params, monkeypatch):
    """Two probe columns cannot span the eigenvalues inside: every sector is solved dense, bitwise."""
    base, asm = _refined(cosine_spec, unit_params, 8, 12)
    monkeypatch.setattr(spectral, "CONTOUR_PROBES", 2)
    res = _contour(asm, base)
    assert res.method == {"even": "dense", "odd": "dense"}
    assert res.gap == spectral_gap(asm).gap


def test_an_empty_sector_is_left_out_and_all_empty_sectors_run_dense(monkeypatch):
    """double_well L=4 at gamma = 1: the even sector's A_0 is roundoff against ||V||_2, so it
    reads empty beside the odd sector's verified gap; with every sector empty, all run dense."""
    params = EnsembleParams(gamma=1.0)
    base, asm = _refined(builtin_potential("double_well", {"L": 4.0}), params, 10, 20)
    dense = spectral_gap(asm)
    res = _contour(asm, base)
    assert res.method == {"even": "empty", "odd": "contour"} and dense.sector == "odd"
    assert res.gap == pytest.approx(dense.gap, rel=1e-10)
    assert res.norm1 == pytest.approx(dense.norm1, rel=1e-14)
    monkeypatch.setattr(spectral, "_contour_sector_eigs", lambda *args: np.empty(0, complex))
    res = _contour(asm, base)
    assert res.method == {"even": "dense", "odd": "dense"} and res.gap == dense.gap


@settings(max_examples=30)
@given(name=st.sampled_from(["cosine", "double_well", "quadratic"]), beta=st.floats(0.5, 5.0),
       log2_gamma=st.floats(-6.0, 6.0), Kq=st.integers(6, 10), Np=st.integers(12, 20))
def test_a_settled_contour_holds_exactly_the_dense_eigenvalues_inside(name, beta, log2_gamma, Kq, Np):
    """Around the dense gap of the halved basis, as a rung is built: a sector the contour settles returns
    every dense eigenvalue inside the ellipse and nothing else, and reads empty only when none lies inside."""
    pot = {"cosine": {"h": 1.0, "L": 1.0}, "double_well": {"L": 4.0},
           "quadratic": {"omega": 1.0, "L": 14.0 / math.sqrt(beta)}}[name]
    gamma = 2.0**log2_gamma
    basis = build_basis(builtin_potential(name, pot), EnsembleParams(beta=beta), Kq=Kq, Np=Np)
    base = spectral.contour_gap(reduced_generator(basis.resized(Kq // 2, Np // 2)), gamma, None)
    center, a, b = spectral._contour_ellipse(base)
    for blocks in _sector_blocks(reduced_generator(basis), gamma):
        norm1 = blocks.norm1()
        got = spectral._contour_sector_eigs(blocks, center, a, b, norm1)
        if got is None:
            continue
        dense = np.linalg.eigvals(blocks.dense())
        inside = dense[((dense.real - center) / a) ** 2 + (dense.imag / b) ** 2 < 1.0]
        assert got.size == inside.size
        assert all(np.abs(got - lam).min() <= 1e-10 * norm1 for lam in inside)


@settings(max_examples=20)
@given(h=st.floats(1.0, 5.0), log2_gamma=st.floats(-3.0, 1.0), Kq=st.integers(8, 12))
def test_passes_on_tall_ellipses_hold_exactly_the_dense_eigenvalues_inside(h, log2_gamma, Kq):
    """Cosine cells whose ellipses stand tall enough that a sector takes more than one pass: whatever
    pass settles it returns every dense eigenvalue inside and nothing else, and an empty sector has
    none inside."""
    gamma = 2.0**log2_gamma
    basis = build_basis(builtin_potential("cosine", {"h": h, "L": 1.0}), EnsembleParams(), Kq=Kq, Np=2 * Kq)
    base = spectral.contour_gap(reduced_generator(basis.resized(Kq // 2, Kq)), gamma, None)
    center, a, b = spectral._contour_ellipse(base)
    for blocks in _sector_blocks(reduced_generator(basis), gamma):
        norm1 = blocks.norm1()
        got = spectral._contour_sector_eigs(blocks, center, a, b, norm1)
        if got is None:
            continue
        dense = np.linalg.eigvals(blocks.dense())
        inside = dense[((dense.real - center) / a) ** 2 + (dense.imag / b) ** 2 < 1.0]
        assert got.size == inside.size
        assert all(np.abs(got - lam).min() <= 1e-10 * norm1 for lam in inside)


def _shifts_per_sector(monkeypatch, red, gamma, base):
    """(contour_gap result, the shifts each _contour_sector_eigs call factored, call by call)."""
    chain, sector_eigs, calls = spectral.hermite_chain, spectral._contour_sector_eigs, []

    def counting_chain(blocks, mu):
        calls[-1].extend(np.ravel(mu))
        return chain(blocks, mu)

    def counting_sector_eigs(*args):
        calls.append([])
        return sector_eigs(*args)

    monkeypatch.setattr(spectral, "hermite_chain", counting_chain)
    monkeypatch.setattr(spectral, "_contour_sector_eigs", counting_sector_eigs)
    return spectral.contour_gap(red, gamma, base), [np.array(c) for c in calls]


def test_each_contour_shift_is_factored_once(cosine_spec, unit_params, monkeypatch):
    """Cosine Kq16/Np32 around the dense Kq8/Np16 gap: one chain holds all 8 upper shifts, so a sector
    factors them once however many passes it runs: 1 at gamma = 1/8, 3 at gamma = 1/2 (height over
    width 14.4).  The Kq24/Np48 refinement around that rung's gap holds 4 shifts per chain, and each
    pass after the first refactors one of its two chains: 8 + 4 (p - 1) shifts for p passes."""
    top, coarse = ladder = spectral.rung_ladder(build_basis(cosine_spec, unit_params))
    fine = reduced_generator(top.basis.resized(24, 48))
    assert [spectral.contour_batch(bl) for bl in _sector_blocks(fine, 1.0)] == [4, 4]
    rungs = {gamma: spectral.rung_gap(ladder, gamma) for gamma in (0.125, 0.5, 1.0)}
    for gamma, passes in ((0.125, 1), (0.5, 3)):
        base = spectral.contour_gap(coarse, gamma, None)
        assert base.passes == {"even": 0, "odd": 0}
        res, shifts = _shifts_per_sector(monkeypatch, top, gamma, base)
        assert len(shifts) == 2 and all(mu.size == np.unique(mu).size == 8 for mu in shifts)
        assert res.passes == {"even": passes, "odd": passes}
        assert res.method == {"even": "contour", "odd": "contour"}
    center, a, b = spectral._contour_ellipse(base)
    assert b / a == pytest.approx(14.4, abs=0.05)
    for gamma, rung in rungs.items():
        res, shifts = _shifts_per_sector(monkeypatch, fine, gamma, rung)
        assert res.method == {"even": "contour", "odd": "contour"}
        assert [np.unique(mu).size for mu in shifts] == [8, 8]
        assert [mu.size for mu in shifts] == [8 + 4 * (res.passes[name] - 1) for name in ("even", "odd")]


def test_runs_report_the_contour_passes(tmp_path):
    """The default spectrum settles its rung and refinement in two passes in every sector; the default
    scan takes one at gamma = 1/8 and 1/4, three at 1/2 and two above, and every rung's map sits beside
    its rung_methods entry."""
    from hypokit import cli

    assert cli.main(["spectrum", "--report", str(tmp_path / "spectrum.json")]) == 0
    diag = json.loads((tmp_path / "spectrum.json").read_text())["diagnostics"]
    assert diag["gap_passes"] == diag["refined_passes"] == {"even": 2, "odd": 2}
    assert cli.main(["scan", "--report", str(tmp_path / "scan.json")]) == 0
    diag = json.loads((tmp_path / "scan.json").read_text())["diagnostics"]
    passes = {m["gamma"]: p for m, p in zip(diag["rung_methods"], diag["rung_passes"], strict=True)}
    assert passes == {gamma: {"even": p, "odd": p}
                      for gamma, p in ((0.125, 1), (0.25, 1), (0.5, 3), (1.0, 2), (2.0, 2), (4.0, 2), (8.0, 2))}


@pytest.mark.parametrize("gamma", [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1e-3])
def test_small_friction_settles_on_the_contour(cosine_spec, unit_params, gamma, tmp_path, monkeypatch):
    """Round ellipses at small friction: the rung and the refinement settle both sectors on the contour,
    only the coarse Kq8/Np16 sectors reach the dense eigensolve, and each gap is the dense one."""
    report, sizes = _spectrum_eigensolve_sizes(monkeypatch, tmp_path, "--gamma", str(gamma))
    monkeypatch.undo()
    diag = report["diagnostics"]
    assert sizes == [135, 136]
    assert diag["gap_method"] == diag["refined_method"] == {"even": "contour", "odd": "contour"}
    basis = build_basis(cosine_spec, unit_params)
    assert report["results"]["gap"] == pytest.approx(spectral_gap(assemble_generator(basis, gamma)).gap, rel=1e-10)
    fine = assemble_generator(basis.resized(diag["refined_Kq"], diag["refined_Np"]), gamma)
    assert diag["refined_gap"] == pytest.approx(spectral_gap(fine).gap, rel=1e-10)


def _spectrum_eigensolve_sizes(monkeypatch, tmp_path, *extra):
    """(report, sorted row counts of every matrix spectrum hands the dense eigensolve)."""
    from hypokit import cli

    real = spectral._gap_of_operator
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_gap_of_operator", spy)
    assert cli.main(["spectrum", *extra, "--report", str(tmp_path / "rep.json")]) == 0
    with open(tmp_path / "rep.json") as fh:
        return json.load(fh), sorted(sizes)


def test_default_spectrum_refines_without_a_dense_eigensolve(tmp_path, monkeypatch):
    """Only the coarse Kq8/Np16 sectors reach the eigensolve, never the Kq16/Np32 ones: the base gap
    is a scan rung and the refinement a contour.  The gaps are the dense ones for Kq16/Np32 and
    Kq24/Np48, and the count is of the verified eigenvalues inside the two contours."""
    report, sizes = _spectrum_eigensolve_sizes(monkeypatch, tmp_path)
    diag = report["diagnostics"]
    assert sizes == [135, 136]
    assert diag["gap_method"] == diag["refined_method"] == {"even": "contour", "odd": "contour"}
    assert not diag["gap_guard"] and 0 < report["results"]["eig_count_checked"] < spectral.CONTOUR_PROBES
    assert report["results"]["gap"] == pytest.approx(1.0479845452024361, rel=1e-10)
    assert diag["refined_gap"] == pytest.approx(1.0477428667307884, rel=1e-10)


def test_dump_eigs_solves_the_base_gap_dense(tmp_path, monkeypatch):
    """--dump-eigs writes every eigenvalue, so it alone solves the Kq16/Np32 sectors dense, and
    counts and writes all 1055."""
    report, sizes = _spectrum_eigensolve_sizes(monkeypatch, tmp_path, "--dump-eigs", str(tmp_path / "eigs.csv"))
    assert sizes == [527, 528]
    assert report["diagnostics"]["gap_method"] == {"even": "dense", "odd": "dense"}
    assert report["results"]["eig_count_checked"] == 1055
    assert np.loadtxt(tmp_path / "eigs.csv", delimiter=",", skiprows=1).shape == (1055, 2)
    assert report["results"]["gap"] == pytest.approx(1.0479845452024361, rel=1e-10)


def _rung_sizes(rungs):
    """(Kq, Np, sector sizes) of each rung of a ladder."""
    return [(r.basis.Kq, r.basis.Np, [r.sector_index(s).size for s in range(r.basis.n_sectors)]) for r in rungs]


def test_three_rung_spectrum_solves_dense_only_the_bottom_rung(cosine_spec, unit_params, tmp_path, monkeypatch):
    """Kq24/Np48 climbs from a dense Kq6/Np12 rung through a Kq12/Np24 contour: the eigensolve sees
    only the 77 + 78 bottom sectors, never the 299 + 300 of the middle rung, and the gap is the
    pinned dense one."""
    rungs = spectral.rung_ladder(build_basis(cosine_spec, unit_params, Kq=24, Np=48))
    assert _rung_sizes(rungs) == [(24, 48, [1175, 1176]), (12, 24, [299, 300]), (6, 12, [77, 78])]
    report, sizes = _spectrum_eigensolve_sizes(monkeypatch, tmp_path, "--Kq", "24", "--Np", "48",
                                               "--no-check-convergence")
    assert sizes == [77, 78]
    assert report["diagnostics"]["gap_method"] == {"even": "contour", "odd": "contour"}
    assert report["results"]["gap"] == pytest.approx(PINNED_DENSE_RUNGS[("cosine", 1.0, 1.0, 24, 48)][3], rel=1e-10)


def test_the_ladder_ends_where_halving_no_longer_shrinks_the_basis(cosine_spec, unit_params, monkeypatch):
    """At a zero crossover no rung ends the ladder by its size, so it ends at Kq1/Np2, whose halving
    is itself; every rung above the dense bottom is then a guarded contour, and the rows are still
    the dense gaps."""
    from hypokit.hypo import gamma_scan

    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=8, n_quad=64)
    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    rungs = spectral.rung_ladder(basis)
    assert [(kq, np_) for kq, np_, _ in _rung_sizes(rungs)] == [(4, 8), (2, 4), (1, 2)]
    ladder = [0.125 * 2.0**k for k in range(7)]
    res = gamma_scan(basis, ladder)
    assert res.row_errors == {}
    assert np.array_equal(res.table.gaps, [spectral.contour_gap(rungs[0], g, None).gap for g in ladder])


def test_small_spectrum_refinement_is_the_dense_gap_of_the_refined_basis(cosine_spec, unit_params, tmp_path):
    """Kq4/Np8 refines on Kq6/Np12, sectors of 77 and 78, below the crossover: both are solved dense
    at once, bitwise the dense gap of the refined basis."""
    from hypokit import cli

    assert cli.main(["spectrum", "--Kq", "4", "--Np", "8", "--n-quad", "64", "--report", str(tmp_path / "r.json")]) == 0
    with open(tmp_path / "r.json") as fh:
        report = json.load(fh)
    diag = report["diagnostics"]
    assert diag["refined_method"] == {"even": "dense", "odd": "dense"} and (diag["refined_Kq"], diag["refined_Np"]) == (6, 12)
    want = spectral_gap(assemble_generator(build_basis(cosine_spec, unit_params, Kq=6, Np=12, n_quad=64), 1.0))
    assert diag["refined_gap"] == want.gap
    assert report["results"]["converged"] == (abs(want.gap - report["results"]["gap"]) <= 0.01 * report["results"]["gap"])


def test_a_rung_dense_in_every_sector_is_solved_dense_once(cosine_asm_small, monkeypatch):
    """Two probe columns saturate every contour, so each rung goes dense in both sectors; no rung
    converges at a zero tolerance, and still the eigensolve sees each sector of each rung of the
    ladder (Kq8/Np12 down to Kq1/Np2) once per friction, and the rows are the dense gaps."""
    from hypokit.hypo import gamma_scan

    basis = cosine_asm_small.basis
    real, sizes = spectral._gap_of_operator, []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "DENSE_SECTOR_MAX", 0)
    rungs = spectral.rung_ladder(basis)
    assert [rung.basis.Np for rung in rungs] == [12, 6, 3, 2]
    monkeypatch.setattr(spectral, "CONTOUR_PROBES", 2)
    monkeypatch.setattr(spectral, "CONVERGENCE_RTOL", 0.0)
    monkeypatch.setattr(spectral, "_gap_of_operator", spy)
    ladder = [0.125 * 2.0**k for k in range(7)]
    res = gamma_scan(basis, ladder)
    monkeypatch.setattr(spectral, "_gap_of_operator", real)
    per_rung = [rung.sector_index(s).size for rung in rungs for s in range(2)]
    assert sorted(sizes) == sorted(per_rung * 7)
    assert all(m["sectors"] == {"even": "dense", "odd": "dense"} and not m["guard"] for m in res.rung_methods)
    assert np.array_equal(res.table.gaps, [spectral.contour_gap(rungs[0], g, None).gap for g in ladder])


def test_resized_basis_keeps_the_three_old_sizes(cosine_spec, unit_params, monkeypatch):
    """The scan's coarse basis, spectrum's refinement and the Poincare rounds are built at the
    (Kq, Np, n_quad) they were built at before BasisSet.resized; the first Poincare round builds none."""
    for Kq, Np, n_quad in ((16, 32, 256), (24, 48, 200), (1, 2, 32), (5, 3, 64)):
        basis = build_basis(cosine_spec, unit_params, Kq=Kq, Np=Np, n_quad=n_quad)
        coarse = basis.resized(max(1, Kq // 2), max(2, Np // 2))
        assert (coarse.Kq, coarse.Np, coarse.nodes.size) == (max(1, Kq // 2), max(2, Np // 2), n_quad)
        kq2, np2 = math.ceil(1.5 * Kq), math.ceil(1.5 * Np)
        fine = basis.resized(kq2, np2)
        assert (fine.Kq, fine.Np, fine.nodes.size) == (kq2, np2, max(n_quad, 8 * kq2))
        assert np.array_equal(fine.gram_q, build_basis(cosine_spec, unit_params, Kq=kq2, Np=np2,
                                                       n_quad=max(n_quad, 8 * kq2)).gram_q)
    real, built = spectral.build_basis, []

    def spy(spec, params, Kq, Np, n_quad=None):
        basis = real(spec, params, Kq, Np, n_quad)
        built.append((basis.Kq, basis.Np, basis.nodes.size))
        return basis

    basis = build_basis(cosine_spec, unit_params, Kq=4, Np=8, n_quad=40)
    monkeypatch.setattr(spectral, "build_basis", spy)
    monkeypatch.setattr(spectral, "POINCARE_RTOL", -1.0)  # no round converges: run them all
    with pytest.raises(spectral.NumericalFailureError):
        spectral.poincare_constant(basis)
    k, want = 4, []
    for _ in range(spectral.POINCARE_MAX_ROUNDS):
        want.append((k, 2, 40 if k == 4 else max(40, 8 * k)))
        k = math.ceil(1.5 * k)
    assert built == want[1:]


def test_weighted_hermite_table_matches_the_plain_product_below_the_overflow():
    """sqrt(w) (sqrt(w) h_n) against w h_n on the 726-node rule of Np = 718, the largest that
    h_n alone keeps finite, relative to the table's largest entry."""
    x, w = spectral._gauss_hermite(726)
    with np.errstate(over="raise", invalid="raise"):
        want = w[:, None] * spectral.hermite_values(718, x)
    sw = np.sqrt(w)
    got = sw[:, None] * spectral.hermite_values(718, x, sw)
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


def test_dense_operator_above_the_budget_is_refused(cosine_asm_small, monkeypatch):
    red = reduced_generator(cosine_asm_small.basis)
    k = red.sector_index(0).size
    monkeypatch.setattr(spectral, "DENSE_MAX_BYTES", 8 * k * k)
    assert red.neg_operator(1.0, sector=0).shape == (k, k)
    with pytest.raises(InvalidArgumentError, match=rf"{red.dim} x {red.dim} float64 .* limit"):
        red.neg_operator(1.0)
