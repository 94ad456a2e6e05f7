import dataclasses
import json
import math

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
    assemble_overdamped,
    build_basis,
    evaluate_coeffs,
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
    r = red.wq.shape[1]
    return np.repeat(np.arange(red.n_p), r)[r - red.n0:]


def test_reduced_symmetry_and_friction_diagonal(cosine_asm):
    """L_ham exactly antisymmetric; fd <= 0, zero on level 0 and -n/m on level n."""
    red = reduced_generator(cosine_asm.basis)
    ham = -red.neg_operator(0.0)
    assert ham.shape == (red.dim, red.dim)
    assert np.array_equal(ham, -ham.T)
    assert np.all(red.fd <= 0.0)
    assert np.all(red.fd[: red.n0] == 0.0)
    assert np.array_equal(red.fd, -_levels(red) / cosine_asm.basis.mass)


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
    r = poincare_constant(spec, unit_params, Kq=16)
    assert r == pytest.approx(4.0 * math.pi**2, abs=1e-10)
    # beta rescaling leaves R_nu alone for the flat measure
    r2 = poincare_constant(spec, EnsembleParams(beta=2.0), Kq=16)
    assert r2 == pytest.approx(4.0 * math.pi**2, abs=1e-8)


def test_poincare_rejects_full_space(unit_params):
    full = builtin_potential("quadratic", {"omega": 1.0})
    with pytest.raises(UnsupportedDomainError):
        poincare_constant(full, unit_params, Kq=8)


def test_semigroup_decay_prefactor_one(cosine_spec, unit_params):
    for spec in (builtin_potential("flat", {"L": 1.0}), cosine_spec):
        r_nu = poincare_constant(spec, unit_params, Kq=16)
        basis = build_basis(spec, unit_params, Kq=16, Np=2, n_quad=256)
        ovd = assemble_overdamped(basis)
        res = semigroup_decay_check(ovd, r_nu, times=[0.01, 0.1, 1.0])
        assert res.ok
        assert res.max_ratio <= 1.0 + 1e-8


def test_semigroup_decay_reads_beta_from_the_basis(cosine_spec):
    """At beta = 2 the bound is exp(-r_nu t / 2), with no beta passed to the check."""
    params = EnsembleParams(beta=2.0)
    r_nu = poincare_constant(cosine_spec, params, Kq=16)
    ovd = assemble_overdamped(build_basis(cosine_spec, params, Kq=16, Np=2, n_quad=256))
    times = np.array([0.01, 0.1, 1.0])
    res = semigroup_decay_check(ovd, r_nu, times)
    assert np.array_equal(res.bounds, np.exp(-r_nu * times / 2.0))
    assert res.ok and res.max_ratio <= 1.0 + 1e-8
    # at beta = 2 the slowest mode decays at r_nu / 2 exactly, so the beta = 1 bound would fail
    assert np.any(res.norms > np.exp(-r_nu * times))


def test_flat_overdamped_poisson_closed_form(unit_params):
    """For the flat torus, -L phi = cos(2 pi q) solves exactly: sigma2 = 1/(4 pi^2)."""
    spec = builtin_potential("flat", {"L": 1.0})
    basis = build_basis(spec, unit_params, Kq=16, Np=2, n_quad=256)
    ovd = assemble_overdamped(basis)
    phi_q = project_position_function(basis, lambda q: np.cos(2 * math.pi * q))
    sol = solve_poisson_overdamped(ovd, phi_q)
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
    q = np.array([0.1, 0.37, 0.62])
    p = np.array([-0.5, 0.0, 1.3])
    got = evaluate_coeffs(basis, coeffs, q, p)
    assert np.allclose(got, np.sin(2 * math.pi * q), atol=1e-10)


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

    a_form = -(1.0 / beta) * (basis.D.T @ basis.gram_q @ basis.D)
    close(assemble_overdamped(basis).l_ovd,
          sla.cho_solve(cho, 0.5 * (a_form + a_form.T)))


def _shift_invariants(spec, params):
    """(gap, Langevin Poisson sigma^2 of cos 2 pi q, r_nu) on a small basis."""
    basis = build_basis(spec, params, Kq=6, Np=8, n_quad=64)
    asm = assemble_generator(basis, params.gamma)
    phi = project_phase_function(basis, lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p))
    return (spectral_gap(asm).gap, solve_poisson(asm, phi).sigma2,
            poincare_constant(spec, params, Kq=6))


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
        sigma2 = 2.0 * float(z @ b) / red.mass_nu
        # relative where sigma^2 is a sum of like-signed terms; the Cauchy-Schwarz
        # scale of the pairing bounds the error where it cancels to ~0 (p1 in a harmonic cell)
        pairing = 2.0 * float(np.linalg.norm(z) * np.linalg.norm(b)) / red.mass_nu
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
    assert [red.sector_index(s).size for s in range(red.n_sectors)] == [527, 528]
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
    same = red.labels[:, None] == red.labels[None, :]
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
    real = spectral._eigvals_overwrite
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_eigvals_overwrite", spy)
    res = spectral_gap(cosine_asm)
    n = reduced_generator(cosine_asm.basis).dim
    assert sorted(sizes) == [527, 528] and sum(sizes) == res.eig_count_checked == n
    assert max(sizes) <= math.ceil(n / 2) + 1


def test_poisson_solves_a_zero_sector_to_exact_zeros(cosine_asm_small):
    """A right-hand side that is exactly zero in one sector gives exactly zero there."""
    red = reduced_generator(cosine_asm_small.basis)
    y = np.zeros(red.dim)
    y[red.sector_index(1)] = np.random.default_rng(1).standard_normal(red.sector_index(1).size)
    sol = solve_poisson(cosine_asm_small, red.to_full(y))
    assert np.all(red.to_reduced(sol.phi_coeffs)[red.sector_index(0)] == 0.0)
    z = sla.solve(red.neg_operator(1.0), red.to_reduced(red.to_full(y)))
    assert sol.sigma2 == pytest.approx(2.0 * float(z @ red.to_reduced(red.to_full(y))) / red.mass_nu, rel=1e-10)
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
    return [red.neg_operator(params.gamma, sector=s) for s in range(red.n_sectors)]


def _assert_eigvals_bitwise(ops):
    for op in ops:
        want = sla.eigvals(op.copy(order="F"), overwrite_a=True, check_finite=False)
        got = spectral._eigvals_overwrite(op)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", EIGVALS_CASES)
def test_gap_eigensolve_is_bitwise_scipy_eigvals(name, pot, ens, gamma, Kq, Np):
    """The dgeev kernel returns the bits of scipy.linalg.eigvals on every sector operator."""
    _assert_eigvals_bitwise(_sector_operators(builtin_potential(name, pot), EnsembleParams(gamma=gamma, **ens), Kq, Np))


def test_gap_eigensolve_is_bitwise_scipy_eigvals_in_one_sector(unit_params):
    ops = _sector_operators(_asymmetric_spec(), unit_params, 8, 12)
    assert len(ops) == 1
    _assert_eigvals_bitwise(ops)


def test_gap_eigensolve_releases_the_gil():
    """The kernel is a CFUNCTYPE foreign function: ctypes drops the GIL for its call,
    which a PYFUNCTYPE (like every f2py wrapper) would hold."""
    import ctypes

    assert isinstance(spectral._DGEEV, ctypes._CFuncPtr)
    assert not type(spectral._DGEEV)._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_gap_eigensolve_failure_is_a_numerical_failure(monkeypatch):
    """dgeev's info > 0 (QR did not converge) keeps the message of the scipy path."""
    from hypokit.errors import NumericalFailureError

    def fails(jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info):
        if lwork[0] == -1:
            work[0] = 3.0 * n[0]
            info[0] = 0
        else:
            info[0] = 1

    monkeypatch.setattr(spectral, "_DGEEV", type(spectral._DGEEV)(fails))
    with pytest.raises(NumericalFailureError, match="eigenvalue solver failed"):
        spectral._eigvals_overwrite(np.eye(3, order="F"))


def test_scan_rows_match_the_full_operator(cosine_spec, unit_params):
    from hypokit.hypo import gamma_scan

    basis = build_basis(cosine_spec, unit_params, Kq=8, Np=16)
    red = reduced_generator(basis)
    ladder = [0.125 * 2.0**k for k in range(7)]
    rows = gamma_scan(basis, ladder, max_workers=1).table.gaps
    want = [float(sla.eigvals(red.neg_operator(g)).real.min()) for g in ladder]
    assert rows == pytest.approx(want, rel=1e-10)


def _assert_same_scan(one, other):
    assert np.array_equal(one.table.gaps, other.table.gaps)
    assert (one.slope_small_gamma, one.slope_large_gamma, one.lambda_bar) == (
        other.slope_small_gamma, other.slope_large_gamma, other.lambda_bar)
    assert one.row_errors == other.row_errors == {}


def test_scan_results_do_not_depend_on_the_thread_count(cosine_asm, cosine_asm_small):
    """Rows, slopes and lambda_bar are the same bits on one thread and on two at the defaults,
    and on seven threads (more than the cores) switching every 10 us on a small basis."""
    import sys

    from hypokit.hypo import gamma_scan

    ladder = [0.125 * 2.0**k for k in range(7)]
    _assert_same_scan(*(gamma_scan(cosine_asm.basis, ladder, max_workers=w) for w in (1, 2)))
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


# ---------------------------------------------------------------------------
# Hermite chain and the contour-integral gap


def _sector_blocks(red, gamma):
    return [red.level_blocks(gamma, sector=s) for s in range(red.n_sectors)]


def test_level_blocks_apply_the_dense_operator(cosine_asm_small):
    red = reduced_generator(cosine_asm_small.basis)
    x = np.random.default_rng(3).standard_normal((red.dim, 4))
    for s, blocks in enumerate(_sector_blocks(red, 0.7)):
        op = red.neg_operator(0.7, sector=s)
        assert np.abs(blocks.matvec(x[: op.shape[0]]) - op @ x[: op.shape[0]]).max() <= 1e-13 * np.abs(op).max()
        assert np.allclose(blocks.matvec(x[: op.shape[0], 0]), op @ x[: op.shape[0], 0], rtol=0, atol=1e-12)
        assert blocks.norm1() == pytest.approx(sla.norm(op, 1), rel=1e-14)


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


def _refined(spec, params, Kq, Np, factor=1.5):
    """(base dense gap, refined assembly) as spectrum builds them."""
    basis = build_basis(spec, params, Kq=Kq, Np=Np)
    kq2, np2 = math.ceil(factor * Kq), math.ceil(factor * Np)
    basis2 = build_basis(spec, params, Kq=kq2, Np=np2, n_quad=max(basis.nodes.size, 8 * kq2))
    return spectral_gap(assemble_generator(basis, params.gamma)), assemble_generator(basis2, params.gamma)


CONTOUR_CASES = EIGVALS_CASES + [
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 2.0, "mass": 0.5}, 1.0, 16, 32),
    ("cosine", {"h": 5.0, "L": 1.0}, {}, 1.0, 16, 32),
]


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np", CONTOUR_CASES)
def test_contour_gap_matches_the_dense_gap(name, pot, ens, gamma, Kq, Np):
    """On the base basis itself, so the dense gap is the oracle at no extra cost."""
    params = EnsembleParams(gamma=gamma, **ens)
    base, asm = _refined(builtin_potential(name, pot), params, Kq, Np, factor=1.0)
    res = spectral.contour_gap(asm, base)
    assert res.gap == pytest.approx(base.gap, rel=1e-10)


@pytest.mark.parametrize("name,pot,ens,gamma,Kq,Np,method", [
    ("double_well", {"L": 4.0}, {}, 1.0, 10, 20, {"even": "dense", "odd": "contour"}),  # even: saturated probes
    ("quadratic", {"omega": 1.0, "L": 14.0}, {}, 1.0, 10, 20, {"even": "contour", "odd": "contour"}),
    ("cosine", {"h": 1.0, "L": 1.0}, {"beta": 50.0}, 1.0, 4, 8, {"even": "contour", "odd": "contour"}),
])
def test_contour_gap_matches_the_dense_refinement(name, pot, ens, gamma, Kq, Np, method):
    params = EnsembleParams(gamma=gamma, **ens)
    base, asm = _refined(builtin_potential(name, pot), params, Kq, Np)
    res = spectral.contour_gap(asm, base)
    dense = spectral_gap(asm)
    assert res.gap == pytest.approx(dense.gap, rel=1e-10) and res.method == method
    assert (abs(res.gap - base.gap) <= 0.01 * base.gap) == (abs(dense.gap - base.gap) <= 0.01 * base.gap)


def test_contour_gap_in_one_sector(unit_params):
    base, asm = _refined(_asymmetric_spec(), unit_params, 8, 12)
    res = spectral.contour_gap(asm, base)
    assert res.method == {"all": "contour"}
    assert res.gap == pytest.approx(spectral_gap(asm).gap, rel=1e-10)


def test_saturated_probe_block_falls_back_to_the_dense_gap(cosine_spec, unit_params, monkeypatch):
    """Two probe columns cannot span the eigenvalues inside: every sector is solved dense, bitwise."""
    base, asm = _refined(cosine_spec, unit_params, 8, 12)
    monkeypatch.setattr(spectral, "CONTOUR_PROBES", 2)
    res = spectral.contour_gap(asm, base)
    assert res.method == {"even": "dense", "odd": "dense"}
    assert res.gap == spectral_gap(asm).gap


def test_default_spectrum_refines_without_a_dense_eigensolve(tmp_path, monkeypatch):
    """Only the base sectors reach dgeev; the refined gap is the dense one pinned for Kq24/Np48."""
    from hypokit import cli

    real = spectral._eigvals_overwrite
    sizes = []

    def spy(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "_eigvals_overwrite", spy)
    assert cli.main(["spectrum", "--report", str(tmp_path / "rep.json")]) == 0
    with open(tmp_path / "rep.json") as fh:
        diag = json.load(fh)["diagnostics"]
    assert sorted(sizes) == [527, 528]
    assert diag["refined_method"] == {"even": "contour", "odd": "contour"}
    assert diag["refined_gap"] == pytest.approx(1.0477428667307884, rel=1e-10)


def test_dense_operator_above_the_budget_is_refused(cosine_asm_small, monkeypatch):
    red = reduced_generator(cosine_asm_small.basis)
    k = red.sector_index(0).size
    monkeypatch.setattr(spectral, "DENSE_MAX_BYTES", 8 * k * k)
    assert red.neg_operator(1.0, sector=0).shape == (k, k)
    with pytest.raises(InvalidArgumentError, match=rf"{red.dim} x {red.dim} float64 .* limit"):
        red.neg_operator(1.0)
