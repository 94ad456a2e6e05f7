"""Acceptance gate: every shipped claim checked once, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else; a
criterion that cannot meet its tolerance must fail loudly, not be loosened.
"""

import hashlib
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_la

from hypokit import cli
from hypokit.estimators import asymptotic_variance_acf
from hypokit.hypo import (
    OdeToy,
    fit_envelope_rate,
    gamma_scan,
    ode_eigs,
    ode_optimal_P,
    ode_trajectory,
    resolvent_lower_bound,
    resolvent_norm,
    tune_modified_norm_epsilon,
    verify_schur_bound,
)
from hypokit.model import EnsembleParams, PhaseState, builtin_potential
from hypokit.sde import RngStream, simulate, step_langevin
from hypokit.spectral import (
    assemble_generator,
    build_basis,
    poincare_constant,
    project_phase_function,
    project_position_function,
    semigroup_decay_check,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)

SEED = 20260817


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {name}")
        raise
    print(f"[PASS] criterion {num:02d}: {name}")


def params_at(gamma, beta=1.0, mass=1.0):
    return EnsembleParams(beta=beta, mass=mass, gamma=gamma)


@pytest.fixture(scope="module")
def pendulum_basis(pendulum_spec):
    return build_basis(pendulum_spec, params_at(1.0), Kq=16, Np=32, n_quad=256)


@pytest.fixture(scope="module")
def quad_heavy(quad_spec):
    return build_basis(quad_spec, params_at(1.0), Kq=16, Np=40, n_quad=256)


# ---------------------------------------------------------------------------
# toy model


def test_criterion_01_toy_spectrum():
    with criterion(1, "toy eigenvalues match the dense solver on both branches"):
        for g in np.logspace(-2, 2, 50):
            eigs = ode_eigs(g)
            closed = np.sort_complex(np.array([eigs.lambda_minus, eigs.lambda_plus]))
            dense = np.sort_complex(eigs.numeric)
            assert np.max(np.abs(closed - dense)) <= 1e-12
        # branches meet continuously at the defective point; the square-root
        # singularity means Holder-1/2 agreement, |gap - 1| ~ sqrt(|dg|)
        delta = 1e-9
        assert ode_eigs(2.0 - delta).gap == pytest.approx(1.0, abs=2 * math.sqrt(delta))
        assert ode_eigs(2.0 + delta).gap == pytest.approx(1.0, abs=2 * math.sqrt(delta))


def test_criterion_02_toy_trajectory():
    with criterion(2, "reference trajectory matches expm and decays at rate 1/4"):
        gamma, x0 = 0.5, np.array([1.0, 1.0])
        traj = ode_trajectory(gamma, x0, T=40.0, dt=1e-3)
        l_mat = OdeToy(gamma).l_mat
        for row in traj[::500]:
            exact = sla.expm(l_mat * row[0]) @ x0
            assert np.max(np.abs(row[1:] - exact)) <= 1e-8
        rate = fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])
        assert rate == pytest.approx(0.25, abs=0.01)


def test_criterion_03_toy_decay_norms():
    with criterion(3, "sharp P certificates and monotone P-norm decay"):
        for g in (0.25, 0.5, 1.0, 1.5, 3.0, 4.0, 8.0):
            opt = ode_optimal_P(g)
            assert opt.cert_ok
            assert opt.cert_residual >= -1e-10
            gap = ode_eigs(g).gap
            traj = ode_trajectory(g, [1.0, 1.0], T=10.0, dt=1e-3)[::10]
            xs = traj[:, 1:]
            w = np.einsum("ij,jk,ik->i", xs, opt.p_mat, xs) * np.exp(
                2.0 * gap * traj[:, 0]
            )
            # rescaled P-norm may not grow (tiny slack for roundoff at the tail)
            assert np.all(np.diff(w) <= 1e-9 * max(w[0], 1.0))


# ---------------------------------------------------------------------------
# configurational measure


def _fd_poincare_oracle(spec, beta: float, n: int = 4096) -> float:
    """Divergence-form finite differences, symmetrized by D^(1/2); independent
    of the Fourier machinery under test."""
    length = spec.domain.length
    h = length / n
    q = np.arange(n) * h
    node_w = np.exp(-beta * spec.eval(q[:, None]))
    edge_w = np.exp(-beta * spec.eval(((q + 0.5 * h) % length)[:, None]))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    coupling = -edge_w / np.sqrt(node_w * node_w[nxt])
    s_mat = sparse.csc_matrix(
        (np.concatenate([(edge_w + np.roll(edge_w, 1)) / node_w, coupling, coupling]),
         (np.concatenate([idx, idx, nxt]), np.concatenate([idx, nxt, idx]))),
        shape=(n, n),
    ) / (beta * h * h)
    # the two eigenvalues nearest -1 are the two smallest: 0 (constants) and the gap
    evals = sparse_la.eigsh(s_mat, k=2, sigma=-1.0, v0=np.ones(n), return_eigenvectors=False)
    return beta * float(np.sort(evals)[1])


def test_criterion_04_poincare(cosine_spec, unit_params):
    with criterion(4, "Poincare constants: exact flat value, FD oracle for cosine"):
        flat = builtin_potential("flat", {"L": 1.0})
        assert poincare_constant(build_basis(flat, unit_params, Kq=16, Np=2)) == pytest.approx(
            4 * math.pi**2, rel=1e-10
        )
        got = poincare_constant(build_basis(cosine_spec, unit_params, Kq=16, Np=2))
        oracle = _fd_poincare_oracle(cosine_spec, beta=1.0)
        assert got == pytest.approx(oracle, rel=5e-3)


def test_criterion_05_overdamped_decay(cosine_spec, unit_params):
    with criterion(5, "overdamped semigroup decays at the Poincare rate, prefactor 1"):
        times = np.array([0.01, 0.1, 1.0])
        for spec in (builtin_potential("flat", {"L": 1.0}), cosine_spec):
            basis = build_basis(spec, unit_params, Kq=16, Np=8, n_quad=256)
            r_nu = poincare_constant(basis)
            chk = semigroup_decay_check(basis, r_nu, times)
            assert chk.ok
            assert chk.max_ratio <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# kinetic spectrum


def test_criterion_06_harmonic_gaps(quad_spec, quad_heavy):
    with criterion(6, "kinetic gaps match the harmonic closed form at four frictions"):
        for g in (0.5, 1.0, 2.5, 4.0):
            asm = assemble_generator(quad_heavy, g)
            want = g / 2 if g <= 2 else (g - math.sqrt(g * g - 4)) / 2
            assert spectral_gap(asm).gap == pytest.approx(want, abs=1e-6)


def test_criterion_07_friction_scaling(pendulum_spec):
    with criterion(7, "gap scales like gamma on one side and 1/gamma on the other"):
        res = gamma_scan(
            build_basis(pendulum_spec, params_at(1.0), Kq=16, Np=32, n_quad=256),
            [0.125 * 2**k for k in range(7)],
        )
        assert not res.row_errors
        assert np.all(np.isfinite(res.table.gaps)) and np.all(res.table.gaps > 0)
        assert res.slope_small_gamma == pytest.approx(1.0, abs=0.15)
        assert res.slope_large_gamma == pytest.approx(-1.0, abs=0.15)
        assert res.lambda_bar > 0


# ---------------------------------------------------------------------------
# quantitative hypocoercivity


def test_criterion_08_modified_norm(cosine_asm):
    with criterion(8, "tuned modified norm dissipates at a positive certified rate"):
        tuned = tune_modified_norm_epsilon(cosine_asm)
        assert 0.0 < tuned.epsilon < 1.0
        assert tuned.lambda_est > 0.0
        assert tuned.r_norm <= 1.0 + 1e-8
        assert tuned.lham_r_norm <= 1.0 + 1e-8
        assert tuned.lambda_est <= spectral_gap(cosine_asm).gap * (1 + 1e-10)


def test_criterion_09_resolvent_bounds(
    cosine_spec, cosine_asm, pendulum_spec, pendulum_basis
):
    with criterion(9, "explicit resolvent bound holds; witnesses scale as gamma, 1/gamma"):
        # upper bound against the computed norm, three frictions
        for g in (0.25, 1.0, 4.0):
            asm = (
                cosine_asm
                if g == 1.0
                else assemble_generator(cosine_asm.basis, g)
            )
            chk = verify_schur_bound(asm)
            assert chk.holds, f"bound violated at gamma={g}: {chk}"
            assert chk.numeric <= chk.bound * 1.05

        # witness lower bounds stay below the numeric norm...
        pend_asms = {
            g: assemble_generator(pendulum_basis, g)
            for g in (1 / 16, 1 / 8, 1 / 4, 4.0, 8.0, 16.0)
        }
        pairs = {g: resolvent_lower_bound(asm) for g, asm in pend_asms.items()}
        for g in (1 / 4, 4.0):
            rn = resolvent_norm(pend_asms[g])
            assert pairs[g].overdamped <= rn * (1 + 1e-6)
            assert pairs[g].underdamped <= rn * (1 + 1e-6)

        # ...and grow with the advertised friction exponents
        big = np.array([4.0, 8.0, 16.0])
        over = [pairs[g].overdamped for g in big]
        slope = np.polyfit(np.log(big), np.log(over), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

        small = np.array([1 / 16, 1 / 8, 1 / 4])
        under = [pairs[g].underdamped for g in small]
        slope = np.polyfit(np.log(small), np.log(under), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


# ---------------------------------------------------------------------------
# sampling against the spectral pipeline


def test_criterion_10_variance_pipeline(cosine_spec, cosine_asm, unit_params):
    with criterion(10, "sampled asymptotic variance agrees with the Poisson solve"):
        # spectral reference, pinned to its converged value
        phi = project_phase_function(
            cosine_asm.basis, lambda q, p: np.cos(2 * math.pi * q) * np.ones_like(p)
        )
        sigma2_spec = solve_poisson(cosine_asm, phi).sigma2
        assert sigma2_spec == pytest.approx(0.3785698009, abs=2e-6)

        rec = simulate(
            PhaseState(np.zeros(1), np.zeros(1)),
            n_steps=10_000_000,
            stride=10,
            dt=0.01,
            scheme="langevin",
            spec=cosine_spec,
            params=unit_params,
            rng=RngStream(SEED),
        )
        series = np.cos(2 * math.pi * rec.q[:, 0])
        rep = asymptotic_variance_acf(series, rec.spacing)
        n = series.size
        se = rep.sigma2 * math.sqrt(2.0 * (rep.window_or_batches + 1) / n)
        assert abs(rep.sigma2 - sigma2_spec) <= 3.0 * se

        # overdamped variant has a closed form on the flat cell
        flat = builtin_potential("flat", {"L": 1.0})
        basis = build_basis(flat, unit_params, Kq=8, Np=8, n_quad=64)
        phi_q = project_position_function(basis, lambda q: np.cos(2 * math.pi * q))
        got = solve_poisson_overdamped(basis, phi_q).sigma2
        assert got == pytest.approx(1.0 / (4 * math.pi**2), abs=1e-8)


def _affine_step(spec, params, dt):
    """Extract (M, N) with step(z, xi) = M z + N xi for the linear force."""

    def probe(q, p, xi):
        s = step_langevin(
            PhaseState(np.array([q]), np.array([p])),
            spec,
            params,
            dt,
            noise=np.array([xi]),
        )
        return np.array([s.q[0], s.p[0]])

    origin = probe(0.0, 0.0, 0.0)
    assert np.max(np.abs(origin)) < 1e-15  # the well bottom is a fixed point
    m_mat = np.column_stack([probe(1.0, 0.0, 0.0), probe(0.0, 1.0, 0.0)])
    n_vec = probe(0.0, 0.0, 1.0)
    # affinity check at an uncorrelated probe point
    got = probe(0.3, -0.7, 0.9)
    want = m_mat @ np.array([0.3, -0.7]) + n_vec * 0.9
    assert np.max(np.abs(got - want)) <= 1e-13
    return m_mat, n_vec


def test_criterion_11_sampler_moments(quad_spec):
    with criterion(11, "equilibrium moments exact to 3 SE; weak bias is second order"):
        params = params_at(1.0)
        half = quad_spec.domain.length / 2

        rec = simulate(
            PhaseState(np.zeros(1), np.zeros(1)),
            n_steps=2_000_000,
            stride=5,
            dt=0.02,
            scheme="langevin",
            spec=quad_spec,
            params=params,
            rng=RngStream(SEED, stream_id=1),
        )
        n = rec.times.size
        # raw coordinates live in [0, L); the well bottom sits at the seam
        q_centered = (rec.q[:, 0] + half) % (2 * half) - half
        for series, exact in ((q_centered**2, 1.0), (rec.p[:, 0] ** 2, 1.0)):  # <q^2> = 1/beta, <p^2> = m/beta
            rep = asymptotic_variance_acf(series, rec.spacing)
            se = math.sqrt(rep.sigma2 / (n * rec.spacing))
            discretization_allowance = 0.02**2 / 4
            assert abs(series.mean() - exact) <= 3 * se + discretization_allowance

        # momentum marginal for two other (mass, beta) pairs
        for mass, beta in ((1.5, 0.8), (0.7, 2.0)):
            p2 = simulate(
                PhaseState(np.zeros(1), np.zeros(1)),
                n_steps=500_000,
                stride=5,
                dt=0.02,
                scheme="langevin",
                spec=quad_spec,
                params=params_at(1.0, beta=beta, mass=mass),
                rng=RngStream(SEED, stream_id=2),
            )
            series = p2.p[:, 0] ** 2
            rep = asymptotic_variance_acf(series, p2.spacing)
            se = math.sqrt(rep.sigma2 / (series.size * p2.spacing))
            assert abs(series.mean() - mass / beta) <= 3 * se + 1e-4 * mass / beta

        # weak order two, measured on the exact stationary covariance of the
        # one-step affine map (no sampling noise in this fit)
        dts = np.array([0.4, 0.2, 0.1, 0.05])
        biases = []
        for dt in dts:
            m_mat, n_vec = _affine_step(quad_spec, params, dt)
            cov = sla.solve_discrete_lyapunov(m_mat, np.outer(n_vec, n_vec))
            biases.append(cov[1, 1] - 1.0)
        biases = np.array(biases)
        assert np.all(biases < 0)  # kick-splitting underestimates <p^2>
        slope = np.polyfit(np.log(dts), np.log(-biases), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


# ---------------------------------------------------------------------------
# reproducibility


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "identical CLI invocations produce byte-identical outputs"):
        jobs = {
            "ode": ["ode", "--figure1", "--out", str(tmp_path / "traj.csv"),
                    "--report", str(tmp_path / "ode.json")],
            "spectrum": ["spectrum", "--potential", "quadratic", "--param",
                         "omega=1.0", "--gamma", "1.0", "--Kq", "8", "--Np", "16",
                         "--n-quad", "64", "--no-check-convergence",
                         "--report", str(tmp_path / "spec.json")],
            "sample": ["sample", "--dt", "0.05", "--n-steps", "20000", "--stride",
                       "10", "--observable", "energy", "--seed", "42",
                       "--out", str(tmp_path / "samples.csv"),
                       "--report", str(tmp_path / "sample.json")],
        }
        outputs = {
            "ode": ("traj.csv", "ode.json"),
            "spectrum": ("spec.json",),
            "sample": ("samples.csv", "sample.json"),
        }

        def run_all():
            digests = {}
            for name, argv in jobs.items():
                assert cli.main(argv) == 0
                for f in outputs[name]:
                    digests[f] = hashlib.md5((tmp_path / f).read_bytes()).hexdigest()
            return digests

        first = run_all()
        assert run_all() == first
        # the reports parse and carry the config that regenerates them
        rep = json.loads((tmp_path / "sample.json").read_text())
        assert rep["config"]["seed"] == 42
