import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from hypokit import DefectiveCaseError, InvalidArgumentError, NumericalFailureError, cli
from hypokit.hypo import (
    OdeToy,
    fit_envelope_rate,
    ode_eigs,
    ode_optimal_P,
    ode_perturbative_P,
    ode_trajectory,
)

GAMMAS = np.logspace(-2, 2, 50)


def test_matrix_layout():
    toy = OdeToy(0.7)
    assert np.array_equal(toy.s_mat, np.diag([0.0, 1.0]))
    assert np.array_equal(toy.a_mat, -toy.a_mat.T)
    assert np.allclose(toy.l_mat, -(toy.a_mat + 0.7 * toy.s_mat))


def test_eigs_match_direct_eigendecomposition():
    for g in GAMMAS:
        ev = sorted(np.linalg.eigvals(-OdeToy(g).l_mat), key=lambda z: (z.real, z.imag))
        eigs = ode_eigs(g)
        got = sorted([eigs.lambda_plus, eigs.lambda_minus], key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ev)) < 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_det_trace_identities(g):
    eigs = ode_eigs(g)
    # det/trace roundoff scales with gamma^2 (cancellation in the small root)
    assert abs(eigs.lambda_plus * eigs.lambda_minus - 1.0) < 4e-15 * (1.0 + g * g)
    assert abs(eigs.lambda_plus + eigs.lambda_minus - g) < 1e-13 * (1.0 + g)


def test_gap_branches_meet_at_critical_friction():
    # gamma/2 from the left, 2/(gamma+sqrt(gamma^2-4)) from the right, both -> 1.
    # The meeting is Holder-1/2, not Lipschitz: |gap - 1| ~ sqrt(|gamma - 2|).
    delta = 1e-9
    assert ode_eigs(2.0 - delta).gap == pytest.approx(1.0, abs=2 * math.sqrt(delta))
    assert ode_eigs(2.0 + delta).gap == pytest.approx(1.0, abs=2 * math.sqrt(delta))
    assert ode_eigs(2.0).gap == pytest.approx(1.0, abs=1e-12)
    assert ode_eigs(0.5).gap == pytest.approx(0.25)
    assert ode_eigs(4.0).gap == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)


def test_eigs_stay_finite_at_large_friction():
    """gamma^2 overflowed from gamma ~ 1.3e154, where the gap read 0 and lambda_pm +-inf."""
    eigs = ode_eigs(1e200)
    assert eigs.gap == pytest.approx(1e-200) and eigs.lambda_minus == eigs.gap
    assert math.isfinite(eigs.lambda_plus.real) and math.isfinite(eigs.lambda_minus.real)
    for g in np.logspace(math.log10(2.5), 6, 25):  # gamma^2 still fits: the old formulas' gap and lambda_+
        eigs = ode_eigs(g)
        assert eigs.gap == pytest.approx(2.0 / (g + math.sqrt(g * g - 4.0)), rel=1e-15)
        assert eigs.lambda_plus.real == pytest.approx(0.5 * g + math.sqrt(0.25 * g * g - 1.0), rel=1e-15)


def test_gap_maximized_at_critical_friction():
    gaps = [ode_eigs(g).gap for g in GAMMAS]
    assert max(gaps) <= 1.0 + 1e-12


def test_trajectory_matches_matrix_exponential():
    traj = ode_trajectory(0.5, [1.0, 1.0], 40.0, 1e-3)
    toy = OdeToy(0.5)
    x0 = np.array([1.0, 1.0])
    for k in range(0, traj.shape[0], 800):
        ref = expm(toy.l_mat * traj[k, 0]) @ x0
        assert np.max(np.abs(traj[k, 1:] - ref)) < 1e-8


def test_envelope_rate_figure_preset():
    traj = ode_trajectory(0.5, [1.0, 1.0], 40.0, 1e-3)
    rate = fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])
    assert rate == pytest.approx(0.25, abs=0.01)


def test_envelope_needs_oscillation():
    # overdamped: no oscillation peaks to fit
    traj = ode_trajectory(8.0, [1.0, 1.0], 20.0, 1e-3)
    with pytest.raises(NumericalFailureError):
        fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])


def test_envelope_of_a_span_whose_square_underflows_is_refused():
    # (t - mean t)^2 underflows to 0 at this span; the slope was 0 / 0, with two RuntimeWarnings
    traj = ode_trajectory(1.0, [1.0, 1.0], 1e-299, 1e-300)
    with pytest.raises(NumericalFailureError, match="too short to fit a slope"):
        fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])


def test_envelope_of_a_span_far_shorter_than_a_period_is_refused(tmp_path):
    # 11 rows 1e-160 apart: the detrended log-norm is roundoff, and its "peaks" gave a rate of 1.07e143
    traj = ode_trajectory(1.0, [1.0, 1.0], 1e-159, 1e-160)
    with pytest.raises(NumericalFailureError, match="quarter turn"):
        fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])
    rep_path = tmp_path / "rep.json"
    assert cli.main(["ode", "--dt", "1e-160", "--T", "1e-159", "--report", str(rep_path)]) == 0
    assert json.loads(rep_path.read_text())["results"]["envelope_rate"] is None


@pytest.mark.parametrize("g", [0.25, 0.5, 1.0, 1.5, 3.0, 4.0, 8.0])
def test_optimal_p_certificate_and_monotone_decay(g):
    opt = ode_optimal_P(g)
    assert opt.cert_ok
    toy = OdeToy(g)
    lam = ode_eigs(g).gap
    m = -(opt.p_mat @ toy.l_mat + toy.l_mat.T @ opt.p_mat) - 2.0 * lam * opt.p_mat
    assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() >= -1e-10
    # |X(t)|_P e^{2 lam t} non-increasing along a trajectory
    tr = ode_trajectory(g, [1.0, 0.3], 8.0, 1e-3)
    pn = np.einsum("ni,ij,nj->n", tr[:, 1:], opt.p_mat, tr[:, 1:])
    decay = pn * np.exp(2.0 * lam * tr[:, 0])
    assert np.all(np.diff(decay) <= 1e-7 * decay.max())


def test_plain_norm_c1_fails_below_critical_friction():
    """Without the modified norm there is always an initial condition that
    overshoots e^{-gap t} for some time, i.e. prefactor C = 1 is impossible."""
    g = 0.5
    gap = ode_eigs(g).gap
    found = False
    for th in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
        tr = ode_trajectory(g, [math.cos(th), math.sin(th)], 10.0, 1e-2)
        if np.any(np.hypot(tr[:, 1], tr[:, 2]) > np.exp(-gap * tr[:, 0]) * (1.0 + 1e-7)):
            found = True
            break
    assert found


def test_optimal_p_defective_at_critical_friction():
    with pytest.raises(DefectiveCaseError):
        ode_optimal_P(2.0)


def test_perturbative_p_positivity_threshold():
    g = 1.0
    eps_max = 4.0 * g / (4.0 + g * g)  # dissipation PD iff eps below this
    ok = ode_perturbative_P(g, eps_max - 1e-3)
    bad = ode_perturbative_P(g, eps_max + 1e-3)
    assert ok.min_eig_dissipation > 0.0
    assert bad.min_eig_dissipation < 0.0
    with pytest.raises(InvalidArgumentError):
        ode_perturbative_P(g, 1.0)


def test_perturbative_p_closed_form():
    pert = ode_perturbative_P(0.8, 0.3)
    want = np.eye(2) - 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pert.p_mat, want)
    toy = OdeToy(0.8)
    diss = -(pert.p_mat @ toy.l_mat + toy.l_mat.T @ pert.p_mat)
    # [[2e, -e g], [-e g, 2g - 2e]] up to symmetry
    assert diss[0, 0] == pytest.approx(2 * 0.3)
    assert diss[0, 1] == pytest.approx(-0.3 * 0.8)
    assert diss[1, 1] == pytest.approx(2 * 0.8 - 2 * 0.3)


def test_trajectory_validation():
    with pytest.raises(InvalidArgumentError):
        ode_trajectory(1.0, [1.0], 1.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        ode_trajectory(1.0, [1.0, 0.0], 1.0, -1e-3)
    with pytest.raises(InvalidArgumentError):
        OdeToy(0.0)


@pytest.mark.parametrize("gamma, stable", [(1e-20, True), (2785.0, True), (2786.0, False), (1e100, False)])
def test_trajectory_refuses_an_unstable_rk4_step(gamma, stable):
    """RK4 is stable on the negative real axis down to -2.7853, so at dt = 1e-3 up to gamma ~ 2785; the
    message names the limit dt * lambda_+ = 2.7853, a dt that is accepted."""
    if stable:
        assert np.all(np.isfinite(ode_trajectory(gamma, [1.0, 1.0], 1.0, 1e-3)))
        return
    with pytest.raises(InvalidArgumentError, match=re.escape(f"gamma={gamma:g} with dt=0.001")) as exc:
        ode_trajectory(gamma, [1.0, 1.0], 1.0, 1e-3)
    dt_max = float(str(exc.value).rsplit(" ", 1)[1])
    assert dt_max * ode_eigs(gamma).lambda_plus.real == pytest.approx(2.785293563405282, rel=1e-12)
    assert np.all(np.isfinite(ode_trajectory(gamma, [1.0, 1.0], 10 * dt_max, dt_max)))


def test_inverse_equals_integrated_semigroup_on_toy():
    """20-node quadrature of int_0^T e^{tL} x dt reproduces -L^{-1} x."""
    nodes, wts = np.polynomial.legendre.leggauss(20)
    for g in (0.5, 1.0, 4.0):
        toy = OdeToy(g)
        T = 10.0 / ode_eigs(g).gap
        ts = 0.5 * T * (nodes + 1.0)
        ws = 0.5 * T * wts
        x = np.array([0.7, -0.3])
        acc = sum(w * (expm(toy.l_mat * t) @ x) for t, w in zip(ts, ws))
        direct = np.linalg.solve(toy.l_mat, x)
        rel = np.linalg.norm(acc + direct) / np.linalg.norm(direct)
        assert rel < 1e-3


def test_trajectory_is_the_rk4_matrix_recurrence_in_python_floats():
    """Each row is the one-step matrix applied to the previous row, in Python float arithmetic."""
    gamma, dt = 0.5, 1e-3
    traj = ode_trajectory(gamma, [1.0, 1.0], 2.0, dt)
    h = dt * OdeToy(gamma).l_mat
    eye = np.eye(2)
    (m00, m01), (m10, m11) = (eye + h @ (eye + (h / 2.0) @ (eye + (h / 3.0) @ (eye + h / 4.0)))).tolist()
    a, b = 1.0, 1.0
    want = [(0.0, a, b)]
    for k in range(1, 2001):
        a, b = m00 * a + m01 * b, m10 * a + m11 * b
        want.append((k * dt, a, b))
    assert traj.shape == (2001, 3) and traj.dtype == np.float64
    assert np.array_equal(traj, np.array(want))
