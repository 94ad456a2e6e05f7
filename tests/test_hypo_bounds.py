"""Modified-norm dissipation, explicit resolvent bounds, witnesses, friction scans."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from hypokit.errors import DegenerateWitnessError, InvalidArgumentError, NumericalFailureError
from hypokit import cli, hypo
from hypokit.hypo import (
    modified_norm_dissipation,
    gamma_scan,
    resolvent_lower_bound,
    resolvent_norm,
    schur_bound,
    tune_modified_norm_epsilon,
    verify_schur_bound,
)
from hypokit.model import EnsembleParams, Torus, builtin_potential
from hypokit.spectral import (
    GeneratorAssembly,
    assemble_generator,
    build_basis,
    reduced_generator,
    spectral_gap,
)

R_FLAT = 4.0 * math.pi**2  # flat unit cell: slowest mode is the first Fourier pair


# ---------------------------------------------------------------------------
# modified-norm dissipation


class TestDissipation:
    def test_norm_certificates(self, cosine_asm):
        res = modified_norm_dissipation(cosine_asm, 0.5)
        assert res.r_norm <= 1.0 + 1e-8
        assert res.lham_r_norm <= 1.0 + 1e-8
        assert res.r_norm_ok and res.lham_r_norm_ok

    def test_no_coercivity_without_twist(self, cosine_asm):
        # eps = 0 is the plain L^2 norm, whose dissipation vanishes on
        # position-only modes: the whole point of the modification.
        res = modified_norm_dissipation(cosine_asm, 0.0)
        assert abs(res.lambda_est) <= 1e-8

    def test_tuned_rate_positive_and_below_gap(self, cosine_asm):
        tuned = tune_modified_norm_epsilon(cosine_asm)
        assert 0.0 < tuned.epsilon < 1.0
        assert tuned.lambda_est > 0.0
        gap = spectral_gap(cosine_asm).gap
        assert tuned.lambda_est <= gap * (1.0 + 1e-10)

    def test_tuned_beats_fixed_eps(self, cosine_asm):
        tuned = tune_modified_norm_epsilon(cosine_asm)
        for eps in (0.1, 0.3, 0.7):
            assert tuned.lambda_est >= modified_norm_dissipation(cosine_asm, eps).lambda_est - 1e-6

    @pytest.mark.parametrize("eps", [1.0, -1.0, 1.5])
    def test_eps_outside_unit_interval_rejected(self, cosine_asm, eps):
        with pytest.raises(InvalidArgumentError):
            modified_norm_dissipation(cosine_asm, eps)


# ---------------------------------------------------------------------------
# level-restricted solvers against the dense formulas on the whole operator


def _dense_dissipation(asm, eps):
    """(lambda_est, r_norm, lham_r_norm) from the dense N x N matrices."""
    red = reduced_generator(asm)
    h = -red.neg_operator(0.0)
    t0 = h[:, : red.n0]
    r_op = np.zeros_like(h)
    r_op[: red.n0] = sla.solve(np.eye(red.n0) + t0.T @ t0, t0.T, assume_a="pos")
    r_norm = 2.0 * float(sla.svdvals(r_op).max())
    lham_r_norm = float(sla.svdvals(h @ r_op).max())
    m_eps = 0.5 * np.eye(r_op.shape[0]) - eps * 0.5 * (r_op + r_op.T)
    l_op = -red.neg_operator(asm.gamma)
    diss = -(l_op.T @ m_eps + m_eps @ l_op)
    diss = 0.5 * (diss + diss.T)
    return float(sla.eigvalsh(diss)[0]), r_norm, lham_r_norm


def _dense_tuned_epsilon(asm, lo=1e-4, hi=0.9999, tol=1e-4):
    """Golden-section search on the dense pencil d0 + eps d2."""
    red = reduced_generator(asm)
    h = -red.neg_operator(0.0)
    t0 = h[:, : red.n0]
    r_op = np.zeros_like(h)
    r_op[: red.n0] = sla.solve(np.eye(red.n0) + t0.T @ t0, t0.T, assume_a="pos")
    l_op = -red.neg_operator(asm.gamma)
    sym_r = 0.5 * (r_op + r_op.T)
    d0 = -0.5 * (l_op.T + l_op)
    d2 = l_op.T @ sym_r + sym_r @ l_op
    d2 = 0.5 * (d2 + d2.T)

    def lam(eps):
        return float(sla.eigvalsh(d0 + eps * d2)[0])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = lam(c), lam(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = lam(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = lam(d)
    return 0.5 * (a + b)


# (potential params, beta, mass, gamma, Kq, Np)
ORACLE_CASES = {
    "cosine-gamma1/8": ({"h": 1.0, "L": 1.0}, 1.0, 1.0, 0.125, 8, 12),
    "cosine-gamma1": ({"h": 1.0, "L": 1.0}, 1.0, 1.0, 1.0, 8, 12),
    "cosine-gamma8": ({"h": 1.0, "L": 1.0}, 1.0, 1.0, 8.0, 8, 12),
    "pendulum-gamma1/4": ({"h": 1.0, "L": 2.0 * math.pi}, 1.0, 1.0, 0.25, 8, 12),
    "pendulum-gamma4": ({"h": 1.0, "L": 2.0 * math.pi}, 1.0, 1.0, 4.0, 8, 12),
    "beta2-mass0.5-gamma0.3": ({"h": 1.0, "L": 1.0}, 2.0, 0.5, 0.3, 8, 12),
    "rcond-cut-beta50-Kq4": ({"h": 1.0, "L": 1.0}, 50.0, 1.0, 1.0, 4, 12),
    "Np2": ({"h": 1.0, "L": 1.0}, 1.0, 1.0, 1.0, 8, 2),
    "Np3": ({"h": 1.0, "L": 1.0}, 1.0, 1.0, 1.0, 8, 3),
}


@pytest.fixture(scope="module", params=list(ORACLE_CASES))
def oracle_asm(request):
    pot, beta, mass, gamma, kq, npp = ORACLE_CASES[request.param]
    spec = builtin_potential("cosine", pot)
    params = EnsembleParams(beta=beta, mass=mass, gamma=gamma)
    basis = build_basis(spec, params, Kq=kq, Np=npp, n_quad=256)
    asm = assemble_generator(basis, spec, params)
    if request.param.startswith("rcond-cut"):
        assert reduced_generator(asm).wq.shape[1] < basis.n_q  # the cut drops directions
    return asm


class TestAgainstDenseOracle:
    def test_fixed_eps_dissipation(self, oracle_asm):
        res = modified_norm_dissipation(oracle_asm, 0.3)
        lam, r_norm, lham_r_norm = _dense_dissipation(oracle_asm, 0.3)
        assert res.lambda_est == pytest.approx(lam, rel=1e-10)
        assert res.r_norm == pytest.approx(r_norm, rel=1e-10)
        assert res.lham_r_norm == pytest.approx(lham_r_norm, rel=1e-10)

    def test_tuned_dissipation(self, oracle_asm):
        res = tune_modified_norm_epsilon(oracle_asm)
        eps = _dense_tuned_epsilon(oracle_asm)
        lam, r_norm, lham_r_norm = _dense_dissipation(oracle_asm, eps)
        assert res.epsilon == pytest.approx(eps, rel=1e-10)
        assert res.lambda_est == pytest.approx(lam, rel=1e-10)
        assert res.r_norm == pytest.approx(r_norm, rel=1e-10)
        assert res.lham_r_norm == pytest.approx(lham_r_norm, rel=1e-10)

    def test_resolvent_norm(self, oracle_asm):
        l_op = -reduced_generator(oracle_asm).neg_operator(oracle_asm.gamma)
        assert resolvent_norm(oracle_asm) == pytest.approx(1.0 / sla.svdvals(l_op).min(), rel=1e-10)


@pytest.mark.parametrize("command", ["bounds", "dissipation"])
def test_in_process_reruns_are_byte_identical(command, tmp_path):
    # the report echoes its own path, so both runs write the same file
    path = tmp_path / "rep.json"
    reports = []
    for _ in range(2):
        assert cli.main([command, "--gamma", "0.5", "--Kq", "8", "--Np", "16", "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# explicit resolvent upper bound: arithmetic


class TestSchurArithmetic:
    def test_convex_reference_value(self):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
        b = schur_bound(p, R_FLAT, "convex")
        # 2/(4 pi^2) + 8 * (3/8 + 1) = 1/(2 pi^2) + 11
        assert b.value == pytest.approx(11.0506605918, abs=1e-7)
        assert b.case == "convex" and b.c_const == 1.0 and b.c_prime == 0.0
        assert not b.unpinned

    def test_hessian_case_by_hand(self):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=2.0)
        b = schur_bound(p, 4.0, "hessian_lower_bound", K=3.0)
        # 2*1*2/4 + (8/2) * (3/8 + 1 + 3/4) = 1 + 8.5
        assert b.value == pytest.approx(9.5, abs=1e-12)
        assert not b.unpinned

    def test_general_case_flagged_unpinned(self):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
        b = schur_bound(p, 8.0, "general", c_prime=2.0)
        # 2/8 + 8 * (3/8 + 2 + 2/8) = 0.25 + 21
        assert b.value == pytest.approx(21.25, abs=1e-12)
        assert b.c_const == 2.0
        assert b.unpinned

    def test_gamma_scaling_of_the_bound(self):
        # The bound is exactly a/gamma + b*gamma: verify against the two
        # limits read off at gamma = 1e-3 and gamma = 1e3.
        for g in (0.2, 1.0, 5.0):
            p = EnsembleParams(beta=2.0, mass=1.5, gamma=g)
            b = schur_bound(p, R_FLAT, "convex")
            expect = 2.0 * 2.0 * g / R_FLAT + (8.0 * 1.5 / g) * (3.0 / 8.0 + 1.0)
            assert b.value == pytest.approx(expect, rel=1e-14)

    def test_bad_inputs(self):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
        with pytest.raises(InvalidArgumentError):
            schur_bound(p, R_FLAT, "convexish")
        with pytest.raises(InvalidArgumentError):
            schur_bound(p, -1.0, "convex")
        with pytest.raises(InvalidArgumentError):
            schur_bound(p, R_FLAT, "hessian_lower_bound", K=-0.5)
        with pytest.raises(InvalidArgumentError):
            schur_bound(p, R_FLAT, "general")  # c_prime mandatory here

    @pytest.mark.parametrize("case, constant", [
        ("convex", "K"), ("convex", "c_prime"), ("hessian_lower_bound", "c_prime"), ("general", "K"),
    ])
    def test_constant_the_case_does_not_read_is_refused(self, case, constant):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
        read = {"hessian_lower_bound": {"K": 1.0}, "general": {"c_prime": 1.0}}.get(case, {})
        with pytest.raises(InvalidArgumentError, match=f"{case} case does not read {constant}"):
            schur_bound(p, R_FLAT, case, **read, **{constant: 2.0})


# ---------------------------------------------------------------------------
# explicit bound against the computed resolvent norm


class TestSchurVerification:
    def test_cosine_bound_holds(self, cosine_asm, cosine_spec, unit_params):
        chk = verify_schur_bound(cosine_asm, cosine_spec, unit_params)
        assert chk.holds
        assert chk.numeric <= chk.bound * 1.05
        assert chk.case == "hessian_lower_bound"
        # |min V''| = 4 pi^2 for the unit cosine cell
        assert chk.K == pytest.approx(R_FLAT, rel=1e-2)

    def test_flat_potential_routes_to_convex(self, unit_params):
        spec = builtin_potential("flat", {"L": 1.0})
        basis = build_basis(spec, unit_params, Kq=8, Np=12, n_quad=128)
        asm = assemble_generator(basis, spec, unit_params)
        chk = verify_schur_bound(asm, spec, unit_params)
        assert chk.case == "convex"
        assert chk.holds

    def test_clipped_quadratic_is_not_convex(self, quad_spec, unit_params):
        # The harmonic well embedded in a period cell has V'' > 0 at every
        # grid node, but its cell integral of V'' is far from zero -- the
        # C^1-seam signature.  Auto-routing must refuse to call it convex.
        basis = build_basis(quad_spec, unit_params, Kq=8, Np=12, n_quad=128)
        asm = assemble_generator(basis, quad_spec, unit_params)
        with pytest.raises(InvalidArgumentError, match="periodically convex"):
            verify_schur_bound(asm, quad_spec, unit_params)
        with pytest.raises(InvalidArgumentError):
            verify_schur_bound(asm, quad_spec, unit_params, case="convex")
        chk = verify_schur_bound(asm, quad_spec, unit_params, case="hessian_lower_bound")
        assert chk.holds
        assert chk.K == 0.0  # Hessian never dips below zero on the grid

    def test_general_case_accepted_anywhere(self, cosine_asm, cosine_spec, unit_params):
        chk = verify_schur_bound(
            cosine_asm, cosine_spec, unit_params, case="general", c_prime=R_FLAT
        )
        assert chk.case == "general"
        assert chk.holds


# ---------------------------------------------------------------------------
# resolvent norm and witness lower bounds


@pytest.fixture(scope="module")
def ou_resolvents(quad_spec, unit_params):
    basis = build_basis(quad_spec, unit_params, Kq=8, Np=16, n_quad=64)

    def rn(gamma):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=gamma)
        return resolvent_norm(assemble_generator(basis, quad_spec, p))

    return rn


class TestResolventNorm:
    def test_ou_golden_ratio(self, ou_resolvents):
        # At critical-ish friction gamma = 1 the harmonic generator's inverse
        # has norm (1 + sqrt 5)/2.  Notably this is *below* 1/gap = 2: the
        # gap eigenvalue -1/2 +/- i sqrt(3)/2 sits on the unit circle, so
        # 1/|lambda| = 1 there and the reciprocal-gap heuristic fails.
        assert ou_resolvents(1.0) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-6)

    def test_exceeds_reciprocal_smallest_eigenvalue(self, cosine_asm):
        red = reduced_generator(cosine_asm)
        lam = np.linalg.eigvals(-red.neg_operator(cosine_asm.gamma))
        assert resolvent_norm(cosine_asm) >= 1.0 / np.abs(lam).min() - 1e-9

    def test_grows_toward_both_friction_limits(self, ou_resolvents):
        mid = ou_resolvents(1.0)
        assert ou_resolvents(0.125) > mid
        assert ou_resolvents(8.0) > mid

    @pytest.mark.parametrize("gamma", [1e-14, 1e-300])
    def test_singular_generator_fails_cleanly(self, cosine_asm_small, gamma, capfd):
        # at 1e-300 the inverse overflows; LAPACK must not get to print
        asm = GeneratorAssembly(basis=cosine_asm_small.basis, gamma=gamma)
        with pytest.raises(NumericalFailureError, match="singular"):
            resolvent_norm(asm)
        assert capfd.readouterr().out == ""

    def test_stable_under_refinement(self, quad_spec, unit_params):
        vals = []
        for kq, npp in ((8, 16), (16, 32)):
            basis = build_basis(quad_spec, unit_params, Kq=kq, Np=npp, n_quad=8 * kq)
            vals.append(resolvent_norm(assemble_generator(basis, quad_spec, unit_params)))
        assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]


@pytest.fixture(scope="module")
def pendulum_witnesses(pendulum_spec):
    basis_params = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
    basis = build_basis(pendulum_spec, basis_params, Kq=16, Np=32, n_quad=256)

    def at(gamma):
        p = EnsembleParams(beta=1.0, mass=1.0, gamma=gamma)
        asm = assemble_generator(basis, pendulum_spec, p)
        return asm, resolvent_lower_bound(pendulum_spec, p, asm)

    return at


class TestWitnesses:
    def test_witnesses_are_lower_bounds(self, pendulum_witnesses):
        for gamma in (0.25, 1.0, 4.0):
            asm, pair = pendulum_witnesses(gamma)
            rn = resolvent_norm(asm)
            assert 0 < pair.overdamped <= rn * (1 + 1e-6)
            assert 0 < pair.underdamped <= rn * (1 + 1e-6)

    def test_overdamped_witness_slope(self, pendulum_witnesses):
        gammas = np.array([4.0, 8.0, 16.0])
        vals = [pendulum_witnesses(g)[1].overdamped for g in gammas]
        slope = np.polyfit(np.log(gammas), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_underdamped_witness_slope(self, pendulum_witnesses):
        # L kills the energy witness except through the friction block, so
        # the ratio is exactly c/gamma and the fit is -1 to roundoff.
        gammas = np.array([1 / 16, 1 / 8, 1 / 4])
        vals = [pendulum_witnesses(g)[1].underdamped for g in gammas]
        slope = np.polyfit(np.log(gammas), np.log(vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-3)

    def test_flat_potential_degenerate(self, unit_params):
        spec = builtin_potential("flat", {"L": 1.0})
        basis = build_basis(spec, unit_params, Kq=8, Np=12, n_quad=128)
        asm = assemble_generator(basis, spec, unit_params)
        with pytest.raises(DegenerateWitnessError):
            resolvent_lower_bound(spec, unit_params, asm)


# ---------------------------------------------------------------------------
# friction scan


@pytest.fixture(scope="module")
def ou_scan_assembly(quad_spec):
    p = EnsembleParams(beta=1.0, mass=1.0, gamma=1.0)
    basis = build_basis(quad_spec, p, Kq=8, Np=16, n_quad=64)
    return assemble_generator(basis, quad_spec, p), p


class TestGammaScan:
    # Ratio 2.1 keeps every ladder rung away from gamma = 2, where the
    # harmonic generator is defective and the closed-form branches meet.
    LADDER = [0.125 * 2.1**k for k in range(7)]

    def test_quadratic_branch_formulas(self, quad_spec, ou_scan_assembly):
        asm, p = ou_scan_assembly
        res = gamma_scan(quad_spec, p, self.LADDER, assembly=asm)
        assert not res.row_errors
        for g, gap in zip(res.table.gammas, res.table.gaps):
            want = g / 2 if g < 2 else (g - math.sqrt(g * g - 4)) / 2
            assert gap == pytest.approx(want, abs=1e-6)

    def test_scan_slopes_and_floor(self, quad_spec, ou_scan_assembly):
        asm, p = ou_scan_assembly
        res = gamma_scan(quad_spec, p, self.LADDER, assembly=asm)
        # Underdamped branch is exactly gamma/2 on this ladder.
        assert res.slope_small_gamma == pytest.approx(1.0, abs=1e-6)
        # Overdamped rungs sit near the square-root singularity at gamma = 2,
        # so the windowed fit of the closed form is steeper than -1; check
        # the fit reproduces it rather than pretending the asymptote is hit.
        big = np.array([g for g in self.LADDER if g >= 2.0])
        form = (big - np.sqrt(big**2 - 4)) / 2
        want = np.polyfit(np.log(big), np.log(form), 1)[0]
        assert res.slope_large_gamma == pytest.approx(want, abs=1e-5)
        assert -1.35 < res.slope_large_gamma < -0.85
        # min over the ladder of gap / min(gamma, 1/gamma): the small-gamma
        # rungs attain it at exactly 1/2.
        assert res.lambda_bar == pytest.approx(0.5, abs=1e-6)

    def test_row_failure_is_isolated(self, quad_spec, ou_scan_assembly, monkeypatch):
        asm, p = ou_scan_assembly
        real = hypo._gap_of_operator
        bad_gamma = self.LADDER[3]

        def flaky(op):
            res = real(op)
            if abs(res.gap - bad_gamma / 2) < 1e-4:
                raise RuntimeError("synthetic row failure")
            return res

        monkeypatch.setattr(hypo, "_gap_of_operator", flaky)
        res = gamma_scan(quad_spec, p, self.LADDER, assembly=asm)
        assert list(res.row_errors) == [pytest.approx(bad_gamma)]
        assert "synthetic row failure" in next(iter(res.row_errors.values()))
        nan_rows = np.isnan(res.table.gaps)
        assert nan_rows.sum() == 1
        assert np.isfinite(res.lambda_bar)

    def test_roundoff_gaps_fail_their_rows_only(self, quad_spec, ou_scan_assembly):
        # At gamma = 1e-17 the gap is the smallest real part of roundoff-level
        # scatter about zero, hence negative; such rows are failed rows, never
        # a scan-wide error.
        asm, p = ou_scan_assembly
        ladder = [1e-17 * 10.0**k for k in range(19)]
        res = gamma_scan(quad_spec, p, ladder, assembly=asm)
        failed = res.table.gammas[np.isnan(res.table.gaps)]
        assert failed[0] == 1e-17 and np.all(failed < 1e-10)
        assert sorted(res.row_errors) == pytest.approx(sorted(failed))
        assert all("not positive" in msg for msg in res.row_errors.values())
        assert res.table.gaps[-1] == pytest.approx((10.0 - math.sqrt(96.0)) / 2, abs=1e-6)

    def test_rungs_need_a_margin_above_roundoff(self, quad_spec, ou_scan_assembly):
        # gap / (eps ||L||_1) reads 6.3 at gamma = 1e-13, 610 at 1e-11 and 6000
        # at 1e-10: positive gaps, but only the last clears the margin.
        asm, p = ou_scan_assembly
        ladder = [1e-17 * 10.0**k for k in range(19)]
        res = gamma_scan(quad_spec, p, ladder, assembly=asm)
        failed = res.table.gammas[np.isnan(res.table.gaps)]
        assert np.array_equal(failed, res.table.gammas[:7])  # 1e-17 ... 1e-11

    def test_ladder_contract(self, quad_spec, ou_scan_assembly):
        asm, p = ou_scan_assembly
        with pytest.raises(InvalidArgumentError, match="at least 7"):
            gamma_scan(quad_spec, p, self.LADDER[:6], assembly=asm)
        with pytest.raises(InvalidArgumentError, match="span"):
            gamma_scan(quad_spec, p, [0.25 * 2.1**k for k in range(7)], assembly=asm)
        with pytest.raises(InvalidArgumentError):
            gamma_scan(quad_spec, p, [-1.0] + self.LADDER[1:], assembly=asm)
        with pytest.raises(InvalidArgumentError):
            gamma_scan(quad_spec, p, [0.125, 0.125] + self.LADDER[2:], assembly=asm)

    def test_builds_its_basis_with_the_default_grid_for_any_kq(self, cosine_spec, unit_params):
        # n_quad defaults to max(256, 8 Kq) in build_basis alone; at Kq = 40 that is 320 nodes
        assert build_basis(cosine_spec, unit_params, Kq=40, Np=2).nodes.size == 320
        res = gamma_scan(cosine_spec, unit_params, self.LADDER, Kq=40, Np=2)
        assert not res.row_errors and np.all(res.table.gaps > 0)
