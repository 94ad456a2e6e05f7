"""Quantitative hypocoercivity checks.

Three layers:

  * a 2x2 ODE toy model dX/dt = L X with -L = A + gamma S,
    A = [[0, 1], [-1, 0]] (conservative), S = [[0, 0], [0, 1]] (dissipative),
    whose spectrum and optimal decay-norm matrices are known in closed form;
  * modified-norm (auxiliary-operator) dissipation estimates and explicit
    resolvent upper bounds for the Galerkin-discretized kinetic generator,
    together with witness functions that bound the resolvent norm from below;
  * a friction scan fitting the min(gamma, 1/gamma) scaling of the gap.

All Galerkin computations run in the whitened, constant-deflated frame
provided by spectral.reduced_generator, where gram-weighted norms are
Euclidean and the exact antisymmetry of the Hamiltonian block makes the
auxiliary operator R = (1 + (L_ham P0)* (L_ham P0))^{-1} (L_ham P0)* satisfy
||2R|| <= 1 and ||L_ham R|| <= 1 up to roundoff.

The dissipation matrix D(eps) = D0 + eps D2 is solved on Hermite levels 0-2
only, and exactly so.  D0 = -(L + L^T)/2 is the diagonal -gamma*fd, because
L_ham is exactly antisymmetric.  T = L_ham P0 maps level 0 into level 1, so R
lives on the (level 0 x level 1) block, and since L couples only adjacent
levels, D2 = L^T S + S L (S the symmetric part of R) lives on levels 0-2.
Beyond them D(eps) is diagonal, with smallest entry 3 gamma / m.

The resolvent norm ||L^{-1}|| = 1/sigma_min(L) comes from Lanczos on the
symmetric positive definite L^{-T} L^{-1}, applied through one sparse LU of
the banded -L^T.  Its largest eigenvalue is 1/sigma_min^2, and for a symmetric
positive definite operator the largest Lanczos eigenvalue is the wanted one.
A shift-invert eigensolve of L itself could not give the spectral gap that
safely: it returns the eigenvalues nearest 0 in modulus, which can miss the
one with the smallest real part, so spectral_gap stays a dense eigensolve.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DefectiveCaseError,
    DegenerateWitnessError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .model import EnsembleParams, PotentialSpec
from .spectral import (
    DEFAULT_KQ,
    DEFAULT_NP,
    GeneratorAssembly,
    _gap_of_operator,
    assemble_generator,
    build_basis,
    poincare_constant,
    project_phase_function,
    reduced_generator,
)

Array = np.ndarray

OPTIMAL_P_TOL = 1e-10  # slack on the ODE decay-norm certificate
EPS_LO, EPS_HI, EPS_TOL = 1e-4, 0.9999, 1e-4  # golden-section bracket and width
HESS_GRID_N = 4096  # torus grid on which the Hessian lower bound is scanned
GAP_ROUNDOFF_MARGIN = 1e3  # a scan rung's gap must exceed its roundoff floor this many times
ODE_MAX_STEPS = 10**7  # RK4 steps ode_trajectory takes at most (250 times the figure-1 run)


# ---------------------------------------------------------------------------
# 2x2 ODE toy model


@dataclass(frozen=True)
class OdeToy:
    """dX/dt = L X with -L = A + gamma S; A rotation generator, S = diag(0, 1)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InvalidArgumentError(f"gamma must be positive, got {self.gamma}")

    @property
    def a_mat(self) -> Array:
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    @property
    def s_mat(self) -> Array:
        return np.array([[0.0, 0.0], [0.0, 1.0]])

    @property
    def l_mat(self) -> Array:
        return -(self.a_mat + self.gamma * self.s_mat)


@dataclass(frozen=True)
class OdeEigs:
    lambda_plus: complex
    lambda_minus: complex
    gap: float
    numeric: Array  # eigenvalues of -L from the dense solver, for cross-checking


def ode_eigs(gamma: float) -> OdeEigs:
    """Closed-form spectrum of -L: lambda_pm = gamma/2 +- sqrt(gamma^2/4 - 1)."""
    toy = OdeToy(gamma)
    disc = np.sqrt(complex(0.25 * gamma * gamma - 1.0))
    lam_p = 0.5 * gamma + disc
    lam_m = 0.5 * gamma - disc
    if gamma <= 2.0:
        gap = 0.5 * gamma
    else:
        gap = 2.0 / (gamma + math.sqrt(gamma * gamma - 4.0))
    numeric = np.linalg.eigvals(-toy.l_mat)
    return OdeEigs(lambda_plus=lam_p, lambda_minus=lam_m, gap=float(gap), numeric=numeric)


@dataclass(frozen=True)
class OptimalP:
    p_mat: Array
    lam: float
    cert_ok: bool
    cert_residual: float  # most negative eigenvalue in the two certificate checks


def ode_optimal_P(gamma: float) -> OptimalP:
    """Sharp decay-norm matrix P from the eigenvectors of L^T.

    P = sum_k X_k conj(X_k)^T over unit eigenvectors of L^T is symmetric
    positive definite and satisfies -(P L + L^T P) >= 2 lam P with
    lam = spectral gap; at gamma = 2 the eigenvectors coincide and the
    construction is defective.  The certificate holds up to OPTIMAL_P_TOL.
    """
    toy = OdeToy(gamma)
    if abs(gamma - 2.0) < 1e-8:
        raise DefectiveCaseError(
            "gamma = 2 is defective (coinciding eigenvectors); use ode_perturbative_P"
        )
    _, vecs = np.linalg.eig(toy.l_mat.T)
    p_mat = np.real(vecs[:, [0]] @ vecs[:, [0]].conj().T + vecs[:, [1]] @ vecs[:, [1]].conj().T)
    p_mat = 0.5 * (p_mat + p_mat.T)
    lam = ode_eigs(gamma).gap

    diss = -(p_mat @ toy.l_mat + toy.l_mat.T @ p_mat) - 2.0 * lam * p_mat
    min_diss = float(np.min(np.linalg.eigvalsh(0.5 * (diss + diss.T))))
    min_p = float(np.min(np.linalg.eigvalsh(p_mat)))
    cert_ok = min_p > OPTIMAL_P_TOL and min_diss >= -OPTIMAL_P_TOL
    return OptimalP(p_mat=p_mat, lam=lam, cert_ok=cert_ok, cert_residual=min(min_diss, min_p))


@dataclass(frozen=True)
class PerturbativeP:
    p_mat: Array
    min_eig_dissipation: float


def ode_perturbative_P(gamma: float, eps: float) -> PerturbativeP:
    """P = I - eps [[0,1],[1,0]]; reports the smallest eigenvalue of -(PL + L^T P)."""
    toy = OdeToy(gamma)
    if not abs(eps) < 1.0:
        raise InvalidArgumentError(f"|eps| must be < 1 for P to stay positive definite, got {eps}")
    p_mat = np.eye(2) - eps * np.array([[0.0, 1.0], [1.0, 0.0]])
    diss = -(p_mat @ toy.l_mat + toy.l_mat.T @ p_mat)
    return PerturbativeP(
        p_mat=p_mat,
        min_eig_dissipation=float(np.min(np.linalg.eigvalsh(0.5 * (diss + diss.T)))),
    )


def ode_trajectory(gamma: float, x0, T: float, dt: float) -> Array:
    """Integrate dX/dt = L X with classical RK4; rows are (t, X1, X2)."""
    toy = OdeToy(gamma)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise InvalidArgumentError(f"x0 must have shape (2,), got {x0.shape}")
    if not (T > 0 and dt > 0 and dt <= T):
        raise InvalidArgumentError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    if not T / dt <= ODE_MAX_STEPS:
        raise InvalidArgumentError(f"T / dt exceeds ODE_MAX_STEPS = {ODE_MAX_STEPS} steps, got T={T}, dt={dt}")
    # one classical RK4 step of a linear ODE is x -> M x with
    # M = I + h (I + h/2 (I + h/3 (I + h/4))), h = dt L
    h = dt * toy.l_mat
    eye = np.eye(2)
    m = eye + h @ (eye + (h / 2.0) @ (eye + (h / 3.0) @ (eye + h / 4.0)))
    (m00, m01), (m10, m11) = m.tolist()
    n = int(round(T / dt))
    x1, x2 = [float(x0[0])], [float(x0[1])]
    for _ in range(n):
        a, b = x1[-1], x2[-1]
        x1.append(m00 * a + m01 * b)
        x2.append(m10 * a + m11 * b)
    return np.column_stack([np.arange(n + 1) * dt, x1, x2])


def fit_envelope_rate(times: Array, x1: Array, x2: Array) -> float:
    """Decay rate of |X(t)| fitted through fixed-phase points of its oscillation.

    |X(t)| can decay monotonically with a periodically varying slope (the
    symmetric part of the drift only damps one component), so raw local maxima
    of log|X| need not exist.  Detrending by a pilot linear fit exposes one
    maximum per oscillation period; a line through those points has slope equal
    to the mean decay rate.
    """
    s = np.hypot(np.asarray(x1, float), np.asarray(x2, float))
    t = np.asarray(times, float)
    if np.any(s <= 0):
        raise NumericalFailureError("trajectory passes through the origin; no envelope")
    ls = np.log(s)
    pilot = np.polyfit(t, ls, 1)[0]
    d = ls - pilot * t
    interior = np.nonzero((d[1:-1] >= d[:-2]) & (d[1:-1] > d[2:]))[0] + 1
    if interior.size < 2:
        raise NumericalFailureError("need at least two envelope peaks to fit a rate")
    # parabolic refinement of each detrended peak
    tp = np.empty(interior.size)
    lp = np.empty(interior.size)
    for j, i in enumerate(interior):
        y0, y1, y2 = d[i - 1], d[i], d[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        dt = t[i] - t[i - 1]
        tp[j] = t[i] + shift * dt
        lp[j] = (y1 - 0.25 * (y0 - y2) * shift) + pilot * tp[j]
    slope = np.polyfit(tp, lp, 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# modified-norm dissipation for the Galerkin generator


@dataclass(frozen=True)
class DissipationResult:
    lambda_est: float
    epsilon: float
    r_norm: float  # ||2R|| in the gram norm
    lham_r_norm: float  # ||L_ham R||
    r_norm_ok: bool
    lham_r_norm_ok: bool


def _modified_norm_parts(asm: GeneratorAssembly):
    """(rb, t1, l_k, tail): the pieces of D(eps) on Hermite levels 0-2.

    T = L_ham Pi0 is nonzero only in its level-1 rows t1, the level-1 to
    level-0 coupling block, so R = (1 + T*T)^{-1} T* is nonzero only on its
    (level 0 x level 1) block rb.  l_k is the generator on the first
    k = n0 + 2r coordinates (levels 0-2), and tail is the smallest diagonal
    entry of the dissipation matrix on the remaining levels (+inf if there
    are none).
    """
    red = reduced_generator(asm)
    n0 = red.n0
    t1 = math.sqrt(1.0 / red.beta_m) * (red.c_t @ red.q0)
    rb = sla.solve(np.eye(n0) + t1.T @ t1, t1.T, assume_a="pos")
    l_k = -red.neg_operator(asm.gamma, levels=3)
    k = l_k.shape[0]
    tail = -asm.gamma * float(red.fd[k]) if k < red.dim else math.inf
    return rb, t1, l_k, tail


def _sym_r(rb: Array, k: int) -> Array:
    """S = (R + R^T)/2 on the level 0-2 block."""
    n0, r = rb.shape
    s = np.zeros((k, k))
    s[:n0, n0 : n0 + r] = 0.5 * rb
    s[n0 : n0 + r, :n0] = 0.5 * rb.T
    return s


def _lambda_min(diss: Array, tail: float) -> float:
    return min(float(sla.eigh(diss, eigvals_only=True, subset_by_index=[0, 0])[0]), tail)


def modified_norm_dissipation(asm: GeneratorAssembly, eps: float) -> DissipationResult:
    """Dissipation rate of the eps-modified norm H[phi] = 1/2||phi||^2 - eps<R phi, phi>.

    lambda_est is the largest lambda with D[phi] >= lambda ||phi||^2 on the
    constant-deflated space, computed as the smallest eigenvalue of the
    symmetrized dissipation matrix.  Requires |eps| < 1; the modified norm is
    then equivalent to the flat one since ||2R|| <= 1.
    """
    if not abs(eps) < 1.0:
        raise InvalidArgumentError(f"|eps| must be < 1, got {eps}")
    rb, t1, l_k, tail = _modified_norm_parts(asm)
    r_norm = 2.0 * float(np.linalg.norm(rb, 2))
    lham_r_norm = float(np.linalg.norm(t1 @ rb, 2))

    # outside the block 1/2 I - eps S is 1/2 and D(eps) is its diagonal tail
    m_eps = 0.5 * np.eye(l_k.shape[0]) - eps * _sym_r(rb, l_k.shape[0])
    if float(np.min(sla.eigvalsh(m_eps))) <= 0.0:
        raise InvalidArgumentError(
            f"modified norm is not positive definite at eps={eps} (norm equivalence broken)"
        )
    diss = -(l_k.T @ m_eps + m_eps @ l_k)
    return DissipationResult(
        lambda_est=_lambda_min(0.5 * (diss + diss.T), tail),
        epsilon=float(eps),
        r_norm=r_norm,
        lham_r_norm=lham_r_norm,
        r_norm_ok=r_norm <= 1.0 + 1e-8,
        lham_r_norm_ok=lham_r_norm <= 1.0 + 1e-8,
    )


def tune_modified_norm_epsilon(asm: GeneratorAssembly) -> DissipationResult:
    """Golden-section maximization of lambda_est over eps in [EPS_LO, EPS_HI].

    lambda_est(eps) is the minimum eigenvalue of a matrix pencil affine in
    eps, hence concave, so golden-section search is exact up to EPS_TOL.
    """
    rb, _, l_k, tail = _modified_norm_parts(asm)
    sym_r = _sym_r(rb, l_k.shape[0])
    d0 = -0.5 * (l_k.T + l_k)
    d2 = l_k.T @ sym_r + sym_r @ l_k
    d2 = 0.5 * (d2 + d2.T)

    def lam(eps: float) -> float:
        return _lambda_min(d0 + eps * d2, tail)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = EPS_LO, EPS_HI
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = lam(c), lam(d)
    while b - a > EPS_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = lam(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = lam(d)
    best = 0.5 * (a + b)
    return modified_norm_dissipation(asm, best)


# ---------------------------------------------------------------------------
# resolvent bounds


def resolvent_norm(asm: GeneratorAssembly) -> float:
    """Gram-weighted norm of the inverse generator on the deflated space.

    ||L^{-1}|| = 1/sigma_min(L), from Lanczos on the symmetric positive
    definite A^{-1} A^{-T} (one sparse LU of A); sigma_max from Lanczos on
    A^T A.  A = -L^T has the singular values of L and is the C-ordered view
    of the Fortran-ordered -L, which csc_matrix reads about 3x faster.  A
    fixed start vector keeps reruns bitwise identical.
    """
    # imported here: scipy.sparse costs every CLI start-up about 30 ms
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    op = csc_matrix(reduced_generator(asm).neg_operator(asm.gamma).T)
    n = op.shape[0]

    def largest(matvec) -> float:
        # An overflowing product would reach LAPACK inside ARPACK, which
        # prints to stdout; it shows on the start vector already.
        v0 = np.ones(n)
        y = matvec(v0)
        if not np.all(np.isfinite(y)):
            raise NumericalFailureError("generator is numerically singular on the deflated space")
        if n == 1:  # ARPACK needs n >= 2
            return float(y[0])
        sym = LinearOperator((n, n), matvec=matvec, dtype=float)
        return float(eigsh(sym, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])

    try:
        lu = splu(op)
        big_inv = largest(lambda x: lu.solve(lu.solve(x, trans="T")))
        big = largest(lambda x: op.T @ (op @ x))
    except RuntimeError as exc:  # a singular LU factor, or any ARPACK failure
        raise NumericalFailureError(f"resolvent norm solve failed: {exc}") from exc
    smin = 1.0 / math.sqrt(big_inv) if big_inv > 0.0 else 0.0
    if not smin > 1e-14 * math.sqrt(big):
        raise NumericalFailureError("generator is numerically singular on the deflated space")
    return 1.0 / smin


SCHUR_CASES = ("convex", "hessian_lower_bound", "general")


@dataclass(frozen=True)
class SchurBound:
    value: float
    case: str
    c_const: float
    c_prime: float
    unpinned: bool


def schur_bound(
    params: EnsembleParams,
    r_nu: float,
    case: str,
    K: float | None = None,
    c_prime: float | None = None,
) -> SchurBound:
    """Explicit resolvent upper bound 2 beta gamma / R + (8m/gamma)(3/8 + C + C'/R).

    Cases: convex potential (C=1, C'=0); Hessian bounded below by -K
    (C=1, C'=K, K >= 0); general with caller-supplied C' (C=2, flagged as
    unpinned since C' carries an unspecified dimension-dependent constant).
    K is read by the hessian_lower_bound case only and c_prime by the general
    case only; passing either to another case is refused.
    """
    if case not in SCHUR_CASES:
        raise InvalidArgumentError(f"unknown case '{case}'; options: {', '.join(SCHUR_CASES)}")
    if K is not None and case != "hessian_lower_bound":
        raise InvalidArgumentError(f"the {case} case does not read K; only hessian_lower_bound does")
    if c_prime is not None and case != "general":
        raise InvalidArgumentError(f"the {case} case does not read c_prime; only general does")
    if not r_nu > 0:
        raise InvalidArgumentError(f"Poincare constant must be positive, got {r_nu}")
    if not params.gamma > 0:
        raise InvalidArgumentError("gamma must be positive")
    unpinned = False
    if case == "convex":
        c_const, cp = 1.0, 0.0
    elif case == "hessian_lower_bound":
        if K is None or K < 0:
            raise InvalidArgumentError("hessian_lower_bound case needs K >= 0")
        c_const, cp = 1.0, float(K)
    else:
        if c_prime is None or c_prime < 0:
            raise InvalidArgumentError("general case needs a caller-supplied c_prime >= 0")
        c_const, cp = 2.0, float(c_prime)
        unpinned = True
    value = 2.0 * params.beta * params.gamma / r_nu + (8.0 * params.mass / params.gamma) * (
        0.375 + c_const + cp / r_nu
    )
    return SchurBound(value=float(value), case=case, c_const=c_const, c_prime=cp, unpinned=unpinned)


@dataclass(frozen=True)
class SchurCheck:
    numeric: float
    bound: float
    holds: bool
    case: str
    K: float
    r_nu: float


def verify_schur_bound(
    asm: GeneratorAssembly,
    spec: PotentialSpec,
    params: EnsembleParams,
    case: str | None = None,
    K: float | None = None,
    c_prime: float | None = None,
    slack: float = 0.05,
) -> SchurCheck:
    """Compare the numerically computed resolvent norm against the explicit bound.

    The Hessian lower bound is scanned on a uniform torus grid of
    HESS_GRID_N points.  Requesting the convex case for a potential whose
    Hessian dips below zero is refused (no non-constant torus potential is
    convex).
    """
    pts = (np.arange(HESS_GRID_N) * (asm.basis.L / HESS_GRID_N))[:, None]
    d2v = spec.hessian(pts)[:, 0, 0]
    min_hess = float(d2v.min())
    scale = float(np.abs(d2v).max())
    convex_ok = min_hess >= -1e-10 * max(scale, 1.0)
    # A C^1 torus potential has zero-mean second derivative; a nonzero mean
    # betrays a confining potential clipped onto a cell, whose apparent grid
    # convexity hides a negative seam contribution.
    periodic_hess = abs(float(d2v.mean())) <= 1e-8 * max(scale, 1.0)

    if case is None:
        if convex_ok and periodic_hess:
            case = "convex"
        elif convex_ok:
            raise InvalidArgumentError(
                "potential looks convex on the grid but is not periodically convex "
                "(clipped cell); pass case='hessian_lower_bound' or 'general' explicitly"
            )
        else:
            case = "hessian_lower_bound"
    if case == "convex" and not (convex_ok and periodic_hess):
        raise InvalidArgumentError(
            f"convex case refused: Hessian reaches {min_hess:.6g} < 0 on the torus "
            "(or its apparent convexity comes from a clipped cell); "
            "use hessian_lower_bound or general"
        )
    k_used = 0.0
    if case == "hessian_lower_bound":
        k_used = float(K) if K is not None else max(0.0, -min_hess)

    r_nu = poincare_constant(spec, params, Kq=asm.basis.Kq)
    # before the resolvent solve, so that a constant the case does not read fails fast
    bound = schur_bound(params, r_nu, case, K=k_used if case == "hessian_lower_bound" else K, c_prime=c_prime)
    numeric = resolvent_norm(asm)
    return SchurCheck(
        numeric=numeric,
        bound=bound.value,
        holds=bool(numeric <= bound.value * (1.0 + slack)),
        case=case,
        K=k_used,
        r_nu=r_nu,
    )


@dataclass(frozen=True)
class WitnessPair:
    """Rayleigh-quotient lower bounds ||u|| / ||L u|| <= ||L^{-1}|| for two witnesses.

    overdamped: u = p V'(q) + gamma (V - <V>), whose image under L is
    gamma-independent, so the ratio grows like gamma for large friction.
    underdamped: u = projected Hamiltonian, killed by L_ham, so
    L u = gamma L_FD u and the ratio grows like 1/gamma for small friction.
    """

    overdamped: float
    underdamped: float


def resolvent_lower_bound(
    spec: PotentialSpec,
    params: EnsembleParams,
    asm: GeneratorAssembly,
) -> WitnessPair:
    basis = asm.basis
    red = reduced_generator(asm)
    w = basis.weights
    v = spec.eval(basis.nodes[:, None])
    v_mean = float(w @ v / w.sum())
    v_var = float(w @ (v - v_mean) ** 2 / w.sum())
    if v_var <= 1e-14 * max(1.0, v_mean * v_mean):
        raise DegenerateWitnessError("witnesses vanish for a constant potential")

    gamma, m = asm.gamma, params.mass
    neg_op = red.neg_operator(gamma)  # ||L u|| = ||-L u||

    def ratio(f) -> float:
        z = red.to_reduced(project_phase_function(basis, f))
        img = neg_op @ z
        nz, ni = float(np.linalg.norm(z)), float(np.linalg.norm(img))
        if ni <= 1e-14 * max(nz, 1.0):
            raise NumericalFailureError("witness image under the generator is numerically zero")
        return nz / ni

    over = ratio(lambda q, p: p * spec.grad(q) + gamma * (spec.eval(q)[:, None] - v_mean))
    under = ratio(lambda q, p: spec.eval(q)[:, None] + p * p / (2.0 * m))
    return WitnessPair(overdamped=over, underdamped=under)


# ---------------------------------------------------------------------------
# friction scan


@dataclass(frozen=True)
class ScalingTable:
    """Rows of a friction scan: gap(gamma) against min(gamma, 1/gamma)."""

    gammas: Array
    gaps: Array  # NaN where a row failed
    lower_model: Array  # min(gamma, 1/gamma)


@dataclass(frozen=True)
class ScanResult:
    table: ScalingTable
    slope_small_gamma: float
    slope_large_gamma: float
    lambda_bar: float
    row_errors: dict


def _max_workers(n_rows: int, requested: int | None) -> int:
    if requested is not None:
        return max(1, int(requested))
    return max(1, min(n_rows, os.cpu_count() or 1))


def gamma_scan(
    spec: PotentialSpec,
    params_base: EnsembleParams,
    gammas,
    Kq: int = DEFAULT_KQ,
    Np: int = DEFAULT_NP,
    n_quad: int | None = None,
    max_workers: int | None = None,
    assembly: GeneratorAssembly | None = None,
) -> ScanResult:
    """Spectral gap across a friction ladder; fits both scaling branches.

    Requires at least 7 gamma values spanning [1/8, 8].  Rows run in parallel
    (max_workers threads, default one per row up to the CPU count) and failed rows, including
    those whose gap is not above roundoff, are reported in row_errors with
    NaN gaps rather than aborting the scan.  Slopes are
    log-log fits over gamma <= 1/2 and gamma >= 2; lambda_bar is the smallest
    ratio gap / min(gamma, 1/gamma).
    """
    g = np.asarray(sorted(float(x) for x in gammas))
    if g.size < 7:
        raise InvalidArgumentError(f"need at least 7 gamma values, got {g.size}")
    if np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise InvalidArgumentError("gammas must be positive and distinct")
    if g[0] > 0.125 * (1 + 1e-9) or g[-1] < 8.0 * (1 - 1e-9):
        raise InvalidArgumentError("gammas must span at least [1/8, 8]")

    if assembly is None:
        assembly = assemble_generator(build_basis(spec, params_base, Kq=Kq, Np=Np, n_quad=n_quad), spec, params_base)
    red = reduced_generator(assembly)

    gaps = np.full(g.size, np.nan)
    row_errors: dict = {}

    def run_row(i: int):
        try:
            res = _gap_of_operator(red.neg_operator(g[i]))
            # Near-zero friction leaves a gap at roundoff level, of either sign;
            # eps * ||L||_1 is the backward-error scale of the dense eigensolve,
            # and a gap a few times above it still moves by ~1e-2 between solves.
            gap, floor = res.gap, GAP_ROUNDOFF_MARGIN * np.finfo(float).eps * res.norm1
            if not gap > floor:
                raise NumericalFailureError(f"computed gap {gap:.3g} is not positive above roundoff margin {floor:.3g}")
            gaps[i] = gap
        except Exception as exc:  # noqa: BLE001 - rows are isolated by design
            row_errors[float(g[i])] = f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=_max_workers(g.size, max_workers)) as pool:
        list(pool.map(run_row, range(g.size)))

    lower = np.minimum(g, 1.0 / g)
    table = ScalingTable(gammas=g, gaps=gaps, lower_model=lower)

    ok = np.isfinite(gaps)

    def branch_slope(mask) -> float:
        sel = mask & ok
        if sel.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(g[sel]), np.log(gaps[sel]), 1)[0])

    lam_bar = float(np.min(gaps[ok] / lower[ok])) if np.any(ok) else float("nan")
    return ScanResult(
        table=table,
        slope_small_gamma=branch_slope(g <= 0.5),
        slope_large_gamma=branch_slope(g >= 2.0),
        lambda_bar=lam_bar,
        row_errors=row_errors,
    )
