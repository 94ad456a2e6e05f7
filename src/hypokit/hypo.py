"""Quantitative hypocoercivity checks.

Three layers:

  * a 2x2 ODE toy model dX/dt = L X with -L = A + gamma S,
    A = [[0, 1], [-1, 0]] (conservative), S = [[0, 0], [0, 1]] (dissipative),
    whose spectrum and optimal decay-norm matrices are known in closed form;
  * modified-norm (auxiliary-operator) dissipation estimates and explicit
    resolvent upper bounds for the Galerkin-discretized kinetic generator,
    together with witness functions that bound the resolvent norm from below;
  * a friction scan fitting the min(gamma, 1/gamma) scaling of the gap.

The Galerkin checks take no physical input of their own: each reads V, beta
and m from the basis (asm.basis.spec, .beta, .mass) and gamma from the
assembly, and the friction scan takes the basis and its ladder of gammas, so
a bound or witness is always computed for the generator it is compared with.

All Galerkin computations run in the whitened, constant-deflated frame
provided by spectral.reduced_generator, where gram-weighted norms are
Euclidean.  The auxiliary operator R = (1 + T*T)^{-1} T*, T = L_ham P0, comes
from one SVD of T (_Pencil), so ||2R|| <= 1 and ||L_ham R|| < 1 hold by
construction (Dolbeault, Mouhot and Schmeiser, Trans. AMS 367, 2015); hypo
imports no SciPy.

The dissipation matrix D(eps) = D0 + eps D2 is solved on Hermite levels 0-2
only, and exactly so; the pencil is built once, and both the epsilon tuning
and the reported rate read it.  D0 = -(L + L^T)/2 is gamma n / m on level n,
because L_ham is exactly antisymmetric.  T = L_ham P0 maps level 0 into
level 1, so R lives on the (level 0 x level 1) block, and since L couples
only adjacent levels, D2 = L^T S + S L (S the symmetric part of R) lives on
levels 0-2.  Beyond them D(eps) is diagonal, with smallest entry 3 gamma / m.

The resolvent norm ||L^{-1}|| = 1/sigma_min(L) comes from Lanczos on the
symmetric (-L)^{-1} J, J the momentum flip (spectral.LevelBlocks), through
the Hermite chain of each sector of -L at mu = 0 (spectral.hermite_chain),
the factorization the Poisson solve uses; no dense or sparse operator is
built.  The witnesses apply -L by the block matvec, one sector at a time,
so `bounds` builds no full-operator blocks.
A shift-invert eigensolve of L itself could not give the spectral gap that
safely: it returns the eigenvalues nearest 0 in modulus, which can miss the
one with the smallest real part.  A friction-scan rung is
spectral.rung_gap, the gap `spectrum` reports too (see gamma_scan).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DefectiveCaseError,
    DegenerateWitnessError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .model import EnsembleParams
from .spectral import (
    BasisSet,
    GeneratorAssembly,
    hermite_chain,
    poincare_constant,
    project_phase_function,
    reduced_generator,
    require_gap_above_roundoff,
    rung_gap,
    rung_ladder,
)

Array = np.ndarray

OPTIMAL_P_TOL = 1e-10  # slack on the ODE decay-norm certificate
EPS_LO, EPS_HI, EPS_TOL = 1e-4, 0.9999, 1e-4  # golden-section bracket and width
HESS_GRID_N = 4096  # torus grid on which the Hessian lower bound is scanned
# Largest --gammas count `scan` accepts, checked before the ladder is built: each rung
# costs a coarse and a refined gap solve, some 0.1 s at the defaults, so 1024 rungs
# already take minutes, and a count of 10**9 would ask for some 32 GB of rungs.
SCAN_MAX_RUNGS = 1024
ODE_MAX_STEPS = 10**7  # RK4 steps ode_trajectory takes at most (250 times the figure-1 run)
LANCZOS_MAX_STEPS = 300  # Lanczos steps resolvent_norm takes at most; the defaults take 13-18 at gamma 1e-4 to 1e3
LANCZOS_RTOL = 1e-10  # Ritz residual bound, relative to the Ritz value's modulus, that ends a Lanczos run
SINGULAR_RTOL = 1e-14  # a sigma_min(L) at most this times ||L||_1 is a singular generator
SINGULAR_MESSAGE = "generator is numerically singular on the deflated space"


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
    """Closed-form spectrum of -L: lambda_pm = gamma/2 +- sqrt(gamma^2/4 - 1).

    Above gamma = 2 both roots are real: lambda_+ = gamma/2 + sqrt(gamma/2 - 1) sqrt(gamma/2 + 1),
    which forms no gamma^2 (it overflows from gamma ~ 1.3e154), and lambda_- = gap = 1/lambda_+,
    since the roots' product is 1, with no cancellation.
    """
    toy = OdeToy(gamma)
    if gamma <= 2.0:
        disc = np.sqrt(complex(0.25 * gamma * gamma - 1.0))
        lam_p, lam_m, gap = 0.5 * gamma + disc, 0.5 * gamma - disc, 0.5 * gamma
    else:
        lam = 0.5 * gamma + math.sqrt(0.5 * gamma - 1.0) * math.sqrt(0.5 * gamma + 1.0)
        lam_p, lam_m, gap = complex(lam), complex(1.0 / lam), 1.0 / lam
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
    m = _rk4_step(toy.l_mat, dt)
    rho = _spectral_radius(m)
    if not rho <= 1.0:  # the exact flow contracts, so a step that expands is RK4's instability
        growth = "overflows" if rho == math.inf else f"has spectral radius {rho!r} > 1"
        raise InvalidArgumentError(  # both in full: rounded, a radius reads 1 and a stable dt can round up past the limit
            f"RK4 is unstable at gamma={gamma:g} with dt={dt:g}: its step matrix {growth}; "
            f"the largest stable dt is {_largest_stable_dt(toy.l_mat, dt)!r}")
    (m00, m01), (m10, m11) = m.tolist()
    n = int(round(T / dt))
    out = np.empty((n + 1, 3))  # filled in place: 24 bytes per row, no list or stacked copy
    out[:, 0] = np.arange(n + 1) * dt
    a, b = float(x0[0]), float(x0[1])
    out[0, 1], out[0, 2] = a, b
    for k in range(1, n + 1):
        a, b = m00 * a + m01 * b, m10 * a + m11 * b
        out[k, 1], out[k, 2] = a, b
    return out


def _rk4_step(l_mat: Array, dt: float) -> Array:
    """M of one classical RK4 step x -> M x of dX/dt = L X: I + h (I + h/2 (I + h/3 (I + h/4))), h = dt L."""
    h = dt * l_mat
    eye = np.eye(2)
    with np.errstate(all="ignore"):  # a step too large for the floats is not finite, which _spectral_radius reads
        return eye + h @ (eye + (h / 2.0) @ (eye + (h / 3.0) @ (eye + h / 4.0)))


def _spectral_radius(m: Array) -> float:
    """Largest |eigenvalue| of m; inf when m is not finite."""
    return float(np.abs(np.linalg.eigvals(m)).max()) if np.all(np.isfinite(m)) else math.inf


def _largest_stable_dt(l_mat: Array, dt: float) -> float:
    """The stability limit of RK4 below an unstable dt, by bisection in log dt.

    It starts from dt ||L||_1 <= 1, where every dt * eigenvalue lies in the
    unit half disc that RK4's stability region contains.
    """
    lo, hi = min(dt, 1.0 / float(np.abs(l_mat).sum(axis=0).max())), dt
    for _ in range(64):
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi underflows from lo ~ 1e-154
        lo, hi = (mid, hi) if _spectral_radius(_rk4_step(l_mat, mid)) <= 1.0 else (lo, mid)
    return lo


def fit_envelope_rate(times: Array, x1: Array, x2: Array) -> float:
    """Decay rate of |X(t)| fitted through fixed-phase points of its oscillation.

    |X(t)| can decay monotonically with a periodically varying slope (the
    symmetric part of the drift only damps one component), so raw local maxima
    of log|X| need not exist.  Detrending by a pilot linear fit exposes one
    maximum per oscillation period; a line through those points has slope equal
    to the mean decay rate.  One period of |X| is half a turn of X, so X points
    the opposite way at consecutive peaks; peaks where it does not are roundoff,
    as on a span far shorter than one period, and are refused.
    """
    x1, x2 = np.asarray(x1, float), np.asarray(x2, float)
    s = np.hypot(x1, x2)
    t = np.asarray(times, float)
    if np.any(s <= 0):
        raise NumericalFailureError("trajectory passes through the origin; no envelope")
    ls = np.log(s)
    tc = t - t.mean()
    spread = np.dot(tc, tc)
    if not spread > 0:
        raise NumericalFailureError(
            f"times span {t[-1] - t[0]:.3g}, too short to fit a slope: their spread squared underflows")
    pilot = np.dot(tc, ls) / spread  # least-squares slope, without polyfit's (n, 2) design matrix
    del tc  # free it before the detrended copies below: it would add 8 bytes per row to the peak
    d = ls - pilot * t
    interior = np.nonzero((d[1:-1] >= d[:-2]) & (d[1:-1] > d[2:]))[0] + 1
    if interior.size < 2:
        raise NumericalFailureError("need at least two envelope peaks to fit a rate")
    u1, u2 = x1[interior] / s[interior], x2[interior] / s[interior]  # X at each peak, as a unit vector
    if not np.all(u1[1:] * u1[:-1] + u2[1:] * u2[:-1] < 0):
        raise NumericalFailureError("envelope peaks less than a quarter turn apart are roundoff, not an oscillation")
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


class _Pencil(NamedTuple):
    """D(eps) = diag(d0) + eps d2 on Hermite levels 0-2, with the norms of R it is built from.

    T = L_ham Pi0 is nonzero only in its level-1 rows t1, the level-1 to
    level-0 coupling block, so R = (1 + T*T)^{-1} T* is nonzero only on its
    (level 0 x level 1) block rb = V diag(sigma / (1 + sigma^2)) U^T, from one SVD
    t1 = U diag(sigma) V^T: ||2R|| = max 2 sigma / (1 + sigma^2) <= 1 and
    ||L_ham R|| = max sigma^2 / (1 + sigma^2) < 1.  With l_k the generator on
    those k = n0 + 2r coordinates, -(l_k + l_k^T)/2 is diag(d0), d0 = -diag(l_k),
    since l_k is antisymmetric off its diagonal, and d2 = X + X^T, X = S l_k with
    S = (R + R^T)/2, whose nonzero rows are rb's two blocks times l_k; tail is
    the smallest diagonal entry of D on the remaining levels.
    """

    r_norm: float  # ||2R||
    lham_r_norm: float  # ||L_ham R||
    d0: Array  # (k,) the diagonal of D(0)
    d2: Array
    tail: float

    def lambda_min(self, eps: float) -> float:
        d = eps * self.d2
        d[np.diag_indices_from(d)] += self.d0
        return min(float(np.linalg.eigvalsh(d)[0]), self.tail)


def _dissipation_pencil(asm: GeneratorAssembly) -> _Pencil:
    basis = asm.basis
    red = reduced_generator(basis)
    n0 = red.n0
    with np.errstate(all="ignore"):  # on a cell too narrow for the floats t1 overflows, refused below
        t1 = math.sqrt(1.0 / (basis.beta * basis.mass)) * red.c_t_q0
    if not np.all(np.isfinite(t1)):
        raise NumericalFailureError("auxiliary operator is not finite on this cell")
    u, sigma, vt = np.linalg.svd(t1, full_matrices=False)
    root = np.hypot(1.0, sigma)  # sqrt(1 + sigma^2), finite where sigma^2 overflows
    frac = sigma / root
    g = frac / root  # sigma / (1 + sigma^2)
    rb = (vt.T * g) @ u.T
    l_k = -red.neg_operator(asm.gamma, levels=3)
    k, r = l_k.shape[0], rb.shape[1]
    x = np.zeros((k, k))
    with np.errstate(all="ignore"):  # a pencil that overflows is refused below
        x[:n0] = 0.5 * rb @ l_k[n0 : n0 + r]
        x[n0 : n0 + r] = 0.5 * rb.T @ l_k[:n0]
        d0, d2 = -np.diagonal(l_k), x + x.T
    if not (np.all(np.isfinite(d0)) and np.all(np.isfinite(d2))):
        raise NumericalFailureError("dissipation matrix is not finite on this cell")
    tail = -asm.gamma * (-3 / basis.mass) if k < red.dim else math.inf
    return _Pencil(2.0 * float(g.max(initial=0.0)), float((frac * frac).max(initial=0.0)), d0, d2, tail)


def _dissipation_at(pencil: _Pencil, eps: float) -> DissipationResult:
    """The DissipationResult of the pencil at an eps with |eps| < 1, where ||2R|| <= 1 keeps the modified norm
    equivalent to the flat one: the smallest eigenvalue of 1/2 - eps S is (1 - |eps| r_norm / 2) / 2."""
    return DissipationResult(
        lambda_est=pencil.lambda_min(eps),
        epsilon=float(eps),
        r_norm=pencil.r_norm,
        lham_r_norm=pencil.lham_r_norm,
        r_norm_ok=pencil.r_norm <= 1.0 + 1e-8,
        lham_r_norm_ok=pencil.lham_r_norm <= 1.0 + 1e-8,
    )


def modified_norm_dissipation(asm: GeneratorAssembly, eps: float) -> DissipationResult:
    """Dissipation rate of the eps-modified norm H[phi] = 1/2||phi||^2 - eps<R phi, phi>.

    lambda_est is the largest lambda with D[phi] >= lambda ||phi||^2 on the
    constant-deflated space, computed as the smallest eigenvalue of the
    symmetrized dissipation matrix.  Requires |eps| < 1; the modified norm is
    then equivalent to the flat one since ||2R|| <= 1.
    """
    if not abs(eps) < 1.0:
        raise InvalidArgumentError(f"|eps| must be < 1, got {eps}")
    return _dissipation_at(_dissipation_pencil(asm), eps)


def tune_modified_norm_epsilon(asm: GeneratorAssembly) -> DissipationResult:
    """Golden-section maximization of lambda_est over eps in [EPS_LO, EPS_HI].

    lambda_est(eps) is the minimum eigenvalue of a matrix pencil affine in
    eps, hence concave, so golden-section search is exact up to EPS_TOL.  A
    best rate that is not positive certifies no decay and is a numerical
    failure.  At the defaults gamma = 1e-6, 1e-4, 1e8 and 1e12 fail so, each
    search ending at EPS_LO.
    """
    pencil = _dissipation_pencil(asm)
    lam = pencil.lambda_min
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
    res = _dissipation_at(pencil, 0.5 * (a + b))
    if not res.lambda_est > 0:
        raise NumericalFailureError(
            f"the tuned dissipation rate {res.lambda_est:.3g} at gamma={asm.gamma:g} is not positive: its best "
            f"eps={res.epsilon:.6g} in the bracket [{EPS_LO:g}, {EPS_HI:g}] certifies no decay")
    return res


# ---------------------------------------------------------------------------
# resolvent bounds


def _lanczos_largest(apply: Callable[[Array], Array], n: int) -> tuple[Array, int]:
    """Unit Ritz vector of the eigenvalue largest in modulus of a symmetric operator, and the steps taken.

    Lanczos with full reorthogonalization (Paige 1972) from the fixed unit
    vector of ones, so reruns are bitwise identical.  It stops once the Ritz
    value theta largest in modulus has a residual bound beta_k |e_k^T s| of at
    most LANCZOS_RTOL |theta|; reaching LANCZOS_MAX_STEPS steps is a numerical failure.
    """
    q = np.empty((min(LANCZOS_MAX_STEPS, n), n))  # the Lanczos vectors; only the rows written are touched
    q[0] = 1.0 / math.sqrt(n)
    tri = np.zeros((q.shape[0], q.shape[0]))  # the tridiagonal T_k of the Lanczos relation
    for k in range(1, q.shape[0] + 1):
        w = apply(q[k - 1])
        tri[k - 1, k - 1] = q[k - 1] @ w
        for _ in range(2):  # classical Gram-Schmidt twice keeps q orthonormal to roundoff
            w -= q[:k].T @ (q[:k] @ w)
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(tri[:k, :k])
        j = int(np.argmax(np.abs(theta)))
        if beta * abs(s[-1, j]) <= LANCZOS_RTOL * abs(theta[j]):
            u = q[:k].T @ s[:, j]
            return u / np.linalg.norm(u), k
        if k < q.shape[0]:
            tri[k, k - 1] = tri[k - 1, k] = beta
            q[k] = w / beta
    raise NumericalFailureError(f"resolvent norm: Lanczos did not converge in {q.shape[0]} steps")


def _resolvent_lanczos(asm: GeneratorAssembly) -> tuple[float, int]:
    """resolvent_norm and the number of Lanczos steps it took."""
    red = reduced_generator(asm.basis)
    # an overflow in a chain shows as a solve that is not finite, which is refused below
    with np.errstate(all="ignore"):
        try:
            chains = [(red.sector_index(s), hermite_chain(red.level_blocks(asm.gamma, sector=s), 0.0))
                      for s in range(asm.basis.n_sectors)]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"resolvent norm solve failed (singular chain pivot): {exc}") from exc

        def apply(x: Array) -> Array:  # (-L)^{-1} J x, sector by sector
            y = np.empty_like(x)
            for idx, chain in chains:
                y[idx] = chain.solve((chain.blocks.reversal * x[idx])[:, None])[:, 0]
            if not np.all(np.isfinite(y)):
                raise NumericalFailureError(SINGULAR_MESSAGE)
            return y

        u, steps = _lanczos_largest(apply, red.dim)
        # ||(-L)^{-1} J u||^2 = u^T (-L)^{-1} (-L)^{-T} u from one solve refined once on the chain's factors:
        # the chain loses accuracy as 1/gamma near zero friction, and the quotient's error is quadratic in u's.
        big_inv = 0.0
        for idx, chain in chains:
            b = (chain.blocks.reversal * u[idx])[:, None]
            y = chain.solve(b)
            y -= chain.solve(chain.blocks.matvec(y) - b)
            big_inv += float(y[:, 0] @ y[:, 0])
    smin = 1.0 / math.sqrt(big_inv) if big_inv > 0.0 else 0.0
    if not smin > SINGULAR_RTOL * max(chain.blocks.norm1() for _, chain in chains):
        raise NumericalFailureError(SINGULAR_MESSAGE)
    return 1.0 / smin, steps


def resolvent_norm(asm: GeneratorAssembly) -> float:
    """Gram-weighted norm of the inverse generator on the deflated space.

    ||L^{-1}|| = 1/sigma_min(L), from one Lanczos run on (-L)^{-1} J, J the
    momentum flip: -L^T = J (-L) J (spectral.LevelBlocks) makes it symmetric,
    with square (-L)^{-1} (-L)^{-T}, so its eigenvalue largest in modulus is
    +-1/sigma_min (_lanczos_largest).  The run spans every sector; each
    sector's solves run on its Hermite chain at mu = 0 (spectral.hermite_chain),
    as solve_poisson's do, and no dense or sparse operator is built.  The
    value is ||(-L)^{-1} J u|| for the converged Ritz vector u, taken with one
    refined solve.  The singularity test weighs sigma_min against ||L||_1 (LevelBlocks.norm1),
    which bounds sigma_max: |L| is symmetric, so ||L||_1 = ||L||_inf.  An
    exactly singular pivot, a solve that is not finite, or a run that does
    not converge is a numerical failure.
    """
    return _resolvent_lanczos(asm)[0]


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
    lanczos_steps: int  # steps of the resolvent norm's Lanczos run


def verify_schur_bound(
    asm: GeneratorAssembly,
    case: str | None = None,
    K: float | None = None,
    c_prime: float | None = None,
    slack: float = 0.05,
) -> SchurCheck:
    """Compare the numerically computed resolvent norm against the explicit bound.

    V, beta and m come from the basis and gamma from the assembly, so the
    bound is taken for the generator whose norm is computed.  The Hessian
    lower bound is scanned on a uniform torus grid of HESS_GRID_N points.
    Requesting the convex case for a potential whose Hessian dips below zero
    is refused (no non-constant torus potential is convex).
    """
    spec, params = asm.basis.spec, asm.params
    pts = (np.arange(HESS_GRID_N) * (asm.basis.L / HESS_GRID_N))[:, None]
    with np.errstate(all="ignore"):  # a Hessian or its mean past the float maximum is refused below
        d2v = spec.hessian(pts)[:, 0, 0]
        mean_hess = float(d2v.mean())  # not finite if any entry is not
    if not math.isfinite(mean_hess):
        raise NumericalFailureError("Hessian of the potential overflows on the torus grid")
    min_hess = float(d2v.min())
    scale = float(np.abs(d2v).max())
    convex_ok = min_hess >= -1e-10 * max(scale, 1.0)
    # A C^1 torus potential has zero-mean second derivative; a nonzero mean
    # betrays a confining potential clipped onto a cell, whose apparent grid
    # convexity hides a negative seam contribution.
    periodic_hess = abs(mean_hess) <= 1e-8 * max(scale, 1.0)

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

    r_nu = poincare_constant(asm.basis)
    # before the resolvent solve, so that a constant the case does not read fails fast
    bound = schur_bound(params, r_nu, case, K=k_used if case == "hessian_lower_bound" else K, c_prime=c_prime)
    numeric, steps = _resolvent_lanczos(asm)
    return SchurCheck(
        numeric=numeric,
        bound=bound.value,
        holds=bool(numeric <= bound.value * (1.0 + slack)),
        case=case,
        K=k_used,
        r_nu=r_nu,
        lanczos_steps=steps,
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


def resolvent_lower_bound(asm: GeneratorAssembly) -> WitnessPair:
    basis = asm.basis
    spec = basis.spec
    red = reduced_generator(basis)
    w = basis.weights
    v = spec.eval(basis.nodes[:, None])
    v_mean = float(w @ v / w.sum())
    v_var = float(w @ (v - v_mean) ** 2 / w.sum())
    if v_var <= 1e-14 * max(1.0, v_mean * v_mean):
        raise DegenerateWitnessError("witnesses vanish for a constant potential")

    gamma, m = asm.gamma, basis.mass
    # ||L u|| = ||-L u||, applied one sector at a time on the blocks the resolvent norm's chains read
    sectors = [(red.sector_index(s), red.level_blocks(gamma, sector=s)) for s in range(basis.n_sectors)]

    def ratio(f) -> float:
        z = red.to_reduced(project_phase_function(basis, f))
        img = np.empty_like(z)
        for idx, blocks in sectors:
            img[idx] = blocks.matvec(z[idx])
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
    slope_small_gamma: float | None  # None where the branch has fewer than two good rungs
    slope_large_gamma: float | None
    lambda_bar: float
    row_errors: dict
    rung_methods: list  # per rung: gamma, the path per sector, and whether the guard fired
    rung_passes: list  # per rung: the passes each sector's contour ran (GapResult.passes)


def scan_threads(max_workers: int) -> int:
    """The threads gamma_scan runs for max_workers: at least one, at most the cores this process may use."""
    return min(max(1, int(max_workers)), len(os.sched_getaffinity(0)))


def gamma_scan(basis: BasisSet, gammas, max_workers: int = 1) -> ScanResult:
    """Spectral gap across a friction ladder on one basis; fits both scaling branches.

    Each rung is spectral.rung_gap on the one gamma-free spectral.rung_ladder
    of this basis, the gap `spectrum` reports: a dense gap on the ladder's
    coarsest basis, refined by a contour integral on each finer one (its
    passes solve on one set of chain factorizations), with a dense guard,
    and so rests on heuristic ellipses.  Every rung reads the one ladder,
    whose generators hold no mutable state: each rung forms its own level
    blocks.  rung_methods records, per rung, the path per sector
    on this basis and whether the guard fired there, and rung_passes the
    passes each sector's contour ran there (0 where none ran).

    Requires at least 7 gamma values spanning [1/8, 8].  Rows run on
    max_workers threads, default one, at most the usable cores
    (scan_threads).  Each row is computed the same way on any thread, so
    results do not depend on the thread count.  Threads overlap little: the
    dense eigensolve (np.linalg.eigvals) holds the GIL for its whole call,
    and the contour's chain releases it only inside each batched inverse and
    product, so two threads gain little: on a shared 2-core host with one BLAS
    thread the default scan took 0.20-0.30 s on one thread and 0.24-0.31 s on
    two.  A second thread needs a single-threaded BLAS (which concurrent rows
    would compete with) and a second core that is free.
    Failed rows, including those whose gap is not above roundoff
    (spectral.require_gap_above_roundoff), are reported in row_errors with
    NaN gaps; only a scan with no good row is a numerical failure.  Slopes
    are log-log fits over gamma <= 1/2 and gamma >= 2 (None on a branch of
    fewer than two good rows); lambda_bar is the smallest gap / min(gamma, 1/gamma).
    """
    g = np.asarray(sorted(float(x) for x in gammas))
    if g.size < 7:
        raise InvalidArgumentError(f"need at least 7 gamma values, got {g.size}")
    if np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise InvalidArgumentError("gammas must be positive and distinct")
    if g[0] > 0.125 * (1 + 1e-9) or g[-1] < 8.0 * (1 - 1e-9):
        raise InvalidArgumentError("gammas must span at least [1/8, 8]")

    ladder = rung_ladder(basis)

    gaps = np.full(g.size, np.nan)
    row_errors: dict = {}
    rung_methods = [{"gamma": float(x), "sectors": {}, "guard": False} for x in g]
    rung_passes = [{} for _ in g]

    def run_row(i: int):
        try:
            res = rung_gap(ladder, g[i])
            rung_methods[i].update(sectors=res.method, guard=res.guard)
            rung_passes[i] = res.passes
            require_gap_above_roundoff(res)
            gaps[i] = res.gap
        except Exception as exc:  # noqa: BLE001 - rows are isolated by design
            row_errors[float(g[i])] = f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=scan_threads(max_workers)) as pool:
        list(pool.map(run_row, range(g.size)))

    lower = np.minimum(g, 1.0 / g)
    table = ScalingTable(gammas=g, gaps=gaps, lower_model=lower)

    ok = np.isfinite(gaps)
    if not np.any(ok):
        raise NumericalFailureError(f"every rung failed; the first, at gamma={g[0]:g}: {row_errors[float(g[0])]}")

    def branch_slope(mask) -> float | None:
        sel = mask & ok
        if sel.sum() < 2:
            return None
        return float(np.polyfit(np.log(g[sel]), np.log(gaps[sel]), 1)[0])

    return ScanResult(
        table=table,
        slope_small_gamma=branch_slope(g <= 0.5),
        slope_large_gamma=branch_slope(g >= 2.0),
        lambda_bar=float(np.min(gaps[ok] / lower[ok])),
        row_errors=row_errors,
        rung_methods=rung_methods,
        rung_passes=rung_passes,
    )
