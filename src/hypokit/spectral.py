"""Galerkin discretization of Langevin generators on the 1-D torus.

Position side: real trigonometric basis on [0, L),

    F_0 = 1,  F_{2k-1} = sqrt(2) cos(2 pi k q / L),  F_{2k} = sqrt(2) sin(2 pi k q / L),

with inner products taken against the unnormalized weight exp(-beta (V(q) - min V))
(periodic trapezoid quadrature, spectrally accurate; every output is invariant
under the shift, which keeps the weight at most 1).  Momentum side: Hermite
functions h_n orthonormal under the Gaussian of variance m/beta, with exact
ladder actions

    d/dp h_n = sqrt(n beta / m) h_{n-1},     (-d/dp + beta p / m) h_n = sqrt((n+1) beta / m) h_{n+1}.

The Hamiltonian part of the generator is assembled in weak form through
integration by parts,

    <f, L_ham g> = (1/beta) (<d_p f, d_q g> - <d_q f, d_p g>),

which is exactly antisymmetric and couples Hermite level n only to n -/+ 1;
the fluctuation-dissipation part acts diagonally as -(n/m) on level n.  All
solvers use one representation, the ReducedGenerator: each level is whitened
by the same gram_q^{-1/2}, and the constant function, which lies in level 0, is
deflated inside level 0 only.  The basis owns the one rank policy: build_basis
whitens the position Gram once, keeping the r eigendirections above
DEFAULT_RCOND times the largest, and every Gram solve (projections, overdamped
operator, reduced generator) is least squares on them.  The reduced
coordinates are thus level-blocked: n0 = r - 1 for level 0, which is the range
of Pi0, then r per level n >= 1.  In them the coupling of level n to level
n - 1 is sqrt(n / (beta m)) c_t, with c_t the whitened position derivative
(restricted to the deflated level 0 when n = 1), so the generator is stored as
the one r x r block c_t and the diagonal of L_FD; solvers that need a dense
matrix build it with neg_operator.

Full-basis coefficient indexing is Hermite-major: index = n * (2 Kq + 1) + a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import (
    IllConditionedBasisError,
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedDomainError,
)
from .model import EnsembleParams, PotentialSpec, Torus

Array = np.ndarray

DEFAULT_KQ = 16
DEFAULT_NP = 32
DEFAULT_NQUAD = 256
DEFAULT_RCOND = 1e-11
# Largest |top Fourier mode| / mean of a weight resolved on the grid; test
# configurations read <= 2e-7, and cosine at 5.6e-4 still had the gap to 1e-10.
WEIGHT_RESOLUTION_TOL = 1e-3
POINCARE_RTOL = 5e-3  # relative change that ends the Poincare refinement
POINCARE_MAX_ROUNDS = 6
DECAY_TOL = 1e-8  # slack on the semigroup decay bound


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Tensor Fourier x Hermite basis with its quadrature, position Gram and its whitening."""

    Kq: int
    Np: int
    L: float
    beta: float
    mass: float
    nodes: Array  # (n_quad,) uniform grid on [0, L)
    weights: Array  # (n_quad,) trapezoid weight h * exp(-beta (V - min V)), at most h
    F: Array  # (n_quad, 2Kq+1) basis values at the nodes
    D: Array  # (2Kq+1, 2Kq+1) differentiation matrix, F_j' = sum_c D[c, j] F_c
    gram_q: Array  # (2Kq+1, 2Kq+1) position Gram under the unnormalized weight
    wq: Array  # (2Kq+1, rank_q) whitener from _whiten, wq^T gram_q wq = I
    q0: Array  # (rank_q, rank_q - 1) whitened level 0 orthogonal to the constant

    @property
    def n_q(self) -> int:
        return 2 * self.Kq + 1

    @property
    def size(self) -> int:
        return self.n_q * self.Np

    @property
    def sigma_p(self) -> float:
        """Standard deviation of the momentum marginal."""
        return math.sqrt(self.mass / self.beta)

    @property
    def mass_nu(self) -> float:
        """Unnormalized configurational mass <1, 1> = integral of exp(-beta (V - min V))."""
        return float(self.gram_q[0, 0])


def _fourier_table(Kq: int, L: float, q: Array) -> Array:
    """F_0..F_{2Kq} at q, shape q.shape + (2Kq+1,)."""
    ang = np.multiply.outer(q, 2.0 * math.pi * np.arange(1, Kq + 1) / L)
    cos_sin = np.stack([np.cos(ang), np.sin(ang)], axis=-1).reshape(q.shape + (2 * Kq,))
    return np.concatenate([np.ones(q.shape + (1,)), math.sqrt(2.0) * cos_sin], axis=-1)


def build_basis(
    spec: PotentialSpec,
    params: EnsembleParams,
    Kq: int = DEFAULT_KQ,
    Np: int = DEFAULT_NP,
    n_quad: int | None = None,  # default max(DEFAULT_NQUAD, 8 Kq)
) -> BasisSet:
    """Quadrature, basis tables, differentiation matrix, position Gram and its whitening."""
    if not isinstance(spec.domain, Torus) or spec.domain.dim != 1:
        raise UnsupportedDomainError("spectral assembly requires a one-dimensional torus")
    if Kq < 1 or Np < 2:
        raise InvalidArgumentError(f"need Kq >= 1 and Np >= 2, got Kq={Kq}, Np={Np}")
    n_quad = max(DEFAULT_NQUAD, 8 * Kq) if n_quad is None else n_quad
    if n_quad < 8 * Kq:
        raise InvalidArgumentError(f"n_quad must be >= 8*Kq = {8 * Kq}, got {n_quad}")

    L = spec.domain.length
    h = L / n_quad
    nodes = np.arange(n_quad) * h
    v = spec.eval(nodes[:, None])
    if not np.all(np.isfinite(v)):
        raise NumericalFailureError("potential is not finite on the quadrature grid")
    with np.errstate(over="ignore"):  # a range of V beyond the float maximum gives weight 0
        weights = h * np.exp(-params.beta * (v - v.min()))
    modes = np.abs(np.fft.rfft(weights))
    if not modes[-1] <= WEIGHT_RESOLUTION_TOL * modes[0]:
        raise NumericalFailureError(
            f"weight exp(-beta (V - min V)) is not resolved on n_quad={n_quad} nodes (top Fourier mode "
            f"{modes[-1] / modes[0]:.3g} of the mean, limit {WEIGHT_RESOLUTION_TOL:g}); raise n_quad"
        )

    F = _fourier_table(Kq, L, nodes)
    D = np.zeros((2 * Kq + 1, 2 * Kq + 1))
    k = np.arange(1, Kq + 1)
    w = 2.0 * math.pi * k / L
    D[2 * k, 2 * k - 1] = -w  # (cos)' = -w sin
    D[2 * k - 1, 2 * k] = w  # (sin)' =  w cos

    gram = F.T @ (weights[:, None] * F)
    gram = 0.5 * (gram + gram.T)
    wq, q0 = _whiten(gram)
    return BasisSet(
        Kq=Kq, Np=Np, L=L, beta=params.beta, mass=params.mass,
        nodes=nodes, weights=weights, F=F, D=D, gram_q=gram, wq=wq, q0=q0,
    )


@dataclass(frozen=True, eq=False)
class GeneratorAssembly:
    """The kinetic Langevin generator L_ham + gamma L_FD on a basis.

    Holds no matrices: reduced_generator builds the level blocks every
    solver uses, in the whitened frame.
    """

    basis: BasisSet
    gamma: float

    @property
    def size(self) -> int:
        return self.basis.size


def assemble_generator(
    basis: BasisSet, spec: PotentialSpec, params: EnsembleParams
) -> GeneratorAssembly:
    """Check that params and potential match the basis, and bind gamma > 0.

    The position Gram's rank is settled once, by the whitening build_basis
    stores on the basis, which every solver uses.  At gamma = 0 the deflated
    generator is singular (L_ham alone conserves every function of the
    energy), so no gap, Poisson solution or resolvent bound exists.
    """
    if not params.gamma > 0:
        raise InvalidArgumentError("gamma must be positive for the kinetic generator")
    if (params.beta, params.mass) != (basis.beta, basis.mass):
        raise InvalidArgumentError("params.beta/mass must match the values the basis was built with")
    if not isinstance(spec.domain, Torus) or spec.domain.length != basis.L:
        raise InvalidArgumentError("potential domain does not match the basis torus")
    return GeneratorAssembly(basis=basis, gamma=params.gamma)


# ---------------------------------------------------------------------------
# whitened, constant-deflated frame


def _whiten(gram_q: Array) -> tuple[Array, Array]:
    """(wq, q0): per-level whitener and the constant's complement in level 0.

    wq (n_q, r) satisfies wq^T gram_q wq = I after the eigenvalue cut at
    DEFAULT_RCOND times the largest eigenvalue;
    q0 (r, r - 1) is an orthonormal basis of the whitened level-0
    coordinates orthogonal to the constant function.
    """
    evals, vecs = sla.eigh(gram_q)
    if evals[-1] <= 0:
        raise IllConditionedBasisError("position Gram is numerically singular")
    keep = evals > DEFAULT_RCOND * evals[-1]
    wq = vecs[:, keep] / np.sqrt(evals[keep])
    z_const = wq.T @ gram_q[:, 0]
    z_const /= np.linalg.norm(z_const)
    return wq, sla.null_space(z_const[None, :])


@dataclass(frozen=True, eq=False)
class ReducedGenerator:
    """Generator compressed to an orthonormal basis of span \\ constants.

    Coordinates are orthonormal for the (unnormalized) gram inner product, so
    all gram-weighted norms are Euclidean here.  They are ordered by Hermite
    level: the first n0 = r - 1 span level 0 without the constant (Pi0 keeps
    exactly these), then r per level n >= 1.  L_ham is stored as its one
    block c_t: level n >= 2 couples to level n - 1 through sqrt(n / beta_m) c_t
    and level 1 to level 0 through sqrt(1 / beta_m) c_t q0, each with the
    negated transpose above the diagonal, so L_ham is exactly antisymmetric.
    `fd` is the diagonal of L_FD, -n/m on level n.  The generator at friction
    gamma is L_ham + gamma*diag(fd).
    """

    c_t: Array  # (r, r) whitened position derivative wq^T gram_q D wq
    fd: Array  # (dim,)
    q0: Array  # (r, n0) level-0 deflation basis
    wq: Array  # (n_q, r) per-level whitener, wq^T gram_q wq = I
    gq_w: Array  # (r, n_q) = wq^T gram_q, coordinates of the gram projection
    mass_nu: float
    n_p: int
    beta_m: float  # beta * mass

    @property
    def dim(self) -> int:
        return self.fd.size

    @property
    def n0(self) -> int:
        return self.q0.shape[1]

    def neg_operator(self, gamma: float, levels: int | None = None) -> Array:
        """Dense -(L_ham + gamma L_FD) on the first `levels` Hermite levels (default all).

        Fortran-ordered, so LAPACK can overwrite it without a copy.
        """
        n_lev = self.n_p if levels is None else min(levels, self.n_p)
        r, n0 = self.c_t.shape[0], self.n0

        def start(level: int) -> int:
            return 0 if level == 0 else n0 + (level - 1) * r

        k = start(n_lev)
        op = np.zeros((k, k), order="F")
        for n in range(1, n_lev):
            block = math.sqrt(n / self.beta_m) * (self.c_t @ self.q0 if n == 1 else self.c_t)
            rows = slice(start(n), start(n + 1))
            below = slice(start(n - 1), start(n))
            op[rows, below] = -block
            op[below, rows] = block.T
        op[np.diag_indices(k)] = -gamma * self.fd[:k]
        return op

    def to_reduced(self, coeffs: Array) -> Array:
        """Gram-orthogonal projection of a full coefficient vector (drops constants)."""
        x = np.asarray(coeffs, dtype=float).reshape(self.n_p, -1)
        z = x @ self.gq_w.T
        return np.concatenate([self.q0.T @ z[0], z[1:].reshape(-1)])

    def to_full(self, y: Array) -> Array:
        blocks = np.empty((self.n_p, self.wq.shape[1]))
        blocks[0] = self.q0 @ y[: self.n0]
        blocks[1:] = y[self.n0 :].reshape(self.n_p - 1, -1)
        return (blocks @ self.wq.T).reshape(-1)


def reduced_generator(asm: GeneratorAssembly) -> ReducedGenerator:
    """Whitened, constant-deflated view of an assembly, stored as its level blocks."""
    basis = asm.basis
    wq, q0 = basis.wq, basis.q0
    r, n0 = wq.shape[1], q0.shape[1]
    return ReducedGenerator(
        c_t=wq.T @ (basis.gram_q @ basis.D) @ wq,
        fd=np.repeat(-np.arange(basis.Np) / basis.mass, r)[r - n0 :],
        q0=q0, wq=wq, gq_w=wq.T @ basis.gram_q,
        mass_nu=basis.mass_nu, n_p=basis.Np, beta_m=basis.beta * basis.mass,
    )


# ---------------------------------------------------------------------------
# eigen solvers


@dataclass(frozen=True, eq=False)
class GapResult:
    gap: float
    eig_count_checked: int
    eigenvalues: Array  # the deflated spectrum of -L, in LAPACK order
    norm1: float  # ||L||_1; eps * norm1 is the backward-error scale of the eigensolve


def _gap_of_operator(neg_op: Array) -> GapResult:
    """Gap from -L; the eigensolve overwrites neg_op."""
    norm1 = float(sla.norm(neg_op, 1, check_finite=False))  # LAPACK lange: no N x N temporary
    try:
        eigs = sla.eigvals(neg_op, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigenvalue solver failed") from exc
    return GapResult(float(eigs.real.min()), int(eigs.size), eigs, norm1)


def spectral_gap(asm: GeneratorAssembly) -> GapResult:
    """Smallest real part of the deflated spectrum of -(L_ham + gamma L_FD)."""
    return _gap_of_operator(reduced_generator(asm).neg_operator(asm.gamma))


# ---------------------------------------------------------------------------
# overdamped generator on the position factor


class OverdampedOperator(NamedTuple):
    l_ovd: Array
    gram_q: Array
    wq: Array  # the whitening of gram_q, as in BasisSet
    q0: Array


def assemble_overdamped(
    basis: BasisSet, spec: PotentialSpec, params: EnsembleParams
) -> OverdampedOperator:
    """Coefficient action of the overdamped generator -(1/beta) nabla* nabla."""
    if params.beta != basis.beta:
        raise InvalidArgumentError("params.beta must match the basis")
    if not isinstance(spec.domain, Torus) or spec.domain.length != basis.L:
        raise InvalidArgumentError("potential domain does not match the basis torus")
    a_form = -(1.0 / basis.beta) * (basis.D.T @ basis.gram_q @ basis.D)
    a_form = 0.5 * (a_form + a_form.T)
    return OverdampedOperator(basis.wq @ (basis.wq.T @ a_form), basis.gram_q, basis.wq, basis.q0)


def _overdamped_reduced(ovd: OverdampedOperator) -> Array:
    """The symmetric overdamped operator in the whitened, constant-deflated frame."""
    s = ovd.q0.T @ (ovd.wq.T @ (ovd.gram_q @ ovd.l_ovd) @ ovd.wq) @ ovd.q0
    return 0.5 * (s + s.T)


def poincare_constant(
    spec: PotentialSpec,
    params: EnsembleParams,
    Kq: int = DEFAULT_KQ,
) -> float:
    """Poincare constant of exp(-beta V): beta times the overdamped spectral gap.

    The basis size is refined by factors of 1.5 until the value changes by
    less than POINCARE_RTOL; the refined value is returned.
    """
    k = Kq
    prev = None
    for _ in range(POINCARE_MAX_ROUNDS):
        basis = build_basis(spec, params, Kq=k, Np=2)
        s_red = _overdamped_reduced(assemble_overdamped(basis, spec, params))
        gap = float(np.min(sla.eigvalsh(-s_red)))
        value = params.beta * gap
        if prev is not None and abs(value - prev) <= POINCARE_RTOL * abs(value):
            return value
        prev = value
        k = int(math.ceil(1.5 * k))
    raise NumericalFailureError(
        f"Poincare constant did not stabilize to {POINCARE_RTOL:g} "
        f"within {POINCARE_MAX_ROUNDS} refinements"
    )


@dataclass(frozen=True)
class DecayCheckResult:
    ok: bool
    max_ratio: float
    times: Array
    norms: Array
    bounds: Array


def semigroup_decay_check(
    l_ovd: Array,
    gram_q: Array,
    r_nu: float,
    times: Array,
    beta: float = 1.0,
) -> DecayCheckResult:
    """Check ||exp(t L_ovd)|| <= exp(-r_nu t / beta) on mean-zero functions.

    Norms are gram-weighted operator norms of the matrix exponential on the
    constant-deflated space; the bound holds with prefactor exactly 1, up to
    DECAY_TOL.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(times < 0):
        raise InvalidArgumentError("times must be a non-empty 1-D array of nonnegative values")
    gram_q = np.asarray(gram_q, float)
    s_red = _overdamped_reduced(OverdampedOperator(np.asarray(l_ovd, float), gram_q, *_whiten(gram_q)))
    norms = np.empty(times.size)
    for i, t in enumerate(times):
        norms[i] = sla.svdvals(sla.expm(t * s_red)).max()
    if not np.all(np.isfinite(norms)):
        raise NumericalFailureError("matrix exponential overflowed")
    bounds = np.exp(-r_nu * times / beta)
    ratios = norms / bounds
    return DecayCheckResult(
        ok=bool(np.all(ratios <= 1.0 + DECAY_TOL)),
        max_ratio=float(ratios.max()),
        times=times,
        norms=norms,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Poisson equation and asymptotic variance


@dataclass(frozen=True)
class PoissonResult:
    phi_coeffs: Array
    sigma2: float


def _sigma2_from_pair(z_sol: Array, z_rhs: Array, mass_nu: float) -> float:
    sigma2 = 2.0 * float(z_sol @ z_rhs) / mass_nu
    if sigma2 < 0:
        scale = 2.0 * float(np.linalg.norm(z_sol) * np.linalg.norm(z_rhs)) / mass_nu
        if sigma2 < -1e-10 * max(scale, 1.0):
            raise NumericalFailureError(f"asymptotic variance came out negative: {sigma2}")
        sigma2 = 0.0
    return sigma2


def solve_poisson(asm: GeneratorAssembly, phi_coeffs: Array) -> PoissonResult:
    """Solve -(L_ham + gamma L_FD) Phi = (phi - mean phi) and report sigma^2.

    sigma^2 = 2 <Phi, phi - mean phi> under the normalized invariant measure.
    Returns the solution's full-basis coefficients (mean-zero representative).
    """
    red = reduced_generator(asm)
    z_rhs = red.to_reduced(phi_coeffs)
    try:
        z_sol = sla.solve(red.neg_operator(asm.gamma), z_rhs, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("Poisson solve failed (singular operator)") from exc
    sigma2 = _sigma2_from_pair(z_sol, z_rhs, red.mass_nu)
    return PoissonResult(phi_coeffs=red.to_full(z_sol), sigma2=sigma2)


def solve_poisson_overdamped(ovd: OverdampedOperator, phi_q_coeffs: Array) -> PoissonResult:
    """Overdamped counterpart of solve_poisson for position-only observables."""
    s_red = _overdamped_reduced(ovd)
    z_rhs = ovd.q0.T @ (ovd.wq.T @ (ovd.gram_q @ np.asarray(phi_q_coeffs, float)))
    try:
        z_sol = sla.solve(-s_red, z_rhs, assume_a="sym")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("Poisson solve failed (singular operator)") from exc
    sigma2 = _sigma2_from_pair(z_sol, z_rhs, float(ovd.gram_q[0, 0]))
    return PoissonResult(phi_coeffs=ovd.wq @ (ovd.q0 @ z_sol), sigma2=sigma2)


# ---------------------------------------------------------------------------
# projections


def hermite_values(n_levels: int, x: Array) -> Array:
    """Orthonormal probabilists' Hermite functions h_0..h_{n_levels-1} at x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, n_levels))
    out[:, 0] = 1.0
    if n_levels > 1:
        out[:, 1] = x
    for k in range(2, n_levels):
        out[:, k] = (x * out[:, k - 1] - math.sqrt(k - 1) * out[:, k - 2]) / math.sqrt(k)
    return out


def project_position_function(basis: BasisSet, f: Callable[[Array], Array]) -> Array:
    """Gram-orthogonal projection of f(q) onto the position basis, (2Kq+1,).

    Least squares on the kept Gram directions; gram_q^{-1} rhs when none is cut.
    """
    vals = np.asarray(f(basis.nodes), dtype=float)
    if vals.shape != basis.nodes.shape:
        raise InvalidArgumentError("f must map the node array to an equal-shaped array")
    rhs = basis.F.T @ (basis.weights * vals)
    return basis.wq @ (basis.wq.T @ rhs)


def project_phase_function(basis: BasisSet, f: Callable[[Array, Array], Array]) -> Array:
    """Gram-orthogonal projection of f(q, p) onto the tensor basis, (size,).

    f must broadcast over a (n_quad, 1) position array against a (1, n_gh)
    momentum array.  Momentum integrals use Gauss-Hermite quadrature with
    n_gh = Np + 8 nodes.
    """
    n_gh = basis.Np + 8
    x, w = np.polynomial.hermite_e.hermegauss(n_gh)
    w = w / math.sqrt(2.0 * math.pi)  # weights of the standard Gaussian measure
    p = basis.sigma_p * x
    vals = np.asarray(f(basis.nodes[:, None], p[None, :]), dtype=float)
    if vals.shape != (basis.nodes.size, n_gh):
        raise InvalidArgumentError("f must broadcast to shape (n_quad, Np + 8)")
    h_tab = hermite_values(basis.Np, x)  # (n_gh, Np)
    t = vals @ (w[:, None] * h_tab)  # (n_quad, Np) momentum integrals
    rhs = basis.F.T @ (basis.weights[:, None] * t)  # (n_q, Np)
    coeffs = basis.wq @ (basis.wq.T @ rhs)  # (n_q, Np)
    return coeffs.T.reshape(-1)  # Hermite-major layout


def evaluate_coeffs(basis: BasisSet, coeffs: Array, q: Array, p: Array) -> Array:
    """Evaluate a coefficient vector at phase points (broadcast q against p)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    c = np.asarray(coeffs, dtype=float).reshape(basis.Np, basis.n_q)
    f_tab = _fourier_table(basis.Kq, basis.L, q)
    h_tab = hermite_values(basis.Np, np.ravel(p) / basis.sigma_p).reshape(p.shape + (basis.Np,))
    return np.einsum("...a,na,...n->...", f_tab, c, h_tab)
