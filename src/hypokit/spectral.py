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
the one r x r block c_t and the diagonal of L_FD.  level_blocks gives its
block-tridiagonal level blocks, with a block matvec; solvers that need a dense
matrix build it with neg_operator, which refuses one above DENSE_MAX_BYTES.

Reflection-parity sectors.  When V is even on the grid, S: (q, p) -> (-q, -p)
commutes with L and F_a h_n has parity par(a) (-1)^n, with the constant and
the cosines even and the sines odd.  build_basis then whitens the even and odd
sets separately (_parity_split, _whiten), c_t has only off-parity blocks, and
L splits into two decoupled sectors of about N / 2, "even" and "odd"; every
solve (gap, friction scan, Poisson, refined gap) runs once per sector, at
about a quarter of the full cost each.  Otherwise one sector, "all", holds
every coordinate: the same code with a trivial partition.

Dense and chain solves.  The gap, each friction-scan rung and the Poisson
equation are dense solves of neg_operator.  The refined gap of `spectrum`
(contour_gap) is not: it factors -L - z per sector along the Hermite levels
(HermiteChain, the matrix continued fraction) and finds the eigenvalues
inside an ellipse around a base gap by a contour integral, falling back to
the dense solve for a sector the contour cannot settle.

Inputs have one home each.  build_basis(spec, params, ...) keeps the
potential, beta and m on the BasisSet; assemble_generator(basis, gamma) binds
the friction; reduced_generator(basis) is gamma-free, so one reduced generator
serves every friction of a scan.  No solver takes V, beta, m or gamma again.

Full-basis coefficient indexing is Hermite-major: index = n * (2 Kq + 1) + a.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_lapack

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
# Largest |off-parity entry| / largest |entry| of a position Gram read as
# reflection-symmetric; builtins measure <= 5.8e-15, cos 2 pi q + 0.3 sin 4 pi q O(0.1).
PARITY_TOL = 1e-12
# Largest |top Fourier mode| / mean of a weight resolved on the grid; test
# configurations read <= 2e-7, and cosine at 5.6e-4 still had the gap to 1e-10.
WEIGHT_RESOLUTION_TOL = 1e-3
POINCARE_RTOL = 5e-3  # relative change that ends the Poincare refinement
POINCARE_MAX_ROUNDS = 6
DECAY_TOL = 1e-8  # slack on the semigroup decay bound
DENSE_MAX_BYTES = 2**30  # largest dense operator neg_operator allocates


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Tensor Fourier x Hermite basis with its quadrature, position Gram and its whitening.

    The basis is the one home of the problem's V (spec), beta and m; every
    downstream solver reads them from here.
    """

    spec: PotentialSpec
    Kq: int
    Np: int
    beta: float
    mass: float
    nodes: Array  # (n_quad,) uniform grid on [0, L)
    weights: Array  # (n_quad,) trapezoid weight h * exp(-beta (V - min V)), at most h
    F: Array  # (n_quad, 2Kq+1) basis values at the nodes
    D: Array  # (2Kq+1, 2Kq+1) differentiation matrix, F_j' = sum_c D[c, j] F_c
    gram_q: Array  # (2Kq+1, 2Kq+1) position Gram under the unnormalized weight
    wq: Array  # (2Kq+1, rank_q) whitener from _whiten, wq^T gram_q wq = I
    q0: Array  # (rank_q, rank_q - 1) whitened level 0 orthogonal to the constant
    labels: Array  # (rank_q,) sector label of each whitened direction: 0 even, 1 odd; all 0 in one sector

    @property
    def L(self) -> float:
        return self.spec.domain.length

    @property
    def n_q(self) -> int:
        return 2 * self.Kq + 1

    @property
    def n_sectors(self) -> int:
        """2 when V is reflection-symmetric on the grid, else 1."""
        return int(self.labels.max()) + 1

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
    gram, parity = _parity_split(0.5 * (gram + gram.T))
    wq, q0, labels = _whiten(gram, parity)
    return BasisSet(
        spec=spec, Kq=Kq, Np=Np, beta=params.beta, mass=params.mass,
        nodes=nodes, weights=weights, F=F, D=D, gram_q=gram, wq=wq, q0=q0,
        labels=labels,
    )


@dataclass(frozen=True, eq=False)
class GeneratorAssembly:
    """The kinetic Langevin generator L_ham + gamma L_FD on a basis.

    Holds no matrices: reduced_generator builds the level blocks every
    solver uses, in the whitened frame.  The basis carries V, beta and m,
    the assembly binds gamma.
    """

    basis: BasisSet
    gamma: float

    @property
    def params(self) -> EnsembleParams:
        """The ensemble of this generator: the basis's beta and m with the bound gamma."""
        return EnsembleParams(beta=self.basis.beta, mass=self.basis.mass, gamma=self.gamma)


def assemble_generator(basis: BasisSet, gamma: float) -> GeneratorAssembly:
    """Bind a positive, finite friction gamma to the basis.

    The position Gram's rank is settled once, by the whitening build_basis
    stores on the basis, which every solver uses.  At gamma = 0 the deflated
    generator is singular (L_ham alone conserves every function of the
    energy), so no gap, Poisson solution or resolvent bound exists.
    """
    if not gamma > 0:
        raise InvalidArgumentError("gamma must be positive for the kinetic generator")
    if not math.isfinite(gamma):
        raise InvalidArgumentError(f"gamma must be finite, got {gamma}")
    return GeneratorAssembly(basis=basis, gamma=gamma)


# ---------------------------------------------------------------------------
# whitened, constant-deflated frame


def _parity_split(gram_q: Array) -> tuple[Array, Array]:
    """(gram_q, parity): the Gram with its off-parity roundoff zeroed, and each index's sector.

    parity is 0 for the constant and the cosines and 1 for the sines when the
    off-parity block is within PARITY_TOL of the largest entry; otherwise it
    is 0 everywhere (one sector) and gram_q is returned as it is.
    """
    parity = np.zeros(gram_q.shape[0], dtype=int)
    parity[2::2] = 1  # F_{2k} = sqrt(2) sin(2 pi k q / L)
    off = parity[:, None] != parity[None, :]
    if np.abs(gram_q[off]).max() > PARITY_TOL * np.abs(gram_q).max():
        return gram_q, np.zeros_like(parity)
    gram_q = gram_q.copy()
    gram_q[off] = 0.0
    return gram_q, parity


def _whiten(gram_q: Array, parity: Array) -> tuple[Array, Array, Array]:
    """(wq, q0, labels): per-level whitener, the constant's complement in level 0, sector labels.

    wq (n_q, r) satisfies wq^T gram_q wq = I after the eigenvalue cut at
    DEFAULT_RCOND times the largest eigenvalue.  One eigh of gram_q ordered
    set by set (parity 0 first) whitens each set on its own: the off-set block
    is exactly zero (_parity_split), so LAPACK's tridiagonal reduction and
    solver split at the set boundary and every eigenvector lies in one set,
    its label.  The cut is global, so the rank does not depend on the split.
    Should an eigenvector span both sets, every label is 0: one sector.
    Columns are grouped by label, and q0 (r, r - 1) is an orthonormal basis
    of the whitened level-0 coordinates orthogonal to the constant function,
    which lies in set 0: the complement within set 0, then the other set
    unchanged, so q0's columns carry labels[1:].
    """
    order = np.argsort(parity, kind="stable")
    evals, vecs = sla.eigh(gram_q[np.ix_(order, order)])
    if evals[-1] <= 0:
        raise IllConditionedBasisError("position Gram is numerically singular")
    keep = evals > DEFAULT_RCOND * evals[-1]
    cols = vecs[:, keep] / np.sqrt(evals[keep])
    rows = parity[order]
    labels = rows[np.argmax(cols != 0, axis=0)]  # the set of each column's first nonzero row
    if np.any((cols != 0) & (rows[:, None] != labels[None, :])):
        labels = np.zeros_like(labels)
    by_label = np.argsort(labels, kind="stable")
    wq = np.empty_like(cols)
    wq[order] = cols[:, by_label]
    labels = labels[by_label]
    z_const = wq[:, labels == 0].T @ gram_q[:, 0]
    z_const /= np.linalg.norm(z_const)
    q0 = sla.block_diag(sla.null_space(z_const[None, :]), np.eye(wq.shape[1] - z_const.size))
    return wq, q0, labels


class LevelBlocks(NamedTuple):
    """-(L_ham + gamma L_FD) on a sector as its Hermite-level blocks.

    -L is block tridiagonal in the level n: diag(diags[n]) on level n
    (gamma n / m), and between levels n and n - 1 the coupling -B_n below and
    B_n^T above the diagonal, B_n = couplings[n - 1].
    """

    diags: list[Array]
    couplings: list[Array]

    @property
    def start(self) -> Array:
        """Offset of each level in the sector vector, then the sector size."""
        return np.cumsum([0] + [d.size for d in self.diags])

    def matvec(self, x: Array) -> Array:
        """-L x for x of shape (k,) or (k, columns), with no dense operator."""
        lev = np.split(x, self.start[1:-1])
        out = [d.reshape((-1,) + (1,) * (x.ndim - 1)) * xn for d, xn in zip(self.diags, lev)]
        for n, b in enumerate(self.couplings, 1):
            out[n] = out[n] - b @ lev[n - 1]
            out[n - 1] = out[n - 1] + b.T @ lev[n]
        return np.concatenate(out)

    def norm1(self) -> float:
        """||L||_1: the largest column sum of |L|."""
        cols = [np.abs(d) for d in self.diags]
        for n, b in enumerate(self.couplings, 1):
            cols[n] = cols[n] + np.abs(b).sum(axis=1)
            cols[n - 1] = cols[n - 1] + np.abs(b).sum(axis=0)
        return float(max(c.max(initial=0.0) for c in cols))


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

    Sector s (0 <= s < n_sectors) holds, on level n, the coordinates whose
    label is (s + n) mod n_sectors; c_t couples only labels that differ by
    one mod n_sectors, so no sector couples to another.
    """

    c_t: Array  # (r, r) whitened position derivative wq^T gram_q D wq
    fd: Array  # (dim,)
    q0: Array  # (r, n0) level-0 deflation basis
    wq: Array  # (n_q, r) per-level whitener, wq^T gram_q wq = I
    gq_w: Array  # (r, n_q) = wq^T gram_q, coordinates of the gram projection
    labels: Array  # (r,) sector label of each whitened position direction
    mass_nu: float
    n_p: int
    beta_m: float  # beta * mass

    @property
    def dim(self) -> int:
        return self.fd.size

    @property
    def n0(self) -> int:
        return self.q0.shape[1]

    @property
    def n_sectors(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def sector_names(self) -> tuple[str, ...]:
        return ("even", "odd") if self.n_sectors == 2 else ("all",)

    def _level_masks(self, n_lev: int, sector: int | None) -> list[Array]:
        """Which coordinates of each of the first n_lev levels lie in the sector (all if None)."""
        masks = []
        for n in range(n_lev):
            labels = self.labels[1:] if n == 0 else self.labels  # q0 drops one label-0 direction
            masks.append(np.ones(labels.size, bool) if sector is None else labels == (sector + n) % self.n_sectors)
        return masks

    def sector_index(self, sector: int) -> Array:
        """Positions of the sector's coordinates in the reduced vector."""
        return np.flatnonzero(np.concatenate(self._level_masks(self.n_p, sector)))

    def level_blocks(self, gamma: float, levels: int | None = None, sector: int | None = None) -> LevelBlocks:
        """-(L_ham + gamma L_FD) on the first `levels` Hermite levels (default all) as its level blocks.

        With a sector, only its coordinates, in sector_index order.
        """
        n_lev = self.n_p if levels is None else min(levels, self.n_p)
        masks = self._level_masks(n_lev, sector)
        diag = -gamma * self.fd[np.flatnonzero(np.concatenate(masks))]
        start = np.cumsum([int(m.sum()) for m in masks])[:-1]
        couplings = []
        for n in range(1, n_lev):
            c = self.c_t @ self.q0 if n == 1 else self.c_t
            couplings.append(math.sqrt(n / self.beta_m) * c[np.ix_(masks[n], masks[n - 1])])
        return LevelBlocks(np.split(diag, start), couplings)

    def neg_operator(self, gamma: float, levels: int | None = None, sector: int | None = None) -> Array:
        """Dense -(L_ham + gamma L_FD) on the first `levels` Hermite levels (default all).

        With a sector, only its coordinates, in sector_index order; the full
        operator is block diagonal in the sectors.  Fortran-ordered, so LAPACK
        can overwrite it without a copy.  A matrix above DENSE_MAX_BYTES is
        refused before it is allocated.
        """
        blocks = self.level_blocks(gamma, levels, sector)
        start = blocks.start
        k = int(start[-1])
        if 8 * k * k > DENSE_MAX_BYTES:
            raise InvalidArgumentError(
                f"the dense generator would be {k} x {k} float64 ({8 * k * k / 2**30:.3g} GiB), above the "
                f"{DENSE_MAX_BYTES / 2**30:g} GiB limit; lower Kq or Np"
            )
        op = np.zeros((k, k), order="F")
        for n, block in enumerate(blocks.couplings, 1):
            rows = slice(start[n], start[n + 1])
            below = slice(start[n - 1], start[n])
            op[rows, below] = -block
            op[below, rows] = block.T
        op[np.diag_indices(k)] = np.concatenate(blocks.diags)
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


def reduced_generator(basis: BasisSet) -> ReducedGenerator:
    """Whitened, constant-deflated generator of a basis, stored as its level blocks; gamma-free."""
    wq, q0 = basis.wq, basis.q0
    r, n0 = wq.shape[1], q0.shape[1]
    return ReducedGenerator(
        c_t=wq.T @ (basis.gram_q @ basis.D) @ wq,
        fd=np.repeat(-np.arange(basis.Np) / basis.mass, r)[r - n0 :],
        q0=q0, wq=wq, gq_w=wq.T @ basis.gram_q, labels=basis.labels,
        mass_nu=basis.mass_nu, n_p=basis.Np, beta_m=basis.beta * basis.mass,
    )


# ---------------------------------------------------------------------------
# eigen solvers


@dataclass(frozen=True, eq=False)
class GapResult:
    gap: float
    eig_count_checked: int
    eigenvalues: Array  # the deflated spectrum of -L: each sector's in LAPACK order, sector by sector
    norm1: float  # ||L||_1; eps * norm1 is the backward-error scale of the eigensolve
    sector: str = "all"  # the sector holding the gap, the parity of the slowest mode


def _lapack_dgeev():
    """SciPy's LAPACK dgeev as a ctypes foreign function, from the cython_lapack capsule.

    A CFUNCTYPE call releases the GIL for its duration, which SciPy's f2py
    wrapper does not, so gap eigensolves on a thread pool run concurrently.
    """
    capsule = cython_lapack.__pyx_capi__["dgeev"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    i, d, c = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_char_p
    # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info
    proto = ctypes.CFUNCTYPE(None, c, c, i, d, i, d, d, d, i, d, i, d, i, i)
    return proto(get_pointer(capsule, get_name(capsule)))


_DGEEV = _lapack_dgeev()


def _eigvals_overwrite(a: Array) -> Array:
    """Eigenvalues wr + i wi of the square Fortran-ordered float array a by dgeev; a is overwritten.

    The workspace is dgeev's own optimum from a query (lwork = -1), the size
    scipy.linalg.eigvals also uses, so the eigenvalues are the same bits.
    """
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable) or a.shape[0] != a.shape[1]:
        raise ValueError("dgeev needs a square, writeable, Fortran-ordered float64 array")
    n = ctypes.c_int(a.shape[0])
    wr, wi = np.empty(a.shape[0]), np.empty(a.shape[0])
    one, info = ctypes.c_int(1), ctypes.c_int(0)
    unused = ctypes.c_double()  # vl and vr: not referenced for jobvl = jobvr = "N"
    dp = ctypes.POINTER(ctypes.c_double)

    def call(work: Array, lwork: int) -> int:
        _DGEEV(b"N", b"N", n, a.ctypes.data_as(dp), n, wr.ctypes.data_as(dp), wi.ctypes.data_as(dp),
               unused, one, unused, one, work.ctypes.data_as(dp), ctypes.c_int(lwork), info)
        if info.value < 0:
            raise ValueError(f"dgeev: argument {-info.value} had an illegal value")
        return info.value

    query = np.empty(1)
    call(query, -1)
    lwork = max(int(query[0]), 1)
    if call(np.empty(lwork), lwork) > 0:
        raise NumericalFailureError("eigenvalue solver failed")
    return wr + 1j * wi


def _gap_of_operator(neg_op: Array) -> GapResult:
    """Gap from -L (or one sector of it); the eigensolve overwrites neg_op."""
    norm1 = float(sla.norm(neg_op, 1, check_finite=False))  # LAPACK lange: no N x N temporary
    eigs = _eigvals_overwrite(neg_op)
    return GapResult(float(eigs.real.min()), int(eigs.size), eigs, norm1)


def reduced_gap(red: ReducedGenerator, gamma: float) -> GapResult:
    """Smallest real part of the deflated spectrum of -(L_ham + gamma L_FD), one eigensolve per sector.

    The gap is the smallest sector gap, counts add, spectra are joined in
    sector order, and ||L||_1 is the largest sector 1-norm (each column lies
    in one sector).
    """
    parts = [_gap_of_operator(red.neg_operator(gamma, sector=s)) for s in range(red.n_sectors)]
    best = min(range(len(parts)), key=lambda s: parts[s].gap)
    return GapResult(
        gap=parts[best].gap,
        eig_count_checked=sum(p.eig_count_checked for p in parts),
        eigenvalues=np.concatenate([p.eigenvalues for p in parts]),
        norm1=max(p.norm1 for p in parts),
        sector=red.sector_names[best],
    )


def spectral_gap(asm: GeneratorAssembly) -> GapResult:
    """The gap of the assembly's generator at its own friction (see reduced_gap)."""
    return reduced_gap(reduced_generator(asm.basis), asm.gamma)


# ---------------------------------------------------------------------------
# Hermite-chain factorization and the contour-integral gap


@dataclass(frozen=True, eq=False)
class HermiteChain:
    """Block factorization of -L - mu on one sector, eliminated from the top Hermite level down.

    With D_n and B_n the level diagonals and couplings of LevelBlocks, the
    pivots are S_top = D_top - mu and S_{n-1} = D_{n-1} - mu + B_n^T S_n^{-1} B_n:
    Risken's matrix continued fraction for the Kramers equation.  Level 0,
    whose diagonal block is zero, is eliminated last.  The pivot inverses are
    precomputed, one batched inverse per level, because at these block sizes
    per-level calls cost more than the arithmetic.  mu may be an array of
    shifts: every factor then carries the shift axes first, and solve returns
    one solution per shift.  A real mu keeps every factor real.
    """

    blocks: LevelBlocks
    inv: list[Array]  # S_n^{-1}, shape mu.shape + (k_n, k_n)

    def solve(self, v: Array) -> Array:
        """(-L - mu)^{-1} v for v of shape (k, columns): shape mu.shape + (k, columns)."""
        start, couplings = self.blocks.start, self.blocks.couplings
        lev = [slice(start[n], start[n + 1]) for n in range(len(self.inv))]
        x = np.empty(self.inv[0].shape[:-2] + v.shape, np.result_type(self.inv[0], v))
        # backward: x_n = S_n^{-1} w_n, w_n the right-hand side once level n + 1 is eliminated
        for n in range(len(self.inv) - 1, -1, -1):
            w = v[lev[n]] if n == len(self.inv) - 1 else v[lev[n]] - couplings[n].T @ x[..., lev[n + 1], :]
            x[..., lev[n], :] = self.inv[n] @ w
        for n in range(1, len(self.inv)):  # forward: x_n = S_n^{-1} (w_n + B_n x_{n-1})
            x[..., lev[n], :] += self.inv[n] @ (couplings[n - 1] @ x[..., lev[n - 1], :])
        return x


def hermite_chain(blocks: LevelBlocks, mu) -> HermiteChain:
    """Factor -L - mu for a shift (or an array of shifts) mu; raises LinAlgError on a singular pivot."""
    mu = np.asarray(mu)
    top = len(blocks.diags) - 1
    inv = [None] * (top + 1)
    for n in range(top, -1, -1):
        k = blocks.diags[n].size
        if n == top:
            pivot = np.zeros(mu.shape + (k, k), np.result_type(mu, float))
        else:
            pivot = blocks.couplings[n].T @ (inv[n + 1] @ blocks.couplings[n])
        pivot[..., np.arange(k), np.arange(k)] += blocks.diags[n] - mu[..., None]
        inv[n] = np.linalg.inv(pivot)
    return HermiteChain(blocks, inv)


CONTOUR_NODES = 64  # trapezoid nodes on the ellipse; the upper half is solved
CONTOUR_CHUNK = 4  # shifts factored at once: 1.9 MB of pivot inverses at Kq24/Np48, no slower than 8 or 16
CONTOUR_PROBES = 16  # columns of the probe block
CONTOUR_SEED = 2024  # seed of the probe block, so reruns are bitwise identical
CONTOUR_RANK_TOL = 1e-12  # singular values of the zeroth moment kept, relative to the largest
CONTOUR_RESIDUAL_TOL = 1e-10  # ||(-L - mu) v|| / (||L||_1 ||v||) a candidate eigenpair must reach


@dataclass(frozen=True)
class RefinedGap:
    gap: float
    method: dict  # sector name -> "contour" or "dense", the path that solved it


def _contour_sector_gap(blocks: LevelBlocks, center: float, a: float, b: float) -> float | None:
    """Smallest real part of the eigenvalues of -L inside the ellipse, or None where the contour cannot tell.

    Beyn's moments A_p = (1 / 2 pi i) \\oint z^p (-L - z)^{-1} V dz, p = 0, 1,
    by the trapezoid rule on z = center + a cos t + i b sin t.  -L and V are
    real, so the node mirrored below the axis adds -conj(X dz) to X dz and
    only the upper half is solved.  The rank k of A_0 (its SVD) counts the
    eigenvalues inside; those of the k x k matrix U^T A_1 W S^{-1} are the
    candidates.  None when k = 0 or k = CONTOUR_PROBES (the probe block may
    be saturated), when no candidate lies inside, or when one inside fails
    its residual.
    """
    t = 2.0 * math.pi * (np.arange(CONTOUR_NODES // 2) + 0.5) / CONTOUR_NODES
    z = center + a * np.cos(t) + 1j * b * np.sin(t)
    dz = -a * np.sin(t) + 1j * b * np.cos(t)
    probes = np.random.default_rng(CONTOUR_SEED).standard_normal((int(blocks.start[-1]), CONTOUR_PROBES))
    a0, a1 = np.zeros_like(probes), np.zeros_like(probes)
    for lo in range(0, z.size, CONTOUR_CHUNK):
        part = slice(lo, lo + CONTOUR_CHUNK)
        try:
            x = hermite_chain(blocks, z[part]).solve(probes)
        except np.linalg.LinAlgError:
            return None
        a0 += (2.0 / CONTOUR_NODES) * np.tensordot(dz[part], x, axes=1).imag
        a1 += (2.0 / CONTOUR_NODES) * np.tensordot(z[part] * dz[part], x, axes=1).imag
    u, sv, wt = np.linalg.svd(a0, full_matrices=False)
    k = int(np.count_nonzero(sv > CONTOUR_RANK_TOL * sv[0]))
    if k in (0, CONTOUR_PROBES):
        return None
    lam, w = np.linalg.eig(u[:, :k].T @ a1 @ wt[:k].T / sv[:k])
    inside = ((lam.real - center) / a) ** 2 + (lam.imag / b) ** 2 < 1.0
    if not inside.any():
        return None
    lam, vec = lam[inside], u[:, :k] @ w[:, inside]
    res = np.linalg.norm(blocks.matvec(vec) - lam * vec, axis=0)
    if np.any(res > CONTOUR_RESIDUAL_TOL * blocks.norm1() * np.linalg.norm(vec, axis=0)):
        return None
    return float(lam.real.min())


def contour_gap(asm: GeneratorAssembly, base: GapResult) -> RefinedGap:
    """The gap of the assembly's generator near a base gap, by a contour integral on Hermite chains.

    Meant for a refined basis, with `base` the dense gap of a coarser one.
    Each sector counts the eigenvalues of -L inside an ellipse built from the
    base spectrum: its real axis spans 0.25-2.5 times the base gap, and its
    half-height is 1.5 times the largest |Im| of the base eigenvalues with
    real part below twice the gap, plus the gap, and at least the real
    semi-axis.  The ellipse is a heuristic built from the base spectrum, not
    a certificate, just like the 1 % convergence test it serves: an
    eigenvalue of the refined basis outside it is not seen.  A sector that
    the contour cannot settle (_contour_sector_gap) is solved dense, as
    reduced_gap would; `method` records which path ran per sector.
    """
    red = reduced_generator(asm.basis)
    g = base.gap
    center, a = 1.375 * g, 1.125 * g
    near = base.eigenvalues[base.eigenvalues.real < 2.0 * g]
    b = max(1.5 * float(np.abs(near.imag).max(initial=0.0)) + g, a)
    gaps, method = [], {}
    for s, name in enumerate(red.sector_names):
        gap = _contour_sector_gap(red.level_blocks(asm.gamma, sector=s), center, a, b) if g > 0 else None
        method[name] = "dense" if gap is None else "contour"
        gaps.append(_gap_of_operator(red.neg_operator(asm.gamma, sector=s)).gap if gap is None else gap)
    return RefinedGap(min(gaps), method)


# ---------------------------------------------------------------------------
# overdamped generator on the position factor


class OverdampedOperator(NamedTuple):
    l_ovd: Array
    basis: BasisSet  # its gram_q, whitening and beta


def assemble_overdamped(basis: BasisSet) -> OverdampedOperator:
    """Coefficient action of the overdamped generator -(1/beta) nabla* nabla."""
    a_form = -(1.0 / basis.beta) * (basis.D.T @ basis.gram_q @ basis.D)
    a_form = 0.5 * (a_form + a_form.T)
    return OverdampedOperator(basis.wq @ (basis.wq.T @ a_form), basis)


def _overdamped_reduced(ovd: OverdampedOperator) -> Array:
    """The symmetric overdamped operator in the whitened, constant-deflated frame."""
    b = ovd.basis
    s = b.q0.T @ (b.wq.T @ (b.gram_q @ ovd.l_ovd) @ b.wq) @ b.q0
    return 0.5 * (s + s.T)


def poincare_constant(
    spec: PotentialSpec,
    params: EnsembleParams,
    Kq: int = DEFAULT_KQ,
    n_quad: int | None = None,  # default max(DEFAULT_NQUAD, 8 Kq)
) -> float:
    """Poincare constant of exp(-beta V): beta times the overdamped spectral gap.

    The basis size is refined by factors of 1.5 until the value changes by
    less than POINCARE_RTOL; the refined value is returned.  The first round
    runs on n_quad nodes and each refinement at k modes on max(n_quad, 8 k),
    so a grid that resolves the weight stays in use.
    """
    n_quad = max(DEFAULT_NQUAD, 8 * Kq) if n_quad is None else n_quad
    k = Kq
    prev = None
    for _ in range(POINCARE_MAX_ROUNDS):
        basis = build_basis(spec, params, Kq=k, Np=2, n_quad=n_quad if k == Kq else max(n_quad, 8 * k))
        s_red = _overdamped_reduced(assemble_overdamped(basis))
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


def semigroup_decay_check(ovd: OverdampedOperator, r_nu: float, times: Array) -> DecayCheckResult:
    """Check ||exp(t L_ovd)|| <= exp(-r_nu t / beta) on mean-zero functions, beta the basis's.

    Norms are gram-weighted operator norms of the matrix exponential on the
    constant-deflated space; the bound holds with prefactor exactly 1, up to
    DECAY_TOL.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(times < 0):
        raise InvalidArgumentError("times must be a non-empty 1-D array of nonnegative values")
    s_red = _overdamped_reduced(ovd)
    norms = np.empty(times.size)
    for i, t in enumerate(times):
        norms[i] = sla.svdvals(sla.expm(t * s_red)).max()
    if not np.all(np.isfinite(norms)):
        raise NumericalFailureError("matrix exponential overflowed")
    bounds = np.exp(-r_nu * times / ovd.basis.beta)
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
    residual: float  # ||(-L) z - b|| / (||L||_1 ||z|| + ||b||) in the whitened frame


def _sigma2_from_pair(z_sol: Array, z_rhs: Array, mass_nu: float) -> float:
    sigma2 = 2.0 * float(z_sol @ z_rhs) / mass_nu
    if sigma2 < 0:
        scale = 2.0 * float(np.linalg.norm(z_sol) * np.linalg.norm(z_rhs)) / mass_nu
        if sigma2 < -1e-10 * max(scale, 1.0):
            raise NumericalFailureError(f"asymptotic variance came out negative: {sigma2}")
        sigma2 = 0.0
    return sigma2


def _lu_solve(neg_op: Array, rhs: Array) -> tuple[Array, Array, float]:
    """(z, -L z - rhs, ||L||_1) from one LU solve of -L z = rhs.

    LU makes no condition estimate, so a stiff but solvable operator (gamma
    near the float maximum) solves without a warning; an exactly zero pivot
    is a numerical failure.
    """
    norm1 = float(sla.norm(neg_op, 1, check_finite=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            lu = sla.lu_factor(neg_op, check_finite=False)
        except sla.LinAlgWarning as exc:
            raise NumericalFailureError(f"Poisson solve failed (singular operator): {exc}") from exc
    z = sla.lu_solve(lu, rhs, check_finite=False)
    return z, neg_op @ z - rhs, norm1


def _relative_residual(res: Array, z_sol: Array, z_rhs: Array, norm1: float) -> float:
    # scipy's norm is BLAS nrm2, which scales: a solution near the float maximum keeps a finite norm
    scale = norm1 * float(sla.norm(z_sol)) + float(sla.norm(z_rhs))
    return float(sla.norm(res)) / scale if scale > 0 else 0.0


def solve_poisson(asm: GeneratorAssembly, phi_coeffs: Array) -> PoissonResult:
    """Solve -(L_ham + gamma L_FD) Phi = (phi - mean phi) and report sigma^2.

    sigma^2 = 2 <Phi, phi - mean phi> under the normalized invariant measure.
    One LU solve per sector; a sector with a zero right-hand side solves to
    exact zeros.  Returns the solution's full-basis coefficients (mean-zero
    representative).
    """
    red = reduced_generator(asm.basis)
    z_rhs = red.to_reduced(phi_coeffs)
    z_sol, res = np.empty_like(z_rhs), np.empty_like(z_rhs)
    norm1 = 0.0
    for s in range(red.n_sectors):
        idx = red.sector_index(s)
        z_sol[idx], res[idx], n1 = _lu_solve(red.neg_operator(asm.gamma, sector=s), z_rhs[idx])
        norm1 = max(norm1, n1)
    sigma2 = _sigma2_from_pair(z_sol, z_rhs, red.mass_nu)
    return PoissonResult(red.to_full(z_sol), sigma2, _relative_residual(res, z_sol, z_rhs, norm1))


def solve_poisson_overdamped(ovd: OverdampedOperator, phi_q_coeffs: Array) -> PoissonResult:
    """Overdamped counterpart of solve_poisson for position-only observables."""
    b = ovd.basis
    z_rhs = b.q0.T @ (b.wq.T @ (b.gram_q @ np.asarray(phi_q_coeffs, float)))
    z_sol, res, norm1 = _lu_solve(-_overdamped_reduced(ovd), z_rhs)
    sigma2 = _sigma2_from_pair(z_sol, z_rhs, b.mass_nu)
    return PoissonResult(b.wq @ (b.q0 @ z_sol), sigma2, _relative_residual(res, z_sol, z_rhs, norm1))


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


# hermegauss(n) overflows from n = 371 on: at 371 nodes its weight sum overflows and
# every weight comes back 0.0, from 372 on the weights are inf or nan.
GAUSS_HERMITE_MAX_NODES = 370


def project_phase_function(basis: BasisSet, f: Callable[[Array, Array], Array]) -> Array:
    """Gram-orthogonal projection of f(q, p) onto the tensor basis, (size,).

    f must broadcast over a (n_quad, 1) position array against a (1, n_gh)
    momentum array.  Momentum integrals use Gauss-Hermite quadrature with
    n_gh = Np + 8 nodes.
    """
    n_gh = basis.Np + 8
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            x, w = np.polynomial.hermite_e.hermegauss(n_gh)
    except FloatingPointError as exc:
        raise NumericalFailureError(
            f"the {n_gh}-node Gauss-Hermite rule for Np={basis.Np} overflows ({exc}); "
            f"the largest Np that works is {GAUSS_HERMITE_MAX_NODES - 8}"
        ) from exc
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
