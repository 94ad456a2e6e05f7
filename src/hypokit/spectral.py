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
DEFAULT_RCOND times the largest, and every Gram solve (projections, reduced
generator) is least squares on them.  The reduced
coordinates are thus level-blocked: n0 = r - 1 for level 0, which is the range
of Pi0, then r per level n >= 1.  In them the coupling of level n to level
n - 1 is sqrt(n / (beta m)) c_t, with c_t the whitened position derivative
(restricted to the deflated level 0 when n = 1), so the generator is stored as
the one r x r block c_t next to its basis; L_FD's diagonal -n/m is fixed by Np
and m and is formed per call.  level_blocks gives its
block-tridiagonal level blocks, with a block matvec; solvers that need a dense
matrix build it with LevelBlocks.dense, which refuses one above DENSE_MAX_BYTES.

Reflection-parity sectors.  When V is even on the grid, S: (q, p) -> (-q, -p)
commutes with L and F_a h_n has parity par(a) (-1)^n, with the constant and
the cosines even and the sines odd.  build_basis then whitens the even and odd
sets separately (_parity_split, _whiten), c_t has only off-parity blocks, and
L splits into two decoupled sectors of about N / 2, "even" and "odd"; every
solve (gap, friction scan, Poisson, refined gap) runs once per sector, at
about a quarter of the full cost each.  Otherwise one sector, "all", holds
every coordinate: the same code with a trivial partition.

Dense and chain solves.  Only the gap is a dense solve of LevelBlocks.dense
(hypo's dissipation rate also reads levels 0-2 of neg_operator, the dense
operator).  The Poisson equation is solved per sector by the Hermite chain at
mu = 0 (HermiteChain, the matrix continued fraction, which factors -L - mu
along the Hermite levels), with its residual from the block matvec.  A gap
near a known one on another basis is found by contour_gap, the one home of
that refinement policy.  Per sector it filters a block of random probes by a
contour integral of (-L - z)^{-1} around an ellipse about the base gap, the
chain factoring -L - z at the trapezoid nodes of its upper half, and takes the
eigenvalues inside as Ritz values of -L on the filtered probes, each verified
by its residual (the FEAST / Sakurai-Tadano practice).  Where one pass of the
CONTOUR_NODES-node rule cannot settle the sector, the filter is applied again
to what it produced, up to CONTOUR_PASSES times, on the chains the first pass
factored (FEAST's subspace iteration): the damping grows with the passes, the
factorizations do not.  contour_gap solves dense a sector below DENSE_SECTOR_MAX
coordinates, every sector with no base (the dense gap, spectral_gap) or a
base at roundoff level, and a sector the contour cannot settle, and reads the
CONVERGENCE_RTOL test.  rung_gap is the gap on a basis,
for `spectrum` and each friction-scan rung: from a dense gap on the bottom of
rung_ladder (the basis and its halvings), contour_gap on each rung around the
one below, with a dense guard; refined_gap is `spectrum`'s 1.5x check.  The resolvent norm
(hypo) solves on each sector's chain at mu = 0 as well: -L^T = J (-L) J, J the
momentum flip (LevelBlocks), so no solve or product sweeps -L^T.  hypo's
witnesses apply -L per sector by the block matvec.

The overdamped generator needs no assembly of its own.  On mean-zero position
functions it is S = -(1/beta) M^T M with M = c_t q0 (ReducedGenerator.c_t_q0),
the block the level-1 coupling holds as sqrt(1 / (beta m)) M: S is
-m Pi0 L_ham* L_ham Pi0, whose gap times beta is the Poincare constant (the
macroscopic coercivity of the hypocoercivity argument).  poincare_constant,
solve_poisson_overdamped and semigroup_decay_check read it from the basis.

Inputs have one home each.  build_basis(spec, params, ...), the one function
that takes a potential, keeps it with beta and m on the BasisSet;
assemble_generator(basis, gamma) binds the friction; reduced_generator(basis)
is gamma-free, so one reduced generator serves every friction of a scan.  It
holds its basis and c_t, and no coupling block: each level_blocks call gathers
three blocks of c_t for its sector and scales them per level, so the generator
holds no mutable state and a scan's threads share only arrays that no code
writes.  No solver takes V, beta, m or gamma again.

Only _whiten (scipy.linalg.eigh, whose syevr whitens a Gram near the rank cut
more accurately than NumPy's syevd) and _gauss_hermite above its NumPy rule
import SciPy, each in its own body; every other solve is NumPy's.  A process
that builds no basis (`sample`, `variance`, `ode`) never loads SciPy, whose
import costs about 0.2 s and 27 MB.

Full-basis coefficient indexing is Hermite-major: index = n * (2 Kq + 1) + a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

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
DECAY_TOL = 1e-8  # relative slack on the semigroup decay rate
# Largest relative residual a Poisson solve may report: ordinary inputs read <= 1.1e-12 at
# gamma >= 1e-3; before refinement, cosine cos_q at the defaults reads 2.6e-10 at gamma = 1e-5
# (sigma^2 off by 4e-5), 4.9e-8 at 1e-6 (off by 2.4e-3) and 3.2e-4 at 1e-8.
POISSON_RESIDUAL_TOL = 1e-9
# A sector's Poisson solve whose first relative residual is above this is refined on its
# chain's factors, up to POISSON_REFINE_STEPS times: cosine cos_q at the defaults reads
# 2.2e-17 at gamma = 1, 4.3e-14 at 1e-3 and 5.5e-12 at 1e-4, so only frictions near zero are.
POISSON_REFINE_ABOVE = 2e-12
POISSON_REFINE_STEPS = 4
# Largest dense operator LevelBlocks.dense allocates; the gap eigensolve (np.linalg.eigvals)
# holds a second copy of it, so a solve peaks at about twice this.
DENSE_MAX_BYTES = 2**30


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

    def resized(self, Kq: int, Np: int) -> BasisSet:
        """The basis of the same problem at Kq and Np, on max(n_quad, 8 Kq) nodes, so its grid still resolves the weight."""
        return build_basis(self.spec, EnsembleParams(beta=self.beta, mass=self.mass), Kq=Kq, Np=Np,
                           n_quad=max(self.nodes.size, 8 * Kq))


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
    with np.errstate(all="ignore"):  # a V that overflows on the grid is refused below
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

    Holds no matrices: every solver reads the level blocks of the basis's
    reduced generator (reduced_generator), in the whitened frame, which is
    gamma-free.  The basis carries V, beta and m, the assembly binds gamma.
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
    import scipy.linalg as sla
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
    q0 = np.eye(wq.shape[1], wq.shape[1] - 1, k=-1)  # below set 0's block: the other set, unchanged
    q0[: z_const.size, : z_const.size - 1] = np.linalg.svd(z_const[None, :])[2][1:].T  # z_const's complement
    return wq, q0, labels


class LevelBlocks(NamedTuple):
    """-(L_ham + gamma L_FD) on a sector as its Hermite-level blocks.

    -L is block tridiagonal in the level n: diag(diags[n]) on level n
    (gamma n / m), and between levels n and n - 1 the coupling -B_n below and
    B_n^T above the diagonal, B_n = couplings[n - 1].  L's adjoint is L
    reversed in momentum: -L^T = J (-L) J, J = reversal, which negates every
    coupling.  So J (-L) is symmetric, and -L^T x is J matvec(J x).
    """

    diags: list[Array]
    couplings: list[Array]

    @property
    def start(self) -> Array:
        """Offset of each level in the sector vector, then the sector size."""
        return np.cumsum([0] + [d.size for d in self.diags])

    @property
    def reversal(self) -> Array:
        """J, the momentum flip p -> -p on the sector vector: (-1)^n on level n."""
        return np.repeat(np.resize([1.0, -1.0], len(self.diags)), np.diff(self.start))

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

    def dense(self) -> Array:
        """The dense operator, Fortran-ordered: hypo's dissipation products read this layout, and their bits
        depend on it.  A matrix above DENSE_MAX_BYTES is refused before it is allocated."""
        start = self.start
        k = int(start[-1])
        if 8 * k * k > DENSE_MAX_BYTES:
            raise InvalidArgumentError(
                f"the dense generator would be {k} x {k} float64 ({8 * k * k / 2**30:.3g} GiB), above the "
                f"{DENSE_MAX_BYTES / 2**30:g} GiB limit; lower Kq or Np"
            )
        op = np.zeros((k, k), order="F")
        for n, block in enumerate(self.couplings, 1):
            rows = slice(start[n], start[n + 1])
            below = slice(start[n - 1], start[n])
            op[rows, below] = -block
            op[below, rows] = block.T
        op[np.diag_indices(k)] = np.concatenate(self.diags)
        return op


@dataclass(frozen=True, eq=False)
class ReducedGenerator:
    """Generator compressed to an orthonormal basis of span \\ constants: the basis and its one block c_t.

    Coordinates are orthonormal for the (unnormalized) gram inner product, so
    all gram-weighted norms are Euclidean here.  They are ordered by Hermite
    level: the first n0 = r - 1 span level 0 without the constant (Pi0 keeps
    exactly these), then r per level n >= 1.  L_ham is stored as its one
    block c_t: level n >= 2 couples to level n - 1 through sqrt(n / (beta m)) c_t
    and level 1 to level 0 through sqrt(1 / (beta m)) c_t q0, each with the
    negated transpose above the diagonal, so L_ham is exactly antisymmetric.
    L_FD is the diagonal -n/m on level n, which level_blocks forms per call;
    the generator at friction gamma is L_ham + gamma L_FD.  Every other value
    (wq, q0, the sector labels, beta, m, Np) is read from the basis.

    Sector s (0 <= s < basis.n_sectors) holds, on level n, the coordinates whose
    label is (s + n) mod n_sectors; c_t couples only labels that differ by
    one mod n_sectors, so no sector couples to another.
    """

    basis: BasisSet
    c_t: Array  # (r, r) whitened position derivative wq^T gram_q D wq

    @property
    def n0(self) -> int:
        return self.basis.q0.shape[1]

    @property
    def dim(self) -> int:
        return self.n0 + (self.basis.Np - 1) * self.c_t.shape[0]

    @property
    def sector_names(self) -> tuple[str, ...]:
        return ("even", "odd") if self.basis.n_sectors == 2 else ("all",)

    @property
    def c_t_q0(self) -> Array:
        """c_t q0, formed per call: the level-1 to level-0 coupling over sqrt(1 / (beta m)), and the M of the
        overdamped generator -(1/beta) M^T M (_overdamped_reduced)."""
        return self.c_t @ self.basis.q0

    def _level_masks(self, sector: int | None) -> tuple[Array, Array, Array]:
        """(zero, odd, even): the whitened directions the sector (all if None) holds on level 0, on the odd
        levels and on the even levels n >= 2."""
        labels = self.basis.labels
        if sector is None:
            odd = even = np.ones(labels.size, bool)
        else:
            odd, even = labels == (sector + 1) % self.basis.n_sectors, labels == sector
        return even[1:], odd, even  # q0's columns carry labels[1:]

    def sector_index(self, sector: int) -> Array:
        """Positions of the sector's coordinates in the reduced vector."""
        zero, odd, even = self._level_masks(sector)
        n_p = self.basis.Np
        upper = np.tile(np.concatenate([odd, even]), n_p // 2)[: (n_p - 1) * odd.size]
        return np.flatnonzero(np.concatenate([zero, upper]))

    def level_blocks(self, gamma: float, levels: int | None = None, sector: int | None = None) -> LevelBlocks:
        """-(L_ham + gamma L_FD) on the first `levels` Hermite levels (default all) as its level blocks.

        With a sector, only its coordinates, in sector_index order.  The
        couplings are formed on each call, and the generator keeps none: the
        one between levels n and n - 1 is sqrt(n / (beta m)) times one of three
        blocks gathered from c_t, (c_t q0)[odd, level 0] for n = 1, then
        c_t[even, odd] or c_t[odd, even] by the parity of n.  Only the level
        diagonals depend on gamma: -gamma (-n / m) on level n, -0.0 on level 0.
        A gamma whose top level diagonal gamma (Np - 1) / m overflows is refused, and so are levels below 1.
        """
        n_p, m = self.basis.Np, self.basis.mass
        if levels is not None and levels < 1:
            raise InvalidArgumentError(f"levels must be at least 1, got {levels}")
        if not math.isfinite(float(gamma) * ((n_p - 1) / m)):
            raise InvalidArgumentError(
                f"gamma = {gamma:g} overflows the generator's friction diagonal gamma (Np - 1) / m; lower gamma")
        n_lev = n_p if levels is None else min(levels, n_p)
        zero, odd, even = self._level_masks(sector)
        sizes = np.where(np.arange(n_lev) % 2, np.count_nonzero(odd), np.count_nonzero(even))
        sizes[0] = np.count_nonzero(zero)
        first = self.c_t_q0[np.ix_(odd, zero)]
        pair = self.c_t[np.ix_(even, odd)], self.c_t[np.ix_(odd, even)]
        beta_m = self.basis.beta * m
        return LevelBlocks([np.full(k, -gamma * (-n / m)) for n, k in enumerate(sizes)],
                           [math.sqrt(n / beta_m) * (first if n == 1 else pair[n % 2]) for n in range(1, n_lev)])

    def neg_operator(self, gamma: float, levels: int | None = None, sector: int | None = None) -> Array:
        """Dense -(L_ham + gamma L_FD) on the first `levels` Hermite levels (default all), by LevelBlocks.dense;
        with a sector, only its coordinates, in sector_index order (the full operator is block diagonal in them)."""
        return self.level_blocks(gamma, levels, sector).dense()

    def to_reduced(self, coeffs: Array) -> Array:
        """Gram-orthogonal projection of a full coefficient vector (drops constants)."""
        basis = self.basis
        x = np.asarray(coeffs, dtype=float).reshape(basis.Np, -1)
        z = x @ (basis.wq.T @ basis.gram_q).T
        return np.concatenate([basis.q0.T @ z[0], z[1:].reshape(-1)])

    def to_full(self, y: Array) -> Array:
        basis = self.basis
        blocks = np.empty((basis.Np, basis.wq.shape[1]))
        blocks[0] = basis.q0 @ y[: self.n0]
        blocks[1:] = y[self.n0 :].reshape(basis.Np - 1, -1)
        return (blocks @ basis.wq.T).reshape(-1)


def reduced_generator(basis: BasisSet) -> ReducedGenerator:
    """Whitened, constant-deflated generator of a basis: the basis and c_t, the one place c_t is formed; gamma-free."""
    return ReducedGenerator(basis=basis, c_t=basis.wq.T @ (basis.gram_q @ basis.D) @ basis.wq)


# ---------------------------------------------------------------------------
# eigen solvers


@dataclass(frozen=True, eq=False)
class GapResult:
    """The gap of -L on one basis, and how it was found.

    method holds per sector the path that solved it: "dense" (every
    eigenvalue, np.linalg.eigvals), "contour" (the verified eigenvalues
    inside contour_gap's ellipse) or "empty" (none inside).  eigenvalues are
    the eigenvalues so computed, sector by sector, and eig_count_checked
    counts them.  base_gap is the gap contour_gap started from (None without
    one); guard says rung_gap then solved every sector of this rung dense.
    """

    gap: float
    eigenvalues: Array  # each sector's in LAPACK order (dense) or contour order, sector by sector
    norm1: float  # ||L||_1; eps * norm1 is the backward-error scale of the eigensolve
    sector: str = "all"  # the sector holding the gap, the parity of the slowest mode
    method: dict = field(default_factory=dict)
    base_gap: float | None = None
    guard: bool = False
    passes: dict = field(default_factory=dict)  # per sector, the passes its contour ran; 0 for none

    @property
    def eig_count_checked(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def converged(self) -> bool:
        """The gap moved from its base gap by at most CONVERGENCE_RTOL; False with no base."""
        return self.base_gap is not None and abs(self.gap - self.base_gap) <= CONVERGENCE_RTOL * abs(self.base_gap)


def _gap_of_operator(neg_op: Array) -> Array:
    """Every eigenvalue of -L (or one sector of it) by NumPy's dense eigensolve, which holds the GIL throughout."""
    try:
        return np.linalg.eigvals(neg_op).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue solver failed: {exc}") from exc


def spectral_gap(asm: GeneratorAssembly) -> GapResult:
    """The gap of the assembly's generator at its own friction, every sector solved dense (contour_gap)."""
    return contour_gap(reduced_generator(asm.basis), asm.gamma, None)


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
    one solution per shift, which moments sums with weights over the shifts:
    fewer Python steps and longer NumPy calls per shift (CONTOUR_CHUNK_BYTES).
    A real mu keeps every factor real.
    With a complex mu, each product with a real B_n runs as one real product
    on the float64 view of its complex operand, half the arithmetic of a
    complex one.
    """

    blocks: LevelBlocks
    inv: list[Array]  # S_n^{-1}, shape mu.shape + (k_n, k_n)

    def solve(self, v: Array) -> Array:
        """(-L - mu)^{-1} v for v of shape (k, columns): shape mu.shape + (k, columns).  (-L^T - mu)^{-1} v is
        J solve(J v), J = blocks.reversal."""
        start, couplings, top = self.blocks.start, self.blocks.couplings, len(self.inv) - 1
        lev = [slice(start[n], start[n + 1]) for n in range(top + 1)]
        x = np.empty(self.inv[0].shape[:-2] + v.shape, np.result_type(self.inv[0], v))
        # backward: x_n = S_n^{-1} w_n, w_n the right-hand side once level n + 1 is eliminated
        for n in range(top, -1, -1):
            w = v[lev[n]] if n == top else v[lev[n]] - _real_times(couplings[n].T, x[..., lev[n + 1], :])
            x[..., lev[n], :] = self.inv[n] @ w
        for n in range(1, top + 1):  # forward: x_n = S_n^{-1} (w_n + B_n x_{n-1})
            xn = x[..., lev[n], :]
            xn += self.inv[n] @ _real_times(couplings[n - 1], x[..., lev[n - 1], :])
        return x

    def moments(self, v: Array, weights: Array) -> Array:
        """sum_j weights[p, j] (-L - mu_j)^{-1} v over the shifts mu_j, weights of shape (p,) + mu.shape:
        shape (p, k, columns)."""
        w = weights.reshape(weights.shape[0], -1)
        return (w @ self.solve(v).reshape(w.shape[1], -1)).reshape(weights.shape[:1] + v.shape)


def _real_times(b: Array, x: Array) -> Array:
    """b @ x for a real b; a complex x (last axis contiguous) is multiplied as its float64 view."""
    if x.dtype.kind != "c":
        return b @ x
    return (b @ x.view(np.float64)).view(np.complex128)


def hermite_chain(blocks: LevelBlocks, mu) -> HermiteChain:
    """Factor -L - mu for a shift (or an array of shifts) mu; raises LinAlgError on a singular pivot."""
    mu = np.asarray(mu)
    top = len(blocks.diags) - 1
    inv = [None] * (top + 1)
    for n in range(top, -1, -1):
        k = blocks.diags[n].size
        if n == top:
            pivot = np.zeros(mu.shape + (k, k), np.result_type(mu, float))
        elif np.iscomplexobj(mu):  # B^T S^{-1} B as (B^T (B^T S^{-1})^T)^T: two real-left products
            bt = blocks.couplings[n].T
            pivot = _real_times(bt, np.ascontiguousarray(_real_times(bt, inv[n + 1]).swapaxes(-1, -2)))
            pivot = pivot.swapaxes(-1, -2)
        else:
            pivot = blocks.couplings[n].T @ (inv[n + 1] @ blocks.couplings[n])
        np.einsum("...ii->...i", pivot)[...] += blocks.diags[n] - mu[..., None]  # the diagonal as a strided view
        inv[n] = np.linalg.inv(pivot)
    return HermiteChain(blocks, inv)


# Trapezoid nodes on the contour's ellipse; only the upper half is solved: 8 shifts, which
# every pass of the filter reuses.
CONTOUR_NODES = 16
# Passes of the filter a sector's contour may run before it goes dense: after p passes an
# eigenvalue outside at elliptic radius r leaks like r^(-CONTOUR_NODES p), so the cap damps
# like one 64-node rule.
CONTOUR_PASSES = 4
# Pivot inverses one chain of contour shifts may hold (contour_batch), which is also what a
# contour keeps between its passes: all 8 shifts on the Kq16/Np32 sectors (139 kB each), 4 at
# Kq24/Np48 (461 kB), 1 above 2 MiB.  A larger batch makes fewer, longer LAPACK/BLAS calls and
# fewer Python steps per shift, which pays on one thread: one Kq16/Np32 sector contour settled
# by a 32-node rule took 25.8 ms at 1 shift per chain and 14.5 ms at 8.
CONTOUR_CHUNK_BYTES = 2 * 2**20
CONTOUR_PROBES = 16  # columns of the probe block
CONTOUR_SEED = 2024  # seed of the probe block, so reruns are bitwise identical
CONTOUR_RANK_TOL = 1e-12  # singular values of the zeroth moment kept, relative to the largest
CONTOUR_RESIDUAL_TOL = 1e-10  # ||(-L - mu) v|| / (||L||_1 ||v||) a candidate eigenpair must reach
# Sectors with fewer coordinates are solved dense at once: one BLAS thread, cosine and
# double_well, a dense sector and its contour cost the same near 210 coordinates
# (Kq10/Np20; 12 against 19-23 ms per scan rung at 136, 74-92 against 45-54 at 300).
DENSE_SECTOR_MAX = 200
CONVERGENCE_RTOL = 0.01  # relative change between a gap and its refinement read as converged
GAP_ROUNDOFF_MARGIN = 1e3  # a gap must exceed its roundoff floor this many times


def gap_roundoff_floor(norm1: float) -> float:
    """The level a gap of an operator with 1-norm norm1 must exceed to be read as above roundoff.

    Near-zero friction leaves a gap at roundoff level, of either sign;
    eps ||L||_1 is the backward-error scale of the dense eigensolve, and a gap
    a few times above it still moves by ~1e-2 between solves.
    """
    return GAP_ROUNDOFF_MARGIN * np.finfo(float).eps * norm1


def require_gap_above_roundoff(res: GapResult) -> None:
    """Raise NumericalFailureError unless the gap of res is above its roundoff floor (gap_roundoff_floor)."""
    floor = gap_roundoff_floor(res.norm1)
    if not res.gap > floor:
        raise NumericalFailureError(f"computed gap {res.gap:.3g} is not positive above roundoff margin {floor:.3g}")


def contour_batch(blocks: LevelBlocks) -> int:
    """Shifts one chain of a sector's contour factors at once: the largest power of two, at most
    CONTOUR_NODES / 2, whose complex pivot inverses fit in CONTOUR_CHUNK_BYTES; at least 1.  At
    CONTOUR_NODES / 2 one chain holds every shift of the rule, and every pass of the filter solves on it."""
    per_shift = 16 * sum(d.size**2 for d in blocks.diags)
    fits = min(CONTOUR_NODES // 2, max(1, CONTOUR_CHUNK_BYTES // per_shift))
    return 1 << (fits.bit_length() - 1)


def _contour_sector_eigs(blocks: LevelBlocks, center: float, a: float, b: float, norm1: float,
                         passes_run: list | None = None) -> Array | None:
    """The eigenvalues of -L inside the ellipse, each verified, or None where the contour cannot tell.

    The filters F_m(-L) X = (1 / 2 pi i) \\oint (z - center)^m (-L - z)^{-1} X dz, m = 0, 1, are
    summed by the CONTOUR_NODES-node trapezoid rule on z = center + a cos t + i b sin t,
    t = 2 pi (j + 1/2) / CONTOUR_NODES.  -L and X are real, so the node mirrored below the
    axis adds -conj(Y dz) to Y dz, and only the CONTOUR_NODES / 2 upper shifts are solved.

    Passes of the same filter.  Each of up to CONTOUR_PASSES passes filters the block the one
    before produced, starting from the seeded probe block V: A_1 = F_1(-L) A_0 and A_0 <- F_0(-L) A_0,
    so A_0 is F_0^p V after pass p, never re-orthonormalized.  An eigenvalue outside the ellipse
    at elliptic radius r leaks like r^(-CONTOUR_NODES p).  Every pass solves on the shifts the
    first one factored: the chain of its last batch is kept, and the next pass runs the batches
    in reverse order, so a rule solved in one chain (contour_batch) is factored once, and at most
    one chain's pivot inverses are alive at any moment.  A sector no pass settles gives None.

    After each pass, an A_0 whose largest singular value is at most CONTOUR_RANK_TOL ||V||_2
    holds no eigenvalue inside and gives an empty array.  Like the ellipse, that is a heuristic:
    an eigenvalue inside with a tiny projection on V would not be seen.  Otherwise A_0's rank k
    counts its singular values above CONTOUR_RANK_TOL times the largest.  The pass settles the
    sector when k < CONTOUR_PROBES (at k = CONTOUR_PROBES the probe block may be saturated) and
    _verified_ritz_values finds Ritz values of -L on span[A_0, A_1] inside the ellipse, each
    passing its residual test against norm1 = ||L||_1 of the sector.  passes_run, when given,
    gets one entry per pass run.
    """
    a0 = np.random.default_rng(CONTOUR_SEED).standard_normal((int(blocks.start[-1]), CONTOUR_PROBES))  # V
    empty_below = CONTOUR_RANK_TOL * np.linalg.norm(a0, 2)
    t = 2.0 * math.pi * (np.arange(CONTOUR_NODES // 2) + 0.5) / CONTOUR_NODES
    z = center + a * np.cos(t) + 1j * b * np.sin(t)
    dz = (2.0 / CONTOUR_NODES) * (-a * np.sin(t) + 1j * b * np.cos(t))
    weights = np.stack([dz, (z - center) * dz])
    batch = contour_batch(blocks)
    parts = [slice(lo, lo + batch) for lo in range(0, z.size, batch)]
    chain = None
    for p in range(CONTOUR_PASSES):
        if passes_run is not None:
            passes_run.append(p + 1)
        filtered = np.zeros((2,) + a0.shape)  # A_0 and A_1
        for i, part in enumerate(parts):
            if p == 0 or i > 0:  # the first batch of a later pass is the chain the pass before kept
                chain = None  # its pivot inverses go before the next chain's are formed
                try:
                    chain = hermite_chain(blocks, z[part])
                except np.linalg.LinAlgError:
                    return None
            filtered += chain.moments(a0, weights[:, part]).imag
        parts.reverse()
        a0 = filtered[0].copy()  # so the next pass holds no A_1 beside its own
        sv = np.linalg.svd(a0, compute_uv=False)
        if sv[0] <= empty_below:
            return np.empty(0, complex)
        if np.count_nonzero(sv > CONTOUR_RANK_TOL * sv[0]) < CONTOUR_PROBES:
            lam = _verified_ritz_values(blocks, np.hstack(filtered), center, a, b, norm1)
            if lam is not None:
                return lam
    return None


def _verified_ritz_values(blocks: LevelBlocks, span: Array, center: float, a: float, b: float,
                          norm1: float) -> Array | None:
    """The Ritz values of -L on span's columns inside the ellipse, or None when none lies inside or one fails
    its residual ||(-L - lam) x|| <= CONTOUR_RESIDUAL_TOL norm1 ||x||.

    Rayleigh-Ritz on an orthonormal basis Q of the span, its singular values
    cut at CONTOUR_RANK_TOL times the largest: the eigenpairs (lam, y) of
    Q^T (-L Q) give x = Q y.  Unlike eigenvalues read off the moments
    (Beyn's method), Ritz pairs need only the right subspace, not a sharp
    filter.
    """
    q, s, _ = np.linalg.svd(span, full_matrices=False)
    q = q[:, : np.count_nonzero(s > CONTOUR_RANK_TOL * s[0])]
    lq = blocks.matvec(q)
    lam, y = np.linalg.eig(q.T @ lq)
    inside = ((lam.real - center) / a) ** 2 + (lam.imag / b) ** 2 < 1.0
    if not inside.any():
        return None
    lam, y = lam[inside], y[:, inside]
    res = np.linalg.norm(lq @ y - (q @ y) * lam, axis=0)
    if np.any(res > CONTOUR_RESIDUAL_TOL * norm1 * np.linalg.norm(y, axis=0)):
        return None
    return lam


def _contour_ellipse(base: GapResult) -> tuple[float, float, float]:
    """(center, a, b) of contour_gap's ellipse around the gap g of base: its real axis spans 0.25-2.5 g, and its
    half-height b is 1.5 times the largest |Im| of the base eigenvalues with real part below 2 g, plus g, and at
    least the real semi-axis a."""
    g = base.gap
    a = 1.125 * g
    near = base.eigenvalues[base.eigenvalues.real < 2.0 * g]
    return 1.375 * g, a, max(1.5 * float(np.abs(near.imag).max(initial=0.0)) + g, a)


def contour_gap(red: ReducedGenerator, gamma: float, base: GapResult | None) -> GapResult:
    """The gap of -(L_ham + gamma L_FD) near a base gap, by a contour integral on Hermite chains.

    The one home of the refinement policy, which rung_gap and refined_gap
    read.  Meant for another basis than the one of `base`, a gap at the same
    friction; `converged` reads whether the gap moved by at most
    CONVERGENCE_RTOL.  Each sector finds the eigenvalues of -L inside an
    ellipse built from the base spectrum (_contour_ellipse) by a contour
    integral on its Hermite chains (_contour_sector_eigs): Rayleigh-Ritz on the
    probes the contour filters, in up to CONTOUR_PASSES passes of one
    CONTOUR_NODES-node trapezoid rule on the same factorizations; `passes`
    records per sector the passes its contour ran, 0 where none ran.  The
    ellipse is a heuristic built from the base
    spectrum, not a certificate, just like the CONVERGENCE_RTOL test: an
    eigenvalue of this basis outside it is not seen.  A sector with fewer
    than DENSE_SECTOR_MAX coordinates, where the dense solve is the cheaper
    one, and every sector when there is no base or the base gap is not above
    its roundoff floor (gap_roundoff_floor), is solved dense at once; with no
    base this is the dense gap, every eigenvalue of every sector, whose
    ||L||_1 is the largest sector 1-norm.  A sector the contour reads as empty
    (_contour_sector_eigs) is left out when another sector has a verified
    eigenvalue inside, and recorded `empty`.  A sector the contour cannot
    settle, or every sector when none has a verified eigenvalue inside, is
    solved dense; `method` records which path ran per sector.
    """
    blocks = [red.level_blocks(gamma, sector=s) for s in range(red.basis.n_sectors)]
    norm1 = [bl.norm1() for bl in blocks]
    found = [None] * len(blocks)
    passes_run = [[] for _ in blocks]  # per sector, one entry per pass its contour ran
    if base is not None and base.gap > gap_roundoff_floor(base.norm1):
        center, a, b = _contour_ellipse(base)
        found = [_contour_sector_eigs(bl, center, a, b, n1, r) if bl.start[-1] >= DENSE_SECTOR_MAX else None
                 for bl, n1, r in zip(blocks, norm1, passes_run)]
        if not any(x is not None and x.size for x in found):
            found = [None] * len(found)
    method = {}
    for s, name in enumerate(red.sector_names):
        method[name] = "dense" if found[s] is None else "contour" if found[s].size else "empty"
        if found[s] is None:
            found[s] = _gap_of_operator(blocks[s].dense())
    gaps = [float(x.real.min(initial=math.inf)) for x in found]
    best = int(np.argmin(gaps))
    eigs = np.concatenate(found)
    return GapResult(gaps[best], eigs, max(norm1), red.sector_names[best], method,
                     None if base is None else base.gap,
                     passes={name: len(r) for name, r in zip(red.sector_names, passes_run)})


def rung_ladder(basis: BasisSet) -> list[ReducedGenerator]:
    """The reduced generators rung_gap climbs: the basis's, then those of its successive halvings.

    Each rung halves Kq and Np of the one above, to at least 1 and 2, on the
    same grid.  The ladder ends at the first rung whose every sector is below
    DENSE_SECTOR_MAX, or where halving no longer shrinks the basis (Kq1/Np2).
    It is gamma-free: one ladder serves every friction of a scan.
    """
    ladder = [reduced_generator(basis)]
    while any(ladder[-1].sector_index(s).size >= DENSE_SECTOR_MAX for s in range(basis.n_sectors)):
        Kq, Np = max(1, basis.Kq // 2), max(2, basis.Np // 2)
        if (Kq, Np) == (basis.Kq, basis.Np):
            break
        basis = basis.resized(Kq, Np)
        ladder.append(reduced_generator(basis))
    return ladder


def rung_gap(ladder: list[ReducedGenerator], gamma: float) -> GapResult:
    """The gap of -(L_ham + gamma L_FD) on the top basis of a rung_ladder: a friction-scan rung, and `spectrum`'s gap.

    The bottom rung is solved dense, and each rung above it is contour_gap
    around the gap of the rung below.  Guard: when a rung's gap has not
    converged on the one below and some sector did not go dense, every
    sector of that rung is solved dense; that result keeps contour_gap's
    method and reads guard = True.  The result is the top rung's.
    """
    res = contour_gap(ladder[-1], gamma, None)
    for red in reversed(ladder[:-1]):
        res = contour_gap(red, gamma, res)
        if not (res.converged or set(res.method.values()) == {"dense"}):
            res = replace(contour_gap(red, gamma, None), method=res.method, passes=res.passes, guard=True)
    return res


def refined_gap(basis: BasisSet, gamma: float, base: GapResult) -> tuple[BasisSet, GapResult]:
    """`spectrum`'s convergence check: (finer basis, its gap near base) at 1.5 times Kq and Np.

    contour_gap with no guard: `converged` reports whether the gap moved,
    and a dense solve of the finer basis would cost several times the rest.
    """
    fine = basis.resized(math.ceil(1.5 * basis.Kq), math.ceil(1.5 * basis.Np))
    return fine, contour_gap(reduced_generator(fine), gamma, base)


# ---------------------------------------------------------------------------
# overdamped generator on the position factor


def _overdamped_reduced(basis: BasisSet) -> Array:
    """S = -(1/beta) M^T M, M = c_t q0: the overdamped generator -(1/beta) nabla* nabla on mean-zero position
    functions in the whitened frame, which no Np enters; refused when not finite (a cell too narrow for the floats).

    gamma times the Langevin generator's Schur complement on level 0 tends to S as gamma grows.  On a
    rank-cut basis M keeps only the kept directions of each derivative.
    """
    with np.errstate(all="ignore"):
        m = reduced_generator(basis).c_t_q0
        s = -(1.0 / basis.beta) * (m.T @ m)
    if not np.all(np.isfinite(s)):
        raise NumericalFailureError("overdamped operator is not finite on this cell")
    return s


def poincare_constant(basis: BasisSet) -> float:
    """Poincare constant of exp(-beta V): beta times the overdamped spectral gap.

    The first round runs on the basis, at any Np; each later round at 1.5
    times the Kq of the one before (BasisSet.resized, so a grid that
    resolves the weight stays in use), until the value changes by less than
    POINCARE_RTOL; the refined value is returned.
    """
    prev = None
    for _ in range(POINCARE_MAX_ROUNDS):
        if prev is not None:
            basis = basis.resized(math.ceil(1.5 * basis.Kq), 2)
        value = basis.beta * float(np.linalg.eigvalsh(-_overdamped_reduced(basis))[0])
        if prev is not None and abs(value - prev) <= POINCARE_RTOL * abs(value):
            return value
        prev = value
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


def semigroup_decay_check(basis: BasisSet, r_nu: float, times: Array) -> DecayCheckResult:
    """Check ||exp(t L_ovd)|| <= exp(-r_nu t / beta) on mean-zero functions, beta the basis's.

    Norms are gram-weighted operator norms of the matrix exponential on the
    constant-deflated space; the bound holds with prefactor exactly 1.  The
    reduced operator S is symmetric, so ||exp(t S)|| is exp(t lambda_max(S)),
    from one eigvalsh, and each ratio is exp(t (lambda_max(S) + r_nu / beta)),
    which no finite time makes NaN.  The slack is on the rate, so the verdict
    does not depend on how long the times are: ok when lambda_max(S) + r_nu / beta
    <= DECAY_TOL r_nu / beta, or when every time is 0.  Times must be finite and
    nonnegative, r_nu positive and finite.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise InvalidArgumentError("times must be a non-empty 1-D array of finite nonnegative values")
    if not 0 < r_nu < math.inf:
        raise InvalidArgumentError(f"r_nu must be positive and finite, got {r_nu}")
    lam = float(np.linalg.eigvalsh(_overdamped_reduced(basis))[-1])
    rate = r_nu / basis.beta
    with np.errstate(over="ignore"):  # a norm or ratio past the float maximum reads inf
        norms = np.exp(times * lam)
        bounds = np.exp(-r_nu * times / basis.beta)
        ratios = np.exp(times * (lam + rate))
    return DecayCheckResult(
        ok=bool(lam + rate <= DECAY_TOL * rate or not times.any()),
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
    refinement_steps: int = 0  # iterative-refinement steps, summed over the sectors (solve_poisson)


def _sigma2_from_pair(z_sol: Array, z_rhs: Array, mass_nu: float) -> float:
    sigma2 = 2.0 * float(z_sol @ z_rhs) / mass_nu
    if sigma2 < 0:
        scale = 2.0 * float(np.linalg.norm(z_sol) * np.linalg.norm(z_rhs)) / mass_nu
        if sigma2 < -1e-10 * max(scale, 1.0):
            raise NumericalFailureError(f"asymptotic variance came out negative: {sigma2}")
        sigma2 = 0.0
    return sigma2


def _lu_solve(neg_op: Array, rhs: Array) -> tuple[Array, Array, float]:
    """(z, -L z - rhs, ||L||_1) from one LU solve of -L z = rhs; an exactly zero pivot is a numerical failure."""
    with np.errstate(over="ignore"):  # a column sum past the float maximum is an infinite norm, as in LAPACK
        norm1 = float(np.abs(neg_op).sum(axis=0).max())
    try:
        z = np.linalg.solve(neg_op, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Poisson solve failed (singular operator): {exc}") from exc
    return z, neg_op @ z - rhs, norm1


def _relative_residual(res: Array, z_sol: Array, z_rhs: Array, norm1: float) -> float:
    """||res|| / (||L||_1 ||z|| + ||b||); a residual that is not finite is a numerical failure."""
    if not np.all(np.isfinite(res)):  # a z that is not finite leaves inf * 0 = nan in res
        raise NumericalFailureError("Poisson solve is not finite: its residual overflowed")
    scale = norm1 * _scaled_norm(z_sol) + _scaled_norm(z_rhs)
    return _scaled_norm(res) / scale if scale > 0 else 0.0


def _scaled_norm(x: Array) -> float:
    """||x||_2 taken on x / max|x|, so a vector near the float maximum keeps a finite norm."""
    big = float(np.abs(x).max(initial=0.0))
    return big * float(np.linalg.norm(x / big)) if big > 0 else 0.0


def _require_accurate(residual: float) -> float:
    """The relative residual of a Poisson solve; one above POISSON_RESIDUAL_TOL is a numerical failure."""
    if not residual <= POISSON_RESIDUAL_TOL:
        raise NumericalFailureError(
            f"Poisson solve is inaccurate: relative residual {residual:.3g} is above {POISSON_RESIDUAL_TOL:g}")
    return residual


def _refined_chain_solve(chain: HermiteChain, blocks: LevelBlocks, b: Array, norm1: float) -> tuple[Array, Array, int]:
    """The chain's solution z of -L z = b, its residual -L z - b and the refinement steps taken.

    A relative residual above POISSON_REFINE_ABOVE is refined on the chain's
    factors, z <- z - chain.solve(-L z - b), while it falls, at most
    POISSON_REFINE_STEPS times; a first step that does not lower it is a
    numerical failure.
    """
    z = chain.solve(b[:, None])[:, 0]
    res = blocks.matvec(z) - b
    residual, steps = _relative_residual(res, z, b, norm1), 0
    if residual > POISSON_REFINE_ABOVE:
        while steps < POISSON_REFINE_STEPS:
            z_new = z - chain.solve(res[:, None])[:, 0]
            res_new = blocks.matvec(z_new) - b
            residual_new = _relative_residual(res_new, z_new, b, norm1)
            if not residual_new < residual:
                break
            z, res, residual, steps = z_new, res_new, residual_new, steps + 1
        if steps == 0:
            raise NumericalFailureError(
                f"Poisson solve is inaccurate: relative residual {residual:.3g}, and iterative refinement "
                "does not lower it")
    return z, res, steps


def solve_poisson(asm: GeneratorAssembly, phi_coeffs: Array) -> PoissonResult:
    """Solve -(L_ham + gamma L_FD) Phi = (phi - mean phi) and report sigma^2.

    sigma^2 = 2 <Phi, phi - mean phi> under the normalized invariant measure.
    Each sector is solved by its Hermite chain at mu = 0 (hermite_chain), and
    the residual and ||L||_1 come from its level blocks, so no dense operator
    is built.  The chain makes no condition estimate, so a stiff but solvable
    operator (gamma near the float maximum) solves without a warning.  Near
    zero friction the chain loses accuracy roughly as 1/gamma, and a sector's
    solve is refined on its factors (_refined_chain_solve).  An exactly
    singular pivot, or a relative residual above POISSON_RESIDUAL_TOL, is a
    numerical failure.  A sector with a zero right-hand side solves to exact
    zeros.  Returns the solution's full-basis coefficients (mean-zero
    representative).
    """
    red = reduced_generator(asm.basis)
    z_rhs = red.to_reduced(phi_coeffs)
    z_sol, res = np.empty_like(z_rhs), np.empty_like(z_rhs)
    norm1, steps = 0.0, 0
    for s in range(asm.basis.n_sectors):
        idx = red.sector_index(s)
        blocks = red.level_blocks(asm.gamma, sector=s)
        sector_norm1 = blocks.norm1()
        try:
            with np.errstate(all="ignore"):  # a chain that overflows is refused by _relative_residual
                z_sol[idx], res[idx], sector_steps = _refined_chain_solve(
                    hermite_chain(blocks, 0.0), blocks, z_rhs[idx], sector_norm1)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"Poisson solve failed (singular pivot): {exc}") from exc
        norm1, steps = max(norm1, sector_norm1), steps + sector_steps
    residual = _require_accurate(_relative_residual(res, z_sol, z_rhs, norm1))
    return PoissonResult(red.to_full(z_sol), _sigma2_from_pair(z_sol, z_rhs, asm.basis.mass_nu), residual, steps)


def solve_poisson_overdamped(basis: BasisSet, phi_q_coeffs: Array) -> PoissonResult:
    """Overdamped counterpart of solve_poisson for position-only observables, on S of _overdamped_reduced."""
    z_rhs = basis.q0.T @ (basis.wq.T @ (basis.gram_q @ np.asarray(phi_q_coeffs, float)))
    z_sol, res, norm1 = _lu_solve(-_overdamped_reduced(basis), z_rhs)
    residual = _require_accurate(_relative_residual(res, z_sol, z_rhs, norm1))
    return PoissonResult(basis.wq @ (basis.q0 @ z_sol), _sigma2_from_pair(z_sol, z_rhs, basis.mass_nu), residual)


# ---------------------------------------------------------------------------
# projections


def hermite_values(n_levels: int, x: Array, scale: Array | float = 1.0) -> Array:
    """scale times the orthonormal probabilists' Hermite functions h_0..h_{n_levels-1} at x.

    The recurrence is linear, so it is seeded with scale: a scale that decays
    where h_n grows keeps the table finite where h_n alone would overflow.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, n_levels))
    out[:, 0] = scale
    if n_levels > 1:
        out[:, 1] = x * scale
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
# every weight comes back 0.0, from 372 on the weights are inf or nan.  Larger
# rules come from scipy.special.roots_hermitenorm, which stays finite.
GAUSS_HERMITE_MAX_NODES = 370


def _gauss_hermite(n: int) -> tuple[Array, Array]:
    """Nodes and weights of the n-node Gauss-Hermite rule for the weight exp(-x^2 / 2).

    NumPy's hermegauss up to GAUSS_HERMITE_MAX_NODES, so those bits do not
    move; SciPy's roots_hermitenorm above it.
    """
    if n <= GAUSS_HERMITE_MAX_NODES:
        return np.polynomial.hermite_e.hermegauss(n)
    from scipy.special import roots_hermitenorm  # imported here: no CLI start-up pays for scipy.special

    return roots_hermitenorm(n)


def project_phase_function(basis: BasisSet, f: Callable[[Array, Array], Array]) -> Array:
    """Gram-orthogonal projection of f(q, p) onto the tensor basis, (size,).

    f must broadcast over a (n_quad, 1) position array against a (1, n_gh)
    momentum array.  Momentum integrals use Gauss-Hermite quadrature with
    n_gh = Np + 8 nodes (_gauss_hermite).  The weighted table w h_n is built
    as sqrt(w) (sqrt(w) h_n), the Hermite recurrence seeded with sqrt(w): at
    the outer nodes h_n alone overflows from Np = 719, where w h_n is tiny.
    """
    n_gh = basis.Np + 8
    x, w = _gauss_hermite(n_gh)
    w = w / math.sqrt(2.0 * math.pi)  # weights of the standard Gaussian measure
    p = basis.sigma_p * x
    vals = np.asarray(f(basis.nodes[:, None], p[None, :]), dtype=float)
    if vals.shape != (basis.nodes.size, n_gh):
        raise InvalidArgumentError("f must broadcast to shape (n_quad, Np + 8)")
    sw = np.sqrt(w)
    wh = sw[:, None] * hermite_values(basis.Np, x, sw)  # (n_gh, Np)
    t = vals @ wh  # (n_quad, Np) momentum integrals
    rhs = basis.F.T @ (basis.weights[:, None] * t)  # (n_q, Np)
    coeffs = basis.wq @ (basis.wq.T @ rhs)  # (n_q, Np)
    return coeffs.T.reshape(-1)  # Hermite-major layout

