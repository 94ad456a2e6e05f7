"""Potentials, canonical-ensemble parameters, and phase-space states.

Positions live either on a flat d-torus of side length L (coordinates stored
in [0, L)) or on R^d; momenta always live on R^d.  The configurational weight
exp(-beta*V) is used unnormalized everywhere in the package: no algorithm ever
needs the partition function.

Potential callables follow a single vectorization contract:

    eval(q)    : (..., d) -> (...)
    grad(q)    : (..., d) -> (..., d)
    hessian(q) : (..., d) -> (..., d, d)

The last axis of q is the dimension d, also for d = 1: one point is a (d,)
array.  Every builtin is written once in this contract and does not check
shapes; a custom PotentialSpec must follow the same contract.  The entry points
that take states or grids (eval_hamiltonian, check_condition_constants,
simulate and the step functions in sde) check their dimension against the
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InvalidArgumentError

Array = np.ndarray


@dataclass(frozen=True)
class Torus:
    """Periodic box of side `length` in every one of `dim` directions."""

    length: float
    dim: int = 1

    def __post_init__(self):
        if not (self.length > 0 and math.isfinite(self.length)):
            raise InvalidArgumentError(f"torus length must be positive, got {self.length}")
        if self.dim < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.dim}")

    def wrap(self, q: Array) -> Array:
        return np.mod(q, self.length)


@dataclass(frozen=True)
class FullSpace:
    """Unbounded position space R^d."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.dim}")

    def wrap(self, q: Array) -> Array:
        return q


Domain = Union[Torus, FullSpace]


@dataclass(frozen=True)
class PotentialSpec:
    """A potential energy function bundled with its derivatives and domain."""

    domain: Domain
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    name: str = "custom"


@dataclass(frozen=True)
class EnsembleParams:
    """Canonical-ensemble parameters: inverse temperature, scalar mass, friction."""

    beta: float = 1.0
    mass: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidArgumentError(f"beta must be positive, got {self.beta}")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise InvalidArgumentError(f"mass must be positive, got {self.mass}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise InvalidArgumentError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class PhaseState:
    """One walker: position and momentum arrays of identical shape (d,)."""

    q: Array
    p: Array

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.ndim != 1 or p.shape != q.shape:
            raise InvalidArgumentError(
                f"q and p must be 1-D arrays of equal length, got {q.shape} and {p.shape}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def eval_hamiltonian(spec: PotentialSpec, params: EnsembleParams, state: PhaseState) -> float:
    """H(q, p) = V(q) + |p|^2 / (2m)."""
    if state.dim != spec.domain.dim:
        raise InvalidArgumentError(
            f"state dimension {state.dim} does not match domain dimension {spec.domain.dim}"
        )
    return float(spec.eval(state.q) + 0.5 * np.dot(state.p, state.p) / params.mass)


# ---------------------------------------------------------------------------
# builtin potentials


def _center_cell(q: Array, length: float) -> Array:
    """Wrap coordinates into the centered fundamental cell [-L/2, L/2)."""
    x = np.mod(q, length)
    return np.where(x >= 0.5 * length, x - length, x)


def _as_is(q: Array) -> Array:
    return q


def _cell(length, d: int) -> tuple[Domain, Callable[[Array], Array]]:
    """The domain and the coordinate map: R^d as it is, or the torus read on its centered cell."""
    if length is None:
        return FullSpace(d), _as_is
    length = float(length)
    return Torus(length, d), partial(_center_cell, length=length)


def _diag(values: Array) -> Array:
    """The (..., d, d) Hessian of a separable potential, from its (..., d) diagonal."""
    d = values.shape[-1]
    out = np.zeros(values.shape + (d,))
    idx = np.arange(d)
    out[..., idx, idx] = values
    return out


def _take(params: dict, key: str, default=None, required: bool = False):
    if key in params:
        return params.pop(key)
    if required:
        raise InvalidArgumentError(f"missing required potential parameter '{key}'")
    return default


def _reject_leftovers(name: str, params: dict) -> None:
    if params:
        raise InvalidArgumentError(f"unknown parameter(s) for potential '{name}': {sorted(params)}")


def _flat(params: dict) -> PotentialSpec:
    d = int(_take(params, "d", 1))
    length = float(_take(params, "L", 1.0))
    _reject_leftovers("flat", params)

    def eval_(q):
        return np.zeros(q.shape[:-1])

    def grad(q):
        return np.zeros(q.shape)

    def hessian(q):
        return _diag(grad(q))

    return PotentialSpec(Torus(length, d), eval_, grad, hessian, name="flat")


def _quadratic(params: dict) -> PotentialSpec:
    omega = float(_take(params, "omega", 1.0))
    d = int(_take(params, "d", 1))
    length = _take(params, "L", None)
    _reject_leftovers("quadratic", params)
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be positive, got {omega}")
    w2 = omega * omega
    dom, cell = _cell(length, d)

    def eval_(q):
        x = cell(q)
        return 0.5 * w2 * np.sum(x * x, axis=-1)

    def grad(q):
        return w2 * cell(q)

    def hessian(q):
        return _diag(np.full(q.shape, w2))

    tag = f"quadratic(omega={omega:g})" if length is None else f"quadratic(omega={omega:g}, L={dom.length:g})"
    return PotentialSpec(dom, eval_, grad, hessian, name=tag)


def _double_well(params: dict) -> PotentialSpec:
    a = float(_take(params, "a", 1.0))
    b = float(_take(params, "b", 1.0))
    length = _take(params, "L", None)
    _reject_leftovers("double_well", params)
    if not (a > 0 and b > 0):
        raise InvalidArgumentError(f"double_well needs a, b > 0, got a={a}, b={b}")
    dom, cell = _cell(length, 1)

    def eval_(q):
        x = cell(q)[..., 0]
        return a * (x * x - b * b) ** 2

    def grad(q):
        x = cell(q)
        return 4.0 * a * x * (x * x - b * b)

    def hessian(q):
        x = cell(q)
        return _diag(4.0 * a * (3.0 * x * x - b * b))

    return PotentialSpec(dom, eval_, grad, hessian, name=f"double_well(a={a:g}, b={b:g})")


def _cosine(params: dict) -> PotentialSpec:
    h = float(_take(params, "h", 1.0))
    modes = int(_take(params, "modes", 1))
    length = float(_take(params, "L", 1.0))
    d = int(_take(params, "d", 1))
    _reject_leftovers("cosine", params)
    if modes < 1:
        raise InvalidArgumentError(f"modes must be >= 1, got {modes}")
    dom = Torus(length, d)
    c = 2.0 * math.pi * modes / length

    def eval_(q):
        x = np.mod(q, length)
        return h * np.sum(np.cos(c * x), axis=-1)

    def grad(q):
        x = np.mod(q, length)
        return -h * c * np.sin(c * x)

    def hessian(q):
        x = np.mod(q, length)
        return _diag(-h * c * c * np.cos(c * x))

    return PotentialSpec(dom, eval_, grad, hessian, name=f"cosine(h={h:g}, modes={modes}, L={length:g})")


def _separable(params: dict) -> PotentialSpec:
    parts_in = _take(params, "parts", required=True)
    _reject_leftovers("separable", params)
    if not isinstance(parts_in, Sequence) or len(parts_in) < 1:
        raise InvalidArgumentError("separable needs a non-empty list of 1-D parts")
    parts = []
    for item in parts_in:
        if isinstance(item, PotentialSpec):
            spec = item
        elif isinstance(item, dict):
            spec = builtin_potential(item.get("name", ""), item.get("params", {}))
        else:
            raise InvalidArgumentError(f"separable parts must be PotentialSpec or dict, got {type(item)}")
        if spec.domain.dim != 1:
            raise InvalidArgumentError("separable parts must be one-dimensional")
        parts.append(spec)

    d = len(parts)
    if all(isinstance(s.domain, Torus) for s in parts):
        lengths = {s.domain.length for s in parts}
        if len(lengths) != 1:
            raise InvalidArgumentError("separable torus parts must share a single side length")
        dom: Domain = Torus(lengths.pop(), d)
    elif all(isinstance(s.domain, FullSpace) for s in parts):
        dom = FullSpace(d)
    else:
        raise InvalidArgumentError("separable parts must all live on the same domain type")

    # part i sees coordinate i as a (..., 1) array
    def eval_(q):
        return sum(s.eval(q[..., i : i + 1]) for i, s in enumerate(parts))

    def grad(q):
        return np.concatenate([s.grad(q[..., i : i + 1]) for i, s in enumerate(parts)], axis=-1)

    def hessian(q):
        return _diag(np.concatenate([s.hessian(q[..., i : i + 1])[..., 0] for i, s in enumerate(parts)], axis=-1))

    label = "separable(" + ", ".join(s.name for s in parts) + ")"
    return PotentialSpec(dom, eval_, grad, hessian, name=label)


_BUILDERS = {
    "flat": _flat,
    "quadratic": _quadratic,
    "double_well": _double_well,
    "cosine": _cosine,
    "separable": _separable,
}
BUILTIN_POTENTIALS = tuple(_BUILDERS)


def builtin_potential(name: str, params: dict | None = None) -> PotentialSpec:
    """Construct one of the named builtin potentials.

    flat(d, L)                 V = 0 on the torus
    quadratic(omega, d[, L])   V = omega^2 |q|^2 / 2; with L, evaluated on a
                               centered torus cell of length L (periodized)
    double_well(a, b[, L])     V = a (q^2 - b^2)^2, one-dimensional
    cosine(h, modes, L, d)     V = h * sum_i cos(2 pi modes q_i / L)
    separable(parts)           sum of independent 1-D potentials
    """
    if name not in _BUILDERS:
        raise InvalidArgumentError(
            f"unknown potential '{name}'; available: {', '.join(BUILTIN_POTENTIALS)}"
        )
    return _BUILDERS[name](dict(params or {}))


# ---------------------------------------------------------------------------
# structural condition constants


@dataclass(frozen=True)
class ConditionConstants:
    """Smallest grid-verified constants in the Laplacian/Hessian growth conditions."""

    c1: float
    c3: float
    feasible: bool


def check_condition_constants(
    spec: PotentialSpec,
    params: EnsembleParams,
    grid: Array,
    c2: float = 0.0,
) -> ConditionConstants:
    """Fit c1 and c3 on a grid of probe points.

    c1 is the smallest nonnegative constant with
        Lap V <= c1 * d + (c2 * beta / 2) |grad V|^2   on the grid,
    and c3 the smallest constant with
        |Hess V|_F <= c3 * sqrt(d + |grad V|^2)        on the grid.
    """
    if not 0.0 <= c2 <= 1.0:
        raise InvalidArgumentError(f"c2 must lie in [0, 1], got {c2}")
    d = spec.domain.dim
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d or pts.shape[0] < 1:
        raise InvalidArgumentError(f"grid must have shape (n, {d}) with n >= 1, got {pts.shape}")

    hess = spec.hessian(pts)
    grad = spec.grad(pts)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    g2 = np.sum(grad * grad, axis=-1)
    frob2 = np.sum(hess * hess, axis=(-2, -1))

    c1 = float(max(0.0, np.max((lap - 0.5 * c2 * params.beta * g2) / d)))
    c3 = float(np.max(np.sqrt(frob2 / (d + g2))))
    feasible = bool(np.isfinite(c1) and np.isfinite(c3))
    return ConditionConstants(c1=c1, c3=c3, feasible=feasible)


def torus_grid(domain: Torus, n_per_dim: int) -> Array:
    """Uniform tensor grid on the torus, shape (n_per_dim**d, d)."""
    if not isinstance(domain, Torus):
        raise InvalidArgumentError("torus_grid requires a Torus domain")
    if n_per_dim < 1:
        raise InvalidArgumentError("n_per_dim must be >= 1")
    g = np.arange(n_per_dim) * (domain.length / n_per_dim)
    axes = np.meshgrid(*([g] * domain.dim), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, domain.dim)
