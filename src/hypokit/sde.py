"""Stochastic and Hamiltonian one-step integrators plus a trajectory driver.

Discretizations:

  * Langevin (kinetic): BAOAB splitting.  Half kick, half free flight, exact
    Ornstein-Uhlenbeck momentum refresh
        p <- c1 p + c2 xi,  c1 = exp(-gamma dt / m),
        c2 = sqrt((m/beta) (1 - c1^2)),
    half free flight, half kick.  One d-dimensional standard Gaussian vector
    is consumed per step.
  * Overdamped: Euler-Maruyama, q <- q - dt grad V + sqrt(2 dt / beta) xi.
  * Hamiltonian: velocity Verlet (kick-drift-kick), deterministic and
    time-reversible.

Each scheme's arithmetic lives in one step map (`_step_map`), which carries
the force grad V(q) from one step to the next.  The step functions apply it
once and `simulate` applies it in its single loop over noise rows, so a
trajectory is bitwise identical to repeated single steps.  The stochastic
steppers accept an optional `noise` array in place of an RngStream draw; that
hook lets tests drive the maps with frozen noise.

`simulate` records states (q and p rows, 16 d bytes per record) and then runs
each per-state observable once per record (8 bytes per record and observable);
vectorized callers pass none and read `TrajectoryRecord.q` and `.p`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .model import EnsembleParams, PhaseState, PotentialSpec

Array = np.ndarray

_NOISE_CHUNK = 16384  # steps of noise pre-drawn per block inside simulate

SCHEMES = ("langevin", "overdamped", "hamiltonian")


@dataclass
class RngStream:
    """Counter-based Gaussian stream: Philox keyed by (seed, stream_id).

    Uniform doubles come from numpy's Philox bit generator with key
    [seed mod 2^64, stream_id mod 2^64]; normals are produced by an explicit
    Box-Muller transform so the uniform->normal map is pinned by this module
    rather than by numpy's Generator internals.  For a request of n normals,
    k = ceil(n/2) pairs are formed from two consecutive blocks of k uniforms
    (u1 then u2, each drawn in one call):

        r = sqrt(-2 log(1 - u1)),  z[2i] = r cos(2 pi u2),  z[2i+1] = r sin(2 pi u2)

    and the first n values are returned in order.  Draw order is therefore a
    pure function of (seed, stream_id) and the sequence of request sizes.
    """

    seed: int
    stream_id: int = 0
    _uniforms: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        self._uniforms = np.random.Generator(np.random.Philox(key=key))

    def normal(self, shape=()) -> Array:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=int)) if shape else 1
        pairs = (n + 1) // 2
        u1 = self._uniforms.random(pairs)
        u2 = self._uniforms.random(pairs)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so log is finite
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        out = z[:n]
        return out.reshape(shape) if shape else out[0]


@dataclass(frozen=True)
class TrajectoryRecord:
    """States and observable samples of one trajectory, recorded every `stride` steps."""

    times: Array
    q: Array  # shape (n_records, d)
    p: Array  # shape (n_records, d)
    observable_values: Array  # shape (n_records, n_observables)
    final_state: PhaseState
    dt: float
    stride: int

    @property
    def spacing(self) -> float:
        return self.dt * self.stride


def _ou_coefficients(params: EnsembleParams, dt: float) -> tuple[float, float]:
    c1 = math.exp(-params.gamma * dt / params.mass)
    c2 = math.sqrt((params.mass / params.beta) * (1.0 - c1 * c1))
    return c1, c2


def _check_args(scheme: str, state: PhaseState, spec: PotentialSpec, params: EnsembleParams, dt: float, rng, noise,
                noise_shape: tuple) -> None:
    """Checks shared by `simulate` and the step functions."""
    if scheme not in SCHEMES:
        raise InvalidArgumentError(f"unknown scheme '{scheme}'; options: {', '.join(SCHEMES)}")
    if state.dim != spec.domain.dim:
        raise InvalidArgumentError(f"state dimension {state.dim} does not match domain dimension {spec.domain.dim}")
    if not dt > 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    if scheme == "langevin" and not params.gamma > 0:
        raise InvalidArgumentError("gamma must be positive for the langevin scheme")
    if scheme != "hamiltonian" and rng is None and noise is None:
        raise InvalidArgumentError("stochastic schemes need an RngStream or a noise array")
    if noise is not None and np.shape(noise) != noise_shape:
        raise InvalidArgumentError(f"noise must have shape {noise_shape}")


def _step_map(scheme: str, spec: PotentialSpec, params: EnsembleParams, dt: float):
    """The scheme's one-step map advance(q, p, g, xi) -> (q, p, g).

    g = grad V(q) is carried from one step to the next, so each step evaluates
    the force once.  xi is the step's standard Gaussian row; the hamiltonian
    map ignores it.  Overdamped dynamics returns p unchanged.
    """
    grad, wrap = spec.grad, spec.domain.wrap
    half_dt = 0.5 * dt
    if scheme == "langevin":
        c1, c2 = _ou_coefficients(params, dt)
        half_fl = 0.5 * dt / params.mass

        def advance(q, p, g, xi):
            p = p - half_dt * g
            q = q + half_fl * p
            p = c1 * p + c2 * xi
            q = wrap(q + half_fl * p)
            g = grad(q)
            return q, p - half_dt * g, g

    elif scheme == "overdamped":
        amp = math.sqrt(2.0 * dt / params.beta)

        def advance(q, p, g, xi):
            q = wrap(q - dt * g + amp * xi)
            return q, p, grad(q)

    else:
        drift = dt / params.mass

        def advance(q, p, g, xi):
            p = p - half_dt * g
            q = wrap(q + drift * p)
            g = grad(q)
            return q, p - half_dt * g, g

    return advance


def _one_step(scheme, state, spec, params, dt, rng, noise) -> PhaseState:
    # Verlet is reversible, so a hamiltonian step may run backwards: only |dt| > 0.
    _check_args(scheme, state, spec, params, abs(dt) if scheme == "hamiltonian" else dt, rng, noise, state.q.shape)
    if scheme == "hamiltonian":
        xi = None
    else:
        xi = np.asarray(noise, dtype=float) if noise is not None else rng.normal(state.q.shape)
    q, p, _ = _step_map(scheme, spec, params, dt)(state.q, state.p, spec.grad(state.q), xi)
    return PhaseState(q, p.copy() if p is state.p else p)


def step_langevin(
    state: PhaseState,
    spec: PotentialSpec,
    params: EnsembleParams,
    dt: float,
    rng: RngStream | None = None,
    noise: Array | None = None,
) -> PhaseState:
    """One BAOAB step of kinetic Langevin dynamics."""
    return _one_step("langevin", state, spec, params, dt, rng, noise)


def step_overdamped(
    state: PhaseState,
    spec: PotentialSpec,
    params: EnsembleParams,
    dt: float,
    rng: RngStream | None = None,
    noise: Array | None = None,
) -> PhaseState:
    """One Euler-Maruyama step of overdamped Langevin dynamics (p untouched)."""
    return _one_step("overdamped", state, spec, params, dt, rng, noise)


def step_hamiltonian(
    state: PhaseState,
    spec: PotentialSpec,
    params: EnsembleParams,
    dt: float,
) -> PhaseState:
    """One velocity-Verlet step; deterministic, reversible under dt -> -dt."""
    return _one_step("hamiltonian", state, spec, params, dt, None, None)


def simulate(
    init: PhaseState,
    n_steps: int,
    stride: int,
    dt: float,
    scheme: str,
    observables: Sequence[Callable[[PhaseState], float]],
    spec: PotentialSpec,
    params: EnsembleParams,
    rng: RngStream | None = None,
    noise: Array | None = None,
) -> TrajectoryRecord:
    """Run one trajectory, recording the state at step 0 and every `stride` steps.

    Each observable then runs once per record, on read-only views of its rows.

    `noise`, if given, must have shape (n_steps, d) and replaces the rng draws
    (test hook; the stochastic schemes consume exactly one row per step).
    Every step goes through the scheme's step map, so a trajectory is bitwise
    identical to calling the matching step function repeatedly with the same
    noise rows.
    """
    d = init.dim
    _check_args(scheme, init, spec, params, dt, rng, noise, (n_steps, d))
    if n_steps < 1 or stride < 1:
        raise InvalidArgumentError("n_steps and stride must be >= 1")

    if scheme == "hamiltonian":
        rows = itertools.repeat(None, n_steps)
    elif noise is not None:
        rows = np.asarray(noise, dtype=float)
    else:  # drawn lazily in chunks of _NOISE_CHUNK steps
        rows = itertools.chain.from_iterable(
            rng.normal((min(_NOISE_CHUNK, n_steps - done), d)) for done in range(0, n_steps, _NOISE_CHUNK)
        )

    q = spec.domain.wrap(init.q.astype(float, copy=True))
    p = init.p.astype(float, copy=True)
    g = spec.grad(q)
    advance = _step_map(scheme, spec, params, dt)

    n_records = n_steps // stride + 1
    try:
        qs, ps = np.empty((n_records, d)), np.empty((n_records, d))
    except MemoryError as exc:
        raise InvalidArgumentError(
            f"cannot allocate {16 * d * n_records} bytes of records for n_steps={n_steps} at stride={stride}"
        ) from exc
    qs[0], ps[0] = q, p
    for step, xi in enumerate(rows, 1):
        q, p, g = advance(q, p, g, xi)
        if step % stride == 0:
            qs[step // stride], ps[step // stride] = q, p

    qs.flags.writeable = ps.flags.writeable = False
    values = np.empty((n_records, len(observables)))
    if observables:
        for row, s in enumerate(map(PhaseState, qs, ps)):
            values[row] = [f(s) for f in observables]

    return TrajectoryRecord(
        times=np.arange(n_records) * (stride * dt),
        q=qs,
        p=ps,
        observable_values=values,
        final_state=PhaseState(q, p),
        dt=dt,
        stride=stride,
    )
