import dataclasses
import math

import numpy as np
import pytest

from hypokit import (
    EnsembleParams,
    InvalidArgumentError,
    PhaseState,
    RngStream,
    builtin_potential,
    eval_hamiltonian,
    simulate,
    step_hamiltonian,
    step_langevin,
    step_overdamped,
)
from hypokit import sde
from hypokit.sde import _ou_coefficients


@pytest.fixture()
def ou_setup():
    spec = builtin_potential("quadratic", {"omega": 1.0})
    params = EnsembleParams(beta=1.0, mass=1.0, gamma=2.0)
    return spec, params


def test_baoab_single_step_matches_hand_rolled(ou_setup):
    """One forced-noise step against the B-A-O-A-B composition done by hand."""
    spec, params = ou_setup
    dt = 0.1
    state = PhaseState(np.array([0.1]), np.array([-0.2]))
    out = step_langevin(state, spec, params, dt, noise=np.array([0.3]))

    q, p = 0.1, -0.2
    p -= 0.5 * dt * q          # half kick, V' = q
    q += 0.5 * dt * p
    c1 = math.exp(-params.gamma * dt / params.mass)
    c2 = math.sqrt((params.mass / params.beta) * (1.0 - c1 * c1))
    p = c1 * p + c2 * 0.3      # exact OU
    q += 0.5 * dt * p
    p -= 0.5 * dt * q
    assert out.q[0] == q and out.p[0] == p


def test_ou_coefficients_limits():
    c1, c2 = _ou_coefficients(EnsembleParams(beta=1.0, mass=1.0, gamma=0.0), 0.1)
    assert c1 == 1.0 and c2 == 0.0  # gamma=0 degenerates to no thermostat
    c1, c2 = _ou_coefficients(EnsembleParams(beta=0.5, mass=2.0, gamma=3.0), 0.25)
    assert c1 == pytest.approx(math.exp(-3.0 * 0.25 / 2.0))
    # fluctuation-dissipation: c1^2 + (beta/m) c2^2 = 1
    assert c1 * c1 + (0.5 / 2.0) * c2 * c2 == pytest.approx(1.0, abs=1e-15)


def test_em_overdamped_step(ou_setup):
    spec, _ = ou_setup
    params = EnsembleParams(beta=2.0, mass=1.0, gamma=1.0)
    state = PhaseState(np.array([0.5]), np.array([0.0]))
    out = step_overdamped(state, spec, params, 0.01, noise=np.array([1.0]))
    want = 0.5 - 0.01 * 0.5 + math.sqrt(2 * 0.01 / 2.0) * 1.0
    assert out.q[0] == pytest.approx(want, abs=1e-16)
    assert out.p[0] == 0.0


def test_verlet_is_time_reversible(ou_setup):
    spec, params = ou_setup
    s = PhaseState(np.array([0.3]), np.array([0.7]))
    fwd = s
    for _ in range(50):
        fwd = step_hamiltonian(fwd, spec, params, 0.01)
    back = PhaseState(fwd.q, -fwd.p)
    for _ in range(50):
        back = step_hamiltonian(back, spec, params, 0.01)
    assert back.q[0] == pytest.approx(0.3, abs=1e-12)
    assert back.p[0] == pytest.approx(-0.7, abs=1e-12)


def test_verlet_energy_error_scales_dt_squared(ou_setup):
    spec, params = ou_setup
    errs = []
    for dt in (0.02, 0.01, 0.005):
        s = PhaseState(np.array([1.0]), np.array([0.0]))
        e0 = eval_hamiltonian(spec, params, s)
        n = int(round(5.0 / dt))
        for _ in range(n):
            s = step_hamiltonian(s, spec, params, dt)
        errs.append(abs(eval_hamiltonian(spec, params, s) - e0))
    slope = np.polyfit(np.log([0.02, 0.01, 0.005]), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_rng_reproducible_and_streams_differ():
    a = RngStream(seed=123, stream_id=0).normal((64,))
    b = RngStream(seed=123, stream_id=0).normal((64,))
    c = RngStream(seed=123, stream_id=1).normal((64,))
    d = RngStream(seed=124, stream_id=0).normal((64,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_box_muller_layout():
    """Documented draw order: a block of u1, a block of u2, cos/sin interleaved."""
    import numpy.random as npr

    n = 10
    pairs = (n + 1) // 2
    raw = npr.Generator(npr.Philox(key=[5, 0])).random(2 * pairs)
    u1, u2 = raw[:pairs], raw[pairs:]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    want = np.empty(2 * pairs)
    want[0::2] = r * np.cos(2.0 * math.pi * u2)
    want[1::2] = r * np.sin(2.0 * math.pi * u2)
    got = RngStream(seed=5).normal((n,))
    assert np.array_equal(got, want[:n])


def test_rng_normal_moments_sane():
    z = RngStream(seed=99).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert z.std() == pytest.approx(1.0, abs=0.01)
    assert abs((z**3).mean()) < 0.02


def test_simulate_record_shape_and_times(ou_setup):
    spec, params = ou_setup
    rec = simulate(
        PhaseState(np.array([0.0]), np.array([0.0])),
        n_steps=100, stride=10, dt=0.01, scheme="langevin",
        spec=spec, params=params, rng=RngStream(1),
    )
    assert rec.q.shape == rec.p.shape == (11, 1)
    assert rec.times.shape == (11,)
    assert np.allclose(np.diff(rec.times), 0.1)
    assert rec.spacing == pytest.approx(0.1)


SEPARABLE_2D = {"parts": [{"name": "cosine", "params": {"h": 1.0, "L": 1.0}},
                          {"name": "cosine", "params": {"h": 0.5, "L": 1.0, "modes": 2}}]}
STEPS = {"langevin": step_langevin, "overdamped": step_overdamped, "hamiltonian": step_hamiltonian}


@pytest.mark.parametrize("scheme, dim", [
    pytest.param(scheme, dim, id=scheme if dim == 1 else f"{scheme}-2d") for dim in (1, 2) for scheme in STEPS
])
def test_simulate_matches_repeated_single_steps(ou_setup, scheme, dim):
    """The chunked-noise driver must be bitwise identical to naive stepping."""
    spec, params = ou_setup
    q0, p0 = np.array([0.2]), np.array([-0.1])
    if dim == 2:
        spec = builtin_potential("separable", SEPARABLE_2D)
        q0, p0 = np.array([0.2, 0.7]), np.array([-0.1, 0.4])
    rec = simulate(
        PhaseState(q0, p0), n_steps=257, stride=1, dt=0.05, scheme=scheme, spec=spec, params=params,
        rng=RngStream(seed=777, stream_id=3),
    )
    noise = RngStream(seed=777, stream_id=3).normal((257, dim))
    s = PhaseState(q0, p0)
    states = [s]
    for k in range(257):
        if scheme == "hamiltonian":
            s = step_hamiltonian(s, spec, params, 0.05)
        else:
            s = STEPS[scheme](s, spec, params, 0.05, noise=noise[k])
        states.append(s)
    assert np.array_equal(rec.q, [s.q for s in states]) and np.array_equal(rec.p, [s.p for s in states])
    assert np.array_equal(rec.final_state.q, s.q) and np.array_equal(rec.final_state.p, s.p)


def test_simulate_observables_see_read_only_rows(ou_setup):
    spec, params = ou_setup
    rec = simulate(PhaseState(np.array([0.1]), np.array([0.0])), 10, 1, 0.01, "langevin", spec, params,
                   rng=RngStream(1))
    for rows in (rec.q, rec.p):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


def test_simulate_noise_override_deterministic(ou_setup):
    spec, params = ou_setup
    noise = np.linspace(-1, 1, 20)[:, None]
    r1 = simulate(PhaseState(np.array([0.0]), np.array([0.0])), 20, 1, 0.01, "langevin", spec, params, noise=noise)
    r2 = simulate(PhaseState(np.array([0.0]), np.array([0.0])), 20, 1, 0.01, "langevin", spec, params, noise=noise)
    assert np.array_equal(r1.q, r2.q) and np.array_equal(r1.p, r2.p)


def test_simulate_validation(ou_setup):
    spec, params = ou_setup
    s0 = PhaseState(np.array([0.0]), np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        simulate(s0, 0, 1, 0.01, "langevin", spec, params, rng=RngStream(1))
    with pytest.raises(InvalidArgumentError):
        simulate(s0, 10, 1, -0.01, "langevin", spec, params, rng=RngStream(1))
    with pytest.raises(InvalidArgumentError):
        simulate(s0, 10, 1, 0.01, "bogus", spec, params, rng=RngStream(1))
    with pytest.raises(InvalidArgumentError):
        simulate(s0, 10, 1, 0.01, "langevin", spec, params)  # no rng, no noise


def test_langevin_needs_positive_friction(ou_setup):
    spec, _ = ou_setup
    params = EnsembleParams(beta=1.0, mass=1.0, gamma=0.0)
    with pytest.raises(InvalidArgumentError):
        step_langevin(PhaseState(np.array([0.0]), np.array([0.0])), spec, params, 0.01,
                      noise=np.array([0.0]))


def test_step_noise_must_match_the_state(ou_setup):
    # broadcasting a (3,) noise row would turn a 1-D walker into a 3-D one
    spec, params = ou_setup
    s0 = PhaseState(np.array([0.1]), np.array([0.2]))
    for step in (step_langevin, step_overdamped):
        with pytest.raises(InvalidArgumentError, match="noise must have shape"):
            step(s0, spec, params, 0.01, noise=np.zeros(3))


def test_momentum_marginal_variance():
    # the O-step alone must equilibrate p to variance m/beta
    spec = builtin_potential("flat", {"L": 1.0})
    params = EnsembleParams(beta=2.0, mass=3.0, gamma=1.5)
    rec = simulate(
        PhaseState(np.array([0.0]), np.array([0.0])),
        n_steps=200_000, stride=5, dt=0.05, scheme="langevin", spec=spec, params=params,
        rng=RngStream(31),
    )
    p2 = (rec.p[200:, 0] ** 2).mean()
    assert p2 == pytest.approx(params.mass / params.beta, rel=0.05)


@pytest.mark.parametrize("scheme", list(STEPS))
@pytest.mark.parametrize("name, params, dim", [
    ("cosine", {"h": 1.0, "L": 1.0}, 2),  # two walkers' worth of coordinates on a d = 1 potential
    ("cosine", {"h": 1.0, "L": 1.0, "d": 2}, 3),
    ("separable", SEPARABLE_2D, 1),
], ids=["d1-given-2", "d2-given-3", "separable-given-1"])
def test_step_rejects_a_state_of_another_dimension(scheme, name, params, dim):
    spec, params = builtin_potential(name, params), EnsembleParams()
    state = PhaseState(np.full(dim, 0.1), np.full(dim, 0.2))
    kwargs = {} if scheme == "hamiltonian" else {"rng": RngStream(1)}
    with pytest.raises(InvalidArgumentError, match=f"state dimension {dim} does not match domain dimension"):
        STEPS[scheme](state, spec, params, 0.01, **kwargs)


# ---------------------------------------------------------------------------
# the float path of simulate (1-D potentials with a scalar force grad1)

SCALAR_FORCE = {
    "flat": ("flat", {}),
    "quadratic": ("quadratic", {"omega": 1.3}),
    "quadratic-L14": ("quadratic", {"L": 14.0}),
    "double_well": ("double_well", {"a": 0.5, "b": 1.2}),
    "double_well-L4": ("double_well", {"L": 4.0}),
    "cosine": ("cosine", {"h": 1.0}),
    "cosine-h5-modes2-L2": ("cosine", {"h": 5.0, "modes": 2, "L": 2.0}),
}
TWO_CHUNKS = 2 * sde._NOISE_CHUNK + 3  # crosses both noise-chunk boundaries


@pytest.mark.parametrize("name, params", SCALAR_FORCE.values(), ids=SCALAR_FORCE.keys())
def test_scalar_force_matches_grad_bitwise(name, params):
    spec = builtin_potential(name, params)
    x = np.random.default_rng(11).uniform(-50.0, 50.0, 100_000)
    assert np.array_equal([spec.grad1(v) for v in x.tolist()], spec.grad(x[:, None])[:, 0])


@pytest.mark.parametrize("name, params", [
    ("flat", {"d": 2}), ("quadratic", {"d": 3}), ("cosine", {"d": 2}), ("separable", SEPARABLE_2D),
    ("separable", {"parts": [{"name": "cosine", "params": {}}]}),
], ids=["flat-d2", "quadratic-d3", "cosine-d2", "separable-d2", "separable-d1"])
def test_only_one_dimensional_builtins_carry_a_scalar_force(name, params):
    assert builtin_potential(name, params).grad1 is None


@pytest.mark.parametrize("scheme", list(STEPS))
@pytest.mark.parametrize("name, params", SCALAR_FORCE.values(), ids=SCALAR_FORCE.keys())
def test_float_path_is_bitwise_the_array_path(name, params, scheme):
    """simulate on floats (grad1 set) against simulate on (1,) arrays (grad1 removed)."""
    spec = builtin_potential(name, params)
    ensemble = EnsembleParams(beta=1.0, mass=0.7, gamma=1.5)
    init = PhaseState(np.array([0.3]), np.array([-0.4]))

    def run(s, stride, **noise):
        noise = noise or {"rng": RngStream(seed=41, stream_id=2)}
        return simulate(init, TWO_CHUNKS, stride, 0.01, scheme, s, ensemble, **noise)

    want = run(dataclasses.replace(spec, grad1=None), 1)
    runs = [(run(spec, 1), 1), (run(spec, 7), 7)]
    if scheme != "hamiltonian":  # the noise hook, fed the rng's own chunks
        rng = RngStream(seed=41, stream_id=2)
        chunks = [rng.normal((n, 1)) for n in (sde._NOISE_CHUNK, sde._NOISE_CHUNK, 3)]
        runs.append((run(spec, 1, noise=np.concatenate(chunks)), 1))
    for got, stride in runs:
        assert np.array_equal(got.q, want.q[::stride]) and np.array_equal(got.p, want.p[::stride])
        assert np.array_equal(got.final_state.q, want.final_state.q)
        assert np.array_equal(got.final_state.p, want.final_state.p)
        assert got.final_state.q.shape == got.final_state.p.shape == (1,)


def test_float_path_never_calls_the_array_force():
    calls = []
    spec = builtin_potential("cosine", {"h": 1.0})

    def counting_grad(q):
        calls.append(1)
        return spec.grad(q)

    rec = simulate(PhaseState(np.zeros(1), np.zeros(1)), 1000, 10, 0.01, "langevin",
                   dataclasses.replace(spec, grad=counting_grad), EnsembleParams(), rng=RngStream(5))
    assert not calls and rec.q.shape == (101, 1)


def test_one_part_separable_runs_on_the_array_path():
    spec = builtin_potential("separable", {"parts": [{"name": "cosine", "params": {"h": 1.0}}]})
    calls = []

    def counting_grad(q):
        calls.append(q.shape)
        return spec.grad(q)

    args = (PhaseState(np.array([0.2]), np.array([0.1])), 500, 5, 0.01, "langevin")
    rec = simulate(*args, dataclasses.replace(spec, grad=counting_grad), EnsembleParams(), rng=RngStream(5))
    assert calls == [(1,)] * 501  # the initial force, then one per step
    scalar = simulate(*args, builtin_potential("cosine", {"h": 1.0}), EnsembleParams(), rng=RngStream(5))
    assert np.array_equal(rec.q, scalar.q) and np.array_equal(rec.p, scalar.p)
