"""End-to-end CLI checks: exit codes, report layout, CSV format, determinism."""

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypokit import EnsembleParams, PhaseState, RngStream, builtin_potential, cli, eval_hamiltonian, simulate, spectral
from hypokit.errors import InvalidArgumentError, NumericalFailureError
from hypokit.model import _center_cell
from hypokit.spectral import build_basis, project_phase_function, reduced_generator


def run(*argv):
    return cli.main([str(a) for a in argv])


SMALL_QUAD = [
    "--potential", "quadratic", "--param", "omega=1.0",
    "--Kq", "8", "--Np", "16", "--n-quad", "64",
]


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def read_report(path):
    """The report at path, parsed strictly: NaN and Infinity are refused."""
    with open(path) as fh:
        rep = json.load(fh, parse_constant=_refuse_constant)
    assert set(rep) == {"config", "results", "diagnostics", "version"}
    return rep


# ---------------------------------------------------------------------------
# happy paths


def test_spectrum_quadratic_gap(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", *SMALL_QUAD, "--gamma", "1.0", "--report", rep_path) == 0
    rep = read_report(rep_path)
    res = rep["results"]
    assert res["gap"] == pytest.approx(0.5, abs=1e-6)
    assert res["gamma"] == 1.0
    assert res["converged"] is True
    assert res["Kq"] == 8 and res["Np"] == 16
    # auto-embedding of the confining well picked the cell for us
    assert rep["config"]["potential"]["params"]["L"] == pytest.approx(14.0)


def test_spectrum_dump_eigs(tmp_path):
    rep_path, eig_path = tmp_path / "rep.json", tmp_path / "eigs.csv"
    assert run(
        "spectrum", *SMALL_QUAD, "--gamma", "1.0", "--no-check-convergence",
        "--dump-eigs", eig_path, "--report", rep_path,
    ) == 0
    rep = read_report(rep_path)
    body = eig_path.read_text().splitlines()
    assert body[0] == "real,imag"
    eigs = np.loadtxt(eig_path, delimiter=",", skiprows=1)
    assert eigs.shape == (rep["diagnostics"]["size"] - 1, 2)
    assert np.all(np.diff(eigs[:, 0]) >= -1e-12)  # sorted by real part
    assert eigs[0, 0] == pytest.approx(rep["results"]["gap"], abs=1e-9)


def test_dump_eigs_row_order_survives_roundoff():
    """Perturbing -L at 1e-14 relative leaves every --dump-eigs row in place.

    At Kq8/Np16 the cosine spectrum holds conjugate pairs whose real parts tie
    to roundoff; sorting on (real, imag) interleaved them differently on each
    of these perturbations.
    """
    from hypokit import EnsembleParams, builtin_potential
    from hypokit.spectral import build_basis, reduced_generator

    spec, params = builtin_potential("cosine", {"h": 1.0, "L": 1.0}), EnsembleParams()
    neg_op = reduced_generator(build_basis(spec, params, Kq=8, Np=16, n_quad=64)).neg_operator(1.0)
    norm1 = np.linalg.norm(neg_op, 1)

    def rows(op):
        eigs = np.linalg.eigvals(op)
        return eigs[cli._eig_row_order(eigs, norm1)]

    base = rows(neg_op)
    neg = np.nonzero(base.imag < 0)[0]
    assert np.array_equal(base[neg + 1], np.conj(base[neg]))  # each pair adjacent, negative first
    rng = np.random.default_rng(0)
    for _ in range(3):
        noise = rng.standard_normal(neg_op.shape)
        moved = rows(neg_op + noise * (1e-14 * norm1 / np.linalg.norm(noise, 1)))
        assert np.abs(moved - base).max() <= 1e-10 * norm1


@pytest.mark.parametrize("argv", [
    ["poincare", "--beta", "50", "--Kq", "4"],
    ["bounds", "--beta", "50", "--Kq", "4", "--Np", "12"],
    ["poisson", "--beta", "50", "--Kq", "6", "--Np", "8"],
    ["spectrum", "--beta", "50", "--Kq", "6", "--Np", "8"],
])
def test_near_singular_gram_is_cut_not_refused(argv, tmp_path):
    assert run(*argv, "--report", tmp_path / "rep.json") == 0


def test_rank_q_reports_the_kept_gram_directions(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", "--beta", "50", "--Kq", "4", "--Np", "8", "--report", rep_path) == 0
    assert read_report(rep_path)["diagnostics"]["rank_q"] == 7  # of 9
    for argv in (["spectrum", "--no-check-convergence"], ["poisson"], ["dissipation"], ["bounds"]):
        assert run(*argv, "--report", rep_path) == 0
        assert read_report(rep_path)["diagnostics"]["rank_q"] == 33  # all of 2 * 16 + 1


def test_large_potential_is_shifted_not_overflowed(tmp_path, recwarn):
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", "--param", "h=800", "--Kq", "4", "--Np", "8",
               "--no-check-convergence", "--report", rep_path) == 0
    assert not recwarn.list
    assert read_report(rep_path)["results"]["gap"] > 0


@pytest.mark.parametrize("h, extra", [("1e5", []), ("1e308", ["--no-check-convergence"])])
def test_unresolved_weight_exits_2(h, extra, capsys):
    # the weight is a spike on the 256-node grid; the Gram cut would keep only
    # the constant and report the Ornstein-Uhlenbeck gap gamma / m as a result
    assert run("spectrum", "--param", f"h={h}", "--Kq", "4", "--Np", "8", *extra) == 2
    assert "n_quad=256" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["poisson", "--observable", "p_squared"], ["bounds"]], ids=["poisson", "bounds"])
@pytest.mark.parametrize("n_p", [363, 400])
def test_gauss_hermite_rule_above_numpys_limit_solves(command, n_p, tmp_path, recwarn):
    # NumPy's hermegauss overflows from Np + 8 = 371 nodes; SciPy's rule takes over there
    rep_path = tmp_path / "rep.json"
    assert run(*command, "--Kq", "2", "--Np", n_p, "--report", rep_path) == 0
    results = read_report(rep_path)["results"]
    assert all(math.isfinite(v) for v in results.values() if isinstance(v, float)) and not recwarn.list
    if command[0] == "poisson":  # sigma^2 of p^2 is 2 m^2 / (beta^2 gamma) for any V
        assert results["sigma2"] == pytest.approx(2.0, rel=1e-12)


def test_weighted_hermite_table_stays_finite_where_the_functions_overflow(tmp_path, recwarn):
    # from Np = 719 h_n alone overflows at the outer nodes of the rule; the table is sqrt(w) (sqrt(w) h_n)
    rep_path = tmp_path / "rep.json"
    assert run("poisson", "--observable", "p_squared", "--Kq", "1", "--Np", "719", "--report", rep_path) == 0
    assert read_report(rep_path)["results"]["sigma2"] == pytest.approx(2.0, rel=1e-12) and not recwarn.list


def test_deep_well_is_resolved_on_a_finer_grid(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", "--param", "h=3000", "--Kq", "16", "--Np", "16", "--n-quad", "1024",
               "--report", rep_path) == 0
    assert read_report(rep_path)["results"]["gap"] == pytest.approx(0.500411, abs=1e-6)


def test_report_goes_to_stdout_without_flag(capsys):
    assert run("ode", "--gamma", "1.0", "--T", "5.0") == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"config", "results", "diagnostics", "version"}
    assert rep["results"]["gap"] == pytest.approx(0.5)


def test_ode_figure1_preset(tmp_path):
    rep_path, csv_path = tmp_path / "rep.json", tmp_path / "traj.csv"
    assert run("ode", "--figure1", "--out", csv_path, "--report", rep_path) == 0
    rep = read_report(rep_path)
    assert rep["results"]["gamma"] == 0.5
    assert rep["results"]["envelope_rate"] == pytest.approx(0.25, abs=0.01)
    assert rep["results"]["p_certificate"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,X1,X2"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0]


def test_ode_defective_friction_falls_back():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run("ode", "--gamma", "2.0", "--T", "5.0") == 0
    res = json.loads(buf.getvalue())["results"]
    assert res["defective"] is True
    assert res["perturbative_fallback"] is True
    assert res["min_eig_dissipation"] > 0


def test_sample_then_variance_roundtrip(tmp_path):
    csv_path = tmp_path / "samples.csv"
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(
        "sample", "--scheme", "langevin", "--dt", "0.05",
        "--n-steps", "20000", "--stride", "10",
        "--observable", "cos_q", "--observable", "p_squared",
        "--seed", "7", "--out", csv_path, "--report", rep1,
    ) == 0
    res = read_report(rep1)["results"]
    assert res["columns"] == ["time", "cos_q", "p_squared"]
    assert res["n_records"] == 2001  # step 0 plus every stride-th step
    assert res["spacing"] == pytest.approx(0.5)

    assert run(
        "variance", "--input", csv_path, "--column", "p_squared",
        "--method", "batch_means", "--batches", "20", "--report", rep2,
    ) == 0
    var = read_report(rep2)["results"]
    assert var["column"] == "p_squared"
    assert var["spacing"] == pytest.approx(0.5)  # inferred from the time column
    assert var["sigma2"] > 0
    # beta = mass = 1: <p^2> = 1 with sampling error well under 0.15
    assert var["mean"] == pytest.approx(1.0, abs=0.15)


def test_poisson_overdamped_flat(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run(
        "poisson", "--potential", "flat", "--param", "L=1.0",
        "--dynamics", "overdamped", "--observable", "cos_q",
        "--Kq", "8", "--n-quad", "64", "--report", rep_path,
    ) == 0
    res = read_report(rep_path)["results"]
    assert res["sigma2"] == pytest.approx(1.0 / (4 * math.pi**2), abs=1e-8)
    assert res["dynamics"] == "overdamped"


def test_poincare_flat(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run(
        "poincare", "--potential", "flat", "--param", "L=1.0",
        "--Kq", "8", "--report", rep_path,
    ) == 0
    res = read_report(rep_path)["results"]
    assert res["r_nu"] == pytest.approx(4 * math.pi**2, rel=1e-8)


def test_poincare_uses_the_grid_of_n_quad(tmp_path, capsys):
    """A weight that needs more than the default 256 nodes: poincare and bounds take the
    --n-quad that resolves it for spectrum, and bounds reads R from that grid."""
    deep = ["--param", "h=2000"]
    assert run("poincare", *deep) == 2
    assert "n_quad=256" in capsys.readouterr().err
    poincare_path, bounds_path = tmp_path / "poincare.json", tmp_path / "bounds.json"
    assert run("poincare", *deep, "--Kq", "8", "--n-quad", "8192", "--report", poincare_path) == 0
    assert run("bounds", *deep, "--Kq", "8", "--Np", "8", "--n-quad", "8192", "--report", bounds_path) == 0
    r_nu = read_report(poincare_path)["results"]["r_nu"]
    assert read_report(bounds_path)["results"]["r_nu"] == r_nu > 0


def test_scan_csv_and_report(tmp_path):
    rep_path, csv_path = tmp_path / "rep.json", tmp_path / "scan.csv"
    assert run(
        "scan", *SMALL_QUAD, "--gammas", "0.125:2.1:7", "--threads", "2",
        "--out", csv_path, "--report", rep_path,
    ) == 0
    res = read_report(rep_path)["results"]
    assert res["row_errors"] == {}
    assert len(res["rows"]) == 7
    assert res["lambda_bar"] == pytest.approx(0.5, abs=1e-6)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "gamma,gap,lower_model"
    assert len(lines) == 8
    methods = read_report(rep_path)["diagnostics"]["rung_methods"]
    assert [m["gamma"] for m in methods] == [row["gamma"] for row in res["rows"]]
    assert all(set(m) == {"gamma", "sectors", "guard"} and set(m["sectors"]) <= {"even", "odd"} for m in methods)
    assert all(path in {"contour", "empty", "dense"} for m in methods for path in m["sectors"].values())


class _RecordingPool:
    """A stand-in for ThreadPoolExecutor that records max_workers and runs every row on the calling thread."""

    seen: list = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, cores", [(10000, 3), (10000, 1), (2, 3), (3, 3)])
def test_scan_threads_are_capped_at_the_usable_cores(threads, cores, monkeypatch, caplog):
    """--threads above the cores this process may use runs that many threads, no more, and says so in one
    stderr line; no thread starts here, as the pool is a recording stand-in."""
    from hypokit import hypo

    monkeypatch.setattr(_RecordingPool, "seen", [])
    monkeypatch.setattr(hypo, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    caplog.set_level("INFO", logger="hypokit")
    assert run("scan", "--Kq", "4", "--Np", "8", "--n-quad", "64", "--threads", threads) == 0
    assert _RecordingPool.seen == [min(threads, cores)]
    capped = [r.getMessage() for r in caplog.records if "capped" in r.getMessage()]
    assert capped == ([f"--threads {threads} capped to the {cores} usable cores"] if threads > cores else [])


def test_quadratic_cell_follows_the_models_default_omega(monkeypatch, tmp_path):
    """The CLI sizes a quadratic cell L = 14 / (omega sqrt(beta)) from the omega of model.QUADRATIC_OMEGA, the
    potential's own default: moving it moves the cell."""
    from hypokit import model

    rep_path = tmp_path / "rep.json"
    for omega in (1.0, 2.0):
        monkeypatch.setattr(model, "QUADRATIC_OMEGA", omega)
        assert run("poincare", "--potential", "quadratic", "--beta", "4", "--Kq", "4", "--n-quad", "64",
                   "--report", rep_path) == 0
        assert read_report(rep_path)["config"]["potential"]["params"]["L"] == 14.0 / (omega * 2.0)
        assert builtin_potential("quadratic", {}).name == f"quadratic(omega={omega:g})"


def test_resolved_config_line_shows_the_defaults(caplog):
    """The stderr line `resolved config` prints every key the subcommand reads, defaults included, as one
    line: spectrum given only Kq and Np shows them and the default friction."""
    caplog.set_level("INFO", logger="hypokit")
    assert run("spectrum", "--Kq", "4", "--Np", "8") == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("resolved config: ")]
    assert len(lines) == 1 and "\n" not in lines[0]
    resolved = json.loads(lines[0].removeprefix("resolved config: "))
    assert (resolved["discretization.Kq"], resolved["discretization.Np"]) == (4, 8)
    assert resolved["ensemble.gamma"] == next(o.default for o in cli._OPTIONS
                                              if o.key == "ensemble.gamma" and "spectrum" in o.commands) == 1.0


# ---------------------------------------------------------------------------
# config handling


def test_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "potential": {"name": "cosine", "params": {"h": 1.0, "L": 1.0}},
        "ensemble": {"beta": 2.0, "gamma": 3.0},
        "discretization": {"Kq": 8, "Np": 12, "n_quad": 64},
    }))
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", "--config", cfg_path, "--beta", "1.0",
               "--no-check-convergence", "--report", rep_path) == 0
    cfg = read_report(rep_path)["config"]
    assert cfg["ensemble"]["beta"] == 1.0  # flag wins
    assert cfg["ensemble"]["gamma"] == 3.0  # file survives


SMALL_COSINE = ["--Kq", "4", "--Np", "8", "--n-quad", "64"]

# {out} is the CSV a subcommand writes, {input} a CSV it reads.
ROUNDTRIP_ARGS = {
    "sample": ["--dt", "0.1", "--n-steps", "500", "--stride", "5", "--observable", "energy",
               "--seed", "3", "--out", "{out}"],
    "variance": ["--input", "{input}", "--column", "x", "--method", "batch_means", "--batches", "4"],
    "spectrum": [*SMALL_COSINE, "--gamma", "0.5", "--no-check-convergence", "--dump-eigs", "{out}"],
    "poisson": [*SMALL_COSINE, "--observable", "p1", "--mass", "2"],
    "poincare": ["--Kq", "4", "--beta", "2", "--param", "h=0.5"],
    "ode": ["--gamma", "0.7", "--T", "2", "--dt", "0.01", "--x0", "1,0", "--out", "{out}"],
    "dissipation": [*SMALL_COSINE, "--epsilon", "0.2"],
    "bounds": [*SMALL_COSINE, "--case", "general", "--c-prime", "1", "--slack", "0.1"],
    "scan": [*SMALL_COSINE, "--gammas", "0.125:2:7", "--threads", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("command", list(ROUNDTRIP_ARGS))
def test_config_roundtrip_reproduces_outputs(command, tmp_path):
    rep_path, csv_path, input_path = tmp_path / "rep.json", tmp_path / "out.csv", tmp_path / "in.csv"
    input_path.write_text("time,x\n" + "".join(f"{0.5 * i},{math.sin(i)}\n" for i in range(200)))
    args = [a.format(out=csv_path, input=input_path) for a in ROUNDTRIP_ARGS[command]]

    def outputs():
        return rep_path.read_bytes(), csv_path.read_bytes() if csv_path.exists() else None

    assert run(command, *args, "--report", rep_path) == 0
    first = outputs()
    cfg_path = tmp_path / "resolved.json"
    cfg_path.write_text(json.dumps(read_report(rep_path)["config"]))
    rep_path.unlink()
    csv_path.unlink(missing_ok=True)
    assert run(command, "--config", cfg_path) == 0
    assert outputs() == first


def test_reruns_are_byte_identical(tmp_path):
    rep_path, csv_path = tmp_path / "rep.json", tmp_path / "samples.csv"
    args = ("sample", "--dt", "0.05", "--n-steps", "2000", "--stride", "4",
            "--observable", "q_centered", "--seed", "11",
            "--out", csv_path, "--report", rep_path)

    def digest():
        return (hashlib.md5(csv_path.read_bytes()).hexdigest(),
                hashlib.md5(rep_path.read_bytes()).hexdigest())

    assert run(*args) == 0
    first = digest()
    assert run(*args) == 0
    assert digest() == first

    # a different noise stream must change the data
    assert run(*args, "--stream-id", "1") == 0
    assert digest() != first


def test_csv_floats_reparse_to_identical_tokens(tmp_path):
    csv_path = tmp_path / "samples.csv"
    assert run("sample", "--dt", "0.05", "--n-steps", "300", "--stride", "3",
               "--observable", "energy", "--seed", "5", "--out", csv_path,
               "--report", tmp_path / "r.json") == 0
    lines = csv_path.read_text().splitlines()
    for line in lines[1:]:
        for token in line.split(","):
            assert "%.17g" % float(token) == token  # parse/format round-trip


SIX_OBSERVABLES = ("cos_q", "sin_q", "q_centered", "p1", "p_squared", "energy")
SEPARABLE_2D = {"parts": [{"name": "cosine", "params": {"h": 1.0, "L": 1.0}},
                          {"name": "cosine", "params": {"h": 0.5, "L": 1.0, "modes": 2}}]}


def per_state_observables(spec, params):
    """The six sample observables written out on one state."""
    length = spec.domain.length
    c = 2.0 * math.pi / length

    def q_centered(s):
        x = float(_center_cell(s.q[0], length))
        return 0.0 if x == -0.5 * length else x  # the odd sawtooth

    return [
        lambda s: float(np.cos(c * s.q[0])),
        lambda s: float(np.sin(c * s.q[0])),
        q_centered,
        lambda s: float(s.p[0]),
        lambda s: float(np.dot(s.p, s.p)),
        lambda s: eval_hamiltonian(spec, params, s),
    ]


@pytest.mark.parametrize("scheme", ["langevin", "overdamped"])
@pytest.mark.parametrize("name, params, q0, p0", [
    ("cosine", {"h": 1.0, "L": 1.0}, [0.3], [-0.2]),
    ("separable", SEPARABLE_2D, [0.2, 0.7], [-0.1, 0.4]),
], ids=["d1", "separable-d2"])
def test_sample_columns_match_per_state_observables(scheme, name, params, q0, p0, tmp_path):
    csv_path = tmp_path / "samples.csv"
    potential = ["--potential", name, *(a for k, v in params.items() for a in ("--param", f"{k}={json.dumps(v)}"))]
    observables = [a for obs in SIX_OBSERVABLES for a in ("--observable", obs)]
    assert run("sample", "--scheme", scheme, "--n-steps", "600", "--stride", "3", "--beta", "2", "--mass", "0.5",
               *potential, f"--q0={','.join(map(str, q0))}", f"--p0={','.join(map(str, p0))}", "--seed", "9",
               *observables, "--out", csv_path, "--report", tmp_path / "r.json") == 0
    names, table = cli._read_csv(str(csv_path))
    assert names == ["time", *SIX_OBSERVABLES]

    spec = builtin_potential(name, params)
    ensemble = EnsembleParams(beta=2.0, mass=0.5)
    rec = simulate(PhaseState(np.array(q0), np.array(p0)), n_steps=600, stride=3, dt=0.01, scheme=scheme,
                   spec=spec, params=ensemble, rng=RngStream(9))
    states = [PhaseState(q, p) for q, p in zip(rec.q, rec.p)]
    assert np.array_equal(table[:, 0], rec.times)
    for j, (obs, f) in enumerate(zip(SIX_OBSERVABLES, per_state_observables(spec, ensemble))):
        assert np.array_equal(table[:, j + 1], [f(s) for s in states]), obs


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["sample", "--scheme", "imaginary"],
    ["sample", "--observable", "bogus_obs", "--n-steps", "10"],
    ["sample", "--q0", "1,2", "--n-steps", "10"],
    ["spectrum", "--potential", "quartic"],
    ["spectrum", "--Kq", "0"],
    ["dissipation", "--epsilon", "1.5", "--Kq", "8", "--Np", "12", "--n-quad", "64"],
    ["variance", "--input", "/nonexistent/file.csv"],
    ["scan", "--gammas", "0.5:2:3"],
    ["scan", "--gammas", "nonsense"],
    ["poincare", "--Np", "999"],
    ["poincare", "--n-quad", "8"],
    ["poincare", "--gamma", "7"],
    ["spectrum", "--seed", "5"],
    ["scan", "--gamma", "5"],
    ["scan", "--gamma", "0.125:2:7", "--Kq", "4", "--Np", "8"],  # not a prefix of --gammas
    ["spectrum", "--gamma", "0"],
    ["bounds", "--gamma", "0", "--Kq", "4", "--Np", "8"],
    ["poisson", "--gamma", "0", "--Kq", "4", "--Np", "8"],
    ["dissipation", "--gamma", "0", "--Kq", "4", "--Np", "8"],
    ["poincare", "--potential", ""],
    ["poisson", "--dynamics", "overdamped", "--gamma", "5", "--Kq", "4", "--Np", "8"],
    ["poisson", "--dynamics", "overdamped", "--mass", "2", "--Kq", "4", "--Np", "8"],
    ["sample", "--scheme", "overdamped", "--gamma", "2", "--n-steps", "10"],
    ["sample", "--scheme", "hamiltonian", "--gamma", "4", "--n-steps", "10"],
])
def test_bad_invocations_exit_1(argv, capsys):
    assert run(*argv) == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv, names", [
    # a constant the case bounds resolves (auto: hessian_lower_bound for the cosine) does not read
    (["bounds", "--c-prime", "300", "--Kq", "4", "--Np", "8"], ["hessian_lower_bound case does not read c_prime"]),
    (["bounds", "--case", "general", "--c-prime", "1", "--K", "700", "--Kq", "4", "--Np", "8"],
     ["general case does not read K"]),
    # more ODE steps than ODE_MAX_STEPS; T / dt overflows to inf in the second
    (["ode", "--T", "1e300"], ["ODE_MAX_STEPS", "T=1e+300", "dt=0.001"]),
    (["ode", "--T", "1e300", "--dt", "1e-300"], ["ODE_MAX_STEPS", "T=1e+300", "dt=1e-300"]),
    # 8 PB of records, beyond any address space
    (["sample", "--n-steps", "1000000000000000", "--stride", "1"],
     ["n_steps=1000000000000000", "stride=1", "16000000000000016 bytes"]),
    # RK4 steps past its stability limit dt * gamma ~ 2.785: the trajectory grew to 9e188, and the
    # step matrix overflows at 1e200
    (["ode", "--gamma", "2800"], ["gamma=2800", "dt=0.001", "spectral radius 1.02239945", "largest stable dt is 0.00099474782"]),
    (["ode", "--gamma", "1e200"], ["gamma=1e+200", "dt=0.001", "overflows", "largest stable dt is 2.78529"]),
    # omega^2 overflows, and V(0) = 0.5 * inf * 0 read NaN
    (["sample", "--potential", "quadratic", "--param", "omega=1e155", "--n-steps", "10"], ["omega=1e+155"]),
])
def test_rejection_names_what_it_rejects(argv, names, capsys):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err and "Warning" not in err
    assert err.count("error:") == 1


@pytest.mark.parametrize("body, message", [
    ("time,x\n0,1\n0.5,abc\n", "cannot parse CSV file .*: line 3: 'abc' is not a number"),
    ("time,x\n0,1\n0.5,2,3\n", "cannot parse CSV file .*: line 3 has 3 columns, line 2 has 2"),
    ("time,x\n", "has a header but no data rows"),
    ("time,x\n0,1\n0.5,nan\n1,2\n", "holds a NaN or infinite value"),
    ("time,x\n0,1\n0.5,-inf\n1,2\n", "holds a NaN or infinite value"),
    ("time,x\n0,1\nnan,2\n1,2\n", "column 'time'"),
    ("time,x\n1,1\n0.5,2\n0,3\n", "time column of .* does not increase .*; pass --spacing"),
    ("time,x\n0,1\n0,2\n0,3\n", "time column of .* does not increase .*; pass --spacing"),
    ("time,x\n0,1\n0.5,2\n2,3\n", "time column of .* is not uniformly spaced; pass --spacing"),
], ids=["not-a-number", "ragged-row", "header-only", "nan", "inf", "nan-time", "decreasing-time", "repeated-time",
        "uneven-time"])
@pytest.mark.filterwarnings("error")
def test_variance_input_that_cannot_be_read_exits_1(body, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert run("variance", "--input", path) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(err) == 1 and re.search(message, err[0]) and str(path) in err[0]


@pytest.mark.parametrize("body", [
    "time,x\r\n0,1.5\r\n0.5,2.5\r\n1,3.5\r\n",
    "time,x\n# a comment line\n0,1.5\n0.5,2.5 # a trailing comment\n\n1,3.5\n",
    " time , x\t\n0,1.5\n0.5,2.5\n1,3.5\n",
    "\ufefftime,x\n0,1.5\n0.5,2.5\n1,3.5\n",
], ids=["crlf", "comments", "spaced-names", "bom"])
def test_csv_line_endings_and_comments_parse_like_a_plain_file(body, tmp_path):
    (tmp_path / "plain.csv").write_bytes(b"time,x\n0,1.5\n0.5,2.5\n1,3.5\n")
    (tmp_path / "other.csv").write_bytes(body.encode())
    names, data = cli._read_csv(str(tmp_path / "other.csv"))
    want_names, want = cli._read_csv(str(tmp_path / "plain.csv"))
    assert names == want_names == ["time", "x"] and np.array_equal(data, want)


@pytest.mark.parametrize("header", ["time, x", "\ufefftime,x"], ids=["spaced-names", "bom"])
def test_variance_reads_spaced_and_bom_headers(header, tmp_path):
    t = np.arange(200) * 0.25
    path = tmp_path / "in.csv"
    cli._write_csv(str(path), ["time", "x"], np.column_stack([t, np.sin(t)]))
    path.write_text(header + path.read_text()[len("time,x"):], encoding="utf-8")
    assert run("variance", "--input", path, "--column", "x", "--report", tmp_path / "r.json") == 0
    assert read_report(tmp_path / "r.json")["results"]["spacing"] == 0.25


def test_write_csv_is_the_bytes_of_savetxt(tmp_path):
    """Every value class np.savetxt formats: NaN, +-inf, -0.0, subnormals, huge and tiny,
    on a row count that is not a multiple of the block."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((cli._CSV_BLOCK + 3, 3)) * 10.0 ** rng.integers(-300, 300, (cli._CSV_BLOCK + 3, 3))
    rows[:6, 0] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310]
    cli._write_csv(str(tmp_path / "fast.csv"), ["a", "b", "c"], rows)
    with open(tmp_path / "ref.csv", "w", newline="\n") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_dense_operator_above_the_budget_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "DENSE_MAX_BYTES", 1000)
    assert run("spectrum", "--Kq", "4", "--Np", "8", "--no-check-convergence") == 1
    err = capsys.readouterr().err
    assert "35 x 35 float64" in err and "limit" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["bounds", "poisson"])
def test_bounds_and_poisson_build_no_dense_generator(command, monkeypatch, tmp_path):
    monkeypatch.setattr(spectral, "DENSE_MAX_BYTES", 1000)
    assert run(command, "--Kq", "4", "--Np", "8", "--report", tmp_path / "rep.json") == 0


def _uncouple_the_levels(monkeypatch):
    # with every coupling zero, level 0 (whose diagonal is zero) has a zero pivot
    real = spectral.ReducedGenerator.level_blocks

    def uncoupled(self, *args, **kwargs):
        blocks = real(self, *args, **kwargs)
        return blocks._replace(couplings=[np.zeros_like(b) for b in blocks.couplings])

    monkeypatch.setattr(spectral.ReducedGenerator, "level_blocks", uncoupled)


def test_singular_chain_pivot_exits_2(monkeypatch, capsys):
    _uncouple_the_levels(monkeypatch)
    assert run("poisson", "--Kq", "4", "--Np", "8") == 2
    err = capsys.readouterr().err
    assert "Poisson solve failed (singular pivot)" in err and "Traceback" not in err


def test_bounds_singular_chain_pivot_exits_2(monkeypatch, capsys):
    _uncouple_the_levels(monkeypatch)
    assert run("bounds", "--Kq", "4", "--Np", "8") == 2
    err = capsys.readouterr().err
    assert "resolvent norm solve failed (singular chain pivot)" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--gamma", "1e-300"), ("--gamma", "5e-324"), ("--gamma", "1e300"), ("--beta", "1e-300"), ("--mass", "1e300")])
def test_bounds_at_extreme_inputs_exits_2_without_a_warning(flag, value, capsys):
    """The chain overflows or meets a zero pivot at these inputs; the resolvent norm refuses them with one
    line, and its NumPy overflow stays inside it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("bounds", "--Kq", "4", "--Np", "8", flag, value) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("numerical failure: ")]) == 1
    assert "Traceback" not in err


SMALL = ["--Kq", "4", "--Np", "8"]
CELL_OVERFLOW = ["--potential", "quadratic", "--param", "omega=1e-200", "--Kq", "4"]  # L = 1.4e201
CELL_NARROW = ["--potential", "quadratic", "--param", "omega=1e154", "--Kq", "4"]  # L = 1.4e-153


@pytest.mark.parametrize("argv, names", [
    # the bracket's smallest eps is too large for these frictions: the tuned rate read -1.3e-4 and -92
    (["dissipation", "--gamma", "1e-6", *SMALL], ["rate -0.000132", "gamma=1e-06", "eps=0.000133", "[0.0001, 0.9999]"]),
    (["dissipation", "--gamma", "1e12", *SMALL], ["rate -92.1", "gamma=1e+12", "eps=0.000133", "[0.0001, 0.9999]"]),
    # dt = 0.01 is unstable at these stiffnesses: the records went nan and the report printed NaN means
    (["sample", "--potential", "quadratic", "--param", "omega=1000", "--n-steps", "2000"],
     ["langevin trajectory diverged", "dt=0.01", "t=1.55"]),
    (["sample", "--potential", "quadratic", "--param", "omega=1000", "--n-steps", "2000", "--scheme", "overdamped"],
     ["overdamped trajectory diverged", "dt=0.01", "t=0.78"]),
    (["sample", "--potential", "double_well", "--param", "a=1e6"], ["langevin trajectory diverged", "t=0.07"]),
    (["sample", "--potential", "quadratic", "--param", "omega=1000", "--param", "d=2", "--n-steps", "2000"],
     ["langevin trajectory diverged", "dt=0.01", "t=1.55"]),
    # finite records whose observable overflows
    (["sample", "--scheme", "hamiltonian", "--p0", "1e200", "--n-steps", "10", "--observable", "p_squared"],
     ["observable 'p_squared' is not finite", "t=0"]),
    # V overflows on the cell of a tiny omega
    *[([command, *CELL_OVERFLOW, *extra], ["potential is not finite on the quadrature grid"])
      for command, extra in [("spectrum", ["--Np", "8"]), ("poisson", ["--Np", "8"]), ("bounds", ["--Np", "8"]),
                             ("scan", ["--Np", "8"]), ("poincare", [])]],
    # on the cell of a huge omega (L = 1.4e-153) D^T G D and the Hermite chain overflow; SciPy's finite
    # checks had raised a ValueError traceback after RuntimeWarnings.  The Hessian grid's mean overflows:
    # bounds leaked a RuntimeWarning and blamed a clipped cell (exit 1)
    (["poincare", *CELL_NARROW], ["overdamped operator is not finite"]),
    (["poisson", *CELL_NARROW, "--Np", "8"], ["Poisson solve is not finite"]),
    (["bounds", *CELL_NARROW, "--Np", "8"], ["Hessian of the potential overflows on the torus grid"]),
])
def test_numerical_failure_names_what_failed(argv, names, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err and "Warning" not in err
    assert err.count("numerical failure:") == 1 and "error:" not in err


def test_dissipation_reports_a_positive_tuned_rate_and_any_explicit_one(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("dissipation", "--gamma", "1e-3", *SMALL, "--report", rep_path) == 0
    assert read_report(rep_path)["results"]["lambda_est"] > 0
    assert run("dissipation", "--gamma", "1e-6", "--epsilon", "0.2", *SMALL, "--report", rep_path) == 0
    assert read_report(rep_path)["results"]["lambda_est"] < 0


def test_bounds_on_the_smallest_basis(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("bounds", "--Kq", "1", "--Np", "2", "--report", rep_path) == 0
    assert read_report(rep_path)["results"]["numeric"] == pytest.approx(1.0, rel=1e-10)


def test_bounds_reports_its_lanczos_steps(tmp_path):
    from hypokit import hypo

    rep_path = tmp_path / "rep.json"
    assert run("bounds", *SMALL_COSINE, "--report", rep_path) == 0
    assert 1 <= read_report(rep_path)["diagnostics"]["resolvent_lanczos_steps"] <= hypo.LANCZOS_MAX_STEPS


def test_lanczos_step_cap_exits_2(monkeypatch, capsys):
    from hypokit import hypo

    monkeypatch.setattr(hypo, "LANCZOS_MAX_STEPS", 2)
    assert run("bounds", "--Kq", "4", "--Np", "8") == 2
    err = capsys.readouterr().err
    assert "resolvent norm: Lanczos did not converge in 2 steps" in err and "Traceback" not in err


@pytest.mark.parametrize("param, message", [
    ('L="abc"', "potential parameter 'L' must be a real number"),
    ("h=[1]", "potential parameter 'h' must be a real number"),
    ("modes=1.5", "potential parameter 'modes' must be an integer"),
])
def test_potential_parameter_of_the_wrong_type_exits_1(param, message, capsys):
    assert run("spectrum", "--Kq", "4", "--Np", "4", "--no-check-convergence", "--param", param) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, config, names", [
    (["sample", "--n-steps", "10", "--q0", "nan"], None, "--q0"),
    (["sample", "--n-steps", "10", "--p0", "inf"], None, "--p0"),
    (["sample", "--n-steps", "10", "--dt", "inf"], None, "--dt"),
    (["ode", "--T", "inf"], None, "--T"),
    (["scan", "--gammas", "0.125:1e10:40", "--Kq", "4", "--Np", "8"], None, "--gammas"),
    (["scan", "--gammas", "nan:2:7", "--Kq", "4", "--Np", "8"], None, "--gammas"),
    (["spectrum", "--param", "h=NaN", "--Kq", "4", "--Np", "8"], None, "--param h"),
    (["spectrum", "--param", "h=1e999", "--Kq", "4", "--Np", "8"], None, "--param h"),
    (["sample", "--n-steps", "10"], '{"options": {"q0": [NaN]}}', "options.q0"),
    (["ode"], '{"options": {"T": Infinity}}', "options.T"),
    (["spectrum", "--Kq", "4", "--Np", "8"], '{"ensemble": {"beta": -Infinity}}', "ensemble.beta"),
])
def test_non_finite_numbers_exit_1(argv, config, names, tmp_path, capsys):
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = [*argv, "--config", tmp_path / "cfg.json"]
    assert run(*argv, "--report", tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert names in err and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ensemble": {"beta": 1.0, "temprature": 0.5}}))
    assert run("ode", "--config", cfg_path) == 1
    assert "temprature" in capsys.readouterr().err


# For each subcommand, a config key that another subcommand reads.
UNREAD_KEYS = {
    "sample": ("options.epsilon", 0.3),
    "variance": ("seed", 1),
    "spectrum": ("seed", 5),
    "poisson": ("options.gammas", "0.125:2:7"),
    "poincare": ("ensemble.gamma", 1.0),
    "ode": ("potential", {"name": "cosine"}),
    "dissipation": ("options.case", "convex"),
    "bounds": ("options.epsilon", 0.3),
    "scan": ("ensemble.gamma", 5.0),
}


@pytest.mark.parametrize("command", list(UNREAD_KEYS))
def test_config_key_the_subcommand_does_not_read_is_rejected(command, tmp_path, capsys):
    key, value = UNREAD_KEYS[command]
    section, _, name = key.rpartition(".")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({section: {name: value}} if section else {key: value}))
    assert run(command, "--config", cfg_path) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, mode, key", [
    ("poisson", {"dynamics": "overdamped"}, "ensemble.gamma"),
    ("poisson", {"dynamics": "overdamped"}, "ensemble.mass"),
    ("sample", {"scheme": "overdamped"}, "ensemble.gamma"),
    ("sample", {"scheme": "hamiltonian"}, "ensemble.gamma"),
    ("poisson", {"dynamics": "overdamped"}, "discretization.Np"),
    ("variance", {"method": "acf"}, "options.batches"),
    ("variance", {}, "options.batches"),  # an absent mode key counts as its default, acf
])
def test_key_unread_in_the_chosen_mode_is_rejected(command, mode, key, tmp_path, capsys):
    section, name = key.split(".")
    cfg = {"options": dict(mode)}
    cfg.setdefault(section, {})[name] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(command, "--config", cfg_path) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [("--seed", "seed"), ("--stream-id", "stream_id")])
def test_hamiltonian_sample_rejects_noise_flags(flag, key, capsys):
    # velocity Verlet draws no noise, so a seed would be silently ignored
    assert run("sample", "--scheme", "hamiltonian", flag, "2", "--n-steps", "10") == 1
    assert f"does not read config key(s): {key}" in capsys.readouterr().err


def test_mass_still_read_by_overdamped_sample(tmp_path):
    # the energy observable reads the mass through the initial momentum
    def energy_mean(mass):
        rep_path = tmp_path / "rep.json"
        assert run("sample", "--scheme", "overdamped", "--mass", mass, "--p0", "1.0",
                   "--n-steps", "20", "--report", rep_path) == 0
        return read_report(rep_path)["results"]["means"]["energy"]

    assert energy_mean(1.0) != energy_mean(3.0)


@pytest.mark.parametrize("prefix", ["scipy.sparse", "jsonschema", "scipy"])
def test_cli_import_leaves_module_unloaded(prefix):
    # scipy.sparse is imported by no module (test_spectral_commands_leave_scipy_sparse_unloaded); at
    # module level it added about 30 ms to every start-up.  jsonschema is a test-only reference for
    # cli._validate, and importing it cost 70-90 ms.  scipy.linalg is imported by each solver that
    # calls it (test_sampling_commands_leave_scipy_unloaded); at module level it cost about 0.3 s.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = f"import sys, hypokit.cli; print(any(m.startswith({prefix!r}) for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_spectral_commands_leave_scipy_sparse_unloaded(tmp_path):
    # no solver needs scipy.sparse: the resolvent norm runs on the Hermite chain like the Poisson solve
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    small = ["--Kq", "4", "--Np", "8"]
    argvs = [["spectrum", *small], ["poisson", *small], ["dissipation", *small], ["bounds", *small],
             ["poincare", "--Kq", "4"], ["scan", *small, "--gammas", "0.125:2:7"]]
    code = ("import sys, hypokit.cli\n"
            f"for argv in {argvs!r}:\n"
            f"    assert hypokit.cli.main(argv + ['--report', {str(tmp_path / 'rep.json')!r}]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_sampling_commands_leave_scipy_unloaded(tmp_path):
    # the sampler, the variance estimators, the ODE toy and argument checking call no SciPy, so they
    # never pay its import; a spectral command imports scipy.linalg at its first solver call
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    csv_path, rep_path = str(tmp_path / "s.csv"), str(tmp_path / "rep.json")
    argvs = [["sample", "--n-steps", "200", "--observable", "cos_q", "--out", csv_path],
             ["sample", "--scheme", "overdamped", "--n-steps", "200"],
             ["variance", "--input", csv_path, "--column", "cos_q"],
             ["ode", "--figure1"]]
    code = ("import sys, hypokit.cli\n"
            f"for argv in {argvs!r}:\n"
            f"    assert hypokit.cli.main(argv + ['--report', {rep_path!r}]) == 0, argv\n"
            "assert hypokit.cli.main(['spectrum', '--Kq', '0']) == 1\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            f"assert hypokit.cli.main(['poisson', '--Kq', '4', '--Np', '8', '--report', {rep_path!r}]) == 0\n"
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]", "True"]


def test_malformed_config_section_exits_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ensemble": 5}))
    assert run("ode", "--config", cfg_path, "--gamma", "1.0") == 1


def test_malformed_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert run("ode", "--config", cfg_path) == 1


def test_numerical_failure_exits_2(tmp_path, monkeypatch):
    def boom(ladder, gamma):
        raise NumericalFailureError("synthetic blowup")

    monkeypatch.setattr(cli, "rung_gap", boom)
    assert run("spectrum", *SMALL_QUAD, "--gamma", "1.0",
               "--report", tmp_path / "r.json") == 2


def test_param_without_potential_leaves_default_untouched(tmp_path):
    def r_nu(*extra):
        rep_path = tmp_path / "rep.json"
        assert run("poincare", "--Kq", "8", *extra, "--report", rep_path) == 0
        return read_report(rep_path)["results"]["r_nu"]

    default = copy.deepcopy(cli._DEFAULT_POTENTIAL)
    fresh = r_nu()
    assert r_nu("--param", "h=3") != fresh
    assert r_nu() == fresh
    assert cli._DEFAULT_POTENTIAL == default


def test_scan_roundoff_rows_set_neither_floor_nor_slope(tmp_path):
    # Below gamma ~ 1e-13 the gap of this Kq4/Np8 cosine operator is
    # roundoff (it read 0.111 * gamma at gamma = 1e-15); on the rest of the
    # small-gamma branch gap / gamma is about 1.06.
    rep_path = tmp_path / "rep.json"
    assert run("scan", "--gammas", "1e-17:10:19", *SMALL_COSINE, "--report", rep_path) == 0
    res = read_report(rep_path)["results"]
    assert 1e-15 in map(float, res["row_errors"])
    assert [row["gap"] is None for row in res["rows"]] == [str(row["gamma"]) in res["row_errors"]
                                                          for row in res["rows"]]
    assert res["lambda_bar"] > 1
    assert res["slope_small_gamma"] == pytest.approx(1.0, abs=0.02)


def test_scan_with_no_good_rung_exits_2_with_the_first_rows_message(capsys):
    # every rung's gap is not positive above roundoff on this cell: the report read "lambda_bar": NaN
    assert run("scan", "--potential", "quadratic", "--param", "omega=1e154", *SMALL) == 2
    err = capsys.readouterr().err
    assert "numerical failure: every rung failed; the first, at gamma=0.125: NumericalFailureError: " in err
    assert "is not positive above roundoff margin" in err


def test_scan_branch_with_one_rung_writes_a_null_slope(tmp_path):
    # rungs 1e-26 to 1e-11 are roundoff (null gaps), 1e-6 and 0.1 fit the small-friction slope, and
    # 1e4 alone on the large-friction branch fits none: the report read NaN there
    rep_path = tmp_path / "rep.json"
    assert run("scan", "--gammas", "1e-26:1e5:7", *SMALL_COSINE, "--report", rep_path) == 0
    res = read_report(rep_path)["results"]
    assert [row["gap"] is None for row in res["rows"]] == [True] * 4 + [False] * 3
    assert res["slope_small_gamma"] == pytest.approx(1.0, abs=0.02) and res["slope_large_gamma"] is None


def test_dissipation_on_a_cell_where_1_plus_t_t_is_singular(tmp_path):
    """1 + T^T T is numerically singular here and overflows on the narrower cell; R comes from the
    SVD of T, so its norms stay below 1 and no solve can warn."""
    rep_path = tmp_path / "rep.json"
    for omega in ("5e153", "1e154"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("dissipation", "--potential", "quadratic", "--param", f"omega={omega}", *SMALL,
                       "--report", rep_path) == 0
        assert [str(w.message) for w in caught] == []
        res = read_report(rep_path)["results"]
        assert res["r_norm_ok"] and res["lham_r_norm_ok"] and res["lambda_est"] > 0


EXTREME_OMEGAS = ["1e100", "1e150", "5e153", "1e154", "1e157"]
SPECTRAL_COMMANDS = [["spectrum", "--Np", "8"], ["scan", "--Np", "8"], ["poisson", "--Np", "8"],
                     ["poisson", "--dynamics", "overdamped"], ["dissipation", "--Np", "8"], ["bounds", "--Np", "8"],
                     ["poincare"]]


@pytest.mark.parametrize("omega", EXTREME_OMEGAS)
def test_spectral_commands_on_extreme_cells_fail_cleanly(omega, tmp_path, capsys):
    """Every spectral command on a quadratic cell from L = 1.4e-99 down to one whose omega^2 overflows:
    it exits 0, 1 or 2, raises no warning (LinAlgWarning is a RuntimeWarning too), and every report it
    writes is strict JSON."""
    for command in SPECTRAL_COMMANDS:
        rep_path = tmp_path / f"{command[0]}.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*command, "--potential", "quadratic", "--param", f"omega={omega}", "--Kq", "4",
                       "--report", rep_path)
        assert code in (0, 1, 2), command
        assert [str(w.message) for w in caught] == [], command
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            read_report(rep_path)


@pytest.mark.parametrize("gamma", ["1e-300", "1e300"])
def test_spectrum_gap_at_roundoff_exits_2(gamma, capsys):
    # at the defaults the gap read -1.41e-13 at gamma = 1e-300 and -8.76e120 at 1e300, both reported
    assert run("spectrum", "--gamma", gamma, *SMALL_COSINE) == 2
    assert "is not positive above roundoff margin" in capsys.readouterr().err


def test_spectrum_refuses_the_gap_a_scan_row_refuses(tmp_path, capsys):
    """One roundoff check for both: at Kq4/Np8 a roundoff rung is solved dense on the scan basis,
    the operator spectrum solves, so spectrum exits 2 with the row's message."""
    rep_path = tmp_path / "rep.json"
    assert run("scan", "--gammas", "1e-17:10:19", *SMALL_COSINE, "--report", rep_path) == 0
    row = read_report(rep_path)["results"]["row_errors"]["1e-15"]
    capsys.readouterr()
    assert run("spectrum", "--gamma", "1e-15", *SMALL_COSINE) == 2
    assert row.startswith("NumericalFailureError: ")
    assert f"numerical failure: {row.removeprefix('NumericalFailureError: ')}\n" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1e-20", "1e-8"])
def test_inaccurate_poisson_solve_exits_2(gamma, capsys):
    # relative residuals 0.12 and 3.2e-4 (refinement does not lower the second); unrefined, gamma sigma^2
    # read 0.0095 at 1e-8 against 0.3297
    assert run("poisson", "--gamma", gamma) == 2
    assert "Poisson solve is inaccurate: relative residual" in capsys.readouterr().err


def _gamma_sigma2(gamma, path):
    assert run("poisson", "--observable", "cos_q", "--gamma", gamma, "--report", path) == 0
    rep = read_report(path)
    return gamma * rep["results"]["sigma2"], rep["diagnostics"]


@pytest.mark.parametrize("gamma", [1e-5, 10**-5.5, 1e-6])
def test_poisson_near_zero_friction_is_refined_to_the_small_friction_plateau(gamma, tmp_path):
    """Unrefined, gamma sigma^2 read 4e-5 relative off at 1e-5 and the solve exited 2 below 5e-6.

    The reference is gamma = 1e-4, not 1e-3: gamma sigma^2 is about c0 + 0.089 gamma^2 on this basis,
    so the 1e-3 value sits 2.7e-7 relative above the plateau, and 1e-4 only 2.7e-9.
    """
    want, _ = _gamma_sigma2(1e-4, tmp_path / "ref.json")
    got, diagnostics = _gamma_sigma2(gamma, tmp_path / "rep.json")
    assert got == pytest.approx(want, rel=1e-7)
    assert 1 <= diagnostics["poisson_refinement_steps"] <= 2 * spectral.POISSON_REFINE_STEPS
    assert diagnostics["poisson_residual"] <= 1e-13


@pytest.mark.parametrize("method", ["acf", "batch_means"])
def test_constant_column_warns_in_one_stderr_line(method, tmp_path):
    """A constant series reports sigma2 = 0 and ess = n; its warning reaches stderr as one hypokit line,
    not as a UserWarning that names a source line."""
    csv = tmp_path / "const.csv"
    cli._write_csv(str(csv), ["time", "x"], np.column_stack([0.1 * np.arange(200), np.full(200, 2.5)]))
    src = str(pathlib.Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "hypokit", "variance", "--input", str(csv), "--method", method],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stderr.splitlines()[1:] == ["hypokit: constant series: asymptotic variance is zero"]
    results = json.loads(out.stdout)["results"]
    assert results["sigma2"] == 0.0 and results["ess"] == 200.0


def test_poisson_at_ordinary_friction_is_not_refined(tmp_path):
    # the first residual is far below POISSON_REFINE_ABOVE, so the report keeps its keys and bytes
    _, diagnostics = _gamma_sigma2(1e-3, tmp_path / "rep.json")
    assert "poisson_refinement_steps" not in diagnostics


# Option strings of each subcommand; scan takes no --gamma (its ladder sets it).
SUBCOMMAND_FLAGS = {
    "sample": {"--beta", "--config", "--dt", "--gamma", "--help", "--mass", "--n-steps", "--observable",
               "--out", "--p0", "--param", "--potential", "--q0", "--report", "--scheme", "--seed",
               "--stream-id", "--stride", "-h"},
    "variance": {"--batches", "--column", "--config", "--help", "--input", "--method", "--report",
                 "--spacing", "-h"},
    "spectrum": {"--Kq", "--Np", "--beta", "--check-convergence", "--config", "--dump-eigs", "--gamma",
                 "--help", "--mass", "--n-quad", "--no-check-convergence", "--param", "--potential",
                 "--report", "-h"},
    "poisson": {"--Kq", "--Np", "--beta", "--config", "--dynamics", "--gamma", "--help", "--mass",
                "--n-quad", "--observable", "--param", "--potential", "--report", "-h"},
    "poincare": {"--Kq", "--beta", "--config", "--help", "--n-quad", "--param", "--potential", "--report", "-h"},
    "ode": {"--T", "--config", "--dt", "--figure1", "--gamma", "--help", "--out", "--report", "--x0", "-h"},
    "dissipation": {"--Kq", "--Np", "--beta", "--config", "--epsilon", "--gamma", "--help", "--mass",
                    "--n-quad", "--param", "--potential", "--report", "-h"},
    "bounds": {"--K", "--Kq", "--Np", "--beta", "--c-prime", "--case", "--config", "--gamma", "--help",
               "--mass", "--n-quad", "--param", "--potential", "--report", "--slack", "-h"},
    "scan": {"--Kq", "--Np", "--beta", "--config", "--gammas", "--help", "--mass", "--n-quad", "--out",
             "--param", "--potential", "--report", "--threads", "-h"},
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_subcommand_flags(command):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SUBCOMMAND_FLAGS)
    flags = {s for action in subparsers.choices[command]._actions for s in action.option_strings}
    assert flags == SUBCOMMAND_FLAGS[command]


def _shown(default):
    return default if isinstance(default, str) else json.dumps(default)


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_help_shows_every_default_of_the_table(command, capsys):
    """Each row with a default writes it into its help line's brackets, from the row itself."""
    with pytest.raises(SystemExit) as stop:
        run(command, "--help")
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps help lines at spaces
    rows = [opt for opt in cli._OPTIONS if command in opt.commands and opt.default is not None]
    for opt in rows:
        assert f"[{opt.key}, default {_shown(opt.default)}]" in text
    assert text.count(", default ") == len(rows)


@pytest.mark.parametrize("command, shown", [
    ("sample", "[discretization.dt, default 0.01]"),
    ("ode", "[discretization.dt, default 0.001]"),
    ("sample", '[options.observables, default ["energy"]]'),
    ("spectrum", "[options.check_convergence, default true]"),
    ("spectrum", "[discretization.Kq, default 16]"),
    ("scan", "[options.gammas, default 0.125:2:7]"),
    ("poincare", "[ensemble.beta, default 1.0]"),
    ("ode", "0.5 with --figure1, else 1.0 [ensemble.gamma]"),
    ("dissipation", "when absent, tuned [options.epsilon]"),
    ("spectrum", "when absent, cosine with params {\"h\": 1.0, \"L\": 1.0} [potential.name]"),
])
def test_help_line_of_a_default(command, shown, capsys):
    with pytest.raises(SystemExit):
        run(command, "--help")
    assert shown in " ".join(capsys.readouterr().out.split())


def _csv_for_variance(path):
    rng = np.random.default_rng(4)
    rows = np.column_stack([0.5 * np.arange(400), rng.standard_normal(400), rng.standard_normal(400)])
    cli._write_csv(str(path), ["time", "a", "b"], rows)


# What both runs of test_absent_keys_read_their_row_defaults give: small discretizations and the input.
_SHARED = {"discretization": {"Kq": 4, "Np": 8}}
_SHARED_BY_COMMAND = {"poincare": {"discretization": {"Kq": 4}}, "variance": {"options": {"input": "in.csv"}},
                      "sample": {}, "ode": {}}


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_absent_keys_read_their_row_defaults(command, tmp_path, monkeypatch):
    """A run with every defaulted key absent and one that gives each at its row default report the same
    results and diagnostics; the keys the default mode does not read are left out of both."""
    monkeypatch.chdir(tmp_path)
    _csv_for_variance(tmp_path / "in.csv")
    shared = _SHARED_BY_COMMAND.get(command, _SHARED)
    rows = {opt.key: opt.default for opt in cli._OPTIONS if command in opt.commands}
    unread = {key for (cmd, mode_key, mode), keys in cli._UNREAD_IN_MODE.items()
              if cmd == command and rows[mode_key] == mode for key in keys}
    given = copy.deepcopy(shared)
    for key, default in rows.items():
        section, _, name = key.rpartition(".")
        if default is not None and key not in unread and name not in shared.get(section, {}):
            (given.setdefault(section, {}) if section else given)[name] = default
    assert given != shared
    reports = []
    for cfg in (shared, given):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run(command, "--config", "cfg.json", "--report", "rep.json") == 0
        rep = read_report(tmp_path / "rep.json")
        assert rep["config"] == {**cfg, "report": "rep.json"}  # the keys given, no defaults
        reports.append((rep["results"], rep["diagnostics"]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_generated_schema_is_valid_under_its_metaschema(command):
    from jsonschema import Draft202012Validator

    schema = cli._schema(command)
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    Draft202012Validator.check_schema(schema)


def _schema_keywords(schema):
    """(keyword, value) of every keyword in a schema and in its subschemas."""
    for keyword, value in schema.items():
        yield keyword, value
        if keyword == "items":
            yield from _schema_keywords(value)
        elif keyword == "properties":
            for sub in value.values():
                yield from _schema_keywords(sub)


def test_option_schemas_use_only_what_the_checker_implements():
    # a keyword the checker does not know (say a future "maximum") would be ignored
    schemas = [opt.schema for opt in cli._OPTIONS] + [cli._schema(c) for c in SUBCOMMAND_FLAGS]
    used = [kv for schema in schemas for kv in _schema_keywords(schema)]
    assert {keyword for keyword, _ in used} <= set(cli._KEYWORDS)
    assert {value for keyword, value in used if keyword == "type"} <= set(cli._TYPES)
    assert all(value is False for keyword, value in used if keyword == "additionalProperties")


_INTEGER_OPTIONS = [opt for opt in cli._OPTIONS if opt.schema.get("type") == "integer"]


@pytest.mark.parametrize("opt", _INTEGER_OPTIONS, ids=[opt.key for opt in _INTEGER_OPTIONS])
def test_integral_float_for_an_integer_key_exits_1(opt, tmp_path, capsys):
    # JSON schema counts 4.0 as an integer; the solvers and the report do not
    section, _, name = opt.key.rpartition(".")
    value = float(opt.schema["minimum"] + 2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    assert run(opt.commands[0], "--config", cfg_path) == 1
    err = capsys.readouterr().err
    assert f"config validation failed: {value!r} is not of type 'integer'" in err
    assert "Traceback" not in err


def _valid(schema):
    """Values that keep to `schema`."""
    kind = schema.get("type")
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if kind == "object":
        props = schema.get("properties")
        if props is None:  # potential.params: any object
            return st.dictionaries(st.text(max_size=2), st.floats(-3, 12), max_size=2)
        required = schema.get("required", [])
        return st.fixed_dictionaries({key: _valid(props[key]) for key in required},
                                     optional={key: _valid(sub) for key, sub in props.items() if key not in required})
    if kind == "array":
        return st.lists(_valid(schema["items"]), min_size=schema.get("minItems", 0), max_size=schema.get("maxItems", 3))
    if kind in ("number", "integer"):
        low = schema.get("minimum", schema.get("exclusiveMinimum", -3))
        ints = st.integers(math.ceil(low) + ("exclusiveMinimum" in schema), 12)
        return ints if kind == "integer" else st.one_of(
            ints, st.floats(low, 12, exclude_min="exclusiveMinimum" in schema))
    return {"string": st.text(max_size=2), "boolean": st.booleans()}[kind]


def _minimal(schema):
    """The smallest value that keeps to `schema`."""
    if "enum" in schema:
        return schema["enum"][0]
    kind = schema["type"]
    if kind == "object":
        return {key: _minimal(schema["properties"][key]) for key in schema.get("required", [])}
    if kind == "array":
        return [_minimal(schema["items"])] * schema.get("minItems", 0)
    if kind in ("number", "integer"):
        return schema.get("minimum", schema.get("exclusiveMinimum", 0) + 1)
    return {"string": "", "boolean": False}[kind]


def _nodes(schema, path=()):
    """(path, subschema) of `schema` and of everything nested in it: an array's items sit at index 0, and each
    closed object has a key "unread" with the empty schema."""
    yield path, schema
    if "properties" in schema:
        yield path + ("unread",), {}
    for key, sub in schema.get("properties", {}).items():
        yield from _nodes(sub, path + (key,))
    if "items" in schema:
        yield from _nodes(schema["items"], path + (0,))


def _faults(schema):
    """Values at or past the edges of `schema` (some still keep to it): other types, bools, the bound and
    below it, integral floats, empty and overlong arrays, unread keys and missing ones."""
    values = [None, True, False, "x", [0], {"unread": 0}, {}, 0, -1, 2.5]
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    if low is not None:
        values += [low, float(low), low - 1, low - 0.5, float(low + 2)]
    if schema.get("type") == "array":
        values += [[], [1.0] * (schema.get("maxItems", 2) + 1)]
    return values


def _put(schema, value, path, fault):
    """`value` with `fault` at `path`; a container missing on the way is the schema's minimal value."""
    if not path:
        return fault
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        items = list(value) if isinstance(value, list) and value else [_minimal(schema["items"])]
        items[0] = _put(schema["items"], items[0], rest, fault)
        return items
    value = dict(value) if isinstance(value, dict) else _minimal(schema)
    value[key] = _put(schema["properties"].get(key, {}), value.get(key), rest, fault)
    return value


@functools.cache
def _reference_validator(command):
    """jsonschema's Draft 2020-12 validator of _schema(command), with "integer" narrowed to int."""
    from jsonschema import Draft202012Validator, validators

    types = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return validators.extend(Draft202012Validator, type_checker=types)(cli._schema(command))


def _reference_message(command, cfg):
    """cli._validate's message by the reference validator if it finds one error, else the error count."""
    errors = list(_reference_validator(command).iter_errors(cfg))
    if len(errors) != 1:
        return len(errors)
    (exc,) = errors
    if exc.validator == "additionalProperties":
        prefix = "".join(f"{part}." for part in exc.absolute_path)
        unread = sorted(set(exc.instance) - set(exc.schema["properties"]))
        return f"{command} does not read config key(s): {', '.join(prefix + k for k in unread)}"
    return f"config validation failed: {exc.message}"


def _agrees_with_reference(command, cfg):
    try:
        cli._validate(cfg, command)
        message = None
    except InvalidArgumentError as exc:
        message = str(exc)
    want = _reference_message(command, cfg)
    if isinstance(want, int):  # zero or several errors: accept exactly when there are none
        return (message is None) == (want == 0)
    return message == want


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_config_checker_agrees_with_jsonschema_on_each_fault(command):
    """cli._validate accepts and rejects as Draft 2020-12 does (an integral float is not an integer), with
    jsonschema's message where it finds one error, for every _faults value at every node of the schema."""
    schema = cli._schema(command)
    cfgs = [_put(schema, _minimal(schema), path, fault) for path, node in _nodes(schema) for fault in _faults(node)]
    assert [cfg for cfg in cfgs if isinstance(cfg, dict) and not _agrees_with_reference(command, cfg)] == []


@st.composite
def _configs(draw, schema):
    """A valid config, with _faults values at up to three of the schema's nodes."""
    cfg = draw(_valid(schema))
    for path, node in draw(st.lists(st.sampled_from(list(_nodes(schema))[1:]), max_size=3)):
        cfg = _put(schema, cfg, path, draw(st.sampled_from(_faults(node))))
    return cfg


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
@settings(max_examples=100)
@given(data=st.data())
def test_config_checker_agrees_with_jsonschema(command, data):
    """As above, on drawn configs: valid ones, and ones with faults in several places."""
    assert _agrees_with_reference(command, data.draw(_configs(cli._schema(command))))


def test_parse_gammas_helper():
    assert cli._parse_gammas("0.125:2:7") == pytest.approx(
        [0.125 * 2**k for k in range(7)]
    )
    for bad in ("1:2", "a:2:7", "0:2:7", "1:-2:7", "1:2:0"):
        with pytest.raises(InvalidArgumentError):
            cli._parse_gammas(bad)


def test_scan_count_above_the_rung_limit_exits_1_before_the_ladder_is_built(monkeypatch, capsys):
    from hypokit import hypo

    monkeypatch.setattr(hypo, "SCAN_MAX_RUNGS", 7)
    assert cli._parse_gammas("0.125:2:7") == pytest.approx([0.125 * 2**k for k in range(7)])
    assert run("scan", "--gammas", "0.125:2:8", *SMALL_COSINE) == 1
    err = capsys.readouterr().err
    assert "--gammas count 8 is above the limit of 7 rungs" in err and "Traceback" not in err


def test_poisson_at_float_max_friction_solves_without_a_warning(tmp_path):
    """gamma = 1e300 is stiff but solvable: neither the Hermite chain nor the overdamped LU solve makes
    an rcond estimate, so no LinAlgWarning (which the suite turns into an error), and sigma^2 is
    gamma sigma^2_overdamped."""
    lang, ovd = tmp_path / "lang.json", tmp_path / "ovd.json"
    assert run("poisson", "--Kq", "4", "--Np", "8", "--gamma", "1e300", "--report", lang) == 0
    assert run("poisson", "--Kq", "4", "--dynamics", "overdamped", "--report", ovd) == 0
    got, want = read_report(lang), read_report(ovd)
    assert got["results"]["sigma2"] == pytest.approx(1e300 * want["results"]["sigma2"], rel=1e-12)
    for rep in (got, want):
        assert 0.0 <= rep["diagnostics"]["poisson_residual"] <= 1e-14


@pytest.mark.parametrize("command", ["spectrum", "poisson", "dissipation", "bounds"])
def test_overflowing_friction_exits_1_without_a_warning(command, capsys):
    """gamma (Np - 1) / m above the float maximum is refused where every solver reads the friction
    diagonal: exit 1 and one error line, with no warning of any category and no traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, "--gamma", "1e308", "--Kq", "4", "--Np", "8") == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error")] == [
        "error: gamma = 1e+308 overflows the generator's friction diagonal gamma (Np - 1) / m; lower gamma"]
    assert "Traceback" not in err


@pytest.mark.parametrize("observable", ["cos_q", "q_centered", "energy"])
def test_poisson_reports_its_relative_residual(observable, tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("poisson", "--observable", observable, "--Kq", "8", "--Np", "16", "--report", rep_path) == 0
    assert 0.0 < read_report(rep_path)["diagnostics"]["poisson_residual"] <= 1e-14


def test_q_centered_projects_into_the_odd_sector():
    # q -> -q maps the sawtooth to minus itself only if it is 0 at the jump q = L/2, a quadrature node
    spec, params = builtin_potential("cosine", {"h": 1.0, "L": 1.0}), EnsembleParams()
    f = cli._observable("q_centered", spec, params)
    basis = build_basis(spec, params)
    phi = project_phase_function(basis, lambda q, p: f(q[..., None], p[..., None]) + np.zeros((q.size, p.size)))
    red = reduced_generator(basis)
    z = red.to_reduced(phi)
    assert red.sector_names == ("even", "odd")
    assert np.linalg.norm(z[red.sector_index(0)]) <= 1e-12 * np.linalg.norm(z)


@pytest.mark.parametrize("h, sector", [("1", "even"), ("5", "odd")])
def test_spectrum_reports_the_sector_of_the_gap(h, sector, tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run("spectrum", "--param", f"h={h}", "--Kq", "8", "--Np", "16", "--no-check-convergence",
               "--report", rep_path) == 0
    assert read_report(rep_path)["diagnostics"]["gap_sector"] == sector
