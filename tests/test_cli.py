"""End-to-end CLI checks: exit codes, report layout, CSV format, determinism."""

import argparse
import copy
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hypokit import EnsembleParams, PhaseState, RngStream, builtin_potential, cli, eval_hamiltonian, simulate
from hypokit.errors import InvalidArgumentError, NumericalFailureError
from hypokit.model import _center_cell
from hypokit.spectral import build_basis, project_phase_function, reduced_generator


def run(*argv):
    return cli.main([str(a) for a in argv])


SMALL_QUAD = [
    "--potential", "quadratic", "--param", "omega=1.0",
    "--Kq", "8", "--Np", "16", "--n-quad", "64",
]


def read_report(path):
    with open(path) as fh:
        rep = json.load(fh)
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
def test_gauss_hermite_overflow_exits_2(command, n_p, capsys, recwarn):
    # at Np + 8 = 371 nodes the rule's weights come back all zero, beyond that inf or nan
    assert run(*command, "--Kq", "2", "--Np", n_p) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"numerical failure: the {n_p + 8}-node Gauss-Hermite rule for Np={n_p} overflows")
    assert err[-1].endswith("the largest Np that works is 362") and not recwarn.list


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
])
def test_rejection_names_what_it_rejects(argv, names, capsys):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err


@pytest.mark.parametrize("body, message", [
    ("time,x\n0,1\n0.5,abc\n", "cannot parse CSV file"),
    ("time,x\n0,1\n0.5,2,3\n", "cannot parse CSV file"),
    ("time,x\n", "has a header but no data rows"),
    ("time,x\n0,1\n0.5,nan\n1,2\n", "holds a NaN or infinite value"),
    ("time,x\n0,1\n0.5,-inf\n1,2\n", "holds a NaN or infinite value"),
    ("time,x\n0,1\nnan,2\n1,2\n", "column 'time'"),
], ids=["not-a-number", "ragged-row", "header-only", "nan", "inf", "nan-time"])
@pytest.mark.filterwarnings("error")
def test_variance_input_that_cannot_be_read_exits_1(body, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert run("variance", "--input", path) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(err) == 1 and message in err[0] and str(path) in err[0]


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
    from hypokit import spectral

    monkeypatch.setattr(spectral, "DENSE_MAX_BYTES", 1000)
    assert run("bounds", "--Kq", "4", "--Np", "8") == 1
    err = capsys.readouterr().err
    assert "71 x 71 float64" in err and "limit" in err and "Traceback" not in err


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


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported where a solver needs it; at module level it
    # adds about 30 ms to every start-up
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = "import sys, hypokit.cli; print(any(m.startswith('scipy.sparse') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_malformed_config_section_exits_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ensemble": 5}))
    assert run("ode", "--config", cfg_path, "--gamma", "1.0") == 1


def test_malformed_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert run("ode", "--config", cfg_path) == 1


def test_numerical_failure_exits_2(tmp_path, monkeypatch):
    def boom(asm):
        raise NumericalFailureError("synthetic blowup")

    monkeypatch.setattr(cli, "spectral_gap", boom)
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
    assert res["lambda_bar"] > 1
    assert res["slope_small_gamma"] == pytest.approx(1.0, abs=0.02)


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


def test_parse_gammas_helper():
    assert cli._parse_gammas("0.125:2:7") == pytest.approx(
        [0.125 * 2**k for k in range(7)]
    )
    for bad in ("1:2", "a:2:7", "0:2:7", "1:-2:7", "1:2:0"):
        with pytest.raises(InvalidArgumentError):
            cli._parse_gammas(bad)


def test_poisson_at_float_max_friction_solves_without_a_warning(tmp_path):
    """gamma = 1e300 is stiff but solvable: the LU solve makes no rcond estimate, so no
    LinAlgWarning (which the suite turns into an error), and sigma^2 is gamma sigma^2_overdamped."""
    lang, ovd = tmp_path / "lang.json", tmp_path / "ovd.json"
    assert run("poisson", "--Kq", "4", "--Np", "8", "--gamma", "1e300", "--report", lang) == 0
    assert run("poisson", "--Kq", "4", "--dynamics", "overdamped", "--report", ovd) == 0
    got, want = read_report(lang), read_report(ovd)
    assert got["results"]["sigma2"] == pytest.approx(1e300 * want["results"]["sigma2"], rel=1e-12)
    for rep in (got, want):
        assert 0.0 <= rep["diagnostics"]["poisson_residual"] <= 1e-14


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
