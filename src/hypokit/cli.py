"""Command-line interface.

One JSON report per run is written to stdout (or --report PATH) with keys
{config, results, diagnostics, version}; bulk numbers go to CSV files with
floats formatted to 17 significant digits.  A JSON config file supplies any
subset of the keys in CONFIG_SCHEMA; command-line flags override config keys;
unknown keys are rejected.  Exit codes: 0 success, 1 invalid input or config,
2 numerical failure.  The environment variable HYPOKIT_THREADS caps scan
parallelism.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from typing import Callable

import jsonschema
import numpy as np

from . import __version__
from .errors import HypokitError, InvalidArgumentError, NumericalFailureError
from .estimators import asymptotic_variance_acf, batch_means_variance
from .hypo import (
    DefectiveCaseError,
    modified_norm_dissipation,
    fit_envelope_rate,
    gamma_scan,
    ode_eigs,
    ode_optimal_P,
    ode_perturbative_P,
    ode_trajectory,
    resolvent_lower_bound,
    tune_modified_norm_epsilon,
    verify_schur_bound,
)
from .model import (
    EnsembleParams,
    FullSpace,
    PhaseState,
    PotentialSpec,
    Torus,
    builtin_potential,
    eval_hamiltonian,
    _center_cell,
)
from .sde import RngStream, simulate
from .spectral import (
    DEFAULT_KQ,
    DEFAULT_NP,
    DEFAULT_NQUAD,
    assemble_generator,
    assemble_overdamped,
    build_basis,
    poincare_constant,
    project_phase_function,
    project_position_function,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)

log = logging.getLogger("hypokit")

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hypokit run configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
            "required": ["name"],
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number", "minimum": 0},
            },
        },
        "discretization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "Kq": {"type": "integer", "minimum": 1},
                "Np": {"type": "integer", "minimum": 2},
                "n_quad": {"type": "integer", "minimum": 8},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "stream_id": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "report": {"type": "string"},
        "options": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "observables": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "observable": {"type": "string"},
                "scheme": {"enum": ["langevin", "overdamped", "hamiltonian"]},
                "q0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "p0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "input": {"type": "string"},
                "column": {"type": "string"},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "method": {"enum": ["acf", "batch_means"]},
                "batches": {"type": "integer", "minimum": 2},
                "check_convergence": {"type": "boolean"},
                "dump_eigs": {"type": "string"},
                "dynamics": {"enum": ["langevin", "overdamped"]},
                "x0": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "figure1": {"type": "boolean"},
                "epsilon": {"type": "number"},
                "tune": {"type": "boolean"},
                "case": {"enum": ["auto", "convex", "hessian_lower_bound", "general"]},
                "K": {"type": "number", "minimum": 0},
                "c_prime": {"type": "number", "minimum": 0},
                "slack": {"type": "number", "minimum": 0},
                "gammas": {"type": "string"},
                "threads": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_DEFAULT_POTENTIAL = {"name": "cosine", "params": {"h": 1.0, "L": 1.0}}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, newline="\n") as fh:
            header = fh.readline().strip()
            if not header:
                raise InvalidArgumentError(f"empty CSV file: {path}")
            names = header.split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read CSV file {path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise InvalidArgumentError(f"CSV column count does not match header in {path}")
    return names, data


# ---------------------------------------------------------------------------
# configuration plumbing


def _merge_flag(cfg: dict, section: str, key: str, value) -> None:
    if value is None:
        return
    if section:
        cfg.setdefault(section, {})[key] = value
    else:
        cfg[key] = value


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise InvalidArgumentError("config file must contain a JSON object")

    if getattr(args, "potential", None):
        cfg.setdefault("potential", {})["name"] = args.potential
        cfg["potential"].setdefault("params", {})
    for kv in getattr(args, "param", None) or []:
        if "=" not in kv:
            raise InvalidArgumentError(f"--param expects key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            raise InvalidArgumentError(f"--param value for {key!r} is not valid JSON: {raw!r}")
        cfg.setdefault("potential", _DEFAULT_POTENTIAL.copy()).setdefault("params", {})[key] = val

    for flag, section, key in [
        ("beta", "ensemble", "beta"),
        ("mass", "ensemble", "mass"),
        ("gamma", "ensemble", "gamma"),
        ("Kq", "discretization", "Kq"),
        ("Np", "discretization", "Np"),
        ("n_quad", "discretization", "n_quad"),
        ("dt", "discretization", "dt"),
        ("n_steps", "discretization", "n_steps"),
        ("stride", "discretization", "stride"),
        ("seed", "", "seed"),
        ("stream_id", "", "stream_id"),
        ("out", "", "output"),
        ("report", "", "report"),
        ("observables", "options", "observables"),
        ("observable", "options", "observable"),
        ("scheme", "options", "scheme"),
        ("q0", "options", "q0"),
        ("p0", "options", "p0"),
        ("input", "options", "input"),
        ("column", "options", "column"),
        ("spacing", "options", "spacing"),
        ("method", "options", "method"),
        ("batches", "options", "batches"),
        ("check_convergence", "options", "check_convergence"),
        ("dump_eigs", "options", "dump_eigs"),
        ("dynamics", "options", "dynamics"),
        ("x0", "options", "x0"),
        ("T", "options", "T"),
        ("figure1", "options", "figure1"),
        ("epsilon", "options", "epsilon"),
        ("tune", "options", "tune"),
        ("case", "options", "case"),
        ("K", "options", "K"),
        ("c_prime", "options", "c_prime"),
        ("slack", "options", "slack"),
        ("gammas", "options", "gammas"),
        ("threads", "options", "threads"),
    ]:
        _merge_flag(cfg, section, key, getattr(args, flag, None))

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise InvalidArgumentError(f"config validation failed: {exc.message}") from exc
    return cfg


def _ensemble(cfg: dict) -> EnsembleParams:
    e = cfg.get("ensemble", {})
    return EnsembleParams(
        beta=e.get("beta", 1.0), mass=e.get("mass", 1.0), gamma=e.get("gamma", 1.0)
    )


def _potential(cfg: dict) -> PotentialSpec:
    pot = cfg.get("potential", _DEFAULT_POTENTIAL)
    return builtin_potential(pot["name"], pot.get("params", {}))


def _spectral_potential(cfg: dict, params: EnsembleParams) -> PotentialSpec:
    """Potential for torus-spectral commands; confining potentials get a cell."""
    pot = dict(cfg.get("potential", _DEFAULT_POTENTIAL))
    spec = builtin_potential(pot["name"], pot.get("params", {}))
    if isinstance(spec.domain, Torus):
        return spec
    if pot["name"] == "quadratic":
        omega = float(pot.get("params", {}).get("omega", 1.0))
        # Cell wide enough that the clipped Gaussian tail is far below the
        # spectral tolerances; 12 sigma left the gap error near 6e-7.
        length = 14.0 / (omega * math.sqrt(params.beta))
        new_params = dict(pot.get("params", {}), L=length)
        cfg.setdefault("potential", {}).setdefault("params", {})["L"] = length
        return builtin_potential("quadratic", new_params)
    raise InvalidArgumentError(
        f"potential '{pot['name']}' lives on full space; pass an explicit torus length L"
    )


def _discretization(cfg: dict) -> dict:
    d = dict(cfg.get("discretization", {}))
    d.setdefault("Kq", DEFAULT_KQ)
    d.setdefault("Np", DEFAULT_NP)
    d.setdefault("n_quad", max(DEFAULT_NQUAD, 8 * d["Kq"]))
    d.setdefault("dt", 0.01)
    d.setdefault("n_steps", 10000)
    d.setdefault("stride", 1)
    return d


def _rng(cfg: dict) -> RngStream:
    return RngStream(seed=cfg.get("seed", 2024), stream_id=cfg.get("stream_id", 0))


# ---------------------------------------------------------------------------
# observables


class _Observable:
    def __init__(self, name: str, state: Callable, phase=None, position=None):
        self.name = name
        self.state = state
        self.phase = phase
        self.position = position


def _build_observable(name: str, spec: PotentialSpec, params: EnsembleParams) -> _Observable:
    torus = isinstance(spec.domain, Torus)
    length = spec.domain.length if torus else None
    if name in ("cos_q", "sin_q", "q_centered") and not torus:
        raise InvalidArgumentError(f"observable '{name}' requires a torus domain")
    if name == "cos_q":
        c = 2.0 * math.pi / length
        return _Observable(
            name,
            state=lambda s: float(np.cos(c * s.q[0])),
            phase=lambda q, p: np.cos(c * q) * np.ones_like(p),
            position=lambda q: np.cos(c * q),
        )
    if name == "sin_q":
        c = 2.0 * math.pi / length
        return _Observable(
            name,
            state=lambda s: float(np.sin(c * s.q[0])),
            phase=lambda q, p: np.sin(c * q) * np.ones_like(p),
            position=lambda q: np.sin(c * q),
        )
    if name == "q_centered":
        return _Observable(
            name,
            state=lambda s: float(_center_cell(s.q[0], length)),
            phase=lambda q, p: _center_cell(q, length) * np.ones_like(p),
            position=lambda q: _center_cell(q, length),
        )
    if name == "p1":
        return _Observable(
            name,
            state=lambda s: float(s.p[0]),
            phase=lambda q, p: np.ones_like(q) * p,
        )
    if name == "p_squared":
        return _Observable(
            name,
            state=lambda s: float(np.dot(s.p, s.p)),
            phase=lambda q, p: np.ones_like(q) * p * p,
        )
    if name == "energy":
        m = params.mass
        return _Observable(
            name,
            state=lambda s: eval_hamiltonian(spec, params, s),
            phase=lambda q, p: spec.eval(q)[:, None] + p * p / (2.0 * m),
        )
    raise InvalidArgumentError(
        f"unknown observable '{name}'; options: cos_q, sin_q, q_centered, p1, p_squared, energy"
    )


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a results dict and a diagnostics dict)


def _cmd_sample(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _potential(cfg)
    disc = _discretization(cfg)
    opts = cfg.get("options", {})
    scheme = opts.get("scheme", "langevin")
    names = opts.get("observables", ["energy"])
    obs = [_build_observable(n, spec, params) for n in names]

    d = spec.domain.dim
    q0 = np.asarray(opts.get("q0", [0.0] * d), dtype=float)
    p0 = np.asarray(opts.get("p0", [0.0] * d), dtype=float)
    if q0.shape != (d,) or p0.shape != (d,):
        raise InvalidArgumentError(f"q0 and p0 must have length {d}")

    rec = simulate(
        PhaseState(q0, p0),
        n_steps=disc["n_steps"],
        stride=disc["stride"],
        dt=disc["dt"],
        scheme=scheme,
        observables=[o.state for o in obs],
        spec=spec,
        params=params,
        rng=_rng(cfg),
    )
    out = cfg.get("output")
    if out:
        rows = np.column_stack([rec.times, rec.observable_values])
        _write_csv(out, ["time"] + names, rows)
    results = {
        "columns": ["time"] + names,
        "n_records": int(rec.times.size),
        "spacing": rec.spacing,
        "means": {n: float(rec.observable_values[:, j].mean()) for j, n in enumerate(names)},
        "output": out,
    }
    return results, {"scheme": scheme, "n_steps": disc["n_steps"]}


def _cmd_variance(cfg: dict) -> tuple[dict, dict]:
    opts = cfg.get("options", {})
    path = opts.get("input")
    if not path:
        raise InvalidArgumentError("variance needs --input CSV")
    names, data = _read_csv(path)
    column = opts.get("column")
    if column is None:
        candidates = [n for n in names if n != "time"]
        if not candidates:
            raise InvalidArgumentError("CSV has no observable column")
        column = candidates[0]
    if column not in names:
        raise InvalidArgumentError(f"column '{column}' not in CSV header {names}")
    values = data[:, names.index(column)]

    spacing = opts.get("spacing")
    if spacing is None:
        if "time" not in names or data.shape[0] < 2:
            raise InvalidArgumentError("cannot infer spacing; pass --spacing")
        t = data[:, names.index("time")]
        steps = np.diff(t)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-300)):
            raise InvalidArgumentError("time column is not uniformly spaced; pass --spacing")
        spacing = float(steps[0])

    method = opts.get("method", "acf")
    if method == "acf":
        rep = asymptotic_variance_acf(values, spacing)
    else:
        rep = batch_means_variance(values, spacing, n_batches=opts.get("batches", 32))
    results = {
        "column": column,
        "spacing": spacing,
        "mean": rep.mean,
        "sigma2": rep.sigma2,
        "ess": rep.ess,
        "method": rep.method,
        "window_or_batches": rep.window_or_batches,
    }
    return results, {"n_samples": int(values.size)}


def _spectral_setup(cfg: dict):
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    basis = build_basis(spec, params, Kq=disc["Kq"], Np=disc["Np"], n_quad=disc["n_quad"])
    asm = assemble_generator(basis, spec, params)
    return params, spec, disc, basis, asm


def _cmd_spectrum(cfg: dict) -> tuple[dict, dict]:
    params, spec, disc, basis, asm = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    res = spectral_gap(asm)
    diagnostics: dict = {"n_quad": disc["n_quad"], "size": basis.size}

    converged = None
    if opts.get("check_convergence", True):
        kq2 = math.ceil(1.5 * disc["Kq"])
        np2 = math.ceil(1.5 * disc["Np"])
        basis2 = build_basis(spec, params, Kq=kq2, Np=np2, n_quad=max(disc["n_quad"], 8 * kq2))
        res2 = spectral_gap(assemble_generator(basis2, spec, params))
        converged = bool(abs(res2.gap - res.gap) <= 0.01 * abs(res.gap))
        diagnostics["refined_gap"] = res2.gap
        diagnostics["refined_Kq"] = kq2
        diagnostics["refined_Np"] = np2

    dump = opts.get("dump_eigs")
    if dump:
        from .spectral import reduced_generator

        red = reduced_generator(asm)
        eigs = np.linalg.eigvals(-red.operator(asm.gamma))
        order = np.lexsort((eigs.imag, eigs.real))
        _write_csv(dump, ["real", "imag"], np.column_stack([eigs.real[order], eigs.imag[order]]))
        diagnostics["dump_eigs"] = dump

    results = {
        "gamma": params.gamma,
        "gap": res.gap,
        "Kq": disc["Kq"],
        "Np": disc["Np"],
        "converged": converged,
        "eig_count_checked": res.eig_count_checked,
    }
    return results, diagnostics


def _cmd_poisson(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    opts = cfg.get("options", {})
    name = opts.get("observable", "cos_q")
    dynamics = opts.get("dynamics", "langevin")
    obs = _build_observable(name, spec, params)

    basis = build_basis(spec, params, Kq=disc["Kq"], Np=disc["Np"], n_quad=disc["n_quad"])
    if dynamics == "langevin":
        asm = assemble_generator(basis, spec, params)
        phi = project_phase_function(basis, obs.phase)
        sol = solve_poisson(asm, phi)
    else:
        if obs.position is None:
            raise InvalidArgumentError(f"observable '{name}' depends on p; overdamped needs a position observable")
        ovd = assemble_overdamped(basis, spec, params)
        phi_q = project_position_function(basis, obs.position)
        sol = solve_poisson_overdamped(ovd, phi_q)

    results = {
        "observable": name,
        "dynamics": dynamics,
        "sigma2": sol.sigma2,
        "gamma": params.gamma if dynamics == "langevin" else None,
    }
    return results, {"Kq": disc["Kq"], "Np": disc["Np"], "n_quad": disc["n_quad"]}


def _cmd_poincare(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    r_nu = poincare_constant(spec, params, Kq=disc["Kq"])
    return {"r_nu": r_nu, "beta": params.beta, "Kq": disc["Kq"]}, {}


def _cmd_ode(cfg: dict) -> tuple[dict, dict]:
    opts = cfg.get("options", {})
    figure1 = bool(opts.get("figure1", False))
    gamma = cfg.get("ensemble", {}).get("gamma", 0.5 if figure1 else 1.0)
    x0 = opts.get("x0", [1.0, 1.0])
    T = opts.get("T", 40.0 if figure1 else 20.0)
    dt = cfg.get("discretization", {}).get("dt", 1e-3)

    eigs = ode_eigs(gamma)
    results: dict = {
        "gamma": gamma,
        "gap": eigs.gap,
        "lambda_plus": [eigs.lambda_plus.real, eigs.lambda_plus.imag],
        "lambda_minus": [eigs.lambda_minus.real, eigs.lambda_minus.imag],
    }
    try:
        opt = ode_optimal_P(gamma)
        results["defective"] = False
        results["p_matrix"] = [[float(v) for v in row] for row in opt.p_mat]
        results["p_certificate"] = bool(opt.cert_ok)
        results["perturbative_fallback"] = False
    except DefectiveCaseError:
        pert = ode_perturbative_P(gamma, 0.5)
        results["defective"] = True
        results["p_matrix"] = [[float(v) for v in row] for row in pert.p_mat]
        results["min_eig_dissipation"] = pert.min_eig_dissipation
        results["perturbative_fallback"] = True

    traj = ode_trajectory(gamma, x0, T, dt)
    out = cfg.get("output")
    if out:
        _write_csv(out, ["t", "X1", "X2"], traj)
        results["output"] = out
    try:
        results["envelope_rate"] = fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])
    except NumericalFailureError:
        results["envelope_rate"] = None
    return results, {"n_rows": int(traj.shape[0]), "dt": dt, "T": T}


def _cmd_dissipation(cfg: dict) -> tuple[dict, dict]:
    params, spec, disc, basis, asm = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    eps = opts.get("epsilon")
    if eps is not None and not opts.get("tune", False):
        res = modified_norm_dissipation(asm, eps)
        tuned = False
    else:
        res = tune_modified_norm_epsilon(asm)
        tuned = True
    results = {
        "epsilon": res.epsilon,
        "lambda_est": res.lambda_est,
        "r_norm": res.r_norm,
        "lham_r_norm": res.lham_r_norm,
        "r_norm_ok": res.r_norm_ok,
        "lham_r_norm_ok": res.lham_r_norm_ok,
        "tuned": tuned,
        "gamma": params.gamma,
    }
    return results, {"size": basis.size}


def _cmd_bounds(cfg: dict) -> tuple[dict, dict]:
    params, spec, disc, basis, asm = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    case = opts.get("case", "auto")
    check = verify_schur_bound(
        asm,
        spec,
        params,
        case=None if case == "auto" else case,
        K=opts.get("K"),
        c_prime=opts.get("c_prime"),
        slack=opts.get("slack", 0.05),
    )
    witnesses = resolvent_lower_bound(spec, params, asm)
    results = {
        "numeric": check.numeric,
        "bound": check.bound,
        "holds": check.holds,
        "case": check.case,
        "K": check.K,
        "r_nu": check.r_nu,
        "witness_overdamped": witnesses.overdamped,
        "witness_underdamped": witnesses.underdamped,
        "gamma": params.gamma,
    }
    return results, {"size": basis.size}


def _parse_gammas(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidArgumentError("--gammas expects start:ratio:count")
    try:
        start, ratio, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad --gammas value {text!r}: {exc}") from exc
    if start <= 0 or ratio <= 0 or count < 1:
        raise InvalidArgumentError("--gammas needs start > 0, ratio > 0, count >= 1")
    return [start * ratio**k for k in range(count)]


def _cmd_scan(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    opts = cfg.get("options", {})
    gammas = _parse_gammas(opts.get("gammas", "0.125:2:7"))
    scan = gamma_scan(
        spec,
        params,
        gammas,
        Kq=disc["Kq"],
        Np=disc["Np"],
        n_quad=disc["n_quad"],
        max_workers=opts.get("threads"),
    )
    out = cfg.get("output")
    if out:
        rows = np.column_stack([scan.table.gammas, scan.table.gaps, scan.table.lower_model])
        _write_csv(out, ["gamma", "gap", "lower_model"], rows)
    results = {
        "slope_small_gamma": scan.slope_small_gamma,
        "slope_large_gamma": scan.slope_large_gamma,
        "lambda_bar": scan.lambda_bar,
        "rows": [
            {"gamma": float(g), "gap": float(gap), "lower_model": float(lm)}
            for g, gap, lm in zip(scan.table.gammas, scan.table.gaps, scan.table.lower_model)
        ],
        "row_errors": {str(k): v for k, v in scan.row_errors.items()},
        "output": out,
    }
    return results, {"Kq": disc["Kq"], "Np": disc["Np"]}


_HANDLERS = {
    "sample": _cmd_sample,
    "variance": _cmd_variance,
    "spectrum": _cmd_spectrum,
    "poisson": _cmd_poisson,
    "poincare": _cmd_poincare,
    "ode": _cmd_ode,
    "dissipation": _cmd_dissipation,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
}


# ---------------------------------------------------------------------------
# parser


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--report", help="write the JSON report here instead of stdout")
        return p

    def add_potential(p):
        p.add_argument("--potential", help="builtin potential name")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="potential parameter (JSON value), repeatable")
        p.add_argument("--beta", type=float)

    def add_ensemble(p):
        add_potential(p)
        p.add_argument("--mass", type=float)
        p.add_argument("--gamma", type=float)

    def add_basis(p):
        p.add_argument("--Kq", type=int)
        p.add_argument("--Np", type=int)
        p.add_argument("--n-quad", dest="n_quad", type=int)

    p = add("sample", "integrate one trajectory and write observable samples to CSV")
    add_ensemble(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--stream-id", dest="stream_id", type=int)
    p.add_argument("--scheme", choices=["langevin", "overdamped", "hamiltonian"])
    p.add_argument("--dt", type=float)
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--observable", dest="observables", action="append", metavar="NAME")
    p.add_argument("--q0", type=_csv_floats)
    p.add_argument("--p0", type=_csv_floats)
    p.add_argument("--out", help="output CSV path")

    p = add("variance", "asymptotic-variance report for a sampled observable")
    p.add_argument("--input", help="CSV produced by `hypokit sample`")
    p.add_argument("--column")
    p.add_argument("--spacing", type=float)
    p.add_argument("--method", choices=["acf", "batch_means"])
    p.add_argument("--batches", type=int)

    p = add("spectrum", "spectral gap of the kinetic generator")
    add_ensemble(p)
    add_basis(p)
    p.add_argument("--check-convergence", dest="check_convergence",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--dump-eigs", dest="dump_eigs", help="CSV path for the deflated spectrum")

    p = add("poisson", "asymptotic variance from the Galerkin Poisson equation")
    add_ensemble(p)
    add_basis(p)
    p.add_argument("--observable")
    p.add_argument("--dynamics", choices=["langevin", "overdamped"])

    p = add("poincare", "Poincare constant of the configurational measure")
    add_potential(p)
    p.add_argument("--Kq", type=int, help="starting Kq; refined until the value settles")

    p = add("ode", "2x2 hypocoercive toy model: spectrum, P matrices, trajectory")
    p.add_argument("--gamma", type=float)
    p.add_argument("--x0", type=_csv_floats, metavar="X1,X2")
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--figure1", action="store_true", default=None,
                   help="preset: gamma=0.5, x0=(1,1), T=40")
    p.add_argument("--out", help="trajectory CSV path")

    p = add("dissipation", "modified-norm dissipation rate of the kinetic generator")
    add_ensemble(p)
    add_basis(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tune", action="store_true", default=None)

    p = add("bounds", "resolvent norm vs the explicit upper bound, plus witnesses")
    add_ensemble(p)
    add_basis(p)
    p.add_argument("--case", choices=["auto", "convex", "hessian_lower_bound", "general"])
    p.add_argument("--K", type=float)
    p.add_argument("--c-prime", dest="c_prime", type=float)
    p.add_argument("--slack", type=float)

    p = add("scan", "spectral gap across a geometric friction ladder")
    add_ensemble(p)
    add_basis(p)
    p.add_argument("--gammas", metavar="START:RATIO:COUNT")
    p.add_argument("--threads", type=int)
    p.add_argument("--out", help="scaling table CSV path")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1

    try:
        cfg = _load_config(args)
        log.info("resolved config: %s", json.dumps(cfg, sort_keys=True))
        results, diagnostics = _HANDLERS[args.command](cfg)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except HypokitError as exc:  # pragma: no cover - defensive default
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "config": cfg,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.get("report"):
        with open(cfg["report"], "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
