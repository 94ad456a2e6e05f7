"""Command-line interface.

One JSON report per run is written to stdout (or --report PATH) with keys
{config, results, diagnostics, version}; bulk numbers go to CSV files with
floats formatted to 17 significant digits.  A JSON config file supplies any
subset of the keys its subcommand reads (`hypokit COMMAND --help` lists them
in brackets); command-line flags override config keys; a key the subcommand
does not read is rejected.  Exit codes: 0 success, 1 invalid input or config,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import sys
import warnings
from typing import Callable, NamedTuple

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
    _center_cell,
)
from .sde import SCHEMES, RngStream, simulate
from .spectral import (
    DEFAULT_KQ,
    DEFAULT_NP,
    assemble_generator,
    assemble_overdamped,
    build_basis,
    contour_gap,
    poincare_constant,
    project_phase_function,
    project_position_function,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)

log = logging.getLogger("hypokit")


class _Option(NamedTuple):
    """One option: flag, config key, value schema and the subcommands that read it."""

    flag: str
    key: str  # "section.key" or a top-level key
    schema: dict  # JSON-schema fragment for the value
    commands: tuple[str, ...]
    help: str
    extras: dict = {}  # further argparse keywords


_KINETIC = ("spectrum", "poisson", "dissipation", "bounds")
_SPECTRAL = _KINETIC + ("scan",)
_POTENTIAL = _SPECTRAL + ("sample", "poincare")
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}, "minItems": 1}

# The one declaration of every option: the parser, each subcommand's config
# schema and the flag merge are all generated from this table.
_OPTIONS = (
    _Option("--potential", "potential.name", {"type": "string"}, _POTENTIAL, "builtin potential name"),
    _Option("--param", "potential.params", {"type": "object"}, _POTENTIAL,
            "potential parameter (JSON value), repeatable", {"action": "append", "metavar": "KEY=VALUE"}),
    _Option("--beta", "ensemble.beta", _POSITIVE, _POTENTIAL, "inverse temperature"),
    _Option("--mass", "ensemble.mass", _POSITIVE, _SPECTRAL + ("sample",), "particle mass"),
    # scan takes its frictions from --gammas
    _Option("--gamma", "ensemble.gamma", {"type": "number", "minimum": 0}, _KINETIC + ("sample", "ode"),
            "friction"),
    _Option("--Kq", "discretization.Kq", {"type": "integer", "minimum": 1}, _SPECTRAL + ("poincare",), "Fourier modes"),
    _Option("--Np", "discretization.Np", {"type": "integer", "minimum": 2}, _SPECTRAL, "Hermite functions in p"),
    _Option("--n-quad", "discretization.n_quad", {"type": "integer", "minimum": 8}, _SPECTRAL + ("poincare",),
            "quadrature nodes in q"),
    _Option("--dt", "discretization.dt", _POSITIVE, ("sample", "ode"), "time step"),
    _Option("--n-steps", "discretization.n_steps", {"type": "integer", "minimum": 1}, ("sample",),
            "number of steps"),
    _Option("--stride", "discretization.stride", {"type": "integer", "minimum": 1}, ("sample",),
            "record every stride-th step"),
    _Option("--seed", "seed", {"type": "integer", "minimum": 0}, ("sample",), "noise seed"),
    _Option("--stream-id", "stream_id", {"type": "integer", "minimum": 0}, ("sample",), "noise stream id"),
    _Option("--out", "output", {"type": "string"}, ("sample", "ode", "scan"), "output CSV path"),
    _Option("--report", "report", {"type": "string"}, _POTENTIAL + ("variance", "ode"),
            "write the JSON report here instead of stdout"),
    _Option("--observable", "options.observables", {"type": "array", "items": {"type": "string"}, "minItems": 1},
            ("sample",), "observable to record, repeatable", {"action": "append", "metavar": "NAME"}),
    _Option("--observable", "options.observable", {"type": "string"}, ("poisson",), "observable"),
    _Option("--scheme", "options.scheme", {"enum": list(SCHEMES)}, ("sample",), "integrator"),
    _Option("--q0", "options.q0", _NUMBERS, ("sample",), "initial position, comma-separated"),
    _Option("--p0", "options.p0", _NUMBERS, ("sample",), "initial momentum, comma-separated"),
    _Option("--input", "options.input", {"type": "string"}, ("variance",), "CSV produced by `hypokit sample`"),
    _Option("--column", "options.column", {"type": "string"}, ("variance",),
            "column to analyse (default: the first that is not time)"),
    _Option("--spacing", "options.spacing", _POSITIVE, ("variance",),
            "time between rows (default: from the time column)"),
    _Option("--method", "options.method", {"enum": ["acf", "batch_means"]}, ("variance",), "estimator"),
    _Option("--batches", "options.batches", {"type": "integer", "minimum": 2}, ("variance",),
            "number of batches for batch_means"),
    _Option("--check-convergence", "options.check_convergence", {"type": "boolean"}, ("spectrum",),
            "recompute the gap at 1.5x Kq and Np", {"action": argparse.BooleanOptionalAction}),
    _Option("--dump-eigs", "options.dump_eigs", {"type": "string"}, ("spectrum",),
            "CSV path for the deflated spectrum"),
    _Option("--dynamics", "options.dynamics", {"enum": ["langevin", "overdamped"]}, ("poisson",), "dynamics"),
    _Option("--x0", "options.x0", {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            ("ode",), "initial point", {"metavar": "X1,X2"}),
    _Option("--T", "options.T", _POSITIVE, ("ode",), "final time"),
    _Option("--figure1", "options.figure1", {"type": "boolean"}, ("ode",), "preset: gamma=0.5, x0=(1,1), T=40",
            {"action": "store_true"}),
    _Option("--epsilon", "options.epsilon", {"type": "number"}, ("dissipation",),
            "modified-norm epsilon (default: tuned)"),
    _Option("--case", "options.case", {"enum": ["auto", "convex", "hessian_lower_bound", "general"]},
            ("bounds",), "case of the resolvent bound"),
    _Option("--K", "options.K", {"type": "number", "minimum": 0}, ("bounds",), "Hessian lower bound -K"),
    _Option("--c-prime", "options.c_prime", {"type": "number", "minimum": 0}, ("bounds",),
            "constant C' of the general case"),
    _Option("--slack", "options.slack", {"type": "number", "minimum": 0}, ("bounds",),
            "relative tolerance of the bound check"),
    _Option("--gammas", "options.gammas", {"type": "string"}, ("scan",), "geometric friction ladder",
            {"metavar": "START:RATIO:COUNT"}),
    _Option("--threads", "options.threads", {"type": "integer", "minimum": 1}, ("scan",),
            "worker threads, one friction each (default 1)"),
)

# The mode a mode key selects when it is absent.
_MODE_DEFAULTS = {"options.dynamics": "langevin", "options.scheme": "langevin", "options.method": "acf"}

# Keys a subcommand reads in some modes only: (command, mode key, mode) -> the
# keys that mode ignores.  Giving one of them in that mode exits 1.
_UNREAD_IN_MODE = {
    ("poisson", "options.dynamics", "overdamped"): ("ensemble.gamma", "ensemble.mass", "discretization.Np"),
    ("sample", "options.scheme", "overdamped"): ("ensemble.gamma",),
    ("sample", "options.scheme", "hamiltonian"): ("ensemble.gamma", "seed", "stream_id"),
    ("variance", "options.method", "acf"): ("options.batches",),
}

_DEFAULT_POTENTIAL = {"name": "cosine", "params": {"h": 1.0, "L": 1.0}}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


_CSV_BLOCK = 1024  # rows formatted by one % call in _write_csv


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """The bytes np.savetxt writes with fmt="%.17g", formatted a block of rows per % call."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[lo : lo + _CSV_BLOCK]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, newline="\n") as fh:
            header = fh.readline().strip()
            if not header:
                raise InvalidArgumentError(f"empty CSV file: {path}")
            names = header.split(",")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read CSV file {path}: {exc}") from exc
    except ValueError as exc:  # a cell that is not a number, or a row of another length
        raise InvalidArgumentError(f"cannot parse CSV file {path}: {str(exc).splitlines()[0]}") from exc
    if data.shape[0] == 0:
        raise InvalidArgumentError(f"CSV file {path} has a header but no data rows")
    if data.shape[1] != len(names):
        raise InvalidArgumentError(f"CSV column count does not match header in {path}")
    return names, data


def _finite_column(data: np.ndarray, names: list[str], name: str, path: str) -> np.ndarray:
    values = data[:, names.index(name)]
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"column '{name}' of CSV file {path} holds a NaN or infinite value")
    return values


# ---------------------------------------------------------------------------
# configuration plumbing


def _schema(command: str) -> dict:
    """JSON schema that admits exactly the config keys `command` reads."""

    def closed(properties: dict) -> dict:
        return {"type": "object", "additionalProperties": False, "properties": properties}

    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **closed({})}
    for opt in _OPTIONS:
        if command in opt.commands:
            section, _, key = opt.key.rpartition(".")
            props = schema["properties"]
            if section:
                props = props.setdefault(section, closed({}))["properties"]
            props[key] = opt.schema
    if "potential" in schema["properties"]:
        schema["properties"]["potential"]["required"] = ["name"]
    return schema


def _validate(cfg: dict, command: str) -> None:
    try:
        jsonschema.validate(cfg, _schema(command))
    except jsonschema.ValidationError as exc:
        if exc.validator == "additionalProperties":
            prefix = "".join(f"{part}." for part in exc.absolute_path)
            unread = sorted(set(exc.instance) - set(exc.schema["properties"]))
            raise InvalidArgumentError(
                f"{command} does not read config key(s): {', '.join(prefix + k for k in unread)}"
            ) from exc
        raise InvalidArgumentError(f"config validation failed: {exc.message}") from exc


def _lookup(cfg: dict, key: str):
    section, _, name = key.rpartition(".")
    return (cfg.get(section, {}) if section else cfg).get(name)


def _mode(cfg: dict, mode_key: str) -> str:
    value = _lookup(cfg, mode_key)
    return _MODE_DEFAULTS[mode_key] if value is None else value


def _reject_unread_in_mode(cfg: dict, command: str) -> None:
    for (cmd, mode_key, mode), keys in _UNREAD_IN_MODE.items():
        if cmd != command or _mode(cfg, mode_key) != mode:
            continue
        given = [k for k in keys if _lookup(cfg, k) is not None]
        if given:
            raise InvalidArgumentError(
                f"{command} with {mode_key} = {mode} does not read config key(s): {', '.join(given)}"
            )


def _reject_non_finite(value, where: str) -> None:
    """Exit 1 on a NaN or infinity anywhere in a parsed JSON value (Python's json reads both)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidArgumentError(f"{where} is not a finite number: {value}")
    for k, v in value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ():
        _reject_non_finite(v, f"{where}.{k}")


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise InvalidArgumentError("config file must contain a JSON object")
        _reject_non_finite(cfg, "config")
        _validate(cfg, args.command)

    # parser dests are the config keys
    flags = vars(args)
    if flags.get("potential.name") is not None:
        cfg.setdefault("potential", {})["name"] = flags["potential.name"]
        cfg["potential"].setdefault("params", {})
    for kv in flags.get("potential.params") or []:
        if "=" not in kv:
            raise InvalidArgumentError(f"--param expects key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            raise InvalidArgumentError(f"--param value for {key!r} is not valid JSON: {raw!r}")
        _reject_non_finite(val, f"--param {key}")
        cfg.setdefault("potential", copy.deepcopy(_DEFAULT_POTENTIAL)).setdefault("params", {})[key] = val

    for opt in _OPTIONS:
        value = flags.get(opt.key)
        section, _, key = opt.key.rpartition(".")
        if value is not None and section != "potential":
            (cfg.setdefault(section, {}) if section else cfg)[key] = value

    _validate(cfg, args.command)
    _reject_unread_in_mode(cfg, args.command)
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
    d.setdefault("dt", 0.01)
    d.setdefault("n_steps", 10000)
    d.setdefault("stride", 1)
    return d


def _rng(cfg: dict) -> RngStream:
    return RngStream(seed=cfg.get("seed", 2024), stream_id=cfg.get("stream_id", 0))


# ---------------------------------------------------------------------------
# observables


# Observables that read q only; the overdamped Poisson solve accepts these.
_POSITION_OBSERVABLES = ("cos_q", "sin_q", "q_centered")
_OBSERVABLES = _POSITION_OBSERVABLES + ("p1", "p_squared", "energy")
_OBSERVABLE_BLOCK = 16384  # recorded states per observable evaluation in sample


def _observable(name: str, spec: PotentialSpec, params: EnsembleParams) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The observable `name` as f(q, p) on position and momentum arrays of shape (..., d)."""
    if name in _POSITION_OBSERVABLES and not isinstance(spec.domain, Torus):
        raise InvalidArgumentError(f"observable '{name}' requires a torus domain")
    if name in ("cos_q", "sin_q"):
        c, trig = 2.0 * math.pi / spec.domain.length, np.cos if name == "cos_q" else np.sin
        return lambda q, p: trig(c * q[..., 0])
    if name == "q_centered":
        length = spec.domain.length

        def q_centered(q, p):
            x = _center_cell(q[..., 0], length)
            return np.where(x == -0.5 * length, 0.0, x)  # 0 at the jump q = L/2, so the sawtooth is odd

        return q_centered
    if name == "p1":
        return lambda q, p: p[..., 0]
    if name == "p_squared":
        return lambda q, p: np.vecdot(p, p)
    if name == "energy":
        m = params.mass
        return lambda q, p: spec.eval(q) + 0.5 * np.vecdot(p, p) / m
    raise InvalidArgumentError(f"unknown observable '{name}'; options: {', '.join(_OBSERVABLES)}")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a results dict and a diagnostics dict)


def _cmd_sample(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _potential(cfg)
    disc = _discretization(cfg)
    opts = cfg.get("options", {})
    scheme = _mode(cfg, "options.scheme")
    names = opts.get("observables", ["energy"])
    fs = [_observable(n, spec, params) for n in names]

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
        spec=spec,
        params=params,
        rng=_rng(cfg),
    )
    # one column per observable, filled in row blocks to bound the temporaries
    table = np.empty((rec.times.size, 1 + len(fs)))
    table[:, 0] = rec.times
    for lo in range(0, rec.times.size, _OBSERVABLE_BLOCK):
        rows = slice(lo, lo + _OBSERVABLE_BLOCK)
        for j, f in enumerate(fs, 1):
            table[rows, j] = f(rec.q[rows], rec.p[rows])
    out = cfg.get("output")
    if out:
        _write_csv(out, ["time"] + names, table)
    results = {
        "columns": ["time"] + names,
        "n_records": int(rec.times.size),
        "spacing": rec.spacing,
        "means": {n: float(table[:, j].mean()) for j, n in enumerate(names, 1)},
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
    values = _finite_column(data, names, column, path)

    spacing = opts.get("spacing")
    if spacing is None:
        if "time" not in names or data.shape[0] < 2:
            raise InvalidArgumentError("cannot infer spacing; pass --spacing")
        t = _finite_column(data, names, "time", path)
        steps = np.diff(t)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-300)):
            raise InvalidArgumentError("time column is not uniformly spaced; pass --spacing")
        spacing = float(steps[0])

    method = _mode(cfg, "options.method")
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
    """(params, disc, basis): the basis carries the potential, beta and m; gamma is bound by the caller."""
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    return params, disc, build_basis(spec, params, Kq=disc["Kq"], Np=disc["Np"], n_quad=disc.get("n_quad"))


def _eig_row_order(eigs: np.ndarray, norm1: float) -> np.ndarray:
    """--dump-eigs row order that roundoff relative to ||L||_1 cannot change.

    Real parts binned at 1e-8 ||L||_1, then |imag|, then the exact real part
    (which both members of a conjugate pair share), then imag: pairs stay
    adjacent, negative member first.
    """
    bins = np.round(eigs.real / (1e-8 * norm1))
    return np.lexsort((eigs.imag, eigs.real, np.abs(eigs.imag), bins))


def _cmd_spectrum(cfg: dict) -> tuple[dict, dict]:
    params, disc, basis = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    res = spectral_gap(assemble_generator(basis, params.gamma))
    diagnostics: dict = {"n_quad": basis.nodes.size, "size": basis.size, "rank_q": basis.wq.shape[1],
                         "gap_sector": res.sector}

    converged = None
    if opts.get("check_convergence", True):
        kq2 = math.ceil(1.5 * disc["Kq"])
        np2 = math.ceil(1.5 * disc["Np"])
        basis2 = build_basis(basis.spec, params, Kq=kq2, Np=np2, n_quad=max(basis.nodes.size, 8 * kq2))
        res2 = contour_gap(assemble_generator(basis2, params.gamma), res)
        converged = bool(abs(res2.gap - res.gap) <= 0.01 * abs(res.gap))
        diagnostics["refined_gap"] = res2.gap
        diagnostics["refined_Kq"] = kq2
        diagnostics["refined_Np"] = np2
        diagnostics["refined_method"] = res2.method

    dump = opts.get("dump_eigs")
    if dump:
        eigs = res.eigenvalues[_eig_row_order(res.eigenvalues, res.norm1)]
        _write_csv(dump, ["real", "imag"], np.column_stack([eigs.real, eigs.imag]))
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
    params, disc, basis = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    name = opts.get("observable", "cos_q")
    dynamics = _mode(cfg, "options.dynamics")
    f = _observable(name, basis.spec, params)

    if dynamics == "langevin":
        asm = assemble_generator(basis, params.gamma)
        # a contiguous (n_quad, n_gh) table: a stride-0 broadcast view moved sigma2 in its last digits
        phi = project_phase_function(basis, lambda q, p: f(q[..., None], p[..., None]) + np.zeros((q.size, p.size)))
        sol = solve_poisson(asm, phi)
    else:
        if name not in _POSITION_OBSERVABLES:
            raise InvalidArgumentError(f"observable '{name}' depends on p; overdamped needs a position observable")
        ovd = assemble_overdamped(basis)
        phi_q = project_position_function(basis, lambda q: f(q[..., None], np.zeros_like(q)[..., None]))
        sol = solve_poisson_overdamped(ovd, phi_q)

    results = {
        "observable": name,
        "dynamics": dynamics,
        "sigma2": sol.sigma2,
        "gamma": params.gamma if dynamics == "langevin" else None,
    }
    return results, {"Kq": disc["Kq"], "Np": disc["Np"], "n_quad": basis.nodes.size, "rank_q": basis.wq.shape[1],
                     "poisson_residual": sol.residual}


def _cmd_poincare(cfg: dict) -> tuple[dict, dict]:
    params = _ensemble(cfg)
    spec = _spectral_potential(cfg, params)
    disc = _discretization(cfg)
    r_nu = poincare_constant(spec, params, Kq=disc["Kq"], n_quad=disc.get("n_quad"))
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
    params, disc, basis = _spectral_setup(cfg)
    asm = assemble_generator(basis, params.gamma)
    opts = cfg.get("options", {})
    eps = opts.get("epsilon")
    tuned = eps is None
    res = tune_modified_norm_epsilon(asm) if tuned else modified_norm_dissipation(asm, eps)
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
    return results, {"size": basis.size, "rank_q": basis.wq.shape[1]}


def _cmd_bounds(cfg: dict) -> tuple[dict, dict]:
    params, disc, basis = _spectral_setup(cfg)
    asm = assemble_generator(basis, params.gamma)
    opts = cfg.get("options", {})
    case = opts.get("case", "auto")
    check = verify_schur_bound(
        asm,
        case=None if case == "auto" else case,
        K=opts.get("K"),
        c_prime=opts.get("c_prime"),
        slack=opts.get("slack", 0.05),
    )
    witnesses = resolvent_lower_bound(asm)
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
    return results, {"size": basis.size, "rank_q": basis.wq.shape[1]}


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
    try:
        gammas = [start * ratio**k for k in range(count)]
    except OverflowError:
        gammas = [math.inf]
    if not math.isfinite(gammas[-1]):
        raise InvalidArgumentError(f"--gammas {text!r} reaches a rung that is not a finite number")
    return gammas


def _cmd_scan(cfg: dict) -> tuple[dict, dict]:
    _, disc, basis = _spectral_setup(cfg)
    opts = cfg.get("options", {})
    scan = gamma_scan(basis, _parse_gammas(opts.get("gammas", "0.125:2:7")), max_workers=opts.get("threads", 1))
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


_COMMANDS = {
    "sample": (_cmd_sample, "integrate one trajectory and write observable samples to CSV"),
    "variance": (_cmd_variance, "asymptotic-variance report for a sampled observable"),
    "spectrum": (_cmd_spectrum, "spectral gap of the kinetic generator"),
    "poisson": (_cmd_poisson, "asymptotic variance from the Galerkin Poisson equation"),
    "poincare": (_cmd_poincare, "Poincare constant of the configurational measure"),
    "ode": (_cmd_ode, "2x2 hypocoercive toy model: spectrum, P matrices, trajectory"),
    "dissipation": (_cmd_dissipation, "modified-norm dissipation rate of the kinetic generator"),
    "bounds": (_cmd_bounds, "resolvent norm vs the explicit upper bound, plus witnesses"),
    "scan": (_cmd_scan, "spectral gap across a geometric friction ladder"),
}


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _csv_floats(text: str) -> list[float]:
    try:
        return [_finite_float(x) for x in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}") from exc


_ARG_TYPES = {"number": _finite_float, "integer": int, "array": _csv_floats}


def _add_option(parser: argparse.ArgumentParser, opt: _Option) -> None:
    kwargs = dict(opt.extras)
    schema = opt.schema.get("items", {}) if kwargs.get("action") == "append" else opt.schema
    if "enum" in schema:
        kwargs["choices"] = schema["enum"]
    elif schema.get("type") in _ARG_TYPES:
        kwargs["type"] = _ARG_TYPES[schema["type"]]
    if "choices" not in kwargs and schema.get("type") != "boolean":
        # dest is the dotted config key; name the value after the flag instead
        kwargs.setdefault("metavar", opt.flag[2:].replace("-", "_").upper())
    # default None keeps an absent flag out of the config
    parser.add_argument(opt.flag, dest=opt.key, default=None, help=f"{opt.help} [{opt.key}]", **kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, help_) in _COMMANDS.items():
        # no prefix matching, so a flag the subcommand lacks is never read as a longer one
        p = sub.add_parser(command, help=help_, description=help_, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file with the [keys] below; flags override its keys")
        for opt in _OPTIONS:
            if command in opt.commands:
                _add_option(p, opt)
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
        results, diagnostics = _COMMANDS[args.command][0](cfg)
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
