"""Command-line interface.

One JSON report per run is written to stdout (or --report PATH) with keys
{config, results, diagnostics, version}; bulk numbers go to CSV files with
floats formatted to 17 significant digits.  A JSON config file supplies any
subset of the keys its subcommand reads (`hypokit COMMAND --help` lists them
in brackets, each with its default); command-line flags override config keys;
a key the subcommand does not read is rejected.  The report's config holds the
keys given, and an absent key reads its default.  Exit codes: 0 success, 1
invalid input or config, 2 numerical failure.
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

import numpy as np

from . import __version__, hypo, model
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
    BasisSet,
    assemble_generator,
    build_basis,
    poincare_constant,
    project_phase_function,
    project_position_function,
    refined_gap,
    require_gap_above_roundoff,
    rung_gap,
    rung_ladder,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)

log = logging.getLogger("hypokit")


class _Option(NamedTuple):
    """One option: flag, config key, value schema, the subcommands that read it and its default."""

    flag: str
    key: str  # "section.key" or a top-level key
    schema: dict  # JSON-schema fragment for the value
    commands: tuple[str, ...]
    help: str
    default: object = None  # the value of an absent key; None: absent, or the rule the help states
    extras: dict = {}  # further argparse keywords


_KINETIC = ("spectrum", "poisson", "dissipation", "bounds")
_SPECTRAL = _KINETIC + ("scan",)
_POTENTIAL = _SPECTRAL + ("sample", "poincare")
_STRING = {"type": "string"}
_COUNT = {"type": "integer", "minimum": 1}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}, "minItems": 1}

# The potential is one value, a name with its params; --param without --potential also starts from it.
_DEFAULT_POTENTIAL = {"name": "cosine", "params": {"h": 1.0, "L": 1.0}}

# The one declaration of every option: the parser, its help, each subcommand's config
# schema, the flag merge and the defaults are all generated from this table.  A key
# two subcommands default differently has one row per subcommand.
_OPTIONS = (
    _Option("--potential", "potential.name", _STRING, _POTENTIAL, "builtin potential name; when absent, "
            f"{_DEFAULT_POTENTIAL['name']} with params {json.dumps(_DEFAULT_POTENTIAL['params'])}"),
    _Option("--param", "potential.params", {"type": "object"}, _POTENTIAL,
            "potential parameter (JSON value), repeatable", None, {"action": "append", "metavar": "KEY=VALUE"}),
    _Option("--beta", "ensemble.beta", _POSITIVE, _POTENTIAL, "inverse temperature", 1.0),
    _Option("--mass", "ensemble.mass", _POSITIVE, _SPECTRAL + ("sample",), "particle mass", 1.0),
    # scan takes its frictions from --gammas
    _Option("--gamma", "ensemble.gamma", _NON_NEGATIVE, _KINETIC + ("sample",), "friction", 1.0),
    _Option("--gamma", "ensemble.gamma", _NON_NEGATIVE, ("ode",),
            "friction; when absent, 0.5 with --figure1, else 1.0"),
    _Option("--Kq", "discretization.Kq", _COUNT, _SPECTRAL + ("poincare",), "Fourier modes", DEFAULT_KQ),
    _Option("--Np", "discretization.Np", {"type": "integer", "minimum": 2}, _SPECTRAL, "Hermite functions in p",
            DEFAULT_NP),
    _Option("--n-quad", "discretization.n_quad", {"type": "integer", "minimum": 8}, _SPECTRAL + ("poincare",),
            "quadrature nodes in q; when absent, max(256, 8 Kq)"),
    _Option("--dt", "discretization.dt", _POSITIVE, ("sample",), "time step", 0.01),
    _Option("--dt", "discretization.dt", _POSITIVE, ("ode",), "time step", 1e-3),
    _Option("--n-steps", "discretization.n_steps", _COUNT, ("sample",), "number of steps", 10000),
    _Option("--stride", "discretization.stride", _COUNT, ("sample",), "record every stride-th step", 1),
    _Option("--seed", "seed", {"type": "integer", "minimum": 0}, ("sample",), "noise seed", 2024),
    _Option("--stream-id", "stream_id", {"type": "integer", "minimum": 0}, ("sample",), "noise stream id", 0),
    _Option("--out", "output", _STRING, ("sample", "ode", "scan"), "output CSV path"),
    _Option("--report", "report", _STRING, _POTENTIAL + ("variance", "ode"),
            "write the JSON report here instead of stdout"),
    _Option("--observable", "options.observables", {"type": "array", "items": _STRING, "minItems": 1},
            ("sample",), "observable to record, repeatable", ["energy"], {"action": "append", "metavar": "NAME"}),
    _Option("--observable", "options.observable", _STRING, ("poisson",), "observable", "cos_q"),
    _Option("--scheme", "options.scheme", {"enum": list(SCHEMES)}, ("sample",), "integrator", "langevin"),
    _Option("--q0", "options.q0", _NUMBERS, ("sample",),
            "initial position, comma-separated; when absent, zeros of the domain's dimension"),
    _Option("--p0", "options.p0", _NUMBERS, ("sample",),
            "initial momentum, comma-separated; when absent, zeros of the domain's dimension"),
    _Option("--input", "options.input", _STRING, ("variance",), "CSV produced by `hypokit sample`"),
    _Option("--column", "options.column", _STRING, ("variance",),
            "column to analyse; when absent, the first that is not time"),
    _Option("--spacing", "options.spacing", _POSITIVE, ("variance",),
            "time between rows; when absent, the step of the time column"),
    _Option("--method", "options.method", {"enum": ["acf", "batch_means"]}, ("variance",), "estimator", "acf"),
    _Option("--batches", "options.batches", {"type": "integer", "minimum": 2}, ("variance",),
            "number of batches for batch_means", 32),
    _Option("--check-convergence", "options.check_convergence", {"type": "boolean"}, ("spectrum",),
            "recompute the gap at 1.5x Kq and Np", True, {"action": argparse.BooleanOptionalAction}),
    _Option("--dump-eigs", "options.dump_eigs", _STRING, ("spectrum",), "CSV path for the deflated spectrum"),
    _Option("--dynamics", "options.dynamics", {"enum": ["langevin", "overdamped"]}, ("poisson",), "dynamics",
            "langevin"),
    _Option("--x0", "options.x0", {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            ("ode",), "initial point", [1.0, 1.0], {"metavar": "X1,X2"}),
    _Option("--T", "options.T", _POSITIVE, ("ode",), "final time; when absent, 40.0 with --figure1, else 20.0"),
    _Option("--figure1", "options.figure1", {"type": "boolean"}, ("ode",), "preset: gamma=0.5, x0=(1,1), T=40",
            False, {"action": "store_true"}),
    _Option("--epsilon", "options.epsilon", {"type": "number"}, ("dissipation",),
            "modified-norm epsilon; when absent, tuned"),
    _Option("--case", "options.case", {"enum": ["auto", "convex", "hessian_lower_bound", "general"]},
            ("bounds",), "case of the resolvent bound", "auto"),
    _Option("--K", "options.K", _NON_NEGATIVE, ("bounds",),
            "Hessian lower bound -K; when absent, max(0, -min V'') on the grid"),
    _Option("--c-prime", "options.c_prime", _NON_NEGATIVE, ("bounds",),
            "constant C' of the general case, which needs it"),
    _Option("--slack", "options.slack", _NON_NEGATIVE, ("bounds",), "relative tolerance of the bound check", 0.05),
    _Option("--gammas", "options.gammas", _STRING, ("scan",), "geometric friction ladder", "0.125:2:7",
            {"metavar": "START:RATIO:COUNT"}),
    _Option("--threads", "options.threads", _COUNT, ("scan",), "threads, one friction each, at most the usable cores", 1),
)

# Keys a subcommand reads in some modes only: (command, mode key, mode) -> the
# keys that mode ignores.  Giving one of them in that mode exits 1.
_UNREAD_IN_MODE = {
    ("poisson", "options.dynamics", "overdamped"): ("ensemble.gamma", "ensemble.mass", "discretization.Np"),
    ("sample", "options.scheme", "overdamped"): ("ensemble.gamma",),
    ("sample", "options.scheme", "hamiltonian"): ("ensemble.gamma", "seed", "stream_id"),
    ("variance", "options.method", "acf"): ("options.batches",),
}


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
    """(header names, data rows); loadtxt reads the path itself, in C chunks, not line by line."""
    try:
        with open(path, newline="\n", encoding="utf-8-sig") as fh:  # utf-8-sig drops a leading BOM
            header = fh.readline().strip()
        if not header:
            raise InvalidArgumentError(f"empty CSV file: {path}")
        names = [name.strip() for name in header.split(",")]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read CSV file {path}: {exc}") from exc
    except ValueError as exc:  # a cell that is not a number, or a row of another length
        raise InvalidArgumentError(f"cannot parse CSV file {path}: {_bad_line(path) or str(exc).splitlines()[0]}") from exc
    if data.shape[0] == 0:
        raise InvalidArgumentError(f"CSV file {path} has a header but no data rows")
    if data.shape[1] != len(names):
        raise InvalidArgumentError(f"CSV column count does not match header in {path}")
    return names, data


def _bad_line(path: str) -> str | None:
    """Why the first unreadable data line of a CSV file fails, naming its line in the file (header = 1).

    loadtxt's own message counts rows after the header, and counts them
    differently for a bad cell and a ragged row, so the file is scanned again
    with loadtxt's rules: "#" starts a comment, blank lines are skipped, and
    every row has the width of the first.
    """
    width = first = None
    with open(path, newline="\n") as fh:
        for number, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if number == 1 or not text:
                continue
            cells = text.split(",")
            for cell in cells:
                try:
                    float(cell)
                except ValueError:
                    return f"line {number}: {cell.strip()!r} is not a number"
            if width is None:
                width, first = len(cells), number
            elif len(cells) != width:
                return f"line {number} has {len(cells)} columns, line {first} has {width}"
    return None


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


# The JSON-schema keywords _schema_errors implements; a test keeps _OPTIONS within them.
_KEYWORDS = ("$schema", "type", "minimum", "exclusiveMinimum", "enum", "items", "minItems", "maxItems",
             "properties", "required", "additionalProperties")
_TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool, "object": dict, "array": list}


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, keyword, message) for each way `value` breaks `schema`, in jsonschema's order.

    Draft 2020-12 semantics and jsonschema's messages for the keywords in
    _KEYWORDS, except that "integer" means an int: 4.0 is not one.  A bool is
    neither a number nor an integer.  The message of additionalProperties is
    the list of unread keys, each with its path.
    """
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    for keyword, arg in schema.items():
        if keyword == "type":
            if isinstance(value, bool) != (arg == "boolean") or not isinstance(value, _TYPES[arg]):
                yield path, keyword, f"{value!r} is not of type {arg!r}"
        elif keyword == "minimum":
            if is_number and value < arg:
                yield path, keyword, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if is_number and value <= arg:
                yield path, keyword, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "enum":
            if not any(each == value and isinstance(each, bool) == isinstance(value, bool) for each in arg):
                yield path, keyword, f"{value!r} is not one of {arg!r}"
        elif isinstance(value, list):
            if keyword == "items":
                for index, item in enumerate(value):
                    yield from _schema_errors(arg, item, path + (index,))
            elif keyword == "minItems" and len(value) < arg:
                yield path, keyword, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
            elif keyword == "maxItems" and len(value) > arg:
                yield path, keyword, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif isinstance(value, dict):
            if keyword == "properties":
                for key, sub in arg.items():
                    if key in value:
                        yield from _schema_errors(sub, value[key], path + (key,))
            elif keyword == "required":
                for key in arg:
                    if key not in value:
                        yield path, keyword, f"{key!r} is a required property"
            elif keyword == "additionalProperties" and arg is False:
                unread = sorted(set(value) - set(schema.get("properties", {})))
                if unread:
                    prefix = "".join(f"{part}." for part in path)
                    yield path, keyword, ", ".join(prefix + key for key in unread)


def _validate(cfg: dict, command: str) -> None:
    """Exit 1 on the error of `cfg` under _schema(command) that jsonschema's best_match would pick."""
    # best_match: the shallowest error, then the greatest path among siblings, then the first
    error = max(_schema_errors(_schema(command), cfg), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is None:
        return
    _, keyword, message = error
    if keyword == "additionalProperties":
        raise InvalidArgumentError(f"{command} does not read config key(s): {message}")
    raise InvalidArgumentError(f"config validation failed: {message}")


def _lookup(cfg: dict, key: str):
    section, _, name = key.rpartition(".")
    return (cfg.get(section, {}) if section else cfg).get(name)


def _resolve(cfg: dict, command: str) -> dict:
    """Each key `command` reads, dotted: its config value, else its row's default; and "potential", the
    config's own entry (so a quadratic cell's L reaches the report, _spectral_potential) or _DEFAULT_POTENTIAL."""
    opts = {"potential": cfg.get("potential", _DEFAULT_POTENTIAL)}
    for opt in _OPTIONS:
        if command in opt.commands and not opt.key.startswith("potential."):
            value = _lookup(cfg, opt.key)
            opts[opt.key] = opt.default if value is None else value
    return opts


def _reject_unread_in_mode(cfg: dict, opts: dict, command: str) -> None:
    """Exit 1 on a key given in `cfg` that the mode of the resolved `opts` does not read."""
    for (cmd, mode_key, mode), keys in _UNREAD_IN_MODE.items():
        if cmd != command or opts[mode_key] != mode:
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
    return cfg


def _ensemble(opts: dict) -> EnsembleParams:
    """The ensemble of the keys the subcommand reads; EnsembleParams' own defaults fill the others."""
    return EnsembleParams(**{key.removeprefix("ensemble."): value for key, value in opts.items()
                             if key.startswith("ensemble.")})


def _potential(opts: dict) -> PotentialSpec:
    pot = opts["potential"]
    return builtin_potential(pot["name"], pot.get("params", {}))


def _spectral_potential(opts: dict, params: EnsembleParams) -> PotentialSpec:
    """Potential for torus-spectral commands; confining potentials get a cell, whose L is written to the config."""
    spec = _potential(opts)
    pot = opts["potential"]
    if isinstance(spec.domain, Torus):
        return spec
    if pot["name"] == "quadratic":
        pot_params = pot.setdefault("params", {})
        # Cell wide enough that the clipped Gaussian tail is far below the
        # spectral tolerances; 12 sigma left the gap error near 6e-7.
        pot_params["L"] = 14.0 / (float(pot_params.get("omega", model.QUADRATIC_OMEGA)) * math.sqrt(params.beta))
        return builtin_potential("quadratic", pot_params)
    raise InvalidArgumentError(
        f"potential '{pot['name']}' lives on full space; pass an explicit torus length L"
    )


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


def _cmd_sample(opts: dict) -> tuple[dict, dict]:
    params = _ensemble(opts)
    spec = _potential(opts)
    scheme = opts["options.scheme"]
    names = opts["options.observables"]
    fs = [_observable(n, spec, params) for n in names]

    d = spec.domain.dim
    q0, p0 = (np.zeros(d) if x is None else np.asarray(x, dtype=float)
              for x in (opts["options.q0"], opts["options.p0"]))
    if q0.shape != (d,) or p0.shape != (d,):
        raise InvalidArgumentError(f"q0 and p0 must have length {d}")

    rec = simulate(
        PhaseState(q0, p0),
        n_steps=opts["discretization.n_steps"],
        stride=opts["discretization.stride"],
        dt=opts["discretization.dt"],
        scheme=scheme,
        spec=spec,
        params=params,
        rng=RngStream(seed=opts["seed"], stream_id=opts["stream_id"]),
    )
    # one column per observable, filled in row blocks to bound the temporaries
    table = np.empty((rec.times.size, 1 + len(fs)))
    table[:, 0] = rec.times
    with np.errstate(all="ignore"):  # a value that overflows is refused below, with its observable named
        for lo in range(0, rec.times.size, _OBSERVABLE_BLOCK):
            rows = slice(lo, lo + _OBSERVABLE_BLOCK)
            for j, f in enumerate(fs, 1):
                table[rows, j] = f(rec.q[rows], rec.p[rows])
    for j, name in enumerate(names, 1):
        finite = np.isfinite(table[:, j])
        if not finite.all():
            raise NumericalFailureError(
                f"observable '{name}' is not finite on the trajectory: first at t={table[np.argmin(finite), 0]:g}")
    out = opts["output"]
    if out:
        _write_csv(out, ["time"] + names, table)
    results = {
        "columns": ["time"] + names,
        "n_records": int(rec.times.size),
        "spacing": rec.spacing,
        "means": {n: float(table[:, j].mean()) for j, n in enumerate(names, 1)},
        "output": out,
    }
    return results, {"scheme": scheme, "n_steps": opts["discretization.n_steps"]}


def _cmd_variance(opts: dict) -> tuple[dict, dict]:
    path = opts["options.input"]
    if not path:
        raise InvalidArgumentError("variance needs --input CSV")
    names, data = _read_csv(path)
    column = opts["options.column"]
    if column is None:
        candidates = [n for n in names if n != "time"]
        if not candidates:
            raise InvalidArgumentError("CSV has no observable column")
        column = candidates[0]
    if column not in names:
        raise InvalidArgumentError(f"column '{column}' not in CSV header {names}")
    values = _finite_column(data, names, column, path)

    spacing = opts["options.spacing"]
    if spacing is None:
        if "time" not in names or data.shape[0] < 2:
            raise InvalidArgumentError("cannot infer spacing; pass --spacing")
        steps = np.diff(_finite_column(data, names, "time", path))  # the one temporary of the check
        spacing = float(steps[0])
        if not spacing > 0:
            raise InvalidArgumentError(
                f"time column of CSV file {path} does not increase (first step {spacing:g}); pass --spacing")
        steps -= spacing
        np.abs(steps, out=steps)
        if np.any(steps > 1e-9 * max(spacing, 1e-300)):
            raise InvalidArgumentError(f"time column of CSV file {path} is not uniformly spaced; pass --spacing")
        del steps
    # the estimators read one contiguous column; the table goes before they allocate
    values = values.copy()
    del data

    with warnings.catch_warnings(record=True) as caught:  # a constant series warns; stderr gets one line
        warnings.simplefilter("always")
        rep = (asymptotic_variance_acf(values, spacing) if opts["options.method"] == "acf"
               else batch_means_variance(values, spacing, n_batches=opts["options.batches"]))
    for warning in caught:
        log.warning("%s", warning.message)
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


def _spectral_setup(opts: dict) -> tuple[EnsembleParams, BasisSet]:
    """(params, basis): the basis carries the potential, beta and m; gamma is bound by the caller.
    poincare reads no Np, which does not enter its operator, and gets DEFAULT_NP."""
    params = _ensemble(opts)
    spec = _spectral_potential(opts, params)
    n_p = opts["discretization.Np"] if "discretization.Np" in opts else DEFAULT_NP
    return params, build_basis(spec, params, Kq=opts["discretization.Kq"], Np=n_p,
                               n_quad=opts["discretization.n_quad"])


def _eig_row_order(eigs: np.ndarray, norm1: float) -> np.ndarray:
    """--dump-eigs row order that roundoff relative to ||L||_1 cannot change.

    Real parts binned at 1e-8 ||L||_1, then |imag|, then the exact real part
    (which both members of a conjugate pair share), then imag: pairs stay
    adjacent, negative member first.
    """
    bins = np.round(eigs.real / (1e-8 * norm1))
    return np.lexsort((eigs.imag, eigs.real, np.abs(eigs.imag), bins))


def _cmd_spectrum(opts: dict) -> tuple[dict, dict]:
    params, basis = _spectral_setup(opts)
    asm = assemble_generator(basis, params.gamma)
    dump = opts["options.dump_eigs"]
    if dump:  # every eigenvalue is written, so every sector is solved dense
        res = spectral_gap(asm)
    else:
        res = rung_gap(rung_ladder(basis), asm.gamma)
    require_gap_above_roundoff(res)
    diagnostics: dict = {"n_quad": basis.nodes.size, "size": basis.size, "rank_q": basis.wq.shape[1],
                         "gap_sector": res.sector, "gap_method": res.method, "gap_guard": res.guard}

    converged = None
    if opts["options.check_convergence"]:
        basis2, res2 = refined_gap(basis, asm.gamma, res)
        converged = res2.converged
        diagnostics["refined_gap"] = res2.gap
        diagnostics["refined_Kq"] = basis2.Kq
        diagnostics["refined_Np"] = basis2.Np
        diagnostics["refined_method"] = res2.method

    if dump:
        eigs = res.eigenvalues[_eig_row_order(res.eigenvalues, res.norm1)]
        _write_csv(dump, ["real", "imag"], np.column_stack([eigs.real, eigs.imag]))
        diagnostics["dump_eigs"] = dump

    results = {
        "gamma": params.gamma,
        "gap": res.gap,
        "Kq": basis.Kq,
        "Np": basis.Np,
        "converged": converged,
        "eig_count_checked": res.eig_count_checked,
    }
    return results, diagnostics


def _cmd_poisson(opts: dict) -> tuple[dict, dict]:
    params, basis = _spectral_setup(opts)
    name = opts["options.observable"]
    dynamics = opts["options.dynamics"]
    f = _observable(name, basis.spec, params)

    if dynamics == "langevin":
        asm = assemble_generator(basis, params.gamma)
        # a contiguous (n_quad, n_gh) table: a stride-0 broadcast view moved sigma2 in its last digits
        phi = project_phase_function(basis, lambda q, p: f(q[..., None], p[..., None]) + np.zeros((q.size, p.size)))
        sol = solve_poisson(asm, phi)
    else:
        if name not in _POSITION_OBSERVABLES:
            raise InvalidArgumentError(f"observable '{name}' depends on p; overdamped needs a position observable")
        phi_q = project_position_function(basis, lambda q: f(q[..., None], np.zeros_like(q)[..., None]))
        sol = solve_poisson_overdamped(basis, phi_q)

    results = {
        "observable": name,
        "dynamics": dynamics,
        "sigma2": sol.sigma2,
        "gamma": params.gamma if dynamics == "langevin" else None,
    }
    diagnostics = {"Kq": basis.Kq, "Np": basis.Np, "n_quad": basis.nodes.size, "rank_q": basis.wq.shape[1],
                   "poisson_residual": sol.residual}
    if sol.refinement_steps:  # only near zero friction, so the reports of other solves keep their bytes
        diagnostics["poisson_refinement_steps"] = sol.refinement_steps
    return results, diagnostics


def _cmd_poincare(opts: dict) -> tuple[dict, dict]:
    params, basis = _spectral_setup(opts)
    r_nu = poincare_constant(basis)
    return {"r_nu": r_nu, "beta": params.beta, "Kq": basis.Kq}, {}


def _cmd_ode(opts: dict) -> tuple[dict, dict]:
    figure1 = opts["options.figure1"]
    gamma = (0.5 if figure1 else 1.0) if opts["ensemble.gamma"] is None else opts["ensemble.gamma"]
    T = (40.0 if figure1 else 20.0) if opts["options.T"] is None else opts["options.T"]
    x0, dt = opts["options.x0"], opts["discretization.dt"]

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
    out = opts["output"]
    if out:
        _write_csv(out, ["t", "X1", "X2"], traj)
        results["output"] = out
    try:
        results["envelope_rate"] = fit_envelope_rate(traj[:, 0], traj[:, 1], traj[:, 2])
    except NumericalFailureError:
        results["envelope_rate"] = None
    return results, {"n_rows": int(traj.shape[0]), "dt": dt, "T": T}


def _cmd_dissipation(opts: dict) -> tuple[dict, dict]:
    params, basis = _spectral_setup(opts)
    asm = assemble_generator(basis, params.gamma)
    eps = opts["options.epsilon"]
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


def _cmd_bounds(opts: dict) -> tuple[dict, dict]:
    params, basis = _spectral_setup(opts)
    asm = assemble_generator(basis, params.gamma)
    case = opts["options.case"]
    check = verify_schur_bound(
        asm,
        case=None if case == "auto" else case,
        K=opts["options.K"],
        c_prime=opts["options.c_prime"],
        slack=opts["options.slack"],
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
    return results, {"size": basis.size, "rank_q": basis.wq.shape[1], "resolvent_lanczos_steps": check.lanczos_steps}


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
    if count > hypo.SCAN_MAX_RUNGS:
        raise InvalidArgumentError(f"--gammas count {count} is above the limit of {hypo.SCAN_MAX_RUNGS} rungs")
    try:
        gammas = [start * ratio**k for k in range(count)]
    except OverflowError:
        gammas = [math.inf]
    if not math.isfinite(gammas[-1]):
        raise InvalidArgumentError(f"--gammas {text!r} reaches a rung that is not a finite number")
    return gammas


def _cmd_scan(opts: dict) -> tuple[dict, dict]:
    _, basis = _spectral_setup(opts)
    threads = hypo.scan_threads(opts["options.threads"])
    if threads < opts["options.threads"]:
        log.info("--threads %d capped to the %d usable cores", opts["options.threads"], threads)
    scan = gamma_scan(basis, _parse_gammas(opts["options.gammas"]), max_workers=threads)
    out = opts["output"]
    if out:
        rows = np.column_stack([scan.table.gammas, scan.table.gaps, scan.table.lower_model])
        _write_csv(out, ["gamma", "gap", "lower_model"], rows)
    results = {
        "slope_small_gamma": scan.slope_small_gamma,
        "slope_large_gamma": scan.slope_large_gamma,
        "lambda_bar": scan.lambda_bar,
        "rows": [
            {"gamma": float(g), "gap": float(gap) if math.isfinite(gap) else None, "lower_model": float(lm)}
            for g, gap, lm in zip(scan.table.gammas, scan.table.gaps, scan.table.lower_model)
        ],
        "row_errors": {str(k): v for k, v in scan.row_errors.items()},
        "output": out,
    }
    return results, {"Kq": basis.Kq, "Np": basis.Np, "rung_methods": scan.rung_methods}


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
    # the parser's default None keeps an absent flag out of the config; the row's default is shown
    default = opt.default if isinstance(opt.default, str) else json.dumps(opt.default)
    shown = "" if opt.default is None else f", default {default}"
    parser.add_argument(opt.flag, dest=opt.key, default=None, help=f"{opt.help} [{opt.key}{shown}]", **kwargs)


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
        cfg = _load_config(args)  # the keys given, which the report echoes
        opts = _resolve(cfg, args.command)
        _reject_unread_in_mode(cfg, opts, args.command)
        log.info("resolved config: %s", json.dumps(opts, sort_keys=True))
        results, diagnostics = _COMMANDS[args.command][0](opts)
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
    if opts["report"]:
        with open(opts["report"], "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
