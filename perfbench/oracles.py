"""Output checks for every benchmark command; each failed check counts as an error.

Three kinds of oracle:

- Pinned spectral numbers: values recorded from the dense reference
  implementation (`expected.json`), compared at 1e-10 relative, the gate a
  faster solver must meet.  `python3 perfbench/oracles.py --record` rewrites
  the file from the hypokit in `src/`.
- Physical facts: convergence of the gap, positive dissipation with a
  contractive twist, the explicit resolvent bound holding, the friction
  ladder's slopes and lower model, the toy model's 1/4 envelope rate, and the pinned cos_q
  asymptotic variance 0.3785698009 (to 2e-6).
- Statistics for the sampler and estimators, at 5 standard errors so that a
  correct run fails with probability below 1e-4: sampled means against
  quadrature, and ACF / batch-means variances of the AR(1) input against the
  closed form spacing / (1 - phi)^2.  No sampler bits are pinned, so a faster
  kernel that draws the same law passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads

REL_GATE = 1e-10
N_SE = 5.0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

_BOUNDS = ["results.numeric", "results.bound", "results.r_nu",
           "results.witness_overdamped", "results.witness_underdamped"]
PINNED = {
    "spectrum": ["results.gap", "diagnostics.refined_gap"],
    "poisson_langevin": ["results.sigma2"],
    "poisson_overdamped": ["results.sigma2"],
    "dissipation": ["results.lambda_est", "results.epsilon", "results.r_norm", "results.lham_r_norm"],
    "bounds": _BOUNDS,
    "poincare": ["results.r_nu"],
    "ode": ["results.gap", "results.envelope_rate"],
    "scan": [f"results.rows.{i}.gap" for i in range(7)]
    + ["results.slope_small_gamma", "results.slope_large_gamma", "results.lambda_bar"],
    "bounds_small": _BOUNDS,
    "bounds_large": _BOUNDS,
}


def _cosine_moments(beta: float = 1.0, mass: float = 1.0) -> dict:
    """Exact <cos 2 pi q> and <H> for V = cos(2 pi q) on the unit torus (trapezoid rule)."""
    q = np.arange(4096) / 4096
    v = np.cos(2 * math.pi * q)
    w = np.exp(-beta * v)
    mean_v = float(w @ v / w.sum())
    return {"cos_q": mean_v, "energy": mean_v + 0.5 / (beta * mass)}


EXACT = _cosine_moments()
# Asymptotic variances of the Langevin time averages at gamma=1 (Poisson
# equation, Kq16/Np32; cos_q is criterion 10's value): the standard error of a
# mean over time T is sqrt(sigma2 / T).  An SE estimated from the run itself
# (20 batch means) was too noisy for a 5-SE gate.
LANGEVIN_SIGMA2 = {"cos_q": 0.3785698009, "energy": 1.5872618657862423}


def lookup(report: dict, path: str):
    node = report
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Checks:
    """Collects (name, ok, detail) triples."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def call(self, name: str, fn, *args) -> None:
        """Run a check that may raise on malformed output; raising counts as failing."""
        try:
            ok, detail = fn(*args)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


def _rel_close(got, want):
    ok = isinstance(got, (int, float)) and abs(got - want) <= REL_GATE * abs(want)
    return ok, f"got {got!r}, want {want!r}"


def _is(got, want):
    return got is want, f"got {got!r}, want {want!r}"


def _within(got, want, tol, what=""):
    return abs(got - want) <= tol, f"{what}got {got!r}, want {want!r} +- {tol:.3g}"


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _check_sample(checks: Checks, cmd_id: str, report: dict, n_steps: int, stride: int,
                  columns: list[str], tested: list[str]) -> None:
    res = report["results"]
    checks.call(f"{cmd_id}.n_records", lambda: (res["n_records"] == n_steps // stride + 1,
                                                f"got {res['n_records']}"))
    header, data = _read_csv(res["output"])
    checks.add(f"{cmd_id}.csv_shape", header == ["time"] + columns and data.shape == (res["n_records"], len(columns) + 1),
               f"header {header}, shape {data.shape}")
    checks.add(f"{cmd_id}.csv_finite", bool(np.all(np.isfinite(data))))
    for j, name in enumerate(columns, start=1):
        x = data[:, j]
        checks.call(f"{cmd_id}.{name}.mean_vs_csv", _within, res["means"][name], float(x.mean()),
                    1e-12 * max(1.0, abs(float(x.mean()))))
        if name in tested:
            span = float(data[-1, 0] - data[0, 0])
            checks.call(f"{cmd_id}.{name}.mean_vs_exact", _within, float(x.mean()), EXACT[name],
                        N_SE * math.sqrt(LANGEVIN_SIGMA2[name] / span), "sampled mean ")


def check_command(cmd_id: str, report: dict, expected: dict, context: dict) -> Checks:
    """All oracle checks for one command's report (and the files it wrote)."""
    checks = Checks()
    res = report["results"]
    for path in PINNED.get(cmd_id, []):
        checks.call(f"{cmd_id}.{path}", lambda p=path: _rel_close(lookup(report, p), expected[cmd_id][p]))
    if cmd_id == "spectrum":
        checks.call("spectrum.converged", _is, res.get("converged"), True)
    elif cmd_id == "poisson_langevin":
        checks.call("poisson_langevin.criterion_10", _within, res["sigma2"], 0.3785698009, 2e-6)
    elif cmd_id == "dissipation":
        checks.add("dissipation.lambda_positive", res["lambda_est"] > 0, f"got {res['lambda_est']!r}")
        checks.call("dissipation.r_norm_ok", _is, res.get("r_norm_ok"), True)
    elif cmd_id.startswith("bounds"):
        checks.call(f"{cmd_id}.holds", _is, res.get("holds"), True)
    elif cmd_id == "scan":
        small, large = res["slope_small_gamma"], res["slope_large_gamma"]
        # On the unit cell the overdamped branch r_nu / gamma (r_nu ~ 46) only takes
        # over near gamma ~ 7, so up to gamma = 8 the large-gamma slope is still
        # positive; what holds is that it bends away from the linear branch.
        checks.add("scan.slope_small_positive", small > 0, repr(small))
        checks.add("scan.slope_large_below_small", large < small, f"{large!r} vs {small!r}")
        checks.add("scan.lambda_bar_positive", res["lambda_bar"] > 0, repr(res["lambda_bar"]))
        checks.add("scan.no_row_errors", not res["row_errors"], repr(res["row_errors"]))
        header, data = _read_csv(res["output"])
        checks.add("scan.csv_rows", data.shape == (7, 3), f"shape {data.shape}")
    elif cmd_id == "ode":
        checks.call("ode.criterion_02", _within, res["envelope_rate"], 0.25, 0.01)
        header, data = _read_csv(res["output"])
        checks.add("ode.csv_rows", header == ["t", "X1", "X2"] and data.shape[0] == report["diagnostics"]["n_rows"],
                   f"header {header}, shape {data.shape}")
    elif cmd_id == "sample_langevin":
        _check_sample(checks, cmd_id, report, 200_000, 10, ["cos_q", "energy"], ["cos_q", "energy"])
    elif cmd_id == "sample_overdamped":
        # No exact-mean check: Euler-Maruyama's O(dt) bias on this stiff cell
        # (V'' up to 4 pi^2) is about 0.08 in <cos q> at dt = 0.01, some 20 SE.
        _check_sample(checks, cmd_id, report, 100_000, 1, list(workloads.SAMPLE_OBSERVABLES), [])
    elif cmd_id.startswith("variance"):
        n = context["ar1_rows"]
        sigma2 = context["ar1_sigma2"]
        checks.call(f"{cmd_id}.n_samples", lambda: (report["diagnostics"]["n_samples"] == n,
                                                    repr(report["diagnostics"]["n_samples"])))
        if res["method"] == "acf_ips":
            # Large-sample variance of a flat lag window of half-width W: 2 (2W + 1) / n.
            rel_se = math.sqrt(2.0 * (2 * res["window_or_batches"] + 1) / n)
        else:
            rel_se = math.sqrt(2.0 / (res["window_or_batches"] - 1))
        checks.call(f"{cmd_id}.sigma2_vs_closed_form", _within, res["sigma2"], sigma2,
                    N_SE * rel_se * sigma2, "sigma2 ")
    return checks


def check_pass(commands: list, pass_dir: str, expected: dict, context: dict) -> Checks:
    """Exit status of each command plus the oracle checks on its report."""
    checks = Checks()
    for cmd in commands:
        ok = cmd["rc"] == 0
        checks.add(f"{cmd['id']}.exit", ok, cmd.get("error") or f"exit code {cmd['rc']}")
        if not ok:
            continue
        report_path = os.path.join(pass_dir, f"{cmd['id']}.json")
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            sub = check_command(cmd["id"], report, expected, context)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            checks.add(f"{cmd['id']}.report", False, f"{type(exc).__name__}: {exc}")
            continue
        checks.items.extend(sub.items)
    return checks


def record(root: Path) -> dict:
    """Run the pinned commands with the hypokit in `root/src` and collect their numbers."""
    sys.path.insert(0, str(root / "src"))
    import hypokit.cli

    expected: dict = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in ("spectral_tour", "friction_ladder"):
            for cmd_id, template in workloads.build(name, 0, 1).commands:
                argv = [a.replace("{pass}", tmp) for a in template]
                with contextlib.redirect_stderr(io.StringIO()):
                    if hypokit.cli.main(argv) != 0:
                        raise SystemExit(f"{cmd_id} failed")
                with open(os.path.join(tmp, f"{cmd_id}.json")) as fh:
                    report = json.load(fh)
                expected[cmd_id] = {p: lookup(report, p) for p in PINNED[cmd_id]}
    return expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/oracles.py --record")
    values = record(Path(__file__).resolve().parent.parent)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(values, fh, indent=2, sort_keys=True)
        fh.write("\n")
