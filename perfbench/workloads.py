"""The benchmark's workloads: the hypokit command lines each one runs, and its inputs.

All three use the cosine potential with h=1, L=1 and beta=m=1 (the CLI
defaults).  `{pass}` in an argument stands for the directory of one pass, so
each pass writes its own reports and CSVs.

- spectral_tour: the spectral commands at their README defaults (gamma=1,
  Kq16/Np32).  Dense eigensolves, Gram whitening and the golden-section `eigh`
  loop do nearly all the work; the sampler does none.
- friction_ladder: one reduced generator shared by seven eigensolves, plus
  `bounds` at the extreme frictions where the spectrum crowds toward iR or
  turns stiff.
- sampling: a step-bound Langevin run, a record/CSV-bound overdamped run, and
  both variance estimators on a seeded AR(1) file; the spectral layers do no
  work.

Only the sampling commands consume randomness; their seeds and the AR(1) file
come from the benchmark seed.  The spectral workloads are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AR1_PHI = 0.9
AR1_SPACING = 0.0625  # a power of two, so the time column is exact
AR1_ROWS = 1_000_000
SAMPLE_OBSERVABLES = ("cos_q", "sin_q", "q_centered", "p1", "p_squared", "energy")


@dataclass
class Workload:
    name: str
    commands: list  # (command id, argv with {pass} placeholders)
    context: dict = field(default_factory=dict)  # facts the output checks need


def _report(cmd_id: str) -> list[str]:
    return ["--report", f"{{pass}}/{cmd_id}.json"]


def _spectral_tour(seed: int, nproc: int) -> list:
    return [
        ("spectrum", ["spectrum", "--gamma", "1.0"]),
        ("poisson_langevin", ["poisson", "--observable", "cos_q", "--gamma", "1.0"]),
        ("poisson_overdamped", ["poisson", "--observable", "cos_q", "--dynamics", "overdamped"]),
        ("dissipation", ["dissipation", "--gamma", "1.0"]),
        ("bounds", ["bounds", "--gamma", "1.0"]),
        ("poincare", ["poincare"]),
        ("ode", ["ode", "--figure1", "--out", "{pass}/trajectory.csv"]),
    ]


def _friction_ladder(seed: int, nproc: int) -> list:
    return [
        ("scan", ["scan", "--gammas", "0.125:2:7", "--threads", str(nproc), "--out", "{pass}/scan.csv"]),
        ("bounds_small", ["bounds", "--gamma", "0.125"]),
        ("bounds_large", ["bounds", "--gamma", "8"]),
    ]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(n) % 2**31]


def _sampling(seed: int, nproc: int) -> list:
    s_lang, s_ovd, stream, _ = _seeds(seed, 4)
    observables = [a for name in SAMPLE_OBSERVABLES for a in ("--observable", name)]
    return [
        ("sample_langevin", [
            "sample", "--dt", "0.01", "--n-steps", "200000", "--stride", "10",
            "--observable", "cos_q", "--observable", "energy",
            "--seed", str(s_lang), "--stream-id", str(stream),
            "--out", "{pass}/langevin.csv",
        ]),
        ("sample_overdamped", [
            "sample", "--scheme", "overdamped", "--dt", "0.01", "--n-steps", "100000",
            "--stride", "1", *observables, "--seed", str(s_ovd), "--out", "{pass}/overdamped.csv",
        ]),
        ("variance_acf", ["variance", "--input", "{inputs}/ar1.csv", "--column", "x", "--method", "acf"]),
        ("variance_batch_means",
         ["variance", "--input", "{inputs}/ar1.csv", "--column", "x", "--method", "batch_means"]),
    ]


_COMMAND_LISTS = {
    "spectral_tour": _spectral_tour,
    "friction_ladder": _friction_ladder,
    "sampling": _sampling,
}
NAMES = tuple(_COMMAND_LISTS)


def build(name: str, seed: int, nproc: int) -> Workload:
    commands = [(cid, argv + _report(cid)) for cid, argv in _COMMAND_LISTS[name](seed, nproc)]
    context = {}
    if name == "sampling":
        context = {
            "ar1_rows": AR1_ROWS,
            "ar1_sigma2": AR1_SPACING / (1.0 - AR1_PHI) ** 2,
        }
    return Workload(name, commands, context)


def write_inputs(workload: Workload, seed: int, directory: str) -> None:
    """Generate the workload's input files (untimed)."""
    if workload.name != "sampling":
        return
    from scipy.signal import lfilter

    rng = np.random.default_rng(_seeds(seed, 4)[3])
    noise = rng.standard_normal(AR1_ROWS)
    x0 = noise[0] / math.sqrt(1.0 - AR1_PHI**2)  # start in the stationary law
    x = np.empty(AR1_ROWS)
    x[0] = x0
    x[1:] = lfilter([1.0], [1.0, -AR1_PHI], noise[1:], zi=[AR1_PHI * x0])[0]
    t = np.arange(AR1_ROWS) * AR1_SPACING
    np.savetxt(f"{directory}/ar1.csv", np.column_stack([t, x]), fmt="%.17g",
               delimiter=",", header="time,x", comments="")
