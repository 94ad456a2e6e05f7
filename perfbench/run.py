"""hypokit benchmark: times the CLI end to end and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the hypokit package in
`src/` (pure Python, so there is nothing to build).  A run alternates rounds
for about S seconds (at least one round): two set-up probes and one pass, each
a fresh child process (`child.py`) with BLAS and OpenMP pinned to one thread in
the child's environment only.  A pass runs every command of the workload once;
`scan` gets `--threads` equal to the cores this process may use.  Reports and CSVs go to a temporary directory under
`.perfbench_tmp/`, removed at the end.

--trace 0 prints the end-to-end metrics, with times rescaled toward reference
machine speed (see CAL_REF_S):
  setup_s      median over probes and passes of the time from spawning a cold
               interpreter to `hypokit.cli` imported with its parser built; one
               untimed probe first fills the bytecode cache
  wall_s       median over passes of the summed time of the workload's commands
  peak_rss_mb  median over passes of the pass child's peak resident memory
--trace 1 alternates an untraced and a traced pass (`tracer.py`) and prints
the per-layer metrics of the traced pass with the median wall time, the
untraced per-command medians `cmd.<command>.wall_s`, and `tracing_overhead_s`
(traced minus untraced median wall time, each pass rescaled like wall_s).

The last stdout line is the result object; the line before it records the
environment and the raw samples.  `attempted` counts command runs plus output
checks over every pass, `failed` those that failed (see `oracles.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TMP_ROOT = ROOT / ".perfbench_tmp"
DEADLINE_S = 170.0  # a run must end within 180 s
PROBES_PER_PASS = 2
# Times in end-to-end metrics are rescaled to a machine on which the children's
# calibration kernel takes CAL_REF_S (about its unloaded median on a 2.1 GHz
# Xeon vCPU).  A shared host's speed can swing by 1.6x for minutes as
# neighbours load it, and the kernel, which never touches hypokit, sees it.
# Set-up (imports: interpreter work, like the kernel) is scaled by the kernel's
# slowdown; wall time by its square root, because the large LAPACK calls and
# the second core that the workloads also use slow down less than the kernel.
# Over 90 runs (3 sets of 10 per workload) that kept the quartile spread of
# wall_s at or below 0.16 and set medians within 11 %, where no scaling reached
# 0.25 and 29 %, and full scaling 0.21 and 22 %.
CAL_REF_S = 0.008
WALL_CAL_EXPONENT = 0.5
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_COMMANDS = ("spectrum", "poisson", "poincare", "ode", "dissipation", "bounds", "scan", "sample", "variance")


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONDONTWRITEBYTECODE", "HYPOKIT_THREADS", "PYTHONHOME"):
        env.pop(key, None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(spec: dict, work_dir: str, tag: str, started: float) -> dict:
    """Run one child to completion; returns its result with `setup_s` added."""
    spec = dict(spec, result=os.path.join(work_dir, f"{tag}.result.json"))
    if "commands" in spec:
        spec["pass_dir"] = os.path.join(work_dir, tag)
    spec_path = os.path.join(work_dir, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(work_dir, f"{tag}.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), spec_path], cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
    if code is None:
        raise ChildFailed(f"{tag}: child overran the {DEADLINE_S:.0f} s deadline")
    if code != 0 or not os.path.exists(spec["result"]):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{tag}: child exited with code {code}\n{tail}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if not result["hypokit_file"].startswith(str(ROOT / "src") + os.sep):
        raise ChildFailed(f"{tag}: imported hypokit from {result['hypokit_file']}, not from src/")
    result["raw_setup_s"] = result["ready"] - t_spawn
    result["setup_s"] = result["raw_setup_s"] * CAL_REF_S / result["calibration"][0]
    return result


def measure(spec: dict, seconds: float, trace: bool, work_dir: str, started: float) -> dict:
    """Alternate set-up probes and one-pass children for about `seconds`.

    Another round starts while it would end no more than half a round late,
    which keeps the runs of long workloads near `seconds` instead of well short.
    """
    starts, plain, traced = [], [], []  # `starts`: every untraced child, for set-up times
    t0 = time.monotonic()
    while True:
        t_round = time.monotonic()
        k = len(plain)
        starts += [run_child({}, work_dir, f"probe{k}.{i}", started) for i in range(0 if trace else PROBES_PER_PASS)]
        plain.append(run_child(spec, work_dir, f"pass{k}", started))
        starts.append(plain[-1])
        if trace:
            traced.append(run_child(dict(spec, trace=True), work_dir, f"traced{k}", started))
        now = time.monotonic()
        if now - t0 + 0.5 * (now - t_round) > seconds:
            return {"starts": starts, "plain": plain, "traced": traced}


def _median_pass(passes: list) -> dict:
    return sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]


def _ref_speed_wall(p: dict) -> float:
    return p["wall"] * (CAL_REF_S / statistics.median(p["calibration"])) ** WALL_CAL_EXPONENT


def end_to_end(m: dict) -> dict:
    # The run's median calibration: many samples, so the kernel's own jitter
    # averages out while a slow spell of the host does not.
    speed = CAL_REF_S / statistics.median(c for p in m["plain"] for c in p["calibration"])
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in m["starts"]), "s"),
        "wall_s": (statistics.median(p["wall"] for p in m["plain"]) * speed**WALL_CAL_EXPONENT, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in m["plain"]), "MB"),
    }


def layer_metrics(m: dict) -> dict:
    pick = _median_pass(m["traced"])
    out = dict(pick["layers"])
    out["trace.wall_s"] = pick["wall"]
    out["trace.unattributed_s"] = pick["wall"] - sum(v for k, v in pick["layers"].items() if k.endswith(".self_s"))
    # Each pass rescaled by its own calibrations, so a slow spell during one of
    # them does not read as tracing cost.
    out["tracing_overhead_s"] = (statistics.median(_ref_speed_wall(p) for p in m["traced"])
                                 - statistics.median(_ref_speed_wall(p) for p in m["plain"]))
    for name in CLI_COMMANDS:
        out[f"cmd.{name}.wall_s"] = statistics.median(
            sum(c["seconds"] for c in p["commands"] if c["argv"][0] == name) for p in m["plain"])
    return {k: (v, _unit(k)) for k, v in out.items()}


def samples(m: dict) -> dict:
    """The raw numbers behind the medians, in run order."""
    return {
        "raw_setup_s": [c["raw_setup_s"] for c in m["starts"]],
        "passes": [{"traced": "layers" in p, "wall_s": p["wall"], "calibration_s": p["calibration"],
                    "commands_s": {c["id"]: c["seconds"] for c in p["commands"]}}
                   for p in m["plain"] + m["traced"]],
    }


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError):
        return {}
    return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack") if k in deps}


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "child_thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # Stopped from outside: unwind, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hypokit" / "cli.py").is_file():
        print(f"perfbench: no hypokit sources under {ROOT / 'src'}; run from a hypokit checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.build(args.workload, args.seed, nproc)
    expected = oracles.load_expected()
    TMP_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        inputs_dir = os.path.join(work_dir, "inputs")
        os.makedirs(inputs_dir)
        workloads.write_inputs(workload, args.seed, inputs_dir)
        spec = {"commands": workload.commands, "inputs_dir": inputs_dir}
        run_child({}, work_dir, "warmup", started)
        m = measure(spec, args.seconds, args.trace == 1, work_dir, started)
        metrics = layer_metrics(m) if args.trace else end_to_end(m)

        attempted = failed = 0
        for p in m["plain"] + m["traced"]:
            checks = oracles.check_pass(p["commands"], p["dir"], expected, workload.context)
            attempted += len(checks.items)
            for name, ok, detail in checks.items:
                if not ok:
                    failed += 1
                    print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    print(json.dumps({"environment": environment(nproc), "workload": args.workload, "seed": args.seed,
                      "samples": samples(m)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes") or "csv_bytes" in name:
        return "B"
    if name.endswith("us_per_step"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
