"""One benchmark child: cold start to a ready CLI, then one timed pass of a workload.

    python3 perfbench/child.py SPEC.json

The first thing the child does is import `hypokit.cli` and have it build its
parser (`main([])` prints the usage and returns); the monotonic time at which
that finishes is `ready`, and the parent subtracts its own spawn time.  A spec
without commands stops there (a set-up probe).  Otherwise the child runs the
workload's commands once through `hypokit.cli.main`, in this process, and
writes their timings to the spec's `result` file.  A calibration kernel that
does not touch hypokit runs right after set-up and after each command, outside
the timed commands, so the parent can tell how fast the machine ran meanwhile.
With `trace` set the child installs the tracer first and records per-layer
numbers.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _start_cli():
    with contextlib.redirect_stderr(io.StringIO()):
        import hypokit.cli

        hypokit.cli.main([])
    return hypokit.cli, time.monotonic()


def _calibration_kernel():
    """Machine-speed probe: the median of 7 runs of a fixed LAPACK + interpreter kernel.

    It does not touch hypokit, so a change to the program cannot move it; it
    slows down with the machine (about 8 ms unloaded on a 2.1 GHz Xeon vCPU).
    """
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((120, 120))
    eigvals = scipy.linalg.eigvals  # bound now, so the tracer never sees it

    def once() -> float:
        t0 = time.perf_counter()
        eigvals(a)
        s = 0.0
        for i in range(30_000):
            s += i * 0.5
        return time.perf_counter() - t0

    def run() -> float:
        return sorted(once() for _ in range(7))[3]

    return run


def _run_command(cli, argv: list) -> dict:
    t0 = time.perf_counter()
    try:
        rc, error = cli.main(argv), None
    except Exception:  # noqa: BLE001 - a crashing command is a failed operation, not a crashed run
        rc, error = None, traceback.format_exc(limit=3)
    return {"seconds": time.perf_counter() - t0, "rc": rc, "error": error}


def main() -> int:
    cli, ready = _start_cli()
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = {"ready": ready, "hypokit_file": os.path.abspath(cli.__file__)}
    calibrate = _calibration_kernel()
    result["calibration"] = [calibrate()]
    if spec.get("commands"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        os.makedirs(spec["pass_dir"], exist_ok=True)
        commands = []
        for cmd_id, template in spec["commands"]:
            argv = [a.replace("{pass}", spec["pass_dir"]).replace("{inputs}", spec["inputs_dir"])
                    for a in template]
            commands.append({"id": cmd_id, "argv": argv, **_run_command(cli, argv)})
            result["calibration"].append(calibrate())
        result.update(dir=spec["pass_dir"], commands=commands, wall=sum(c["seconds"] for c in commands))
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
