"""sdprecode benchmark: Monte Carlo SER sweeps through the CLI, per workload.

Usage (from the repository root):

    python3 bench/run.py --workload single_user --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time (median of three
fresh interpreters, each importing the package, generating and validating
the workload's configs and running one warm-up invocation per job), trials
per second at steady state, peak resident memory, and the completed and
converged fractions. ``--trace 1`` reports the per-layer metrics of a run
that alternates untraced and traced rounds. Every output is checked; see
checks.py. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
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
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = ("single_user", "multiuser_zf", "multiuser_solver")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"

UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "completed_frac": "frac", "converged_frac": "frac"}


def child(role, workload, seed, seconds, directory) -> dict:
    directory.mkdir(parents=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    argv = [sys.executable, str(HERE / "measure.py"), role, workload,
            str(seed), str(seconds), str(directory), repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, versions) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        **versions, "blas_threads": BLAS_THREADS, "cli_threads": 1,
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # child and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (ROOT / "src" / "sdprecode", ROOT / "configs"):
        if not needed.is_dir():
            print(f"missing {needed}: run from a full checkout",
                  file=sys.stderr)
            return 1

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if args.trace:
            res = child("traced", args.workload, args.seed, args.seconds,
                        run_dir / "traced")
            values = res["layers"]
        else:
            setups = [child("setup", args.workload, args.seed, 0,
                            run_dir / f"setup{i}")["setup_s"]
                      for i in range(SETUP_SAMPLES - 1)]
            res = child("timed", args.workload, args.seed, args.seconds,
                        run_dir / "timed")
            setups.append(res["setup_s"])
            values = {
                "trials_per_s": res["trials_per_s"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
                "completed_frac": 1.0 - res["failed"] / res["attempted"],
                "converged_frac": 1.0 - res["nonconverged_frac"],
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": UNITS.get(k) or tracing.unit(k)}
               for k in sorted(values)}
    env = environment(args, res["versions"])
    correct = res["failed"] == 0 and not res["problems"]

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    if res["reference_points"]:
        print(f"reference: {res['identical_points']}/{res['reference_points']}"
              " points byte-identical (information only)")
    print(f"rounds: {res['rounds']}")
    print(f"trials_per_s at each job's median time (information only): "
          f"{res['median_trials_per_s']:.6g} 1/s")
    for name, us in res["us_per_trial"].items():
        print(f"job.{name}.us_per_trial {us:.6g} us")
    if not args.trace:
        print(f"nonconverged_frac {res['nonconverged_frac']:.6g} frac")
        print(f"failed_frac {res['failed'] / res['attempted']:.6g} frac")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "correct": correct,
              "attempted": res["attempted"], "failed": res["failed"],
              "problems": res["problems"], "metrics": metrics}
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
