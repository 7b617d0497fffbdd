"""One benchmark process: set up, then optionally measure. Started by run.py.

Usage: python3 bench/measure.py ROLE WORKLOAD SEED SECONDS OUT_DIR SPAWNED

ROLE is ``setup`` (report the set-up time and exit), ``timed`` (set up,
then run untraced rounds) or ``traced`` (set up, then alternate untraced
and traced rounds). SPAWNED is the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter start.
Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import sdprecode  # noqa: E402
from sdprecode import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (DEFAULT_SEED, REFERENCE, SOLVER_SCHEMES, SRC,  # noqa: E402
                       WORKLOADS, job_config, symbols_per_trial, write_config)

# On a shared host the same work runs at a usual speed and, in phases of
# tens of seconds, up to about 40 % faster. How much of a run such phases
# cover varies from run to run, so each job's time is the upper quartile of
# its rounds, which stays with the usual speed and spreads about half as
# much between runs as the median; at least three rounds give it a base.
MIN_TIMED_ROUNDS = 3
MIN_TRACED_PAIRS = 1
# Round r runs input set r % INPUT_SETS: set 0 is the workload seed itself,
# set k > 0 the seed plus k * SEED_STRIDE, so input-dependent work (solver
# iterations) is sampled over several draws; repeats of a set must
# reproduce it byte for byte.
INPUT_SETS = 4
SEED_STRIDE = 100_000


def upper_quartile(values) -> float:
    """Third quartile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def invoke(config: Path, out: Path, seed=None):
    """Run one CLI invocation; returns (exit code or None if it raised, s)."""
    argv = ["ser", "--config", str(config), "--out", str(out),
            "--threads", "1"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a measured failure, not the end of the run
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


class Job:
    """One generated config plus everything measured about it."""

    def __init__(self, spec, seed, directory):
        self.spec = spec
        self.raw = job_config(spec, seed)
        self.config = write_config(spec, seed, directory)
        self.warmup = write_config(spec, seed, directory, warmup=True)
        self.out = directory / spec.name
        self.trials = self.raw["trials"] * len(self.raw["snr_db"])
        self.symbols = symbols_per_trial(self.raw)
        self.solver = self.raw["scheme"] in SOLVER_SCHEMES
        self.times = {"untraced": [], "traced": []}
        self.first_csv = {}
        self.nonconverged = 0
        self.runs = 0
        self.write_s = 0.0


class Runner:
    def __init__(self, workload, seed, directory):
        self.seed = seed
        self.jobs = [Job(spec, seed, directory) for spec in WORKLOADS[workload]]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.identical = 0
        self.reference_points = 0

    def warm_up(self):
        for job in self.jobs:
            code, _ = invoke(job.warmup, job.out)
            if code not in (0, 3):
                raise RuntimeError(f"{job.spec.name}: warm-up exited {code}")

    def round(self, kind: str, inputs: int) -> float:
        seed = self.seed + inputs * SEED_STRIDE
        total = 0.0
        for job in self.jobs:
            code, seconds = invoke(job.config, job.out, seed)
            total += seconds
            job.times[kind].append(seconds)
            self.attempted += 1
            problems = self.check(job, code, inputs)
            if problems:
                self.failed += 1
                self.problems += [f"{job.spec.name}: {p}" for p in problems]
        return total

    def check(self, job: Job, code, inputs: int) -> list:
        if code not in (0, 3):
            return [f"exit status {code}"]
        manifest = json.loads((job.out / "manifest.json").read_text())
        text = (job.out / "ser.csv").read_text()
        nonconverged = manifest["solver_nonconverged"]
        job.runs += 1
        job.nonconverged += nonconverged
        job.write_s += manifest["timings_s"]["write"]
        if (code == 3) != (nonconverged > 0) or manifest["exit_status"] != code:
            return [f"exit {code} with {nonconverged} non-converged solves"]
        if inputs in job.first_csv:
            same = text == job.first_csv[inputs]
            return [] if same else ["ser.csv differs between identical runs"]
        job.first_csv[inputs] = text
        problems = checks.check_rows(text, job.raw, job.symbols)
        if self.seed == DEFAULT_SEED and inputs == 0:
            ref = (REFERENCE / f"{job.spec.name}.csv").read_text()
            more, same, points = checks.check_reference(text, ref, job.symbols)
            problems += more
            self.identical += same
            self.reference_points += points
        return problems


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    import yaml
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "pyyaml": yaml.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main(argv) -> int:
    role, workload, seed, seconds, directory, spawned = argv
    seed, seconds, spawned = int(seed), float(seconds), float(spawned)
    directory = Path(directory)
    if Path(sdprecode.__file__).resolve().parents[1] != SRC:
        print(f"imported sdprecode from {sdprecode.__file__}, not {SRC}",
              file=sys.stderr)
        return 1

    runner = Runner(workload, seed, directory)
    runner.warm_up()
    result = {"setup_s": time.monotonic() - spawned}
    if role == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer()
    start, rounds = time.monotonic(), 0
    while True:
        if not tracing.untraced():
            runner.problems.append("tracer wrappers left installed")
        inputs = rounds % INPUT_SETS
        spent = runner.round("untraced", inputs)
        if role == "traced":
            with tracer:
                spent += runner.round("traced", inputs)
        rounds += 1
        elapsed = time.monotonic() - start
        enough = MIN_TRACED_PAIRS if role == "traced" else MIN_TIMED_ROUNDS
        if rounds >= enough and elapsed + spent > seconds:
            break

    def round_s(kind, summary=upper_quartile):
        return sum(summary(j.times[kind]) for j in runner.jobs)

    trials = sum(j.trials for j in runner.jobs)
    instances = sum(j.trials * j.runs for j in runner.jobs if j.solver)
    nonconverged = sum(j.nonconverged for j in runner.jobs if j.solver)
    result.update(
        rounds=rounds,
        trials_per_s=trials / round_s("untraced"),
        median_trials_per_s=trials / round_s("untraced", statistics.median),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        nonconverged_frac=nonconverged / instances if instances else 0.0,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        identical_points=runner.identical,
        reference_points=runner.reference_points,
        us_per_trial={j.spec.name: statistics.median(j.times["untraced"])
                      / j.trials * 1e6 for j in runner.jobs},
        versions=versions(),
    )
    if role == "traced":
        layers = tracing.summarize(tracer, rounds)
        layers["trace.overhead_frac"] = \
            round_s("traced") / round_s("untraced") - 1.0
        layers["cli.write_s"] = sum(j.write_s for j in runner.jobs) \
            / sum(j.runs for j in runner.jobs) * len(runner.jobs)
        result.update(layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
