"""Workload definitions and the configs the benchmark generates from them.

A workload is a fixed list of jobs. Each job is one shipped config from
``configs/`` with the workload seed substituted in, a fixed trial count and
early stopping disabled, so the amount of work never depends on how many
errors a run happens to make. Every timed round runs each job once through
``sdprecode.cli.main(["ser", ..., "--threads", "1"])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference"

# The seed every shipped config carries; the committed reference ser.csv
# files were made with it.
DEFAULT_SEED = 1

# Larger than any symbol count a job produces, so early stopping never fires.
NO_EARLY_STOP = 10**12

SOLVER_SCHEMES = ("slp_primal", "slp_dual", "nullspace_zf")


@dataclass(frozen=True)
class Job:
    """One generated config: a shipped config plus fixed overrides."""

    name: str
    config: str
    trials: int
    overrides: dict = field(default_factory=dict)


# Why these jobs: see bench/README.md ("Workloads"). Trial counts keep one
# round short enough for several rounds per run on a 2-core machine; the
# nullspace job keeps its shipped solver settings, so its cap hits show,
# and runs the first two of its SNR points (every block costs the same
# capped solve, so more points add time, not coverage).
WORKLOADS = {
    "single_user": (
        Job("mrt_broadside", "mrt_broadside", 2048),
        Job("steered_endfire", "steered_endfire", 2048),
    ),
    "multiuser_zf": (
        Job("zf_multiuser", "zf_multiuser", 128),
        Job("zf_qam_block", "nullspace_qam_block", 24, {"scheme": "zf_qam"}),
    ),
    "multiuser_solver": (
        Job("slp_multiuser", "slp_multiuser", 8),
        Job("nullspace_qam_block", "nullspace_qam_block", 1,
            {"snr_db": [17, 19]}),
    ),
}


def job_config(job: Job, seed: int, warmup: bool = False) -> dict:
    """The job's config as a plain dict; ``warmup`` keeps the first SNR point."""
    raw = yaml.safe_load((CONFIGS / f"{job.config}.yaml").read_text())
    raw.update(job.overrides)
    raw["seed"] = seed
    raw["trials"] = job.trials
    raw["early_stop_errors"] = NO_EARLY_STOP
    if warmup:
        raw["snr_db"] = raw["snr_db"][:1]
    return raw


def write_config(job: Job, seed: int, directory: Path,
                 warmup: bool = False) -> Path:
    """Validate the generated config with the package's parser and save it."""
    from sdprecode.sim import SimConfig

    raw = job_config(job, seed, warmup)
    SimConfig.from_dict(raw, path=job.name)
    path = directory / f"{job.name}{'.warmup' if warmup else ''}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def symbols_per_trial(raw: dict) -> int:
    """Decided symbols per trial and SNR point: users x block length."""
    users = raw["channel"].get("n_users", 1) \
        if raw["channel"]["model"] == "multi_user" else 1
    return int(users) * int(raw.get("block_length", 1))
