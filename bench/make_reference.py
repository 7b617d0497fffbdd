"""Regenerate the reference ser.csv of every job at the default seed.

Usage (from the repository root): python3 bench/make_reference.py

Run it only when a change is meant to move the curves, and say why in
CHANGES.md; the benchmark's output check compares against these files.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

# Same BLAS threading as the benchmark; set before numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from measure import invoke  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, write_config  # noqa: E402


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for jobs in WORKLOADS.values():
            for job in jobs:
                out = Path(tmp) / job.name
                code, seconds = invoke(write_config(job, DEFAULT_SEED,
                                                    Path(tmp)), out)
                if code not in (0, 3):
                    print(f"{job.name}: exit {code}", file=sys.stderr)
                    return 1
                text = (out / "ser.csv").read_text()
                (REFERENCE / f"{job.name}.csv").write_text(text)
                print(f"{job.name}: exit {code}, {seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
