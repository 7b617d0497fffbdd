"""Output checks for the ``ser.csv`` each job writes.

* Every seed: the header is the CLI's, each SNR point is present with the
  configured trial count, and all values are finite rates. Where the scheme
  has a closed form (``theory_ser`` for mrt/steered), the measured SER must
  agree with it within a binomial band plus a model allowance.
* Default seed: each point's symbol-error count must lie inside the Wilson
  interval (z = 4) of the committed reference count. How many points are
  byte-identical to the reference is reported, not gated: roundoff-level
  changes are allowed when a change explains them.
"""

from __future__ import annotations

import math

HEADER = "snr_db,ser,ber,theory_ser,ci_halfwidth,trials"
Z = 4.0
# The closed forms are Gaussian approximations of the shaped quantization
# noise; allow this share of the predicted SER on top of sampling noise.
THEORY_REL_TOL = 0.2


def parse(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"unexpected header {lines[:1]}")
    keys = HEADER.split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]


def wilson(errors: int, n: int, z: float = Z) -> tuple:
    """Wilson score interval for a binomial proportion."""
    p = errors / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def check_rows(text: str, raw: dict, symbols_per_trial: int) -> list:
    """Problems with one ser.csv against its generated config; empty if fine."""
    try:
        rows = parse(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if [r["snr_db"] for r in rows] != [float(v) for v in raw["snr_db"]]:
        problems.append("SNR points differ from the config")
    closed_form = raw["scheme"] in ("mrt", "mrt_steered")
    for r in rows:
        at = f"snr {r['snr_db']:g}"
        if r["trials"] != raw["trials"]:
            problems.append(f"{at}: {r['trials']:g} trials, "
                            f"expected {raw['trials']}")
        for key in ("ser", "ber", "ci_halfwidth"):
            if not math.isfinite(r[key]) or not 0.0 <= r[key] <= 1.0:
                problems.append(f"{at}: {key}={r[key]!r} is not a finite rate")
        if closed_form != math.isfinite(r["theory_ser"]):
            problems.append(f"{at}: theory_ser={r['theory_ser']!r}")
        elif closed_form:
            n = r["trials"] * symbols_per_trial
            th = r["theory_ser"]
            tol = Z * math.sqrt(th * (1 - th) / n) + THEORY_REL_TOL * th + 2 / n
            if abs(r["ser"] - th) > tol:
                problems.append(f"{at}: ser {r['ser']:.4g} vs closed form "
                                f"{th:.4g} (tolerance {tol:.2g})")
    return problems


def check_reference(text: str, ref_text: str, symbols_per_trial: int):
    """(problems, byte-identical points, points) against the reference."""
    rows, ref = parse(text), parse(ref_text)
    if len(rows) != len(ref):
        return [f"{len(rows)} points, reference has {len(ref)}"], 0, len(ref)
    problems = []
    for r, q in zip(rows, ref):
        n = int(q["trials"]) * symbols_per_trial
        errors = round(r["ser"] * int(r["trials"]) * symbols_per_trial)
        lo, hi = wilson(round(q["ser"] * n), n)
        if not lo * n <= errors <= hi * n:
            problems.append(f"snr {r['snr_db']:g}: {errors} symbol errors, "
                            f"reference interval [{lo * n:.1f}, {hi * n:.1f}]")
    lines, ref_lines = text.splitlines()[1:], ref_text.splitlines()[1:]
    same = sum(a == b for a, b in zip(lines, ref_lines))
    return problems, same, len(ref_lines)
