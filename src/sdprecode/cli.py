"""Batch experiment runner.

Subcommands ``ser``, ``spectrum``, ``scatter``, and ``solve`` read a YAML
config, run the corresponding simulation, and drop CSV artifacts plus a JSON
run manifest into the output directory.  Files are written to temporary
names and renamed, so a crashed run never leaves a partial artifact; the
manifest is written last and lists everything that was produced.

Exit codes: 0 success, 2 bad config or usage, 3 a solver hit its iteration
cap (artifacts are still written and the manifest flags the run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import yaml

from . import __version__
from .sim import ConfigError, SimConfig, engine

OUT_DIR_ENV = "SDPRECODE_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _load_config(path: str) -> SimConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return SimConfig.from_dict(raw, path=path)


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
        cfg.validate()
    return cfg


def _ser(cfg: SimConfig, args):
    curve = engine.run_ser(cfg, n_workers=args.threads)
    status = EXIT_NONCONVERGED if curve.nonconverged else EXIT_OK
    return ({"ser.csv": _csv(curve.CSV_HEADER, curve.csv_rows())},
            {"solver_nonconverged": curve.nonconverged}, status)


def _spectrum(cfg: SimConfig, args):
    angles_deg, db = engine.run_spectrum(cfg)
    rows = (f"{a:.10g},{v:.10g}" for a, v in zip(angles_deg, db))
    return {"spectrum.csv": _csv("theta_deg,value_db", rows)}, {}, EXIT_OK


def _scatter(cfg: SimConfig, args):
    sent, received = engine.run_iq_scatter(cfg)
    rows = (f"{s.real:.10g},{s.imag:.10g},{r.real:.10g},{r.imag:.10g}"
            for s, r in zip(sent, received))
    return ({"scatter.csv": _csv("re_true,im_true,re_rx,im_rx", rows)}, {},
            EXIT_OK)


# The results of a solve, in print order, with their print formats; the
# dual solver alone reports dual_value and duality_gap.
_SOLVE_FIELDS = (("solver", ""), ("iterations", ""), ("converged", ""),
                 ("restarts", ""), ("objective", ".6e"), ("dual_value", ".6e"),
                 ("duality_gap", ".3e"), ("worst_margin", ".6e"),
                 ("peak_rail", ".6f"))


def _solve(cfg: SimConfig, args):
    doc = engine.run_solve(cfg)
    for key, fmt in _SOLVE_FIELDS:
        if key in doc:
            label = key.replace("_", " ") + ":"
            print(f"{label:<12} {doc[key]:{fmt}}")
    converged = doc["converged"]
    return ({"solve.json": json.dumps(doc, indent=2, sort_keys=True) + "\n"},
            {"solver_nonconverged": 0 if converged else 1},
            EXIT_OK if converged else EXIT_NONCONVERGED)


# name: (run, help); each run returns its artifacts (file name: text), its
# extra manifest fields and its exit status.
_COMMANDS = {
    "ser": (_ser, "symbol/bit error rate sweep over the SNR grid"),
    "spectrum": (_spectrum, "Monte Carlo angular power spectrum"),
    "scatter": (_scatter, "noiseless IQ scatter of shaped symbols"),
    "solve": (_solve, "one margin-maximization solve with diagnostics"),
}


def _run(cfg: SimConfig, args, out_dir: Path) -> int:
    """Run one command, write its artifacts, then the manifest listing them."""
    t0 = time.perf_counter()
    artifacts, extra, status = _COMMANDS[args.command][0](cfg, args)
    t_run = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, text in artifacts.items():
        _atomic_write(out_dir / name, text)
    t_write = time.perf_counter() - t0

    doc = {
        "command": args.command,
        "library_version": __version__,
        "seed": cfg.seed,
        "config_path": str(args.config),
        "config": cfg.to_dict(),
        "artifacts": sorted([*artifacts, "manifest.json"]),
        "timings_s": {"run": round(t_run, 6), "write": round(t_write, 6)},
        "exit_status": status,
        **extra,
    }
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return status


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdprecode",
        description="One-bit sigma-delta MIMO precoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--trials", type=int, default=None,
                       help="override trials per SNR point")
        p.add_argument("--threads", type=_at_least_one,
                       default=os.cpu_count() or 1,
                       help="worker processes for SNR points (ser only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        return _run(cfg, args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
