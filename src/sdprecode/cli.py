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

import numpy as np
import yaml

from . import __version__, precoder
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


def _write_csv(path: Path, header: str, rows) -> None:
    _atomic_write(path, "\n".join([header, *rows]) + "\n")


def _load_config(path: str) -> tuple[SimConfig, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return SimConfig.from_dict(raw, path=path), text


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


def _manifest(out_dir: Path, command, cfg, config_path, artifacts, timings,
              extra=None):
    doc = {
        "command": command,
        "library_version": __version__,
        "seed": cfg.seed,
        "config_path": str(config_path),
        "config": cfg.to_dict(),
        "artifacts": sorted(artifacts),
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    if extra:
        doc.update(extra)
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_ser(cfg: SimConfig, args, out_dir: Path, config_path) -> int:
    t0 = time.perf_counter()
    curve = engine.run_ser(cfg, n_workers=args.threads)
    t_run = time.perf_counter() - t0

    t0 = time.perf_counter()
    _write_csv(out_dir / "ser.csv", curve.CSV_HEADER, curve.csv_rows())
    t_write = time.perf_counter() - t0

    status = EXIT_NONCONVERGED if curve.nonconverged else EXIT_OK
    _manifest(out_dir, "ser", cfg, config_path,
              ["ser.csv", "manifest.json"],
              {"run": t_run, "write": t_write},
              {"solver_nonconverged": curve.nonconverged,
               "exit_status": status})
    return status


def _cmd_spectrum(cfg: SimConfig, args, out_dir: Path, config_path) -> int:
    t0 = time.perf_counter()
    angles_deg, db = engine.run_spectrum(cfg)
    t_run = time.perf_counter() - t0

    rows = (f"{a:.10g},{v:.10g}" for a, v in zip(angles_deg, db))
    t0 = time.perf_counter()
    _write_csv(out_dir / "spectrum.csv", "theta_deg,value_db", rows)
    t_write = time.perf_counter() - t0
    _manifest(out_dir, "spectrum", cfg, config_path,
              ["spectrum.csv", "manifest.json"],
              {"run": t_run, "write": t_write}, {"exit_status": EXIT_OK})
    return EXIT_OK


def _cmd_scatter(cfg: SimConfig, args, out_dir: Path, config_path) -> int:
    t0 = time.perf_counter()
    sent, received = engine.run_iq_scatter(cfg)
    t_run = time.perf_counter() - t0

    rows = (f"{s.real:.10g},{s.imag:.10g},{r.real:.10g},{r.imag:.10g}"
            for s, r in zip(sent, received))
    t0 = time.perf_counter()
    _write_csv(out_dir / "scatter.csv", "re_true,im_true,re_rx,im_rx", rows)
    t_write = time.perf_counter() - t0
    _manifest(out_dir, "scatter", cfg, config_path,
              ["scatter.csv", "manifest.json"],
              {"run": t_run, "write": t_write}, {"exit_status": EXIT_OK})
    return EXIT_OK


def _cmd_solve(cfg: SimConfig, args, out_dir: Path, config_path) -> int:
    if cfg.scheme not in ("slp_primal", "slp_dual"):
        raise ConfigError("config.scheme: solve needs slp_primal or slp_dual")
    scene, symbols = engine.build_solve_instance(cfg)
    solver = "primal" if cfg.scheme == "slp_primal" else "dual"
    params = cfg.solver.apg_params(solver)

    t0 = time.perf_counter()
    out = precoder.slp_psk(scene, symbols, cfg.constellation_order,
                           solver=solver, params=params)
    t_run = time.perf_counter() - t0

    meta = out.metadata
    print(f"solver:      {meta['solver']}")
    print(f"iterations:  {meta['iterations']}")
    print(f"converged:   {meta['converged']}")
    print(f"restarts:    {meta['restarts']}")
    print(f"objective:   {meta['objective']:.6e}")
    if "duality_gap" in meta:
        print(f"dual value:  {meta['dual_value']:.6e}")
        print(f"duality gap: {meta['duality_gap']:.3e}")
    print(f"worst margin: {float(np.min(meta['margins'])):.6e}")
    print(f"peak rail:   {float(precoder.iq_inf_norm(out.xbar)):.6f}")

    doc = {
        "solver": meta["solver"],
        "iterations": meta["iterations"],
        "converged": meta["converged"],
        "restarts": meta["restarts"],
        "objective": meta["objective"],
        "worst_margin": float(np.min(meta["margins"])),
        "peak_rail": float(precoder.iq_inf_norm(out.xbar)),
    }
    if "duality_gap" in meta:
        doc["dual_value"] = meta["dual_value"]
        doc["duality_gap"] = meta["duality_gap"]
    _atomic_write(out_dir / "solve.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")

    status = EXIT_OK if meta["converged"] else EXIT_NONCONVERGED
    _manifest(out_dir, "solve", cfg, config_path,
              ["solve.json", "manifest.json"], {"run": t_run},
              {"solver_nonconverged": 0 if meta["converged"] else 1,
               "exit_status": status})
    return status


_COMMANDS = {
    "ser": _cmd_ser,
    "spectrum": _cmd_spectrum,
    "scatter": _cmd_scatter,
    "solve": _cmd_solve,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdprecode",
        description="One-bit sigma-delta MIMO precoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ser", "symbol/bit error rate sweep over the SNR grid"),
        ("spectrum", "Monte Carlo angular power spectrum"),
        ("scatter", "noiseless IQ scatter of shaped symbols"),
        ("solve", "one margin-maximization solve with diagnostics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--trials", type=int, default=None,
                       help="override trials per SNR point")
        p.add_argument("--threads", type=int,
                       default=os.cpu_count() or 1,
                       help="worker processes for SNR points (ser only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, _ = _load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args, out_dir, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
