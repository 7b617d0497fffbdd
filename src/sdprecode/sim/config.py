"""Experiment configuration: parsing, validation, and compatibility rules."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from typing import Optional, Tuple

from ..channel import make_constellation
from ..optim import ApgParams

__all__ = ["ConfigError", "ChannelSpec", "SolverSpec", "SimConfig"]

MODULATORS = ("basic", "dithered", "steered", "generalized",
              "unquantized", "direct")

# Each scheme's channel model and the modulators that make sense behind it.
# The steered modulator needs the single steering rotation the steered
# scheme computes; the channel-matched modulator needs the per-antenna
# ratios of the generalized scheme; the other schemes run the plain
# (optionally dithered) modulator.
_PLAIN = frozenset({"basic", "dithered", "unquantized", "direct"})
SCHEMES = {
    "mrt": ("single_path", _PLAIN),
    "mrt_steered": ("single_path", frozenset({"steered", "unquantized"})),
    "mrt_generalized": ("iid_gaussian",
                        frozenset({"generalized", "unquantized", "direct"})),
    "zf": ("multi_user", _PLAIN),
    "zf_qam": ("multi_user", _PLAIN),
    "nullspace_zf": ("multi_user", _PLAIN),
    "slp_primal": ("multi_user", _PLAIN),
    "slp_dual": ("multi_user", _PLAIN),
}
_BLOCK_SCHEMES = ("zf_qam", "nullspace_zf")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _err(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _take(d: dict, path: str, key: str, convert=None, default=None,
          required=False):
    """Pop ``key`` and pass it through ``convert``; a value the conversion
    rejects is a ConfigError naming the key."""
    if key not in d:
        if required:
            _err(f"{path}.{key}", "missing required key")
        return default
    value = d.pop(key)
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        _err(f"{path}.{key}", f"cannot read {value!r} ({exc})")


def _int(value) -> int:
    """An integer, or a float with an integral value; booleans and
    fractional values are errors, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool):
        raise TypeError("must be an integer, not a boolean")
    return operator.index(value)


def _mapping(value) -> dict:
    """A YAML mapping; an empty entry reads as no keys."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError("must be a mapping")
    return dict(value)


def _numbers(value, count=None) -> tuple:
    """A YAML list of numbers, of ``count`` entries when given."""
    if isinstance(value, (str, bytes, dict)):
        raise TypeError("must be a list")
    numbers = tuple(float(v) for v in value)
    if count is not None and len(numbers) != count:
        raise ValueError(f"must have {count} entries")
    return numbers


def _no_leftovers(d: dict, path: str):
    if d:
        _err(path, f"unknown keys {sorted(d)}")


@dataclass(frozen=True)
class ChannelSpec:
    """Per-trial channel randomness model.

    ``single_path``: one user at a fixed angle, unit gain with uniform random
    phase each trial.  ``multi_user``: single-path users at per-trial random
    angles (or a fixed explicit list), uniform phases, and either unit or
    free-space path-loss amplitudes ``ref/distance``.  ``iid_gaussian``:
    one user with i.i.d. unit-variance complex Gaussian antenna gains.
    """

    model: str = "single_path"
    angle_deg: float = 0.0
    n_users: int = 1
    angle_range_deg: Tuple[float, float] = (-30.0, 30.0)
    angles_deg: Optional[Tuple[float, ...]] = None
    min_separation_deg: float = 1.0
    gain_model: str = "unit_phase"
    pathloss_ref: float = 30.0
    pathloss_range: Tuple[float, float] = (20.0, 100.0)

    @staticmethod
    def from_dict(d: dict, path: str = "channel") -> "ChannelSpec":
        d = dict(d)
        model = _take(d, path, "model", required=True)
        kw = {"model": model}
        pair = partial(_numbers, count=2)
        if model == "single_path":
            kw["angle_deg"] = _take(d, path, "angle_deg", float, 0.0)
        elif model == "multi_user":
            angles = _take(d, path, "angles_deg", _numbers)
            if angles is not None:
                kw["angles_deg"] = angles
                kw["n_users"] = len(angles)
                n_users = _take(d, path, "n_users", _int)
                if n_users is not None and n_users != kw["n_users"]:
                    _err(f"{path}.n_users", "conflicts with explicit angles_deg")
            else:
                kw["n_users"] = _take(d, path, "n_users", _int, required=True)
                kw["angle_range_deg"] = _take(d, path, "angle_range_deg",
                                              pair, (-30.0, 30.0))
                kw["min_separation_deg"] = _take(d, path, "min_separation_deg",
                                                 float, 1.0)
            kw["gain_model"] = _take(d, path, "gain_model", str, "unit_phase")
            kw["pathloss_ref"] = _take(d, path, "pathloss_ref", float, 30.0)
            kw["pathloss_range"] = _take(d, path, "pathloss_range", pair,
                                         (20.0, 100.0))
        elif model == "iid_gaussian":
            pass
        else:
            _err(f"{path}.model", f"unknown channel model {model!r}")
        _no_leftovers(d, path)
        return ChannelSpec(**kw)

    def validate(self, path: str = "channel"):
        if self.model == "single_path":
            if not -90.0 <= self.angle_deg <= 90.0:
                _err(f"{path}.angle_deg", "must lie in [-90, 90]")
        elif self.model == "multi_user":
            if self.n_users < 1:
                _err(f"{path}.n_users", "must be >= 1")
            if self.angles_deg is not None:
                if len(self.angles_deg) == 0:
                    _err(f"{path}.angles_deg", "must not be empty")
                for a in self.angles_deg:
                    if not -90.0 <= a <= 90.0:
                        _err(f"{path}.angles_deg", "angles must lie in [-90, 90]")
            else:
                lo, hi = self.angle_range_deg
                if not (-90.0 <= lo < hi <= 90.0):
                    _err(f"{path}.angle_range_deg", "need -90 <= lo < hi <= 90")
                if self.min_separation_deg < 0:
                    _err(f"{path}.min_separation_deg", "must be >= 0")
                needed = (self.n_users - 1) * self.min_separation_deg
                if hi - lo <= needed:
                    _err(f"{path}", "angle range too small for the separation")
            if self.gain_model not in ("unit_phase", "pathloss"):
                _err(f"{path}.gain_model", f"unknown model {self.gain_model!r}")
            if self.gain_model == "pathloss":
                lo, hi = self.pathloss_range
                if not 0 < lo <= hi:
                    _err(f"{path}.pathloss_range", "need 0 < lo <= hi")
                if self.pathloss_ref <= 0:
                    _err(f"{path}.pathloss_ref", "must be positive")


@dataclass(frozen=True)
class SolverSpec:
    """Knobs for the margin-maximizing and peak-shaving solvers."""

    smoothing: float = 0.05
    regularization: float = 0.005
    tol: float = 1e-5
    dual_tol: float = 1e-7
    max_iters: int = 2000
    dual_max_iters: int = 3000
    nullspace_smoothing_rel: float = 2e-3
    nullspace_max_iters: int = 300

    @staticmethod
    def from_dict(d: dict, path: str = "solver") -> "SolverSpec":
        d = dict(d)
        kw = {f.name: _take(d, path, f.name,
                            _int if isinstance(f.default, int) else float)
              for f in fields(SolverSpec) if f.name in d}
        _no_leftovers(d, path)
        return SolverSpec(**kw)

    def apg_params(self, solver: str) -> ApgParams:
        """Solver settings for a ``primal``, ``dual`` or ``nullspace`` run.

        The nullspace smoothing and tolerance are fractions of the
        zero-forcing peak of the block being shaved.
        """
        if solver == "primal":
            return ApgParams(smoothing=self.smoothing, tol=self.tol,
                             max_iters=self.max_iters)
        if solver == "dual":
            return ApgParams(regularization=self.regularization,
                             tol=self.dual_tol, max_iters=self.dual_max_iters)
        if solver == "nullspace":
            return ApgParams(smoothing=self.nullspace_smoothing_rel, tol=1e-5,
                             max_iters=self.nullspace_max_iters)
        raise ValueError(f"unknown solver {solver!r}")

    def validate(self, path: str = "solver"):
        for name in ("smoothing", "regularization", "tol", "dual_tol",
                     "nullspace_smoothing_rel"):
            if getattr(self, name) <= 0:
                _err(f"{path}.{name}", "must be positive")
        for name in ("max_iters", "dual_max_iters", "nullspace_max_iters"):
            if getattr(self, name) < 1:
                _err(f"{path}.{name}", "must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one Monte Carlo experiment.

    The sweep is over ``snr_db`` interpreted as total power over thermal
    noise power (``P / sigma_v^2`` with ``sigma_v^2 = 1``).  ``seed`` fixes
    every random draw; reruns of an identical config are bit-identical, and
    raising ``trials`` only appends new trials.
    """

    n_antennas: int
    spacing_over_wavelength: float
    constellation_kind: str
    constellation_order: int
    scheme: str
    modulator: str
    snr_db: Tuple[float, ...]
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    dither_level: float = 0.8
    amplitude_mode: str = "safe"
    trials: int = 100_000
    early_stop_errors: int = 500
    block_length: int = 1
    seed: int = 0
    solver: SolverSpec = field(default_factory=SolverSpec)
    spectrum_grid_deg: Tuple[float, float, float] = (-90.0, 90.0, 0.5)
    spectrum_trials: int = 2000
    scatter_realizations: int = 1000

    @staticmethod
    def from_dict(raw: dict, path: str = "config") -> "SimConfig":
        if not isinstance(raw, dict):
            _err(path, "top level must be a mapping")
        d = dict(raw)
        geom_path = f"{path}.geometry"
        geom = _take(d, path, "geometry", _mapping, required=True)
        n_ant = _take(geom, geom_path, "n_antennas", _int, required=True)
        spacing = _take(geom, geom_path, "spacing_over_wavelength", float,
                        required=True)
        _no_leftovers(geom, geom_path)

        con_path = f"{path}.constellation"
        con = _take(d, path, "constellation", _mapping, required=True)
        kind = _take(con, con_path, "kind", str, required=True).lower()
        order = _take(con, con_path, "order", _int, required=True)
        _no_leftovers(con, con_path)

        channel = ChannelSpec.from_dict(
            _take(d, path, "channel", _mapping, required=True),
            f"{path}.channel")
        solver = SolverSpec.from_dict(_take(d, path, "solver", _mapping, {}),
                                      f"{path}.solver")

        snr = _take(d, path, "snr_db", _numbers, required=True)
        if not snr:
            _err(f"{path}.snr_db", "must be a non-empty list")

        spectrum_path = f"{path}.spectrum"
        spectrum = _take(d, path, "spectrum", _mapping, {})
        grid = _take(spectrum, spectrum_path, "grid_deg",
                     partial(_numbers, count=3), (-90.0, 90.0, 0.5))
        spectrum_trials = _take(spectrum, spectrum_path, "trials", _int, 2000)
        _no_leftovers(spectrum, spectrum_path)

        scatter = _take(d, path, "scatter", _mapping, {})
        scatter_realizations = _take(scatter, f"{path}.scatter",
                                     "realizations", _int, 1000)
        _no_leftovers(scatter, f"{path}.scatter")

        cfg = SimConfig(
            n_antennas=n_ant,
            spacing_over_wavelength=spacing,
            constellation_kind=kind,
            constellation_order=order,
            scheme=_take(d, path, "scheme", str, required=True),
            modulator=_take(d, path, "modulator", str, required=True),
            snr_db=snr,
            channel=channel,
            dither_level=_take(d, path, "dither_level", float, 0.8),
            amplitude_mode=_take(d, path, "amplitude_mode", str, "safe"),
            trials=_take(d, path, "trials", _int, 100_000),
            early_stop_errors=_take(d, path, "early_stop_errors", _int, 500),
            block_length=_take(d, path, "block_length", _int, 1),
            seed=_take(d, path, "seed", _int, 0),
            solver=solver,
            spectrum_grid_deg=grid,
            spectrum_trials=spectrum_trials,
            scatter_realizations=scatter_realizations,
        )
        _no_leftovers(d, path)
        cfg.validate(path)
        return cfg

    def validate(self, path: str = "config"):
        if self.n_antennas < 1:
            _err(f"{path}.geometry.n_antennas", "must be >= 1")
        if not 0.0 < self.spacing_over_wavelength <= 0.5:
            _err(f"{path}.geometry.spacing_over_wavelength",
                 "must lie in (0, 0.5]")
        if self.constellation_kind not in ("psk", "qam"):
            _err(f"{path}.constellation.kind", "must be 'psk' or 'qam'")
        if self.scheme not in SCHEMES:
            _err(f"{path}.scheme", f"unknown scheme {self.scheme!r}")
        if self.modulator not in MODULATORS:
            _err(f"{path}.modulator", f"unknown modulator {self.modulator!r}")
        model, allowed = SCHEMES[self.scheme]
        if self.modulator not in allowed:
            _err(f"{path}.modulator",
                 f"modulator {self.modulator!r} is incompatible with scheme "
                 f"{self.scheme!r} (allowed: {sorted(allowed)})")
        if self.channel.model != model:
            _err(f"{path}.channel.model",
                 f"scheme {self.scheme!r} needs channel model {model!r}")
        self.channel.validate(f"{path}.channel")
        self.solver.validate(f"{path}.solver")

        if self.scheme in ("zf", "slp_primal", "slp_dual") \
                and self.constellation_kind != "psk":
            _err(f"{path}.constellation.kind",
                 f"scheme {self.scheme!r} is a phase-decision design; use psk "
                 "(amplitude constellations need the block schemes)")
        if self.scheme in _BLOCK_SCHEMES and self.constellation_kind != "qam":
            _err(f"{path}.constellation.kind",
                 f"scheme {self.scheme!r} targets amplitude constellations; use qam")
        if self.block_length < 1:
            _err(f"{path}.block_length", "must be >= 1")
        if self.block_length > 1 and self.scheme not in _BLOCK_SCHEMES:
            _err(f"{path}.block_length",
                 f"only block schemes {_BLOCK_SCHEMES} accept block_length > 1")
        if self.channel.model == "multi_user" \
                and self.channel.n_users > self.n_antennas:
            _err(f"{path}.channel.n_users", "must not exceed n_antennas")
        try:
            make_constellation(self.constellation_kind, self.constellation_order)
        except ValueError as exc:
            _err(f"{path}.constellation.order", str(exc))

        if self.dither_level < 0:
            _err(f"{path}.dither_level", "must be >= 0")
        if self.amplitude_mode not in ("safe", "unit"):
            _err(f"{path}.amplitude_mode", "must be 'safe' or 'unit'")
        if self.trials < 1:
            _err(f"{path}.trials", "must be >= 1")
        if self.early_stop_errors < 1:
            _err(f"{path}.early_stop_errors", "must be >= 1")
        for v in self.snr_db:
            if not math.isfinite(v):
                _err(f"{path}.snr_db", "entries must be finite")
        lo, hi, step = self.spectrum_grid_deg
        if not (-90.0 <= lo < hi <= 90.0) or step <= 0:
            _err(f"{path}.spectrum.grid_deg", "need -90 <= lo < hi <= 90, step > 0")
        if self.spectrum_trials < 1 or self.scatter_realizations < 1:
            _err(f"{path}", "spectrum trials and scatter realizations must be >= 1")

    def to_dict(self) -> dict:
        """Round-trippable plain-dict form (the manifest echoes this)."""
        ch = {"model": self.channel.model}
        if self.channel.model == "single_path":
            ch["angle_deg"] = self.channel.angle_deg
        elif self.channel.model == "multi_user":
            if self.channel.angles_deg is not None:
                ch["angles_deg"] = list(self.channel.angles_deg)
            else:
                ch["n_users"] = self.channel.n_users
                ch["angle_range_deg"] = list(self.channel.angle_range_deg)
                ch["min_separation_deg"] = self.channel.min_separation_deg
            ch["gain_model"] = self.channel.gain_model
            ch["pathloss_ref"] = self.channel.pathloss_ref
            ch["pathloss_range"] = list(self.channel.pathloss_range)
        return {
            "geometry": {
                "n_antennas": self.n_antennas,
                "spacing_over_wavelength": self.spacing_over_wavelength,
            },
            "constellation": {
                "kind": self.constellation_kind,
                "order": self.constellation_order,
            },
            "channel": ch,
            "scheme": self.scheme,
            "modulator": self.modulator,
            "dither_level": self.dither_level,
            "amplitude_mode": self.amplitude_mode,
            "snr_db": list(self.snr_db),
            "trials": self.trials,
            "early_stop_errors": self.early_stop_errors,
            "block_length": self.block_length,
            "seed": self.seed,
            "solver": asdict(self.solver),
            "spectrum": {
                "grid_deg": list(self.spectrum_grid_deg),
                "trials": self.spectrum_trials,
            },
            "scatter": {"realizations": self.scatter_realizations},
        }
