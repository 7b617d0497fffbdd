"""Experiment configuration: parsing, validation, and compatibility rules.

The YAML layout is data.  ``_LAYOUT`` places every scalar ``SimConfig``
field in the file and ``_CHANNEL_KEYS`` lists the keys of each channel
model; parsing and dumping both walk these tables, and every default is the
one on the dataclass field.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from typing import Optional, Tuple

from ..channel import make_constellation
from ..optim import ApgParams

__all__ = ["ConfigError", "ChannelSpec", "SolverSpec", "SimConfig"]

# Each scheme's row: its channel model, the modulators that make sense
# behind it, the constellation kind it needs (None: either) and whether it
# accepts block_length > 1.  The steered modulator needs the single steering
# rotation the steered scheme computes; the channel-matched modulator needs
# the per-antenna ratios of the generalized scheme; the other schemes run
# the plain (optionally dithered) modulator.  Zero forcing and the margin
# designs decide on phase, so amplitude constellations need the block
# schemes, which target amplitude constellations only.
_PLAIN = frozenset({"basic", "dithered", "unquantized", "direct"})
SCHEMES = {
    "mrt": ("single_path", _PLAIN, None, False),
    "mrt_steered": ("single_path", frozenset({"steered", "unquantized"}),
                    None, False),
    "mrt_generalized": ("iid_gaussian",
                        frozenset({"generalized", "unquantized", "direct"}),
                        None, False),
    "zf": ("multi_user", _PLAIN, "psk", False),
    "zf_qam": ("multi_user", _PLAIN, "qam", True),
    "nullspace_zf": ("multi_user", _PLAIN, "qam", True),
    "slp_primal": ("multi_user", _PLAIN, "psk", False),
    "slp_dual": ("multi_user", _PLAIN, "psk", False),
}
MODULATORS = frozenset().union(*(mods for _, mods, _, _ in SCHEMES.values()))


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _err(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _take(d: dict, path: str, key: str, read, required=False):
    """Pop ``key`` and pass it through ``read``; a missing key gives None,
    and a value the reader rejects is a ConfigError naming the key."""
    if key not in d:
        if required:
            _err(f"{path}.{key}", "missing required key")
        return None
    value = d.pop(key)
    try:
        return read(value)
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


def _plain(value):
    """A field value as YAML writes it: tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


def _no_leftovers(d: dict, path: str):
    if d:
        _err(path, f"unknown keys {sorted(d)}")


def _require_finite(d: dict, path: str):
    """Reject a NaN or infinite float anywhere in a dumped config."""
    for key, value in d.items():
        if isinstance(value, dict):
            _require_finite(value, f"{path}.{key}")
        elif any(isinstance(v, float) and not math.isfinite(v)
                 for v in (value if isinstance(value, list) else [value])):
            _err(f"{path}.{key}", "must be finite")


_PAIR = partial(_numbers, count=2)

# The (key, reader) pairs of each channel model; each key names the
# ChannelSpec field it sets.  Explicit ``angles_deg`` replace the first
# three multi-user keys.
_CHANNEL_KEYS = {
    "single_path": (("angle_deg", float),),
    "multi_user": (("n_users", _int), ("angle_range_deg", _PAIR),
                   ("min_separation_deg", float), ("gain_model", str),
                   ("pathloss_ref", float), ("pathloss_range", _PAIR)),
    "iid_gaussian": (),
}


def _channel_keys(model: str, explicit_angles: bool) -> tuple:
    keys = _CHANNEL_KEYS.get(model, ())
    if model == "multi_user" and explicit_angles:
        return (("angles_deg", _numbers),) + keys[3:]
    return keys


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
        model = _take(d, path, "model", str, required=True)
        if model not in _CHANNEL_KEYS:
            _err(f"{path}.model", f"unknown channel model {model!r}")
        explicit = "angles_deg" in d
        kw = {key: _take(d, path, key, read)
              for key, read in _channel_keys(model, explicit) if key in d}
        if model == "multi_user" and "n_users" not in kw:
            # Explicit angles set the user count; a stated one must agree.
            n_users = _take(d, path, "n_users", _int, required=not explicit)
            kw["n_users"] = len(kw["angles_deg"]) if n_users is None else n_users
        _no_leftovers(d, path)
        return ChannelSpec(model=model, **kw)

    def to_dict(self) -> dict:
        """The YAML form: the model and the keys it reads."""
        keys = _channel_keys(self.model, self.angles_deg is not None)
        return {"model": self.model,
                **{key: _plain(getattr(self, key)) for key, _ in keys}}

    def validate(self, path: str = "channel"):
        if self.model == "single_path":
            if not -90.0 <= self.angle_deg <= 90.0:
                _err(f"{path}.angle_deg", "must lie in [-90, 90]")
        elif self.model == "multi_user":
            if self.angles_deg is not None:
                if len(self.angles_deg) == 0:
                    _err(f"{path}.angles_deg", "must not be empty")
                if len(set(self.angles_deg)) < len(self.angles_deg):
                    _err(f"{path}.angles_deg", "angles must be distinct")
                for a in self.angles_deg:
                    if not -90.0 <= a <= 90.0:
                        _err(f"{path}.angles_deg", "angles must lie in [-90, 90]")
                if self.n_users != len(self.angles_deg):
                    _err(f"{path}.n_users", "conflicts with explicit angles_deg")
            else:
                lo, hi = self.angle_range_deg
                if not (-90.0 <= lo < hi <= 90.0):
                    _err(f"{path}.angle_range_deg", "need -90 <= lo < hi <= 90")
                if self.min_separation_deg < 0:
                    _err(f"{path}.min_separation_deg", "must be >= 0")
                needed = (self.n_users - 1) * self.min_separation_deg
                if hi - lo <= needed:
                    _err(f"{path}", "angle range too small for the separation")
            if self.n_users < 1:
                _err(f"{path}.n_users", "must be >= 1")
            if self.gain_model not in (ChannelSpec.gain_model, "pathloss"):
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


# Where each scalar SimConfig field sits in the YAML file:
# (section, or None for the top level; key; field; reader).
_LAYOUT = (
    ("geometry", "n_antennas", "n_antennas", _int),
    ("geometry", "spacing_over_wavelength", "spacing_over_wavelength", float),
    ("constellation", "kind", "constellation_kind", lambda v: str(v).lower()),
    ("constellation", "order", "constellation_order", _int),
    (None, "scheme", "scheme", str),
    (None, "modulator", "modulator", str),
    (None, "dither_level", "dither_level", float),
    (None, "amplitude_mode", "amplitude_mode", str),
    (None, "snr_db", "snr_db", _numbers),
    (None, "trials", "trials", _int),
    (None, "early_stop_errors", "early_stop_errors", _int),
    (None, "block_length", "block_length", _int),
    (None, "seed", "seed", _int),
    ("spectrum", "grid_deg", "spectrum_grid_deg", partial(_numbers, count=3)),
    ("spectrum", "trials", "spectrum_trials", _int),
    ("scatter", "realizations", "scatter_realizations", _int),
)


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
        sections = {s: _take(d, path, s, _mapping) or {}
                    for s in dict.fromkeys(row[0] for row in _LAYOUT) if s}
        kw = {
            "channel": ChannelSpec.from_dict(
                _take(d, path, "channel", _mapping, required=True),
                f"{path}.channel"),
            "solver": SolverSpec.from_dict(
                _take(d, path, "solver", _mapping) or {}, f"{path}.solver"),
        }
        required = {f.name for f in fields(SimConfig) if f.default is MISSING
                    and f.default_factory is MISSING}
        for section, key, name, read in _LAYOUT:
            where, at = (d, path) if section is None \
                else (sections[section], f"{path}.{section}")
            value = _take(where, at, key, read, required=name in required)
            if value is not None:
                kw[name] = value
        for section, rest in sections.items():
            _no_leftovers(rest, f"{path}.{section}")
        _no_leftovers(d, path)
        cfg = SimConfig(**kw)
        cfg.validate(path)
        return cfg

    def validate(self, path: str = "config"):
        _require_finite(self.to_dict(), path)
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
        model, allowed, kind, blocks = SCHEMES[self.scheme]
        if self.modulator not in allowed:
            _err(f"{path}.modulator",
                 f"modulator {self.modulator!r} is incompatible with scheme "
                 f"{self.scheme!r} (allowed: {sorted(allowed)})")
        if self.channel.model != model:
            _err(f"{path}.channel.model",
                 f"scheme {self.scheme!r} needs channel model {model!r}")
        self.channel.validate(f"{path}.channel")
        self.solver.validate(f"{path}.solver")
        if model == "multi_user" and self.channel.angles_deg is not None:
            # Steering rows depend on spacing * sin(angle) modulo 1 only.
            wraps = {(self.spacing_over_wavelength
                      * math.sin(math.radians(a))) % 1.0
                     for a in self.channel.angles_deg}
            if len(wraps) < self.channel.n_users:
                _err(f"{path}.channel.angles_deg", "users alias onto one "
                     "steering vector (spacing * sin(angle) must be distinct "
                     "modulo 1)")
        if kind is not None and self.constellation_kind != kind:
            _err(f"{path}.constellation.kind",
                 f"scheme {self.scheme!r} needs {kind}")
        if self.block_length < 1:
            _err(f"{path}.block_length", "must be >= 1")
        if self.block_length > 1 and not blocks:
            _err(f"{path}.block_length",
                 f"only schemes {[s for s, (*_, b) in SCHEMES.items() if b]} "
                 "accept block_length > 1")
        if self.channel.model == "multi_user" \
                and self.channel.n_users > self.n_antennas:
            _err(f"{path}.channel.n_users", "must not exceed n_antennas")
        try:
            make_constellation(self.constellation_kind, self.constellation_order)
        except ValueError as exc:
            _err(f"{path}.constellation.order", str(exc))

        if self.dither_level < 0:
            _err(f"{path}.dither_level", "must be >= 0")
        if not math.isfinite(2.0 * self.dither_level):
            _err(f"{path}.dither_level", "2 * dither_level overflows a float")
        if self.amplitude_mode not in (SimConfig.amplitude_mode, "unit"):
            _err(f"{path}.amplitude_mode", "must be 'safe' or 'unit'")
        if not self.snr_db:
            _err(f"{path}.snr_db", "must be a non-empty list")
        try:
            p_max = 10.0 ** (max(self.snr_db) / 10.0)
        except OverflowError:
            _err(f"{path}.snr_db", "the power 10^(snr_db/10) overflows")
        ch = self.channel
        if model == "multi_user" and ch.gain_model == "pathloss":
            # Zero forcing divides by the squared gains; the noise budget
            # multiplies them by the power.
            lo, hi = ch.pathloss_range
            weak, strong = ch.pathloss_ref / hi, ch.pathloss_ref / lo
            if not (weak * weak > 0
                    and math.isfinite(strong * strong * p_max)):
                _err(f"{path}.channel.pathloss_ref", "the squared path gain "
                     "(pathloss_ref / distance)^2 must stay positive over "
                     "pathloss_range, and finite times the largest power")
        if self.trials < 1:
            _err(f"{path}.trials", "must be >= 1")
        if self.early_stop_errors < 1:
            _err(f"{path}.early_stop_errors", "must be >= 1")
        if self.seed < 0:
            _err(f"{path}.seed", "must be >= 0")
        lo, hi, step = self.spectrum_grid_deg
        if not (-90.0 <= lo < hi <= 90.0) or step <= 0:
            _err(f"{path}.spectrum.grid_deg", "need -90 <= lo < hi <= 90, step > 0")
        if self.spectrum_trials < 1 or self.scatter_realizations < 1:
            _err(f"{path}", "spectrum trials and scatter realizations must be >= 1")

    def to_dict(self) -> dict:
        """Round-trippable plain-dict form (the manifest echoes this)."""
        out = {"channel": self.channel.to_dict(), "solver": asdict(self.solver)}
        for section, key, name, _ in _LAYOUT:
            where = out if section is None else out.setdefault(section, {})
            where[key] = _plain(getattr(self, name))
        return out

