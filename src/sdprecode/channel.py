"""Array geometry, downlink channel models, constellations, and symbol decisions.

Everything here is a plain immutable value; instances are safe to share
across concurrent Monte Carlo workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "ArrayGeometry",
    "SinglePathChannel",
    "MultiPathChannel",
    "ArbitraryChannel",
    "Channel",
    "CanonicalGains",
    "MultiUserScene",
    "Constellation",
    "array_response",
    "steering_matrix",
    "realize_channel",
    "canonicalize_gains",
    "make_constellation",
    "decide",
    "bit_errors",
]

_HALF_PI = math.pi / 2.0


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_angle(angle: float) -> None:
    if not -_HALF_PI <= angle <= _HALF_PI:
        raise ValueError(f"angle {angle} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array described by antenna count and spacing in wavelengths."""

    n_antennas: int
    spacing_over_wavelength: float

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if not 0.0 < self.spacing_over_wavelength <= 0.5:
            raise ValueError("spacing_over_wavelength must lie in (0, 0.5]")


@dataclass(frozen=True)
class SinglePathChannel:
    """One propagation path: complex gain and departure angle in radians."""

    gain: complex
    angle: float

    def __post_init__(self):
        _check_angle(self.angle)


@dataclass(frozen=True)
class MultiPathChannel:
    """Superposition of angular paths, each with its own complex gain."""

    gains: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        gains = _frozen_array(self.gains, complex)
        angles = _frozen_array(self.angles, float)
        if gains.ndim != 1 or gains.shape != angles.shape or gains.size < 1:
            raise ValueError("gains and angles must be equal-length 1-D arrays")
        if np.any(angles < -_HALF_PI) or np.any(angles > _HALF_PI):
            raise ValueError("path angles must lie in [-pi/2, pi/2]")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "angles", angles)

    @property
    def n_paths(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class ArbitraryChannel:
    """Per-antenna complex gains with no angular structure.

    All coefficients must be nonzero; the feedback ratios of the generalized
    one-bit modulator are undefined at a zero coefficient.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = _frozen_array(self.coefficients, complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a 1-D array")
        if np.any(coeffs == 0):
            raise ValueError("arbitrary channel coefficients must all be nonzero")
        object.__setattr__(self, "coefficients", coeffs)


Channel = Union[SinglePathChannel, MultiPathChannel, ArbitraryChannel]


@dataclass(frozen=True)
class CanonicalGains:
    """Channel coefficients sorted by nondecreasing magnitude, plus the sort.

    ``coefficients[k] == original[permutation[k]]``.  The generalized one-bit
    modulator runs in this canonical order; use :meth:`to_physical_order` to
    map its emitted antenna vector back onto the physical array.
    """

    coefficients: np.ndarray
    permutation: np.ndarray

    def to_physical_order(self, canonical_vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(np.asarray(canonical_vec))
        out[self.permutation, ...] = canonical_vec
        return out

    def to_canonical_order(self, physical_vec: np.ndarray) -> np.ndarray:
        return np.asarray(physical_vec)[self.permutation, ...]


def canonicalize_gains(coefficients) -> CanonicalGains:
    """Sort per-antenna gains by nondecreasing magnitude, recording the permutation."""
    h = np.asarray(coefficients, dtype=complex)
    if h.ndim != 1:
        raise ValueError("coefficients must be a 1-D array")
    if np.any(h == 0):
        raise ValueError("arbitrary channel coefficients must all be nonzero")
    perm = np.argsort(np.abs(h), kind="stable")
    return CanonicalGains(
        coefficients=_frozen_array(h[perm], complex),
        permutation=_frozen_array(perm, np.intp),
    )


@dataclass(frozen=True)
class MultiUserScene:
    """A downlink snapshot: geometry, one channel per user, power budget, noise."""

    geometry: ArrayGeometry
    channels: tuple
    total_power: float
    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if not 1 <= len(self.channels) <= self.geometry.n_antennas:
            raise ValueError("need 1 <= K <= N users")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")

    @property
    def n_users(self) -> int:
        return len(self.channels)

    def single_path_arrays(self):
        """Departure angles and complex gains of an all-single-path scene.

        Raises TypeError when a user has another channel kind and ValueError
        when a gain is zero, since the zero-forcing designs divide by it.
        """
        if not all(isinstance(ch, SinglePathChannel) for ch in self.channels):
            raise TypeError("zero-forcing needs single-path channels")
        gains = np.array([ch.gain for ch in self.channels], dtype=complex)
        if np.any(gains == 0):
            raise ValueError("channel gains must be nonzero")
        return np.array([ch.angle for ch in self.channels]), gains


def array_response(geometry: ArrayGeometry, angle: float) -> np.ndarray:
    """Phase ramp across the array for a departure angle.

    Element ``n`` (0-based) is ``exp(-1j * n * 2*pi*(d/lambda) * sin(angle))``;
    element 0 is exactly 1.
    """
    _check_angle(angle)
    n = np.arange(geometry.n_antennas)
    phase = 2.0 * np.pi * geometry.spacing_over_wavelength * math.sin(angle)
    return np.exp(-1j * phase * n)


def steering_matrix(geometry: ArrayGeometry, angles) -> np.ndarray:
    """Stack of array responses, one row per angle. Shape ``(len(angles), N)``."""
    angles = np.asarray(angles, dtype=float)
    if np.any(angles < -_HALF_PI) or np.any(angles > _HALF_PI):
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    n = np.arange(geometry.n_antennas)
    phase = 2.0 * np.pi * geometry.spacing_over_wavelength * np.sin(angles)
    return np.exp(-1j * np.multiply.outer(phase, n))


def realize_channel(channel: Channel, geometry: ArrayGeometry) -> np.ndarray:
    """Per-antenna complex gain vector of length N for any channel variant."""
    if isinstance(channel, SinglePathChannel):
        return channel.gain * array_response(geometry, channel.angle)
    if isinstance(channel, MultiPathChannel):
        responses = steering_matrix(geometry, channel.angles)
        return channel.gains @ responses
    if isinstance(channel, ArbitraryChannel):
        if channel.coefficients.size != geometry.n_antennas:
            raise ValueError(
                f"channel has {channel.coefficients.size} coefficients, "
                f"array has {geometry.n_antennas} antennas"
            )
        return channel.coefficients.copy()
    raise TypeError(f"unknown channel type {type(channel)!r}")


# --------------------------------------------------------------------------
# Constellations
# --------------------------------------------------------------------------

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class Constellation:
    """Symbol set normalized so the largest symbol magnitude is 1.

    ``bit_labels`` carries a Gray labeling (per phase for PSK, per axis for
    QAM) used for bit-error counting; it is None when the order is not a
    power of two.
    """

    kind: str
    order: int
    points: np.ndarray
    bit_labels: np.ndarray = field(default=None)

    @property
    def bits_per_symbol(self) -> int:
        if self.bit_labels is None:
            raise ValueError(f"order {self.order} has no whole number of bits")
        return int(round(math.log2(self.order)))


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def make_constellation(kind: str, order: int) -> Constellation:
    """Build an M-PSK or square M-QAM constellation with peak amplitude 1.

    PSK points sit at angles ``2*pi*k/M`` (no half-step rotation), so the
    decision boundaries fall on odd multiples of ``pi/M``.  QAM points are the
    odd-integer grid scaled by the corner magnitude; labels are reflected Gray
    codes per axis.
    """
    kind = kind.lower()
    if kind == "psk":
        if order < 2:
            raise ValueError("PSK order must be >= 2")
        k = np.arange(order)
        points = np.exp(2j * np.pi * k / order)
        labels = _gray(k) if (order & (order - 1)) == 0 else None
    elif kind == "qam":
        m = round(math.sqrt(order))
        if order < 4 or m * m != order or (m & (m - 1)) != 0:
            raise ValueError("QAM order must be a power of 4")
        levels = np.arange(-(m - 1), m, 2)
        re, im = np.meshgrid(levels, levels, indexing="ij")
        points = (re + 1j * im).ravel()
        points = points / np.abs(points).max()
        bits_axis = int(round(math.log2(m)))
        idx = np.arange(m)
        axis_labels = _gray(idx)
        labels = (
            (axis_labels[:, None] << bits_axis) | axis_labels[None, :]
        ).ravel()
    else:
        raise ValueError(f"unknown constellation kind {kind!r}")
    if labels is not None:
        labels = _frozen_array(labels, np.uint32)
    return Constellation(
        kind=kind, order=order, points=_frozen_array(points, complex),
        bit_labels=labels,
    )


def decide(y, constellation: Constellation, scale: float = 1.0) -> np.ndarray:
    """Nearest-symbol decision indices for received samples.

    Returns ``argmin_s |y/scale - s|`` over the constellation.  For PSK the
    result does not depend on ``scale`` (all symbols share the unit modulus,
    so the nearest point is the nearest phase).
    """
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("scale must be positive")
    y = np.asarray(y, dtype=complex)
    u = (y / scale).ravel()
    points = constellation.points
    out = np.empty(u.shape, dtype=np.intp)
    # |u - s|^2 = |u|^2 - 2 Re(u s*) + |s|^2; the |u|^2 term is constant in s.
    metric_bias = np.abs(points) ** 2
    chunk = 1 << 16
    for lo in range(0, u.size, chunk):
        block = u[lo : lo + chunk, None]
        d = metric_bias - 2.0 * (block * points.conj()[None, :]).real
        out[lo : lo + chunk] = np.argmin(d, axis=1)
    out = out.reshape(y.shape)
    return out if y.shape else out[()]


def bit_errors(constellation: Constellation, idx_a, idx_b) -> np.ndarray:
    """Hamming distance between the Gray labels of two symbol-index arrays."""
    labels = constellation.bit_labels
    if labels is None:
        raise ValueError("constellation has no bit labeling")
    x = labels[np.asarray(idx_a)] ^ labels[np.asarray(idx_b)]
    total = np.zeros(x.shape, dtype=np.int64)
    while True:
        total += _POPCOUNT[x & 0xFF]
        if not np.any(x >> 8):
            break
        x = x >> 8
    return total
