"""Array geometry, downlink channel models, constellations, and symbol decisions.

Everything here is a plain immutable value; instances are safe to share
across concurrent Monte Carlo workers.  A uniform linear array's steering
rows are phase ramps, held as a fine and a coarse phase table
(:func:`steering_tables`); the Gram and the receive product work from the
tables, and :func:`steering_rows` writes the rows where they are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple, Union

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
    "phase_step",
    "steering_tables",
    "steering_rows",
    "steering_matrix",
    "steering_gram",
    "steering_product",
    "realize_channel",
    "canonicalize_gains",
    "as_canonical",
    "make_constellation",
    "decide",
    "bit_errors",
]

_HALF_PI = math.pi / 2.0


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _divide_by_real(z, r, out=None) -> np.ndarray:
    """``z / r`` for complex ``z`` and positive real ``r`` (a scalar or an
    array that broadcasts against ``z``), written as two real multiplies.

    Numpy divides by ``r + 0j`` as each rail times ``fl(1/r)``, so the
    rails get the same bits without numpy's complex-division loop (1.7
    times faster for a scalar and 1.4 for an array divisor on 512 x 512
    values, 2-core x86 host).  Where ``z`` is a temporary, pass
    ``out=z``, as numpy's own division would reuse it: a fresh output
    costs more than the division saves on large arrays.  The only
    differences are a zero rail, which keeps its sign here where the
    division may flip it (a sign is read as +1 and magnitudes ignore it,
    so no output moves), and an infinite rail, which numpy's division
    also spreads as a NaN into the other rail.
    """
    inv = np.divide(1.0, r)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(inv)),
                       dtype=complex)
    np.multiply(z.real, inv, out=out.real)
    np.multiply(z.imag, inv, out=out.imag)
    return out


def _check_angles(angles) -> None:
    if not np.all(np.abs(angles) <= _HALF_PI):
        raise ValueError("angles must lie in [-pi/2, pi/2]")


def _check_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


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
        _check_finite("gain", self.gain)
        _check_angles(self.angle)


@dataclass(frozen=True)
class MultiPathChannel:
    """Superposition of angular paths, each with its own complex gain."""

    gains: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        gains = _readonly(np.array(self.gains, complex))
        angles = _readonly(np.array(self.angles, float))
        if gains.ndim != 1 or gains.shape != angles.shape or gains.size < 1:
            raise ValueError("gains and angles must be equal-length 1-D arrays")
        _check_finite("gains", gains)
        _check_angles(angles)
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
        coeffs = _readonly(np.array(self.coefficients, complex))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a 1-D array")
        _check_finite("coefficients", coeffs)
        if np.any(coeffs == 0):
            raise ValueError("arbitrary channel coefficients must all be nonzero")
        object.__setattr__(self, "coefficients", coeffs)


Channel = Union[SinglePathChannel, MultiPathChannel, ArbitraryChannel]


@dataclass(frozen=True)
class CanonicalGains:
    """Channel coefficients sorted by nondecreasing magnitude along the
    antenna axis 0, each trailing index on its own, plus the sort:
    ``coefficients[k] == original[permutation[k]]`` along axis 0.  The
    generalized one-bit modulator runs in this order with the feedback
    ``ratios``; :meth:`to_physical_order` maps its output back onto the
    physical array."""

    coefficients: np.ndarray
    permutation: np.ndarray

    @cached_property
    def ratios(self) -> np.ndarray:
        """Feedback ``h_{n-1}/h_n`` along axis 0, 0 first; made on first use."""
        h = self.coefficients
        ratios = np.zeros_like(h)
        ratios[1:] = h[:-1] / h[1:]
        return _readonly(ratios)

    def _index(self, vec):
        perm = self.permutation     # padded to broadcast over vec's extra axes
        return perm.reshape(perm.shape + (1,) * (vec.ndim - perm.ndim))

    def to_physical_order(self, canonical_vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(canonical_vec)
        inverse = np.argsort(self._index(vec), axis=0)
        return np.take_along_axis(vec, inverse, axis=0)

    def to_canonical_order(self, physical_vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(physical_vec)
        return np.take_along_axis(vec, self._index(vec), axis=0)


def canonicalize_gains(coefficients) -> CanonicalGains:
    """Sort ``(N,)`` or antenna-first ``(N, ...)`` gains by nondecreasing
    magnitude along axis 0, recording the permutation."""
    h = np.asarray(coefficients, dtype=complex)
    if h.ndim < 1 or np.any(h == 0):
        raise ValueError("need nonzero coefficients along an antenna axis")
    # Sorted as antenna-last rows, so the transpose of a trial-major draw
    # sorts one contiguous row per trial and keeps the draw's layout.
    rows = np.moveaxis(h, 0, -1)
    mags = np.abs(rows)
    perm = np.argsort(mags, axis=-1)
    # The default sort is fast but not stable.  Rows without a tie or a NaN
    # have one sorted order; the rest take the stable one.
    s = np.take_along_axis(mags, perm, -1)
    tied = ~np.all(s[..., 1:] > s[..., :-1], axis=-1)
    if tied.any():
        perm[tied] = np.argsort(mags[tied], axis=-1, kind="stable")
    return CanonicalGains(
        _readonly(np.moveaxis(np.take_along_axis(rows, perm, -1), -1, 0)),
        _readonly(np.moveaxis(perm, -1, 0)))


def as_canonical(gains) -> CanonicalGains:
    """``gains`` as :class:`CanonicalGains`: as given, or a plain array in
    canonical order (checked: nonzero, nondecreasing magnitude along axis
    0) with the identity permutation."""
    if isinstance(gains, CanonicalGains):
        return gains
    h = np.asarray(gains, dtype=complex)
    mags = np.abs(h)
    if np.any(mags == 0) or np.any(mags[:-1] > mags[1:]):
        raise ValueError("gains must be nonzero and sorted by nondecreasing "
                         "magnitude; canonicalize the channel first")
    return CanonicalGains(h, np.arange(h.shape[0]))


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
        if not 0 < self.total_power < math.inf:
            raise ValueError("total_power must be positive and finite")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be nonnegative and finite")

    @property
    def n_users(self) -> int:
        return len(self.channels)

    def single_path_arrays(self):
        """Departure angles and complex gains of an all-single-path scene.

        Raises TypeError when a user has another channel kind and ValueError
        when a gain is zero, since the zero-forcing designs divide by it.
        """
        if not all(isinstance(ch, SinglePathChannel) for ch in self.channels):
            raise TypeError("multi-user designs need single-path channels")
        gains = np.array([ch.gain for ch in self.channels], dtype=complex)
        if np.any(gains == 0):
            raise ValueError("channel gains must be nonzero")
        return np.array([ch.angle for ch in self.channels]), gains


def phase_step(spacing: float, angles):
    """The ULA ramp's phase advance per antenna, ``2*pi*(d/lambda)*sin(angle)``."""
    return 2.0 * np.pi * spacing * np.sin(angles)


def _ramp_split(n: int) -> int:
    """Fine-table length L of an ``n``-element phase ramp: the largest divisor
    of ``n`` not above ``sqrt(n)`` (16 for 512, 1 for a prime)."""
    return max(l for l in range(1, math.isqrt(n) + 1) if n % l == 0)


def steering_tables(geometry: ArrayGeometry,
                    angles) -> Tuple[np.ndarray, np.ndarray]:
    """The two phase tables of the steering rows: ``(fine, coarse)``.

    With ``z = exp(-1j * 2*pi*(d/lambda) * sin(angle))`` and L from
    :func:`_ramp_split`, ``fine`` holds ``z^r`` for ``r < L`` and ``coarse``
    holds ``z^(mL)`` for ``m < N/L``, shapes ``angles.shape + (L,)`` and
    ``angles.shape + (N/L,)``.  Element ``n = m L + r`` of a row is
    ``coarse[m] * fine[r]`` (:func:`steering_rows`).  Both tables start at
    exactly 1, so they are the row's columns ``[:L]`` and ``[::L]`` bit for
    bit.  The zero-forcing designs work from the tables and never hold the
    whole ``(..., K, N)`` stack.
    """
    angles = np.asarray(angles, dtype=float)
    _check_angles(angles)
    n = geometry.n_antennas
    fine_len = _ramp_split(n)
    phase = phase_step(geometry.spacing_over_wavelength, angles)
    fine = np.exp(-1j * np.multiply.outer(phase, np.arange(fine_len)))
    coarse = np.exp(-1j * np.multiply.outer(
        phase, fine_len * np.arange(n // fine_len)))
    return fine, coarse


def steering_rows(tables) -> np.ndarray:
    """Phase-ramp rows ``(..., N)`` from their ``(fine, coarse)`` tables
    (:func:`steering_tables`): one product, ``coarse[m] * fine[r]``."""
    fine, coarse = tables
    out = np.multiply(coarse[..., :, None], fine[..., None, :])
    return out.reshape(out.shape[:-2] + (-1,))


def steering_matrix(geometry: ArrayGeometry, angles) -> np.ndarray:
    """Array responses, one row per angle: shape ``angles.shape + (N,)``.

    Row ``n`` is ``exp(-1j * n * 2*pi*(d/lambda) * sin(angle))``, written as
    the product of a fine and a coarse table (:func:`steering_tables`), so
    only ``L + N/L`` exponentials are taken per angle.
    """
    return steering_rows(steering_tables(geometry, angles))


def steering_gram(tables) -> np.ndarray:
    """Normalized Gram matrices ``S S^H / N`` of phase-ramp rows, from their
    ``(fine, coarse)`` tables (:func:`steering_tables`), ``(..., K, K)``.

    The Gram of rows ``z^n`` is the elementwise product of the Grams of the
    fine and the coarse table, at ``O(K^2 (L + N/L))`` per stack instead of
    ``O(K^2 N)``; for a prime N (L = 1) it is the full product.
    """
    fine, coarse = tables
    # The larger, coarse factor first, so the temporaries of the two factor
    # Grams never coexist.  The product keeps the operand order
    # fine * coarse, whose bits the pinned outputs carry: numpy's complex
    # multiply is not bitwise commutative.
    gram = _gram(coarse)
    np.multiply(_gram(fine), gram, out=gram)
    gram /= fine.shape[-1] * coarse.shape[-1]
    return gram


def _gram(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    return rows @ np.conj(rows).swapaxes(-1, -2)


def steering_product(tables, x) -> np.ndarray:
    """``S @ x`` for the rows ``S = steering_rows(tables)`` ``(..., K, N)``
    and ``x`` ``(..., N, T)``, without forming S.

    Coarse table first: ``coarse @ x`` over the ``N/L`` blocks of L
    antennas gives each user L partial sums per symbol time, ``(..., K, L,
    T)``, which the fine table then weights and adds.  That is the direct
    product's ``K N T`` multiply-adds in one batched product plus ``K L T``
    for the fine step; it agrees with ``S @ x`` to rounding.
    """
    fine, coarse = tables
    fine_len, t_len = fine.shape[-1], x.shape[-1]
    blocks = x.reshape(x.shape[:-2] + (coarse.shape[-1], fine_len * t_len))
    partial = coarse @ blocks
    partial = partial.reshape(partial.shape[:-1] + (fine_len, t_len))
    return (fine[..., None, :] @ partial)[..., 0, :]


def realize_channel(channel: Channel, geometry: ArrayGeometry) -> np.ndarray:
    """Per-antenna complex gain vector of length N for any channel variant."""
    if isinstance(channel, SinglePathChannel):
        return channel.gain * steering_matrix(geometry, channel.angle)
    if isinstance(channel, MultiPathChannel):
        return channel.gains @ steering_matrix(geometry, channel.angles)
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
        labels = _readonly(np.array(labels, np.uint32))
    return Constellation(
        kind=kind, order=order, points=_readonly(np.array(points, complex)),
        bit_labels=labels,
    )


def decide(y, constellation: Constellation, scale: float = 1.0) -> np.ndarray:
    """Nearest-symbol decision indices for received samples.

    Returns ``argmin_s |y/scale - s|`` over the constellation.  For PSK the
    result does not depend on ``scale`` (all symbols share the unit modulus,
    so the nearest point is the nearest phase).  Square QAM decides each
    rail on its own, and an exact midpoint goes to the lower level, the
    lower index.
    """
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("scale must be positive")
    y = np.asarray(y, dtype=complex)
    u = _divide_by_real(y, scale).ravel()
    if constellation.kind == "qam":
        out = _qam_decide(u, math.isqrt(constellation.order))
    else:
        points = constellation.points
        out = np.empty(u.shape, dtype=np.intp)
        # |u - s|^2 = |u|^2 - 2 Re(u s*) + |s|^2; the |u|^2 term is
        # constant in s.
        metric_bias = np.abs(points) ** 2
        chunk = 1 << 16
        for lo in range(0, u.size, chunk):
            block = u[lo : lo + chunk, None]
            d = metric_bias - 2.0 * (block * points.conj()[None, :]).real
            out[lo : lo + chunk] = np.argmin(d, axis=1)
    out = out.reshape(y.shape)
    return out if y.shape else out[()]


def _qam_decide(u, m):
    """Indices ``i_re * m + i_im`` of the nearest square-QAM points.

    Scaled by the corner magnitude, the levels of a rail are ``2 i - (m -
    1)``, so the nearest is ``i = ceil((r + m)/2) - 1`` clipped to the
    grid; a NaN rail takes the first level.
    """
    rails = u.view(float).reshape(-1, 2) * math.hypot(m - 1, m - 1)
    rails += m
    rails *= 0.5
    np.ceil(rails, out=rails)
    rails -= 1.0
    np.fmax(rails, 0.0, out=rails)
    np.fmin(rails, m - 1.0, out=rails)
    idx = rails.astype(np.intp)
    return idx[:, 0] * m + idx[:, 1]


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
