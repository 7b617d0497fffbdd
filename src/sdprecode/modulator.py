"""Spatial one-bit sigma-delta modulators.

Four variants map an amplitude-limited complex vector ``xbar`` onto a one-bit
antenna vector ``x`` with entries in {+-1 +-1j}, running a first-order
feedback recursion across the antenna index.  The quantization error
``q = x - b`` is shaped by a spatial highpass; each variant keeps an exact
reconstruction identity that the tests rely on:

* basic / dithered:   ``x_n = xbar_n + q_n - q_{n-1}``
* angle steered:      ``x_n = xbar_n + q_n - exp(1j*phi) * q_{n-1}``
* generalized:        ``h^T x = h^T xbar + h_N * q_N`` (inner errors cancel)

All entry points accept ``xbar`` of shape ``(N,)`` or ``(N, ...)`` with the
antenna axis first; trailing axes are independent modulator runs (the
recursion is sequential over antennas, vectorized over the rest).  Calls are
pure functions of their inputs plus the dither seed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DitherSpec",
    "ModulationResult",
    "one_bit",
    "sd_basic",
    "sd_dithered",
    "sd_angle_steered",
    "sd_generalized",
    "no_overload_amplitude",
    "no_overload_amplitudes_generalized",
]


@dataclass(frozen=True)
class DitherSpec:
    """Uniform dither on [-level, level], injected before the quantizer.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; a
    ``Generator`` is used as is and advances.  Draws are trial-major: batch
    axes first, then antenna, then rail (real first), so a fixed seed
    reproduces the run exactly and a longer batch leaves the dither of its
    earlier runs unchanged.  With dither the in-box guarantee on each
    quantization-error rail widens from 1 to ``1 + level``, and the
    integrator may legitimately reach ``2 + level``.
    """

    level: float
    seed: Union[int, np.random.Generator, None] = None

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("dither level must be >= 0")


@dataclass(frozen=True)
class ModulationResult:
    """One-bit output plus the internal traces of the run.

    ``output[n] = x_n``, ``integrator_trace[n] = b_n``, and
    ``quant_error[n] = q_n = x_n - b_n``.  ``overloaded`` flags any run whose
    integrator left the quantizer's safe range on either rail;
    ``peak_integrator`` is the largest rail magnitude seen.  For batched
    input both have the batch shape.
    """

    output: np.ndarray
    quant_error: np.ndarray
    integrator_trace: np.ndarray
    overloaded: Union[bool, np.ndarray]
    peak_integrator: Union[float, np.ndarray]


def one_bit(values: np.ndarray) -> np.ndarray:
    """Per-rail sign quantizer onto {+-1 +-1j}, with sign(0) = +1 on each rail."""
    values = np.asarray(values)
    re = np.where(values.real >= 0.0, 1.0, -1.0)
    im = np.where(values.imag >= 0.0, 1.0, -1.0)
    return re + 1j * im


def _run(xbar, feedback, dither=None, overload_limit=2.0) -> ModulationResult:
    """Shared recursion: b_n = f_n * b_{n-1} + xbar_n - f_n * x_{n-1}.

    ``feedback`` is a scalar, an (N,) vector, or an array broadcastable to
    xbar's shape, giving the per-step feedback multiplier f_n.
    """
    xbar = np.asarray(xbar, dtype=complex)
    if xbar.ndim < 1 or xbar.shape[0] < 1:
        raise ValueError("xbar must have at least one antenna entry")
    n_ant = xbar.shape[0]
    shape, tail = xbar.shape, xbar.shape[1:]

    fb = np.asarray(feedback, dtype=complex)
    if fb.ndim == 0:
        fb = np.broadcast_to(fb, (n_ant,))
    if len(tail) > 1 and fb.ndim == 1:
        # Batch axes run as one: each step below is a few numpy calls, and
        # every call costs less on 1-D rows than on n-D ones.
        xbar = xbar.reshape(n_ant, -1)
        if dither is not None:
            dither = dither.reshape(n_ant, 2, -1)

    b = np.empty_like(xbar)
    x = np.empty_like(xbar)
    b_prev = np.zeros(xbar.shape[1:], dtype=complex)
    x_prev = np.zeros(xbar.shape[1:], dtype=complex)
    for n in range(n_ant):
        f = fb[n]
        bn = f * b_prev + (xbar[n] - f * x_prev)
        if dither is None:
            xn = one_bit(bn)
        else:
            re = np.where(bn.real + dither[n, 0] >= 0.0, 1.0, -1.0)
            im = np.where(bn.imag + dither[n, 1] >= 0.0, 1.0, -1.0)
            xn = re + 1j * im
        b[n] = bn
        x[n] = xn
        b_prev = bn
        x_prev = xn

    rail_peak = np.maximum(np.abs(b.real), np.abs(b.imag)).max(axis=0)
    rail_peak = rail_peak.reshape(tail)
    overloaded = rail_peak > overload_limit
    if tail == ():
        overloaded = bool(overloaded)
        rail_peak = float(rail_peak)
    return ModulationResult(
        output=x.reshape(shape),
        quant_error=(x - b).reshape(shape),
        integrator_trace=b.reshape(shape),
        overloaded=overloaded,
        peak_integrator=rail_peak,
    )


def sd_basic(xbar) -> ModulationResult:
    """First-order sigma-delta over the antenna index, one modulator per rail.

    Never raises on overload; an integrator rail beyond magnitude 2 only sets
    the ``overloaded`` flag, since bounded errors are still possible there.
    """
    return _run(xbar, 1.0)


def sd_dithered(xbar, dither: DitherSpec) -> ModulationResult:
    """Basic modulator with uniform dither added at the quantizer input.

    ``level == 0`` reproduces :func:`sd_basic` bit for bit.
    """
    xbar = np.asarray(xbar, dtype=complex)
    rng = np.random.default_rng(dither.seed)
    u = rng.uniform(-dither.level, dither.level,
                    size=xbar.shape[1:] + (xbar.shape[0], 2))
    u = np.moveaxis(u, (-2, -1), (0, 1))
    return _run(xbar, 1.0, dither=u, overload_limit=2.0 + dither.level)


def sd_angle_steered(xbar, phi: float) -> ModulationResult:
    """Sigma-delta with the feedback rotated by exp(1j*phi) each step.

    The rotation moves the null of the shaped quantization error from
    broadside to the spatial angle whose phase progression is ``phi``;
    ``phi = 0`` reduces to :func:`sd_basic`.  The rails couple through the
    rotation, so the recursion is genuinely complex here.
    """
    if not -np.pi <= phi <= np.pi:
        raise ValueError("phi must lie in [-pi, pi]")
    return _run(xbar, cmath.exp(1j * phi))


def sd_generalized(xbar, gains) -> ModulationResult:
    """Channel-matched modulator: feedback ratio h_{n-1}/h_n at step n.

    ``gains`` must be nonzero and in nondecreasing magnitude order (see
    ``channel.canonicalize_gains``); shape ``(N,)`` or broadcastable to
    ``xbar``.  With this feedback every interior quantization error cancels
    out of ``h^T x``, leaving only the last antenna's error.
    """
    h = np.asarray(gains, dtype=complex)
    if np.any(h == 0):
        raise ValueError("channel gains must all be nonzero")
    mags = np.abs(h)
    if np.any(mags[:-1] > mags[1:]):
        raise ValueError("gains must be sorted by nondecreasing magnitude; "
                         "canonicalize the channel first")
    ratios = np.zeros_like(h)
    ratios[1:] = h[:-1] / h[1:]
    return _run(xbar, ratios)


def no_overload_amplitude(phi) -> np.ndarray:
    """Largest per-rail input amplitude that keeps the steered modulator safe.

    Equals ``2 - |cos(phi)| - |sin(phi)|``: 1 at phi in {0, +-pi/2, +-pi},
    and 2 - sqrt(2) (~0.586) at odd multiples of pi/4.
    """
    phi = np.asarray(phi, dtype=float)
    out = 2.0 - np.abs(np.cos(phi)) - np.abs(np.sin(phi))
    return out if out.ndim else float(out)


def no_overload_amplitudes_generalized(gains) -> np.ndarray:
    """Per-antenna safe input amplitudes for the channel-matched modulator.

    With feedback ratio r_n = h_{n-1}/h_n the bound is
    ``A_n = 2 - |Re r_n| - |Im r_n|``; the first antenna has no feedback, so
    A_1 = 2, and canonical ordering keeps every later A_n in [2-sqrt(2), 2).
    """
    h = np.asarray(gains, dtype=complex)
    if np.any(h == 0):
        raise ValueError("channel gains must all be nonzero")
    ratios = np.zeros_like(h)
    ratios[1:] = h[:-1] / h[1:]
    return 2.0 - np.abs(ratios.real) - np.abs(ratios.imag)
