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
pure functions of their inputs plus the dither seed.  Given a
:class:`Workspace`, a call writes its output and traces into that
workspace's buffers instead of fresh memory: the bits are the same, but the
result's arrays are views that the next call with the same workspace
overwrites, so read them before then and never pass them back in as input.

Unit feedback (basic, and steered at phi = 0) has a closed form.  With
``S_n`` and ``X_n`` the prefix sums of input and output on one rail and
``b_n = S_n - X_{n-1}``, while ``b_n`` stays in (-2, 2) the sign quantizer
is the odd uniform quantizer ``2*floor(b/2) + 1``.  The parity of ``X_n`` is
then that of n (1-based), which gives (Gray, IEEE Trans. Commun. 1989)

    X_n = 2*floor((S_n - p_n)/2) + p_n + 1,   p_n = (n - 1) mod 2.

That is one prefix sum plus a few whole-array passes instead of a loop over
antennas.  The prefix sum is one ``np.add.accumulate`` call on an input of
at most 1 MiB, and one addition per antenna above that size, where it is
faster; both add in the same order, so the sums are the same bits.  In
floating point the two traces differ by rounding, so each run
is certified: every ``b_n`` must lie in (-2 + tol, 2 - tol) and every
``|q_n|`` must be below ``1 - tol``.  Then the loop's ``b_n`` sits within 1
of the same ``x_n = +-1``, strictly on its side of zero, so by induction
over n the loop makes the same decisions, never overloads, and never meets
the sign(0) tie, provided ``tol`` bounds the gap between the two traces.
With u = eps/2 and the traces of a certified run within 2:

* the loop rounds ``xbar_n - x_{n-1} = b_n - b_{n-1}`` and the sum ``b_n``,
  at most ``6*u`` per step, ``6*u*N`` in all;
* the prefix sum rounds each ``S_k``, and ``|S_k| <= k + 1`` since the
  outputs are +-1, at most ``u*(N*(N-1)/2 + 2*N)`` in all;
* forming ``b`` and ``q`` in the closed form adds ``6*u``.

The sum is below ``(u/2)*(N + 10)**2``, about ``N**2 * eps / 4`` for large
N; ``tol`` doubles it to cover second-order terms and the rounding in the
checks themselves.  If any run of a batch fails the check (an exact tie or
a non-finite entry does), the loop redoes the whole batch.  Dithered,
rotated and channel-matched feedback always run the loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channel import as_canonical

__all__ = [
    "DitherSpec",
    "ModulationResult",
    "Workspace",
    "one_bit",
    "sd_basic",
    "sd_dithered",
    "sd_angle_steered",
    "sd_generalized",
    "feedback_ratios",
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
        if not math.isfinite(2.0 * self.level):
            raise ValueError("2 * dither level must be finite")


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


class Workspace:
    """Named scratch buffers that grow and never shrink.

    Repeated blocks of one run reuse the same memory instead of allocating,
    and first touching, fresh arrays each time.  Every array that is live at
    the same time needs its own name.  Scope a workspace to one run: its
    buffers stay allocated for as long as it lives.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, shape, dtype=complex) -> np.ndarray:
        """A C-contiguous ``shape`` view at the start of buffer ``name``; the
        contents are whatever the buffer held."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def one_bit(values: np.ndarray) -> np.ndarray:
    """Per-rail sign quantizer onto {+-1 +-1j}, with sign(0) = +1 on each rail."""
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=complex)
    _sign_into(values.real, out.real)
    _sign_into(values.imag, out.imag)
    return out


def _sign_into(values, out):
    """Write +1 where ``values >= 0`` and -1 elsewhere into the float ``out``.

    So sign(0) = sign(-0.0) = +1 and NaN maps to -1.
    """
    np.greater_equal(values, 0.0, out=out)
    out *= 2.0
    out -= 1.0


def _run(xbar, feedback, dither=None, overload_limit=2.0,
         work=None) -> ModulationResult:
    """Shared recursion: b_n = f_n * b_{n-1} + xbar_n - f_n * x_{n-1}.

    ``feedback`` is a scalar, an (N,) vector, or an (N, ...) array whose
    ``feedback[n]`` broadcasts against ``xbar[n]``, giving the per-step
    feedback multiplier f_n.  ``dither``,
    shaped like xbar, is added at the quantizer input (real part to the
    in-phase rail, imaginary part to the quadrature rail).  Undithered unit
    feedback runs in closed form unless a run fails its certificate.  The
    output and traces live in ``work`` (a fresh :class:`Workspace` if None).
    """
    xbar = np.asarray(xbar, dtype=complex)
    if xbar.ndim < 1 or xbar.shape[0] < 1:
        raise ValueError("xbar must have at least one antenna entry")
    if work is None:
        work = Workspace()
    shape, tail = xbar.shape, xbar.shape[1:]
    # Batch axes run as one: every numpy call costs less on 1-D rows.
    flat = xbar.reshape(shape[0], -1)
    if dither is not None:
        dither = dither.reshape(flat.shape)
    fb = np.asarray(feedback, dtype=complex)
    if fb.ndim <= 1:
        fb = np.broadcast_to(fb, shape[:1])
    else:
        # The antenna axis leads; fb[n] broadcasts against xbar[n].
        fb = fb.reshape(fb.shape[:1] + (1,) * (len(shape) - fb.ndim)
                        + fb.shape[1:])
        fb = np.broadcast_to(fb, shape).reshape(flat.shape)

    unit = dither is None and np.all(fb == 1)
    if unit:
        x, b, q, rail_peak, certified = _unit_feedback(flat, work)
    if not unit or not certified.all():
        # Reads only xbar, fb and dither, none of which is x, b or q.
        x, b = _recursion(flat, fb, dither, work)
        q = np.subtract(x, b, out=work.array("q", flat.shape))
        rail_peak = _rail_peak(b)

    rail_peak = rail_peak.reshape(tail)
    overloaded = ~(rail_peak <= overload_limit)     # NaN counts as overload
    if tail == ():
        overloaded = bool(overloaded)
        rail_peak = float(rail_peak)
    return ModulationResult(
        output=x.reshape(shape),
        quant_error=q.reshape(shape),
        integrator_trace=b.reshape(shape),
        overloaded=overloaded,
        peak_integrator=rail_peak,
    )


def _recursion(xbar, fb, dither, work):
    """The loop itself on (N, runs) input; returns ``(x, b)``, both (N, runs)
    in ``work``.

    ``fb`` is (N,) or (N, runs).  This is the reference arithmetic: every
    step evaluates ``f*b_prev + (xbar[n] - f*x_prev)`` and quantizes its
    sum with ``dither[n]`` (None for no dither).
    """
    x = work.array("x", xbar.shape)
    b = work.array("b", xbar.shape)
    xf, bf = x.view(float), b.view(float)
    fx = np.empty(xbar.shape[1:], dtype=complex)
    v = np.empty_like(fx)
    b_prev = x_prev = np.zeros_like(fx)
    for n in range(xbar.shape[0]):
        f = fb[n]
        np.multiply(f, x_prev, out=fx)
        np.subtract(xbar[n], fx, out=fx)
        np.multiply(f, b_prev, out=b[n])
        np.add(b[n], fx, out=b[n])
        if dither is None:
            _sign_into(bf[n], xf[n])
        else:
            np.add(b[n], dither[n], out=v)
            _sign_into(v.view(float), xf[n])
        b_prev, x_prev = b[n], x[n]
    return x, b


# Largest (N, runs) input whose prefix sums one ``np.add.accumulate`` call
# forms; above it one addition per antenna row is faster, since the input
# outgrows the cache.
_ACCUMULATE_BYTES = 1 << 20


def _unit_feedback(xbar, work):
    """Closed form of the unit-feedback loop on (N, runs) input.

    Returns ``(x, b, q, rail_peak, certified)`` with the arrays in ``work``;
    see the module docstring.  Runs whose ``certified`` entry is False carry
    no guarantee.
    """
    n_ant = xbar.shape[0]
    b = work.array("b", xbar.shape)              # prefix sums S, then b
    if xbar.nbytes <= _ACCUMULATE_BYTES:
        np.add.accumulate(xbar, axis=0, out=b)
    else:
        b[0] = xbar[0]
        for n in range(1, n_ant):
            np.add(b[n - 1], xbar[n], out=b[n])
    s = b.view(float)
    xsum = work.array("q", s.shape, float)       # prefix sums X, then q
    x = work.array("x", s.shape, float)
    parity = (np.arange(n_ant) % 2.0)[:, None]
    # Non-finite runs fail the check below and are redone by the loop.
    with np.errstate(invalid="ignore"):
        np.subtract(s, parity, out=xsum)
        xsum *= 0.5
        np.floor(xsum, out=xsum)
        xsum *= 2.0
        xsum += parity + 1.0
        x[0] = xsum[0]
        np.subtract(xsum[1:], xsum[:-1], out=x[1:])
        np.subtract(s[1:], xsum[:-1], out=s[1:])
        x, q = x.view(complex), xsum.view(complex)
        np.subtract(x, b, out=q)
        rail_peak = _rail_peak(b)
        margin = _rail_peak(q)
    tol = _tolerance(n_ant)
    certified = (rail_peak < 2.0 - tol) & (margin < 1.0 - tol)
    return x, b, q, rail_peak, certified


def _tolerance(n_ant):
    """Certification margin of the closed form; see the module docstring."""
    return np.finfo(float).eps * (n_ant + 10.0) ** 2 / 2.0


def _rail_peak(b):
    """Largest rail magnitude of each run of a C-contiguous (N, runs) array."""
    f = b.view(float)
    return np.maximum(f.max(axis=0), -f.min(axis=0)).reshape(-1, 2).max(axis=1)


def sd_basic(xbar, work: Optional[Workspace] = None) -> ModulationResult:
    """First-order sigma-delta over the antenna index, one modulator per rail.

    Never raises on overload; an integrator rail beyond magnitude 2 only sets
    the ``overloaded`` flag, since bounded errors are still possible there.
    ``work`` holds the result's arrays (see the module docstring).
    """
    return _run(xbar, 1.0, work=work)


def sd_dithered(xbar, dither: DitherSpec,
                work: Optional[Workspace] = None) -> ModulationResult:
    """Basic modulator with uniform dither added at the quantizer input.

    ``level == 0`` reproduces :func:`sd_basic` bit for bit.  ``work`` holds
    the result's arrays and the dither (see the module docstring).
    """
    xbar = np.asarray(xbar, dtype=complex)
    if work is None:
        work = Workspace()
    rng = np.random.default_rng(dither.seed)
    # Generator.uniform(-level, level) bit for bit: low + (high - low) * u,
    # drawn into the workspace.
    u = rng.random(out=work.array("uniform",
                                  xbar.shape[1:] + (xbar.shape[0], 2), float))
    u *= dither.level - (-dither.level)
    u += -dither.level
    # Antenna-major, like the recursion reads it.
    d = work.array("dither", xbar.shape)
    np.copyto(d, np.moveaxis(u.view(complex)[..., 0], -1, 0))
    return _run(xbar, 1.0, dither=d, overload_limit=2.0 + dither.level,
                work=work)


def sd_angle_steered(xbar, phi: float,
                     work: Optional[Workspace] = None) -> ModulationResult:
    """Sigma-delta with the feedback rotated by exp(1j*phi) each step.

    The rotation moves the null of the shaped quantization error from
    broadside to the spatial angle whose phase progression is ``phi``;
    ``phi = 0`` reduces to :func:`sd_basic`.  The rails couple through the
    rotation, so the recursion is genuinely complex here.  ``work`` holds
    the result's arrays (see the module docstring).
    """
    if not -np.pi <= phi <= np.pi:
        raise ValueError("phi must lie in [-pi, pi]")
    return _run(xbar, cmath.exp(1j * phi), work=work)


def sd_generalized(xbar, gains,
                   work: Optional[Workspace] = None) -> ModulationResult:
    """Channel-matched modulator: feedback ratio h_{n-1}/h_n at step n.

    ``gains`` is a ``channel.CanonicalGains`` or a plain array in that
    order (:func:`feedback_ratios`), ``(N,)`` or ``(N, ...)`` with
    ``gains[n]`` broadcastable against ``xbar[n]``.  With this feedback
    every interior quantization error cancels out of ``h^T x``, leaving
    only the last antenna's error.  ``work`` holds the result's arrays (see
    the module docstring).
    """
    return _run(xbar, feedback_ratios(gains), work=work)


def feedback_ratios(gains) -> np.ndarray:
    """Channel-matched feedback ``r_n = h_{n-1}/h_n``, with ``r_1 = 0``,
    along the leading axis of ``gains``: the cached ratios of a
    ``channel.CanonicalGains``, or those of a plain array that
    ``channel.as_canonical`` checks to be nonzero and sorted."""
    return as_canonical(gains).ratios


def no_overload_amplitude(phi) -> np.ndarray:
    """Largest per-rail input amplitude that keeps the steered modulator safe.

    The safe amplitude of the feedback ``exp(j phi)``, which equals
    ``2 - |cos(phi)| - |sin(phi)|``: 1 at phi in {0, +-pi/2, +-pi},
    and 2 - sqrt(2) (~0.586) at odd multiples of pi/4.
    """
    out = _safe_amplitude(np.exp(1j * np.asarray(phi, dtype=float)))
    return out if out.ndim else float(out)


def no_overload_amplitudes_generalized(gains) -> np.ndarray:
    """Per-antenna safe input amplitudes for the channel-matched modulator.

    With feedback ratio r_n = h_{n-1}/h_n (:func:`feedback_ratios`) the
    bound is ``A_n = 2 - |Re r_n| - |Im r_n|``; the first antenna has no
    feedback, so A_1 = 2, and canonical ordering keeps every later A_n in
    [2-sqrt(2), 2).
    """
    return _safe_amplitude(feedback_ratios(gains))


def _safe_amplitude(feedback):
    """``2 - |Re r| - |Im r|``: the largest per-rail input that keeps a
    first-order modulator with feedback r off the rails."""
    return 2.0 - np.abs(feedback.real) - np.abs(feedback.imag)
