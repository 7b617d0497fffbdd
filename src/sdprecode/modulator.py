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
:class:`Workspace`, a call writes its output and scratch into that
workspace's buffers instead of fresh memory: the bits are the same, but the
result's output is a view that the next call with the same workspace
overwrites, so read it before then and never pass it back in as input.

A call writes only the output at full size.  It runs in row blocks
(antenna ranges): one block for an input of at most 1 MiB, blocks of
128 KiB above that, so each block's passes stay in cache.  A block's
integrator and error rows live in block-sized scratch, and the rail peak
(and the closed form's certificate) is reduced block by block.  The traces
themselves are replayed into full-size arrays on first access
(:class:`ModulationResult`), from the call's unchanged inputs, so they are
valid until the inputs change or the workspace's next use.

Unit feedback (basic, and steered at phi = 0) has a closed form.  With
``S_n`` and ``X_n`` the prefix sums of input and output on one rail and
``b_n = S_n - X_{n-1}``, while ``b_n`` stays in (-2, 2) the sign quantizer
is the odd uniform quantizer ``2*floor(b/2) + 1``.  The parity of ``X_n`` is
then that of n (1-based), which gives (Gray, IEEE Trans. Commun. 1989)

    X_n = 2*floor((S_n - p_n)/2) + p_n + 1,   p_n = (n - 1) mod 2.

That is one prefix sum plus a few passes per row block instead of a loop
over antennas.  The prefix sum is one ``np.add.accumulate`` call on an
input of one block, and one addition per antenna, carried from block to
block, above that size, where it is faster; both add in the same order, so
the sums are the same bits.  In floating point the two traces differ by
rounding, so each run
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


class ModulationResult:
    """One-bit output plus the internal traces of the run.

    ``output[n] = x_n``, ``integrator_trace[n] = b_n``, and
    ``quant_error[n] = q_n = x_n - b_n``.  ``overloaded`` flags any run whose
    integrator left the quantizer's safe range on either rail;
    ``peak_integrator`` is the largest rail magnitude seen.  For batched
    input both have the batch shape.

    ``output``, ``overloaded`` and ``peak_integrator`` are computed by the
    call.  The two traces are not kept: the first read of either replays
    the call's kernel from its inputs into fresh arrays, which hold the
    bits the call saw.  So read them while the input ``xbar`` (and the
    workspace that held the call) are unchanged; a replay whose output no
    longer matches ``output`` raises ``RuntimeError``.
    """

    def __init__(self, output, overloaded, peak_integrator, replay):
        self.output = output
        self.overloaded = overloaded
        self.peak_integrator = peak_integrator
        self._replay = replay
        self._traces = None

    @property
    def integrator_trace(self) -> np.ndarray:
        return self._replayed()[0]

    @property
    def quant_error(self) -> np.ndarray:
        return self._replayed()[1]

    def _replayed(self):
        if self._traces is None:
            x, b, q = self._replay()
            if not np.array_equal(x, self.output):
                raise RuntimeError(
                    "the modulator's input or workspace changed before its "
                    "traces were read")
            self._traces = b, q
        return self._traces


class Workspace:
    """Named scratch buffers that grow and never shrink.

    Repeated blocks of one run reuse the same memory instead of allocating,
    and first touching, fresh arrays each time.  Every array that is live at
    the same time needs its own name.  Scope a workspace to one run: its
    buffers stay allocated for as long as it lives.  A modulator call holds
    its output (``"x"``) at full size and its row-block scratch (``"b"``,
    ``"q"``), at most 128 KiB each once the input exceeds 1 MiB.  A
    result's traces are replayed from the call's inputs, which may sit in
    the workspace (the precoder's ``"xbar"``, the ``"dither"`` copy), so
    read them before the workspace's next use.
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
    output and the block scratch live in ``work`` (a fresh
    :class:`Workspace` if None); the traces are replayed on first access.
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

    closed = dither is None and bool(np.all(fb == 1))
    # Scratch before the output: a fresh workspace frees its scratch first,
    # which then leaves a hole below the output rather than free memory at
    # the top of the heap that the allocator may hand back, for the next
    # call to fault in again (T = 100 zero-forcing blocks ran about 10 %
    # slower with the output first).
    b = work.array("b", (_block_rows(flat), flat.shape[1]))
    q = work.array("q", b.shape) if closed else None
    x = work.array("x", flat.shape)
    if closed:
        rail_peak, certified = _closed_form(flat, x, b, q)
        closed = bool(certified.all())
    if not closed:
        # Reads only xbar, fb and dither, none of which is x or b.
        rail_peak = _loop(flat, fb, dither, x, b)

    def replay():
        xr, br = np.empty(flat.shape, complex), np.empty(flat.shape, complex)
        if closed:
            qr = np.empty(flat.shape, complex)
            _closed_form(flat, xr, br, qr)
        else:
            _loop(flat, fb, dither, xr, br)
            qr = np.subtract(xr, br)
        return xr.reshape(shape), br.reshape(shape), qr.reshape(shape)

    rail_peak = rail_peak.reshape(tail)
    overloaded = ~(rail_peak <= overload_limit)     # NaN counts as overload
    if tail == ():
        overloaded = bool(overloaded)
        rail_peak = float(rail_peak)
    return ModulationResult(x.reshape(shape), overloaded, rail_peak, replay)


# Inputs of at most this size run as one row block, whose prefix sums one
# ``np.add.accumulate`` call forms.  Larger ones run in row blocks of
# ``_BLOCK_BYTES``, where a block's passes stay in cache, and form their
# prefix sums one addition per antenna: at that size this beats one call
# over the whole input.  Both add in the same order, so the sums are the
# same bits.
_ACCUMULATE_BYTES = 1 << 20
_BLOCK_BYTES = 1 << 17


def _block_rows(xbar):
    """Antennas per row block of the (N, runs) input ``xbar``."""
    if xbar.nbytes <= _ACCUMULATE_BYTES:
        return xbar.shape[0]
    return max(1, _BLOCK_BYTES // (xbar.itemsize * xbar.shape[1]))


class _RailPeak:
    """Per-run largest rail magnitude of an (N, runs) trace, reduced over
    its row blocks in order; max and min are exact, so the blocks give the
    bits of one reduction over the whole trace."""

    hi = lo = None

    def add(self, block):
        """Fold in the float view ``(rows, 2 * runs)`` of a block."""
        hi, lo = block.max(axis=0), block.min(axis=0)
        if self.hi is None:
            self.hi, self.lo = hi, lo
        else:
            np.maximum(self.hi, hi, out=self.hi)
            np.minimum(self.lo, lo, out=self.lo)

    def value(self):
        return np.maximum(self.hi, -self.lo).reshape(-1, 2).max(axis=1)


def _trace_rows(trace, lo, hi):
    """Rows ``lo:hi`` of a trace: ``trace`` holds all N rows (a replay) or
    is one block's scratch, which every block reuses from its top."""
    return trace[:hi - lo] if len(trace) < hi else trace[lo:hi]


def _loop(xbar, fb, dither, x, b):
    """The loop itself on (N, runs) input; writes ``x`` and returns the
    rail peak of b per run.

    ``b`` is (N, runs) for the whole trace, or a ring of ``_block_rows``
    rows that each row block overwrites.  ``fb`` is (N,) or (N, runs).
    This is the reference arithmetic: every step evaluates
    ``f*b_prev + (xbar[n] - f*x_prev)`` and quantizes its sum with
    ``dither[n]`` (None for no dither).
    """
    n_ant, rows = xbar.shape[0], _block_rows(xbar)
    xf = x.view(float)
    fx = np.empty(xbar.shape[1:], dtype=complex)
    v = np.empty_like(fx)
    b_prev = x_prev = np.zeros_like(fx)
    peak = _RailPeak()
    for lo in range(0, n_ant, rows):
        hi = min(lo + rows, n_ant)
        blk = _trace_rows(b, lo, hi)
        bf = blk.view(float)
        for i, n in enumerate(range(lo, hi)):
            f = fb[n]
            np.multiply(f, x_prev, out=fx)
            np.subtract(xbar[n], fx, out=fx)
            np.multiply(f, b_prev, out=blk[i])
            np.add(blk[i], fx, out=blk[i])
            if dither is None:
                _sign_into(bf[i], xf[n])
            else:
                np.add(blk[i], dither[n], out=v)
                _sign_into(v.view(float), xf[n])
            b_prev, x_prev = blk[i], x[n]
        peak.add(bf)
    return peak.value()


def _closed_form(xbar, x, b, q):
    """Closed form of the unit-feedback loop on (N, runs) input.

    Writes ``x`` and returns ``(rail_peak, certified)``; see the module
    docstring.  ``b`` and ``q`` are (N, runs) for the whole traces, or one
    row block's scratch as in :func:`_loop`.  Runs whose ``certified``
    entry is False carry no guarantee.
    """
    n_ant, rows = xbar.shape[0], _block_rows(xbar)
    xf = x.view(float)
    s_last = np.empty(xbar.shape[1:], dtype=complex)   # S of the row above
    x_last = np.empty(2 * xbar.shape[1])               # X of the row above
    peak, margin = _RailPeak(), _RailPeak()
    for lo in range(0, n_ant, rows):
        hi = min(lo + rows, n_ant)
        sb, qb = _trace_rows(b, lo, hi), _trace_rows(q, lo, hi)
        if rows == n_ant:
            np.add.accumulate(xbar, axis=0, out=sb)
        else:
            if lo:
                np.add(s_last, xbar[lo], out=sb[0])
            else:
                sb[0] = xbar[0]
            for i in range(1, hi - lo):
                np.add(sb[i - 1], xbar[lo + i], out=sb[i])
            np.copyto(s_last, sb[-1])
        s, xsum = sb.view(float), qb.view(float)   # S, then b; X, then q
        parity = (np.arange(lo, hi) % 2.0)[:, None]
        # Non-finite runs fail the check below and are redone by the loop.
        with np.errstate(invalid="ignore"):
            np.subtract(s, parity, out=xsum)
            xsum *= 0.5
            np.floor(xsum, out=xsum)
            xsum *= 2.0
            xsum += parity + 1.0
            np.subtract(xsum[1:], xsum[:-1], out=xf[lo + 1:hi])
            np.subtract(s[1:], xsum[:-1], out=s[1:])
            if lo:
                np.subtract(xsum[0], x_last, out=xf[lo])
                np.subtract(s[0], x_last, out=s[0])
            else:
                xf[0] = xsum[0]
            np.copyto(x_last, xsum[-1])
            np.subtract(x[lo:hi], sb, out=qb)
            peak.add(s)
            margin.add(xsum)
    rail_peak, margin = peak.value(), margin.value()
    tol = _tolerance(n_ant)
    certified = (rail_peak < 2.0 - tol) & (margin < 1.0 - tol)
    return rail_peak, certified


def _tolerance(n_ant):
    """Certification margin of the closed form; see the module docstring."""
    return np.finfo(float).eps * (n_ant + 10.0) ** 2 / 2.0


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
