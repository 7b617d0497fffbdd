"""Monte Carlo engine: symbol/bit error curves, IQ scatter, angular spectra.

Randomness discipline
---------------------
Trials are grouped into fixed blocks of ``RNG_BATCH`` trials.  Each
(purpose, SNR point, block, category) tuple owns an independent generator
derived from the master seed, with categories 0..3 = channel, symbols,
noise, dither.  Every category draws trial-major arrays, so a configuration
with more trials extends the sequence without perturbing earlier trials,
and points can run in any order (or in parallel) with identical results.

Conventions: thermal noise power is fixed at 1, so the swept "SNR" is the
total transmit power ``P = 10^(snr_db/10)``; received samples are
``sqrt(P/2N) h^T x + v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .. import analysis, modulator, precoder
from ..channel import (
    CanonicalGains,
    Constellation,
    ArrayGeometry,
    bit_errors,
    canonicalize_gains,
    decide,
    make_constellation,
    phase_step,
    steering_matrix,
    steering_product,
)
# For bench/tracing.py, which patches them here; run_solve calls iq_inf_norm.
from ..precoder import (  # noqa: F401
    iq_inf_norm,
    minimax_coefficients,
    nullspace_basis,
)
from .config import SCHEMES, ConfigError, SimConfig, _int

__all__ = ["RNG_BATCH", "SerCurve", "run_ser", "run_iq_scatter",
           "run_solve", "run_spectrum"]

RNG_BATCH = 1024

_CH, _SYM, _NOISE, _DITHER = range(4)
_PURPOSE_SER, _PURPOSE_SCATTER, _PURPOSE_SPECTRUM, _PURPOSE_SOLVE = range(4)


def _streams(seed, purpose, point, block):
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(purpose, point, block, cat)))
        for cat in range(4)
    )


def _blocks(seed, purpose, point, n_total):
    """``(rngs, n_use)`` for each block of ``RNG_BATCH`` trials (the last one
    shorter) that covers ``n_total`` trials."""
    for block, done in enumerate(range(0, n_total, RNG_BATCH)):
        n_use = min(RNG_BATCH, n_total - done)
        yield _streams(seed, purpose, point, block), n_use


def _complex_normal(rng, shape):
    # Pairs of normals, each times fl(1/sqrt(2)) and read as complex in
    # place: the bits of ``(z[..., 0] + 1j * z[..., 1]) / sqrt(2)``
    # (``channel._divide_by_real``) without its temporaries.
    z = rng.standard_normal(shape + (2,))
    z *= 1.0 / math.sqrt(2.0)
    return z.view(complex)[..., 0]


def _sample_separated_angles(rng, count, n_users, lo, hi, sep):
    """Uniform angle sets with a minimum pairwise gap, drawn constructively.

    Sorted uniforms on the gap-shrunk interval plus a deterministic ramp are
    exactly uniform over the feasible (sorted) configurations, with no
    rejection loop.  Returned in ascending order; users are exchangeable.
    """
    span = hi - lo - (n_users - 1) * sep
    u = np.sort(rng.uniform(0.0, span, (count, n_users)), axis=1)
    return lo + u + np.arange(n_users) * sep


@dataclass
class _Counts:
    trials: int = 0
    symbols: int = 0
    symbol_errors: int = 0
    bits: int = 0
    bit_errors: int = 0
    nonconverged: int = 0

    def add(self, other: "_Counts"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _tally(counts: _Counts, rx, amp_scale, gains, s_idx, const: Constellation):
    scale = 1.0 if const.kind == "psk" else amp_scale * gains
    idx = decide(rx, const, scale)
    counts.symbols += idx.size
    counts.symbol_errors += int((idx != s_idx).sum())
    if const.bit_labels is not None:
        counts.bits += idx.size * const.bits_per_symbol
        counts.bit_errors += int(bit_errors(const, idx, s_idx).sum())


def _modulate(cfg: SimConfig, xbar, rng_dither, steer_phi=0.0, gains=None,
              work=None):
    """Dispatch the configured one-bit stage; xbar has the antenna axis
    first, and ``gains`` is the ``channel.CanonicalGains`` of the matched
    modulator.  With a ``modulator.Workspace`` the output is a view into it."""
    mod = cfg.modulator
    if mod == "unquantized":
        return xbar
    if mod == "direct":
        return modulator.one_bit(xbar)
    if mod == "basic":
        return modulator.sd_basic(xbar, work=work).output
    if mod == "dithered":
        spec = modulator.DitherSpec(cfg.dither_level, seed=rng_dither)
        return modulator.sd_dithered(xbar, spec, work=work).output
    if mod == "steered":
        return modulator.sd_angle_steered(xbar, steer_phi, work=work).output
    if mod == "generalized":
        return modulator.sd_generalized(xbar, gains, work=work).output
    raise ConfigError(f"config.modulator: unknown modulator {mod!r}")


# ---------------------------------------------------------------------------
# Compute chunks
# ---------------------------------------------------------------------------

def _chunk_width(bytes_per_trial: int, budget: int) -> int:
    """Trials per compute chunk: the largest power of two whose
    ``bytes_per_trial`` fit in ``budget``, at least 1 and at most a block.
    Every per-trial operation is column-independent, and power-of-two widths
    keep each column's BLAS arithmetic that of the whole-block call, so the
    width moves no output bit."""
    fit = max(1, budget // bytes_per_trial)
    return min(1 << (fit.bit_length() - 1), RNG_BATCH)


# Largest (N, width) complex array a single-user slice puts in the
# workspace.  It keeps every buffer below numpy's 4 MiB huge-page threshold
# and halves the arena of a 1024-trial block at N = 256.  Narrower slices
# cost more than they save: at 1 MiB the rotated loop makes twice the
# per-step calls, and mrt_broadside ran 10-20 % and steered_endfire 25 %
# slower (2-core x86 host, numpy 2.4 with OpenBLAS).
_SLICE_BYTES = 1 << 21

# Largest (width, T, K, N) complex stack of a multi-user chunk, the size of
# SLP's margin rows.  It gives 32 trials at K = 24, N = 512, T = 1, where the
# stack stays in cache: zf_multiuser ran 16 % faster than in 128-trial
# chunks and 8 % faster than in 16- or 64-trial ones (same host, one BLAS
# thread).  Twice the budget would put T = 100 blocks in 2-trial chunks;
# at 4 trials they ran slower and peaked higher.
_CHUNK_BYTES = 1 << 23


def _slice_width(n_antennas: int) -> int:
    """Trials per single-user slice, whose ``(n_antennas, width)`` complex
    arrays fit in ``_SLICE_BYTES``."""
    return _chunk_width(16 * n_antennas, _SLICE_BYTES)


def _multiuser_width(cfg: SimConfig) -> int:
    """Trials per multi-user chunk, whose ``(T, K, N)`` complex stacks fit
    in ``_CHUNK_BYTES``; long blocks (T = 100) run, and are modulated, one
    trial at a time."""
    return _chunk_width(16 * cfg.channel.n_users * cfg.n_antennas
                        * cfg.block_length, _CHUNK_BYTES)


# ---------------------------------------------------------------------------
# Single-user pipeline (shared by SER, scatter, and spectrum runs)
# ---------------------------------------------------------------------------

def _single_user_draw(cfg: SimConfig, const: Constellation, rngs, n_use):
    """One block's draw: ``(s_idx, channel)``, the sent symbol indices and
    either the channel phase ``exp(1j*psi)`` per trial (single path) or the
    i.i.d. Gaussian gains in canonical order per trial
    (``channel.canonicalize_gains``, antenna axis first)."""
    s_idx = rngs[_SYM].integers(0, const.order, n_use)
    if cfg.channel.model == "iid_gaussian":
        return s_idx, canonicalize_gains(
            _complex_normal(rngs[_CH], (n_use, cfg.n_antennas)).T)
    return s_idx, np.exp(1j * rngs[_CH].uniform(-math.pi, math.pi, n_use))


def _single_user_tx(cfg: SimConfig, const: Constellation, s_idx, channel,
                    sl: slice, rng_dither, work):
    """Precode, modulate and receive the trials ``sl`` of a drawn block:
    MRT toward one user, plain or angle steered toward a fixed-angle path,
    or channel matched over the i.i.d. channel.

    Returns ``(x, gain, y)``: the one-bit (or pass-through) antenna matrix
    (N, width), the coherent receive gain per trial and the noiseless
    receive without the channel phase.  On a single path ``y = a @ x``
    with the row ``a`` that built ``xbar`` (``mrt_arrays``' ``rows``); on
    the i.i.d. channel ``y`` uses the sorted channel, which is equivalent
    to un-permuting the antenna vector.  ``work`` (a
    ``modulator.Workspace``) holds the precode target and the modulator
    arrays, so ``x`` is valid only until its next use.  The slices of a
    block draw from its ``rng_dither`` in order, trial-major, so together
    they get the whole block's dither.
    """
    symbols = const.points[s_idx[sl]]
    if isinstance(channel, CanonicalGains):
        h = CanonicalGains(channel.coefficients[:, sl],
                           channel.permutation[:, sl])
        safe = cfg.modulator == "generalized" and cfg.amplitude_mode == "safe"
        out = precoder.mrt_generalized(h, symbols,
                                       amplitudes=None if safe else 1.0,
                                       work=work)
        x = _modulate(cfg, out.xbar, rng_dither, gains=h, work=work)
        return x, out.gains[:, 0], np.einsum("nb,nb->b", h.coefficients, x)
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_over_wavelength)
    out = precoder.mrt_arrays(geom, math.radians(cfg.channel.angle_deg),
                              channel[sl], symbols,
                              steered=cfg.scheme == "mrt_steered", work=work)
    x = _modulate(cfg, out.xbar, rng_dither, steer_phi=out.metadata["phi"],
                  work=work)
    return x, out.gains[:, 0], out.metadata["rows"] @ x


def _single_user_block(cfg: SimConfig, const: Constellation, rngs, n_use,
                       work):
    """Draw one block whole, then transmit and receive it in slices of
    ``_slice_width`` trials, all in ``work``.

    Returns ``(s_idx, alpha, gain, y)`` for the block, with the noiseless
    receive ``alpha * y``; ``alpha`` is the channel phase per trial on a
    single path and 1 on the i.i.d. channel.
    """
    s_idx, channel = _single_user_draw(cfg, const, rngs, n_use)
    gain, y = np.empty(n_use), np.empty(n_use, dtype=complex)
    width = _slice_width(cfg.n_antennas)
    for lo in range(0, n_use, width):
        sl = slice(lo, lo + width)
        _, gain[sl], y[sl] = _single_user_tx(cfg, const, s_idx, channel, sl,
                                             rngs[_DITHER], work)
    alpha = 1.0 if isinstance(channel, CanonicalGains) else channel
    return s_idx, alpha, gain, y


def _kernel_single_user(cfg, const, power, rngs, n_use, work) -> _Counts:
    s_idx, alpha, gain, y = _single_user_block(cfg, const, rngs, n_use, work)
    noise = _complex_normal(rngs[_NOISE], (n_use,))
    amp_scale = math.sqrt(power / (2.0 * cfg.n_antennas))
    counts = _Counts(trials=n_use)
    _tally(counts, amp_scale * alpha * y + noise, amp_scale, gain, s_idx, const)
    return counts


# ---------------------------------------------------------------------------
# Multi-user kernels
# ---------------------------------------------------------------------------

def _draw_mu_channel(cfg: SimConfig, rng, n_use):
    """Angles (radians) and complex gains for a batch of multi-user scenes.

    Angles, phases and distances share one generator, so each draw takes a
    full ``RNG_BATCH`` of trials: a shorter draw would shift the ones after
    it.
    """
    ch = cfg.channel
    k = ch.n_users
    if ch.angles_deg is not None:
        ang = np.broadcast_to(np.deg2rad(np.asarray(ch.angles_deg)),
                              (n_use, k)).copy()
    else:
        lo, hi = ch.angle_range_deg
        deg = _sample_separated_angles(rng, RNG_BATCH, k, lo, hi,
                                       ch.min_separation_deg)[:n_use]
        ang = np.deg2rad(deg)
    phases = rng.uniform(-math.pi, math.pi, (RNG_BATCH, k))[:n_use]
    if ch.gain_model == "pathloss":
        dist = rng.uniform(ch.pathloss_range[0], ch.pathloss_range[1],
                           (RNG_BATCH, k))[:n_use]
        amp = ch.pathloss_ref / dist
    else:
        amp = np.ones_like(phases)
    return ang, amp * np.exp(1j * phases)


def _multiuser_step(cfg, const, power, angles, alpha, symbols):
    """Steering tables, per-user noise level and the configured design for a
    batch of scenes: ``(B, K)`` angles and gains, ``(B, K, T)`` symbols.

    Returns ``(tables, out)`` with the ``(fine, coarse)`` steering tables
    and ``out.xbar`` as ``(N, B, T)``.  Every design takes ``(tables, gains,
    noise_std, symbols)``, the first three from ``precoder.design_inputs``.
    """
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_over_wavelength)
    tables, alpha, sigma_w = precoder.design_inputs(geom, angles, alpha,
                                                    power, 1.0)
    if cfg.scheme == "slp_dual":
        return tables, precoder.slp_arrays(
            tables, alpha, sigma_w, symbols, const.order,
            cfg.solver.apg_params("dual"))
    if cfg.scheme == "nullspace_zf":
        return tables, precoder.nullspace_zf_arrays(
            tables, alpha, sigma_w, symbols,
            params=cfg.solver.apg_params("nullspace"))
    return tables, precoder.zf_arrays(tables, alpha, sigma_w, symbols)


def _kernel_multiuser(cfg, const, power, rngs, n_use) -> _Counts:
    """Zero-forcing, nullspace and margin designs over ``(K, T)`` symbol
    blocks, ``T = 1`` for the per-symbol schemes.  The receive ``S x`` is
    taken from the chunk's steering tables (``channel.steering_product``)."""
    k, t_len = cfg.channel.n_users, cfg.block_length
    angles, alpha = _draw_mu_channel(cfg, rngs[_CH], n_use)
    s_idx = rngs[_SYM].integers(0, const.order, (n_use, k, t_len))
    noise = _complex_normal(rngs[_NOISE], (n_use, k, t_len))
    amp_scale = math.sqrt(power / (2.0 * cfg.n_antennas))

    counts = _Counts(trials=n_use)
    # The draws above are whole-block; the designs run in chunks sized by
    # their bytes, which moves no output bit.
    step = _multiuser_width(cfg)
    for lo in range(0, n_use, step):
        sl = slice(lo, min(lo + step, n_use))
        tables, out = _multiuser_step(cfg, const, power, angles[sl],
                                      alpha[sl], const.points[s_idx[sl]])
        if "converged" in out.metadata:
            counts.nonconverged += int(np.count_nonzero(
                ~out.metadata["converged"]))

        x = _modulate(cfg, out.xbar, rngs[_DITHER])
        rx = amp_scale * alpha[sl][..., None] \
            * steering_product(tables, np.moveaxis(x, 0, -2)) + noise[sl]
        _tally(counts, rx, amp_scale, out.gains[..., None], s_idx[sl], const)
    return counts


def _theory_ser(cfg: SimConfig, const: Constellation, power: float) -> float:
    """Closed-form error bound where one exists for the scheme, else NaN."""
    if cfg.scheme not in ("mrt", "mrt_steered"):
        return math.nan
    theta = math.radians(cfg.channel.angle_deg)
    n, d = cfg.n_antennas, cfg.spacing_over_wavelength
    if cfg.scheme == "mrt" and cfg.modulator == "basic":
        snr = analysis.effective_snr_mrt(1.0, theta, power, 1.0, n, d)
    elif cfg.modulator in ("steered", "unquantized"):
        phi = phase_step(d, theta) if cfg.scheme == "mrt_steered" else 0.0
        amp = modulator.no_overload_amplitude(phi)
        snr = analysis.effective_snr_steered(1.0, amp, power, 1.0, n)
    else:
        return math.nan
    return float(analysis.sep_bound(snr, const))


@dataclass
class SerCurve:
    """Error-rate sweep with per-point accounting and closed-form overlay."""

    snr_db: np.ndarray
    ser: np.ndarray
    ber: np.ndarray
    theory_ser: np.ndarray
    ci_halfwidth: np.ndarray
    trials: np.ndarray
    symbols: np.ndarray
    symbol_errors: np.ndarray
    bits: np.ndarray
    bit_errors: np.ndarray
    nonconverged: np.ndarray

    CSV_HEADER = "snr_db,ser,ber,theory_ser,ci_halfwidth,trials"

    def csv_rows(self):
        for i in range(self.snr_db.size):
            yield (f"{self.snr_db[i]:.10g},{self.ser[i]:.10g},"
                   f"{self.ber[i]:.10g},{self.theory_ser[i]:.10g},"
                   f"{self.ci_halfwidth[i]:.10g},{int(self.trials[i])}")


def _run_point(cfg: SimConfig, point: int, work=None) -> tuple:
    """Counts and closed-form bound at one SNR point.

    The single-user kernel runs its blocks in ``work`` (a fresh workspace if
    None).  The multi-user kernel does not use it.
    """
    const = make_constellation(cfg.constellation_kind, cfg.constellation_order)
    power = 10.0 ** (cfg.snr_db[point] / 10.0)
    if cfg.channel.model == "multi_user":
        kernel = _kernel_multiuser
    else:
        kernel = partial(_kernel_single_user,
                         work=modulator.Workspace() if work is None else work)

    totals = _Counts()
    for rngs, n_use in _blocks(cfg.seed, _PURPOSE_SER, point, cfg.trials):
        totals.add(kernel(cfg, const, power, rngs, n_use))
        if totals.symbol_errors >= cfg.early_stop_errors:
            break
    theory = _theory_ser(cfg, const, power)
    return totals, theory


def run_ser(cfg: SimConfig, n_workers: int = 1) -> SerCurve:
    """Sweep the SNR grid and return the assembled error curve.

    ``n_workers > 1`` farms SNR points out to worker processes; results are
    reduced in point order, so the outcome does not depend on worker count.
    A serial run shares one ``modulator.Workspace`` across its points; each
    worker's point makes its own.
    """
    cfg.validate()
    points = range(len(cfg.snr_db))
    if n_workers > 1 and len(cfg.snr_db) > 1:
        # Imported here: a single-worker run never pays for the pool module.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_workers,
                                                 len(cfg.snr_db))) as pool:
            results = list(pool.map(partial(_run_point, cfg), points))
    else:
        work = modulator.Workspace()
        results = [_run_point(cfg, p, work) for p in points]

    col = {f.name: np.array([getattr(c, f.name) for c, _ in results],
                            dtype=np.int64) for f in fields(_Counts)}
    ser = col["symbol_errors"] / col["symbols"]
    ber = np.divide(col["bit_errors"], col["bits"], where=col["bits"] > 0,
                    out=np.full(len(results), math.nan))
    ci = 1.96 * np.sqrt(np.maximum(ser * (1.0 - ser), 0.0) / col["symbols"])

    return SerCurve(
        snr_db=np.asarray(cfg.snr_db, dtype=float),
        ser=ser, ber=ber, theory_ser=np.array([th for _, th in results]),
        ci_halfwidth=ci, trials=col["trials"], symbols=col["symbols"],
        symbol_errors=col["symbol_errors"], bits=col["bits"],
        bit_errors=col["bit_errors"], nonconverged=col["nonconverged"],
    )


def _require_single_user(cfg: SimConfig, what: str):
    if cfg.channel.model == "multi_user":
        names = [s for s, (model, *_) in SCHEMES.items() if model != "multi_user"]
        raise ConfigError(
            f"config.scheme: {what} supports single-user schemes only "
            f"({', '.join(names)})")


def _trial_count(value: Optional[int], default: int, name: str) -> int:
    if value is None:
        return default
    try:
        count = _int(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return count


def run_iq_scatter(cfg: SimConfig, n_realizations: Optional[int] = None):
    """Noiseless shaped symbols at the user, normalized by the design gain.

    Returns ``(sent, received)`` complex arrays of equal length; with an
    ideal link every received point coincides with its sent symbol.
    ``n_realizations`` defaults to the config's ``scatter_realizations``.
    """
    cfg.validate()
    _require_single_user(cfg, "the IQ scatter run")
    n_total = _trial_count(n_realizations, cfg.scatter_realizations,
                           "n_realizations")
    const = make_constellation(cfg.constellation_kind, cfg.constellation_order)

    sent, received = [], []
    work = modulator.Workspace()
    for rngs, n_use in _blocks(cfg.seed, _PURPOSE_SCATTER, 0, n_total):
        s_idx, alpha, gain, y = _single_user_block(cfg, const, rngs, n_use,
                                                   work)
        sent.append(const.points[s_idx])
        received.append(alpha * y / gain)
    return np.concatenate(sent), np.concatenate(received)


def run_solve(cfg: SimConfig) -> dict:
    """One margin-maximization solve with its diagnostics.

    The instance is the first trial of the multi-user draw at the first SNR
    point (solve purpose), designed by the same step as the SER kernel.
    Returns the solver's scalar results plus ``worst_margin`` (the smallest
    noise-normalized decision margin) and ``peak_rail``.
    """
    cfg.validate()
    if cfg.scheme != "slp_dual":
        raise ConfigError("config.scheme: solve needs slp_dual")
    rngs = _streams(cfg.seed, _PURPOSE_SOLVE, 0, 0)
    angles, alpha = _draw_mu_channel(cfg, rngs[_CH], 1)
    const = make_constellation(cfg.constellation_kind, cfg.constellation_order)
    s_idx = rngs[_SYM].integers(0, const.order, cfg.channel.n_users)
    _, out = _multiuser_step(cfg, const, 10.0 ** (cfg.snr_db[0] / 10.0),
                             angles, alpha, const.points[s_idx][None, :, None])
    margins = out.metadata.pop("margins")
    result = {k: np.asarray(v).item() for k, v in out.metadata.items()}
    result["worst_margin"] = float(np.min(margins))
    result["peak_rail"] = float(iq_inf_norm(out.xbar))
    return result


def run_spectrum(cfg: SimConfig, angles_deg=None,
                 n_trials: Optional[int] = None):
    """Monte Carlo angular power spectrum of the transmitted antenna vector.

    Returns ``(angles_deg, spectrum_db)`` with the spectrum normalized so an
    unquantized coherent beam peaks at 0 dB.  ``n_trials`` defaults to the
    config's ``spectrum_trials``.
    """
    cfg.validate()
    _require_single_user(cfg, "the spectrum run")
    if angles_deg is None:
        lo, hi, step = cfg.spectrum_grid_deg
        # The whole steps from lo that stay within hi; the clip takes off
        # the roundoff that can carry the last one past it.
        n_steps = math.floor((hi - lo) / step + 1e-9)
        angles_deg = np.minimum(
            np.arange(lo, lo + (n_steps + 0.5) * step, step), hi)
    angles_deg = np.asarray(angles_deg, dtype=float)
    if angles_deg.ndim != 1:
        raise ValueError("angles_deg must be a 1-D grid of angles")
    if not np.all(np.abs(angles_deg) <= 90.0):
        raise ValueError("angles_deg must lie in [-90, 90] degrees")
    n_total = _trial_count(n_trials, cfg.spectrum_trials, "n_trials")
    const = make_constellation(cfg.constellation_kind, cfg.constellation_order)
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_over_wavelength)
    grid = steering_matrix(geom, np.deg2rad(angles_deg))

    power_sum = np.zeros(angles_deg.size)
    work = modulator.Workspace()
    for rngs, n_use in _blocks(cfg.seed, _PURPOSE_SPECTRUM, 0, n_total):
        # One whole-block slice: the pinned spectrum sums each block's
        # beam power at once.
        s_idx, channel = _single_user_draw(cfg, const, rngs, n_use)
        x = _single_user_tx(cfg, const, s_idx, channel, slice(0, n_use),
                            rngs[_DITHER], work)[0]
        power_sum += analysis.beam_power_sum(grid, x)
    return angles_deg, analysis.spectrum_db(power_sum / n_total,
                                            cfg.n_antennas)
