"""Closed-form link analysis: shaped-noise variances, effective SNRs,
symbol-error bounds, the zero-forcing SNR floor, and angular power spectra.

The quantization-error model treats the per-antenna errors as i.i.d. uniform
on the unit IQ box (second moment 2/3 per complex sample).  That model is an
approximation: it is excellent for benign inputs and known to break for a
few specific steering angles, which the simulator exposes deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    ArrayGeometry,
    ArbitraryChannel,
    Constellation,
    MultiPathChannel,
    MultiUserScene,
    SinglePathChannel,
    phase_step,
    steering_gram,
    steering_matrix,
    steering_tables,
)

__all__ = [
    "QUANT_NOISE_POWER",
    "SepBoundParams",
    "qfunc",
    "noise_variance_single",
    "noise_variance_single_exact",
    "noise_variance_steered",
    "noise_variance_multipath",
    "noise_variance_multipath_bound",
    "noise_variance_for_channel",
    "effective_snr_mrt",
    "effective_snr_mrt_limit",
    "effective_snr_steered",
    "effective_snr_zf",
    "sep_bound",
    "sep_params",
    "psk_decision_margin",
    "ZfSnrBound",
    "zf_snr_lower_bound",
    "zf_snr_orthogonal_bound",
    "digital_sinc",
    "mean_beam_power",
    "angular_spectrum",
]

# Second moment of a complex error uniform on {|Re| <= 1, |Im| <= 1}.
QUANT_NOISE_POWER = 2.0 / 3.0


class SepBoundParams(NamedTuple):
    """(multiplicity, argument scale) of a constellation's Gaussian bound."""

    beta: float
    chi: float


def qfunc(t):
    """Gaussian tail probability Q(t).

    SciPy is imported on the first call, so runs without a closed-form
    error bound never load it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


def noise_variance_single(gain, angle, power, noise_var, spacing):
    """Large-array variance of quantization-plus-thermal noise at one user.

    ``(4|a|^2 P / 3) sin^2(pi (d/lambda) sin(theta)) + sigma_v^2``; grows
    with |angle|, shrinks with antenna spacing, and does not depend on the
    antenna count.  Batched: array arguments broadcast.
    """
    s = np.sin(math.pi * spacing * np.sin(angle))
    return (4.0 * np.abs(gain) ** 2 * power / 3.0) * s * s + noise_var


def noise_variance_single_exact(gain, angle, power, noise_var, spacing,
                                n_antennas) -> float:
    """Finite-N variance, keeping the last antenna's unshaped boundary term."""
    z = np.exp(1j * phase_step(spacing, angle))
    shaped = abs(1.0 - 1.0 / z) ** 2
    return (abs(gain) ** 2 * power / (3.0 * n_antennas)) * (
        shaped * (n_antennas - 1) + 1.0
    ) + noise_var


def noise_variance_steered(gain, angle, phi, power, noise_var, spacing) -> float:
    """Noise variance when the modulator feedback is rotated by phi per step.

    The quantization term vanishes exactly when phi matches the channel's
    per-antenna phase progression ``2 pi (d/lambda) sin(theta)`` (mod 2 pi).
    """
    s = math.sin(0.5 * (phi - phase_step(spacing, angle)))
    return (4.0 * abs(gain) ** 2 * power / 3.0) * s * s + noise_var


def noise_variance_multipath(gains, angles, power, noise_var, spacing,
                             n_antennas) -> float:
    """Shaped-noise variance for a superposition of angular paths.

    Averages the squared first-difference of the combined per-antenna channel
    weights; reduces to the single-path expression (up to the boundary term)
    when there is one path.
    """
    gains = np.asarray(gains, dtype=complex)
    angles = np.asarray(angles, dtype=float)
    z = np.exp(1j * phase_step(spacing, angles))
    n = np.arange(n_antennas)
    zpow = z[None, :] ** (-n[:, None])              # (N, L): z_l^{-n}
    diffs = zpow * (1.0 - 1.0 / z)[None, :]         # z_l^{-n} - z_l^{-n-1}
    total = np.abs(diffs @ gains) ** 2
    return (power / (3.0 * n_antennas)) * float(total.sum()) + noise_var


def noise_variance_multipath_bound(gains, angles, power, noise_var,
                                   spacing) -> float:
    """N-independent upper bound on the multi-path noise variance."""
    gains = np.asarray(gains, dtype=complex)
    angles = np.asarray(angles, dtype=float)
    n_paths = gains.size
    s = np.sin(math.pi * spacing * np.sin(angles))
    total = float(((np.abs(gains) ** 2) * s * s).sum())
    return (4.0 * power * n_paths / 3.0) * total + noise_var


def noise_variance_for_channel(channel, power, noise_var, spacing,
                               n_antennas) -> float:
    """Per-user noise variance used by the multi-user precoders.

    Single- and multi-path channels get the large-array closed forms; an
    arbitrary channel is assumed to be driven through the channel-matched
    modulator, whose surviving quantization error is negligible, leaving the
    thermal term only.  With ``noise_var = 0`` the result is the
    quantization part alone.
    """
    if isinstance(channel, SinglePathChannel):
        quant = noise_variance_single(channel.gain, channel.angle, power,
                                      0.0, spacing)
    elif isinstance(channel, MultiPathChannel):
        quant = noise_variance_multipath(channel.gains, channel.angles, power,
                                         0.0, spacing, n_antennas)
    elif isinstance(channel, ArbitraryChannel):
        quant = 0.0
    else:
        raise TypeError(f"unknown channel type {type(channel)!r}")
    return quant + float(noise_var)


def effective_snr_mrt(gain, angle, power, noise_var, n_antennas,
                      spacing) -> float:
    """Effective SNR of conjugate beamforming through the basic modulator.

    ``|a|^2 P N / ((8|a|^2 P/3) sin^2(pi (d/lambda) sin(theta)) + 2 sigma_v^2)``.
    Grows linearly with N; extra transmit power saturates against the
    quantization term (see :func:`effective_snr_mrt_limit`).
    """
    s = math.sin(math.pi * spacing * math.sin(angle))
    denom = (8.0 * abs(gain) ** 2 * power / 3.0) * s * s + 2.0 * noise_var
    if denom == 0:
        raise ZeroDivisionError(
            "effective SNR undefined at broadside with zero thermal noise")
    return abs(gain) ** 2 * power * n_antennas / denom


def effective_snr_mrt_limit(angle, n_antennas, spacing) -> float:
    """Power-saturated effective SNR: ``3N / (8 sin^2(pi (d/lambda) sin(theta)))``."""
    s = math.sin(math.pi * spacing * math.sin(angle))
    if s == 0:
        return math.inf
    return 3.0 * n_antennas / (8.0 * s * s)


def effective_snr_steered(gain, amplitude, power, noise_var,
                          n_antennas) -> float:
    """Effective SNR with matched feedback rotation: ``A^2 |a|^2 P N / (2 sigma_v^2)``.

    ``amplitude`` is the safe input level of the steered modulator; the only
    performance loss relative to an unquantized link is that factor.
    """
    if noise_var == 0:
        raise ZeroDivisionError("effective SNR undefined with zero thermal noise")
    return amplitude ** 2 * abs(gain) ** 2 * power * n_antennas / (2.0 * noise_var)


def effective_snr_zf(power, n_antennas, gamma) -> float:
    """Common per-user effective SNR of the zero-forcing design: ``P gamma^2 / (2N)``."""
    return power * gamma * gamma / (2.0 * n_antennas)


def sep_params(constellation: Constellation) -> SepBoundParams:
    """Multiplicity and argument scale of the Gaussian symbol-error bound."""
    if constellation.kind == "psk":
        return SepBoundParams(
            2.0, math.sqrt(2.0) * math.sin(math.pi / constellation.order))
    if constellation.kind == "qam":
        return SepBoundParams(4.0, 1.0 / (math.sqrt(constellation.order) - 1.0))
    raise ValueError(f"unknown constellation kind {constellation.kind!r}")


def sep_bound(snr_eff, constellation: Constellation):
    """Union-style symbol-error-probability bound ``min(1, beta Q(chi sqrt(SNR)))``."""
    beta, chi = sep_params(constellation)
    snr_eff = np.asarray(snr_eff, dtype=float)
    if np.any(snr_eff < 0):
        raise ValueError("snr_eff must be nonnegative")
    out = np.minimum(1.0, beta * qfunc(chi * np.sqrt(snr_eff)))
    return out if out.ndim else float(out)


def psk_decision_margin(z, s, order: int):
    """Distance-to-boundary proxy for a received point z and sent PSK symbol s.

    ``Re(z s*) - |Im(z s*)| cot(pi/M)``: positive inside the decision cone of
    s, and equal to the received amplitude when z is exactly aligned.
    """
    zs = np.asarray(z) * np.conj(s)
    cot = 0.0 if order == 2 else 1.0 / math.tan(math.pi / order)
    out = zs.real - np.abs(zs.imag) * cot
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ZfSnrBound:
    """Zero-forcing SNR floor plus the spectrum diagnostics behind it."""

    bound: float
    lam_min: float
    rho: float
    worst_user: int


def digital_sinc(n: int, phi):
    """Normalized array correlation ``sin(N phi) / (N sin(phi))``.

    Continuous at multiples of pi, where the value is the analytic limit
    ``cos(N k pi)/cos(k pi)``; magnitude never exceeds 1.
    """
    phi = np.asarray(phi, dtype=float)
    s = np.sin(phi)
    near_pole = np.isclose(s, 0.0, atol=1e-12)
    safe = np.where(near_pole, 1.0, s)
    out = np.sin(n * phi) / (n * safe)
    k = np.round(phi / math.pi)
    limit = np.cos(n * k * math.pi) / np.cos(k * math.pi)
    out = np.where(near_pole, limit, out)
    return out if out.ndim else float(out)


def zf_snr_lower_bound(scene: MultiUserScene) -> ZfSnrBound:
    """Floor on every user's zero-forcing effective SNR for a single-path scene.

    ``P N |a_k|^2 lam_min(R)^2 / (2 K^3 sigma_{w,k}^2)`` with k the user whose
    noise-to-gain ratio is worst and R the normalized steering Gram matrix.
    Also reports the smallest eigenvalue of R and the worst pairwise
    steering correlation rho, which sandwich ``1 >= lam_min >= 1 - (K-1) rho``.
    """
    angles, gains = scene.single_path_arrays()
    geom = scene.geometry
    n, k_users = geom.n_antennas, scene.n_users
    r = steering_gram(steering_tables(geom, angles))
    lam_min = float(np.linalg.eigvalsh(r)[0])

    if k_users > 1:
        half_steps = (math.pi * geom.spacing_over_wavelength
                      * (np.sin(angles)[:, None] - np.sin(angles)[None, :]))
        corr = np.abs(digital_sinc(n, half_steps))
        np.fill_diagonal(corr, 0.0)
        rho = float(corr.max())
    else:
        rho = 0.0

    sigma_w = noise_variance_single(gains, angles, scene.total_power,
                                    scene.noise_variance,
                                    geom.spacing_over_wavelength)
    ratio = np.sqrt(sigma_w) / np.abs(gains)
    worst = int(np.argmax(ratio))
    bound = (scene.total_power * n * abs(gains[worst]) ** 2 * lam_min ** 2
             / (2.0 * k_users ** 3 * sigma_w[worst]))
    return ZfSnrBound(bound=bound, lam_min=lam_min, rho=rho, worst_user=worst)


def zf_snr_orthogonal_bound(scene: MultiUserScene) -> float:
    """Tighter floor ``P N |a_k|^2 / (2 K sigma_{w,k}^2)``, valid for
    mutually orthogonal steering vectors (the large-array regime)."""
    angles, gains = scene.single_path_arrays()
    geom = scene.geometry
    n, k_users = geom.n_antennas, scene.n_users
    sigma_w = noise_variance_single(gains, angles, scene.total_power,
                                    scene.noise_variance,
                                    geom.spacing_over_wavelength)
    ratio = np.sqrt(sigma_w) / np.abs(gains)
    worst = int(np.argmax(ratio))
    return (scene.total_power * n * abs(gains[worst]) ** 2
            / (2.0 * k_users * sigma_w[worst]))


def mean_beam_power(samples: np.ndarray, geometry: ArrayGeometry,
                    angles) -> np.ndarray:
    """Average radiated power ``E |a(angle)^T x|^2`` over sample columns.

    ``samples`` is ``(N,)`` or ``(N, trials)``; the mean runs over trials.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None]
    a = steering_matrix(geometry, angles)
    proj = a @ samples
    return (np.abs(proj) ** 2).mean(axis=1)


def angular_spectrum(samples: np.ndarray, geometry: ArrayGeometry,
                     angles) -> np.ndarray:
    """Monte Carlo angular power spectrum in dB relative to the coherent peak.

    Normalized by N^2 so an unquantized conjugate beam evaluates to 0 dB at
    its target angle.
    """
    power = mean_beam_power(samples, geometry, angles)
    ref = float(geometry.n_antennas) ** 2
    return 10.0 * np.log10(np.maximum(power, 1e-300) / ref)
