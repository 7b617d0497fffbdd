"""Closed forms: noise variances, effective SNRs, error bounds, spectra."""

import math

import numpy as np
import pytest

from sdprecode import analysis
from sdprecode.channel import (
    ArrayGeometry,
    MultiUserScene,
    SinglePathChannel,
    array_response,
    make_constellation,
)
from sdprecode.modulator import sd_basic


class TestNoiseVariance:
    def test_broadside_leaves_thermal_only(self):
        assert analysis.noise_variance_single(1.0, 0.0, 5.0, 1.7, 0.5) == 1.7

    def test_endfire_half_wavelength(self):
        # 4*1*3/3 * sin^2(pi/2) + 1 = 5
        val = analysis.noise_variance_single(1.0, math.pi / 2, 3.0, 1.0, 0.5)
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_exact_form_approaches_large_array_form(self):
        kw = dict(gain=0.7 * np.exp(0.4j), angle=0.6, power=2.0,
                  noise_var=0.3, spacing=0.5)
        approx = analysis.noise_variance_single(**kw)
        exact = analysis.noise_variance_single_exact(**kw, n_antennas=512)
        assert abs(exact - approx) / approx < 0.01

    def test_monotone_in_angle_magnitude(self):
        angles = np.linspace(0.0, math.pi / 2, 50)
        vals = [analysis.noise_variance_single(1.0, a, 2.0, 0.5, 0.25)
                for a in angles]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_steered_null_and_reduction(self):
        theta, spacing = 0.8, 0.5
        phi = 2 * math.pi * spacing * math.sin(theta)
        assert analysis.noise_variance_steered(1.0, theta, phi, 4.0, 0.2,
                                               spacing) == pytest.approx(0.2)
        # Zero rotation recovers the unsteered formula.
        assert analysis.noise_variance_steered(1.0, theta, 0.0, 4.0, 0.2,
                                               spacing) == pytest.approx(
            analysis.noise_variance_single(1.0, theta, 4.0, 0.2, spacing))
        # A rotation off by pi maximizes the quantization term.
        worst = analysis.noise_variance_steered(1.0, theta, phi - math.pi,
                                                4.0, 0.2, spacing)
        assert worst == pytest.approx(4.0 * 4.0 / 3.0 + 0.2, rel=1e-12)


class TestMultipathVariance:
    def test_single_broadside_path(self):
        val = analysis.noise_variance_multipath([1.0], [0.0], 2.0, 0.4, 0.25,
                                                128)
        assert val == pytest.approx(0.4)

    def test_single_path_matches_exact_form_up_to_boundary_term(self):
        gain, angle, power, nv, spacing, n = 1.3, 0.7, 2.0, 0.0, 0.5, 256
        mp = analysis.noise_variance_multipath([gain], [angle], power, nv,
                                               spacing, n)
        exact = analysis.noise_variance_single_exact(gain, angle, power, nv,
                                                     spacing, n)
        assert abs(mp - exact) / exact < 1.0 / n

    def test_dispatch_by_channel_kind(self):
        from sdprecode.channel import (ArbitraryChannel, MultiPathChannel,
                                       SinglePathChannel)
        kw = dict(power=2.0, noise_var=0.5, spacing=0.25, n_antennas=64)
        single = analysis.noise_variance_for_channel(
            SinglePathChannel(0.7, 0.4), **kw)
        assert single == pytest.approx(
            analysis.noise_variance_single(0.7, 0.4, 2.0, 0.5, 0.25))
        multi = analysis.noise_variance_for_channel(
            MultiPathChannel(gains=[0.7, 0.2j], angles=[0.4, -0.3]), **kw)
        assert multi == pytest.approx(analysis.noise_variance_multipath(
            [0.7, 0.2j], [0.4, -0.3], 2.0, 0.5, 0.25, 64))
        arb = analysis.noise_variance_for_channel(
            ArbitraryChannel(np.ones(64)), **kw)
        assert arb == 0.5
        quantization = analysis.noise_variance_for_channel(
            SinglePathChannel(0.7, 0.4), **{**kw, "noise_var": 0.0})
        assert quantization + 0.5 == single

    def test_bounded_by_path_count_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            paths = rng.integers(1, 5)
            gains = rng.normal(size=paths) + 1j * rng.normal(size=paths)
            angles = rng.uniform(-1.2, 1.2, paths)
            val = analysis.noise_variance_multipath(gains, angles, 3.0, 0.5,
                                                    0.5, 64)
            bound = analysis.noise_variance_multipath_bound(gains, angles,
                                                            3.0, 0.5, 0.5)
            assert val <= bound + 1e-12

    def test_monte_carlo_sample_variance_matches_exact_form(self):
        # Benign (uniform) inputs keep the quantization errors effectively
        # i.i.d. uniform on the box, so the shaped-noise sample variance must
        # track the finite-array formula.
        n, trials = 64, 100_000
        power, spacing, angle = 2.0, 0.5, 0.45
        gain = 0.8 * np.exp(0.3j)
        geom = ArrayGeometry(n, spacing)
        rng = np.random.default_rng(42)
        xbar = rng.uniform(-1, 1, (n, trials)) + 1j * rng.uniform(-1, 1,
                                                                  (n, trials))
        res = sd_basic(xbar)
        q = res.quant_error
        q_prev = np.zeros_like(q)
        q_prev[1:] = q[:-1]
        h = gain * array_response(geom, angle)
        w = math.sqrt(power / (2 * n)) * (h @ (q - q_prev))
        sample = float(np.mean(np.abs(w) ** 2))
        predicted = analysis.noise_variance_single_exact(
            gain, angle, power, 0.0, spacing, n)
        assert abs(sample - predicted) / predicted < 0.05


class TestEffectiveSnr:
    def test_broadside(self):
        val = analysis.effective_snr_mrt(1.0, 0.0, 4.0, 1.0, 128, 0.5)
        assert val == pytest.approx(4.0 * 128 / 2.0)

    def test_power_saturation(self):
        theta, spacing, n = 0.9, 0.5, 256
        limit = analysis.effective_snr_mrt_limit(theta, n, spacing)
        big = analysis.effective_snr_mrt(1.0, theta, 1e9, 1.0, n, spacing)
        assert big == pytest.approx(limit, rel=1e-6)
        s = math.sin(math.pi * spacing * math.sin(theta))
        assert limit == pytest.approx(3 * n / (8 * s * s))

    def test_steered_loss_is_amplitude_squared(self):
        full = analysis.effective_snr_steered(1.0, 1.0, 10.0, 1.0, 128)
        worst = analysis.effective_snr_steered(1.0, 2 - math.sqrt(2), 10.0,
                                               1.0, 128)
        assert 10 * math.log10(full / worst) == pytest.approx(4.64, abs=0.01)

    def test_zf_snr(self):
        assert analysis.effective_snr_zf(8.0, 128, 3.0) == pytest.approx(
            8.0 * 9.0 / 256.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ZeroDivisionError):
            analysis.effective_snr_mrt(1.0, 0.0, 1.0, 0.0, 8, 0.5)
        with pytest.raises(ZeroDivisionError):
            analysis.effective_snr_steered(1.0, 1.0, 1.0, 0.0, 8)


class TestSepBound:
    def test_zero_snr_clamps_to_one(self):
        c = make_constellation("psk", 8)
        assert analysis.sep_bound(0.0, c) == 1.0

    def test_known_psk_scale(self):
        c = make_constellation("psk", 8)
        beta, chi = analysis.sep_params(c)
        assert beta == 2.0
        assert chi == pytest.approx(math.sqrt(2) * math.sin(math.pi / 8))
        assert chi == pytest.approx(0.541196, abs=1e-6)

    def test_known_qam_scale(self):
        c = make_constellation("qam", 16)
        beta, chi = analysis.sep_params(c)
        assert (beta, chi) == (4.0, pytest.approx(1.0 / 3.0))

    def test_monotone_decreasing(self):
        c = make_constellation("qam", 16)
        snrs = np.linspace(0, 50, 200)
        vals = analysis.sep_bound(snrs, c)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_rejects_negative_snr(self):
        c = make_constellation("psk", 4)
        with pytest.raises(ValueError):
            analysis.sep_bound(-1.0, c)


class TestPskMargin:
    def test_aligned_returns_amplitude(self):
        s = np.exp(1j * 2 * np.pi * 3 / 8)
        assert analysis.psk_decision_margin(2.5 * s, s, 8) == pytest.approx(2.5)

    def test_boundary_is_zero(self):
        # Rotating the received point by the half-sector angle lands on the
        # decision boundary, where the margin vanishes.
        s = 1.0 + 0.0j
        z = np.exp(1j * math.pi / 8)
        assert analysis.psk_decision_margin(z, s, 8) == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_bpsk_uses_real_part_only(self):
        assert analysis.psk_decision_margin(0.3 + 9j, 1.0, 2) == pytest.approx(0.3)


class TestDigitalSinc:
    def test_limit_at_zero(self):
        assert analysis.digital_sinc(16, 0.0) == 1.0

    def test_known_zero(self):
        assert analysis.digital_sinc(4, math.pi / 4) == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_bounded_by_one_on_grid(self):
        grid = np.linspace(-math.pi, math.pi, 20001)
        vals = analysis.digital_sinc(32, grid)
        assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_limit_at_pi(self):
        # sin(N pi)/ (N sin(pi)) -> cos(N pi)/cos(pi)
        assert analysis.digital_sinc(5, math.pi) == pytest.approx(1.0)
        assert analysis.digital_sinc(4, math.pi) == pytest.approx(-1.0)


def _random_scene(rng, n, k, spacing=0.125, power=10.0, noise_var=1.0,
                  angle_range=(-30.0, 30.0), min_sep_deg=1.0):
    lo, hi = angle_range
    span = hi - lo - (k - 1) * min_sep_deg
    u = np.sort(rng.uniform(0.0, span, k))
    angles = np.deg2rad(lo + u + np.arange(k) * min_sep_deg)
    gains = (30.0 / rng.uniform(20, 100, k)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, k))
    chans = tuple(SinglePathChannel(gain=complex(g), angle=float(a))
                  for g, a in zip(gains, angles))
    return MultiUserScene(ArrayGeometry(n, spacing), chans, power, noise_var)


class TestZfSnrBound:
    def test_single_user_reduces_to_direct_ratio(self):
        scene = MultiUserScene(
            ArrayGeometry(64, 0.5),
            (SinglePathChannel(gain=0.8, angle=0.3),), 4.0, 1.0)
        res = analysis.zf_snr_lower_bound(scene)
        sigma2 = analysis.noise_variance_single(0.8, 0.3, 4.0, 1.0, 0.5)
        assert res.lam_min == pytest.approx(1.0, abs=1e-9)
        assert res.rho == 0.0
        assert res.bound == pytest.approx(4.0 * 64 * 0.64 / (2 * sigma2),
                                          rel=1e-9)

    def test_orthogonal_angles_give_unit_lam_min(self):
        # Spacing the phase steps on the DFT grid makes the steering vectors
        # exactly orthogonal.
        n, spacing = 32, 0.5
        sines = np.array([-0.5, 0.0, 0.5])  # steps separated by 2 pi k / N
        angles = np.arcsin(sines)
        chans = tuple(SinglePathChannel(gain=1.0, angle=float(a))
                      for a in angles)
        scene = MultiUserScene(ArrayGeometry(n, spacing), chans, 4.0, 1.0)
        res = analysis.zf_snr_lower_bound(scene)
        assert res.lam_min == pytest.approx(1.0, abs=1e-9)
        orth = analysis.zf_snr_orthogonal_bound(scene)
        assert orth >= res.bound

    def test_sandwich_on_random_scenes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            scene = _random_scene(rng, 64, 6)
            res = analysis.zf_snr_lower_bound(scene)
            assert res.lam_min <= 1.0 + 1e-9
            assert res.lam_min >= 1.0 - (scene.n_users - 1) * res.rho - 1e-9


class TestAngularSpectrum:
    def test_unquantized_beam_peaks_at_target(self):
        geom = ArrayGeometry(64, 0.125)
        theta = 0.4
        xbar = np.conj(array_response(geom, theta))
        power = analysis.mean_beam_power(xbar, geom, [theta])
        assert power[0] == pytest.approx(64.0 ** 2, rel=1e-12)
        db = analysis.angular_spectrum(xbar, geom, [theta])
        assert db[0] == pytest.approx(0.0, abs=1e-9)

    def test_iid_one_bit_spectrum_is_flat(self):
        rng = np.random.default_rng(2)
        n, trials = 64, 4000
        x = (np.where(rng.random((n, trials)) < 0.5, 1.0, -1.0)
             + 1j * np.where(rng.random((n, trials)) < 0.5, 1.0, -1.0))
        geom = ArrayGeometry(n, 0.5)
        grid = np.deg2rad(np.arange(-90, 91, 5.0))
        power = analysis.mean_beam_power(x, geom, grid)
        np.testing.assert_allclose(power, 2.0 * n, rtol=0.05)
