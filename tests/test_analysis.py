"""Closed forms: noise variances, effective SNRs, error bounds, spectra."""

import math

import numpy as np
import pytest

from sdprecode import analysis
from sdprecode.channel import (
    ArrayGeometry,
    MultiPathChannel,
    MultiUserScene,
    SinglePathChannel,
    make_constellation,
    realize_channel,
    steering_matrix,
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

    @pytest.mark.parametrize("n_paths,n", [(2, 1), (2, 2), (2, 64),
                                           (3, 127), (3, 256), (4, 512)])
    def test_matches_summed_first_differences_of_the_channel(self, n_paths,
                                                              n):
        # The definition: the N first differences h_n - h_{n+1} of the
        # combined channel, read off an (N+1)-antenna realization.
        rng = np.random.default_rng(100 * n_paths + n)
        power, spacing = 3.0, 0.375
        for _ in range(10):
            gains = rng.normal(size=n_paths) + 1j * rng.normal(size=n_paths)
            angles = rng.uniform(-1.5, 1.5, n_paths)
            h = realize_channel(MultiPathChannel(gains, angles),
                                ArrayGeometry(n + 1, spacing))
            expected = power / (3.0 * n) * np.sum(np.abs(np.diff(h)) ** 2)
            val = analysis.noise_variance_multipath(gains, angles, power, 0.0,
                                                    spacing, n)
            assert val == pytest.approx(expected, rel=1e-12)

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
        h = gain * steering_matrix(geom, angle)
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

    def test_mrt_is_coherent_gain_over_twice_the_noise(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gain = complex(rng.normal(), rng.normal()) if rng.random() < 0.5 \
                else float(rng.normal())
            angle, power = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 100.0)
            noise_var, n = rng.uniform(0.0, 2.0), int(rng.integers(1, 512))
            spacing = rng.uniform(0.05, 0.5)
            val = analysis.effective_snr_mrt(gain, angle, power, noise_var, n,
                                             spacing)
            assert type(val) is float
            sigma2 = analysis.noise_variance_single(gain, angle, power,
                                                    noise_var, spacing)
            assert val == pytest.approx(
                abs(gain) ** 2 * power * n / (2.0 * sigma2), rel=1e-15)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ZeroDivisionError):
            analysis.effective_snr_mrt(1.0, 0.0, 1.0, 0.0, 8, 0.5)
        with pytest.raises(ZeroDivisionError):
            analysis.effective_snr_steered(1.0, 1.0, 1.0, 0.0, 8)


class TestQfunc:
    """``qfunc`` against SciPy's ``erfc``, which only the tests import."""

    @staticmethod
    def _reference(t):
        from scipy.special import erfc
        return 0.5 * erfc(t / math.sqrt(2.0))

    def test_matches_scipy_on_the_bulk(self):
        t = np.linspace(0.0, 8.0, 20001)
        ref = self._reference(t)
        assert np.max(np.abs(analysis.qfunc(t) - ref) / ref) <= 1e-14

    def test_matches_scipy_deep_in_the_tail(self):
        t = np.linspace(0.0, 40.0, 40001)
        ref = self._reference(t)
        keep = ref >= 1e-300
        assert t[keep].max() > 37.0
        rel = np.abs(analysis.qfunc(t[keep]) - ref[keep]) / ref[keep]
        assert np.max(rel) <= 1e-13

    def test_known_values(self):
        assert analysis.qfunc(0.0) == 0.5
        assert analysis.qfunc(math.inf) == 0.0
        assert analysis.qfunc(-math.inf) == 1.0

    def test_return_types(self):
        scalar = analysis.qfunc(1.0)
        assert type(scalar) is np.float64
        assert type(analysis.qfunc(np.array(1.0))) is np.float64
        arr = analysis.qfunc([[0.0, 1.0, 2.0]])
        assert isinstance(arr, np.ndarray)
        assert (arr.dtype, arr.shape) == (np.float64, (1, 3))
        assert arr[0, 1] == scalar


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

    def test_rho_is_the_largest_digital_sinc(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            scene = _random_scene(rng, int(rng.integers(k, 300)), k,
                                  spacing=rng.uniform(0.1, 0.5))
            angles, _ = scene.single_path_arrays()
            geom = scene.geometry
            half_steps = (math.pi * geom.spacing_over_wavelength
                          * np.subtract.outer(np.sin(angles), np.sin(angles)))
            corr = np.abs(analysis.digital_sinc(geom.n_antennas, half_steps))
            np.fill_diagonal(corr, 0.0)
            res = analysis.zf_snr_lower_bound(scene)
            assert res.rho == pytest.approx(corr.max(), abs=1e-10)


class TestAngularSpectrum:
    def test_unquantized_beam_peaks_at_target(self):
        geom = ArrayGeometry(64, 0.125)
        theta = 0.4
        xbar = np.conj(steering_matrix(geom, theta))
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
