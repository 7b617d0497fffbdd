"""Precoders: amplitude bounds, receive gains, nulling, and margin designs."""

import math
import tracemalloc

import numpy as np
import pytest

from sdprecode import analysis, optim
from sdprecode.channel import (
    ArrayGeometry,
    MultiPathChannel,
    MultiUserScene,
    SinglePathChannel,
    canonicalize_gains,
    make_constellation,
    realize_channel,
    steering_gram,
    steering_matrix,
    steering_tables,
)
from sdprecode.channel import _ramp_split
from sdprecode.modulator import (
    no_overload_amplitude,
    no_overload_amplitudes_generalized,
    sd_angle_steered,
)
from sdprecode.optim import ApgParams, min_iq_inf_norm, spectral_norm_sq
from sdprecode.precoder import (
    design_inputs,
    iq_inf_norm,
    margin_rows,
    minimax_coefficients,
    mrt_angle_steered,
    mrt_generalized,
    mrt_single,
    nullspace_basis,
    nullspace_zf,
    nullspace_zf_arrays,
    slp_arrays,
    slp_psk,
    zf_arrays,
    zf_precode,
    zf_precode_qam_block,
)
from sdprecode.sim.config import SolverSpec

BOUND_TOL = 1e-9


def _random_scene(rng, n, k, spacing=0.125, power=10.0, noise_var=1.0):
    span = 60.0 - (k - 1) * 1.0
    u = np.sort(rng.uniform(0.0, span, k))
    angles = np.deg2rad(-30.0 + u + np.arange(k) * 1.0)
    gains = (30.0 / rng.uniform(20, 100, k)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, k))
    chans = tuple(SinglePathChannel(gain=complex(g), angle=float(a))
                  for g, a in zip(gains, angles))
    return MultiUserScene(ArrayGeometry(n, spacing), chans, power, noise_var)


def _scene_rows(scene):
    return np.stack([realize_channel(ch, scene.geometry)
                     for ch in scene.channels])


class TestMrtSingle:
    def test_broadside_unit_gain(self):
        g = ArrayGeometry(4, 0.5)
        out = mrt_single(SinglePathChannel(1.0, 0.0), g, 1.0)
        np.testing.assert_array_equal(out.xbar, np.ones(4))
        h = realize_channel(SinglePathChannel(1.0, 0.0), g)
        assert h @ out.xbar == pytest.approx(4.0)

    def test_coherent_gain_any_parameters(self):
        g = ArrayGeometry(8, 0.25)
        alpha = np.exp(1j * np.pi / 3)
        s = np.exp(1j * np.pi / 4)
        ch = SinglePathChannel(alpha, math.radians(30.0))
        out = mrt_single(ch, g, s)
        h = realize_channel(ch, g)
        np.testing.assert_allclose(h @ out.xbar, 8.0 * s, atol=1e-12)
        np.testing.assert_allclose(out.gains, [8.0])
        assert iq_inf_norm(out.xbar) <= 1.0 + BOUND_TOL

    def test_zero_gain_rejected(self):
        g = ArrayGeometry(4, 0.5)
        with pytest.raises(ValueError):
            mrt_single(SinglePathChannel(0.0, 0.0), g, 1.0)


class TestMrtAngleSteered:
    def test_broadside_matches_plain(self):
        g = ArrayGeometry(16, 0.5)
        ch = SinglePathChannel(1.0, 0.0)
        steered, phi = mrt_angle_steered(ch, g, 0.5 + 0.1j)
        plain = mrt_single(ch, g, 0.5 + 0.1j)
        assert phi == 0.0
        np.testing.assert_allclose(steered.xbar, plain.xbar)

    def test_endfire_full_amplitude(self):
        g = ArrayGeometry(16, 0.5)
        out, phi = mrt_angle_steered(SinglePathChannel(1.0, math.pi / 2), g, 1.0)
        assert phi == pytest.approx(math.pi)
        assert float(out.iq_bound) == pytest.approx(1.0)

    def test_paired_rotation_cancels_shaped_noise(self):
        # Running the returned rotation through the modulator leaves only the
        # last antenna's error in the received signal.
        g = ArrayGeometry(64, 0.5)
        rng = np.random.default_rng(0)
        alpha = np.exp(1j * rng.uniform(-np.pi, np.pi))
        ch = SinglePathChannel(alpha, 1.1)
        s = np.exp(1j * 2 * np.pi * 5 / 8)
        out, phi = mrt_angle_steered(ch, g, s)
        res = sd_angle_steered(out.xbar, phi)
        h = realize_channel(ch, g)
        z = np.exp(1j * phi)
        survivor = alpha * z ** (-(63)) * res.quant_error[-1]
        np.testing.assert_allclose(h @ (res.output - out.xbar), survivor,
                                   atol=1e-10)
        assert iq_inf_norm(out.xbar) <= no_overload_amplitude(phi) + BOUND_TOL


class TestMrtGeneralized:
    def test_all_ones_channel(self):
        out = mrt_generalized(np.ones(5, dtype=complex), 1.0)
        np.testing.assert_allclose(out.xbar, [2.0, 1.0, 1.0, 1.0, 1.0])
        assert out.gains[0] == pytest.approx(6.0)

    def test_real_positive_gains_scale_by_amplitude(self):
        h = np.array([0.5, 1.0, 2.0], dtype=complex)
        amps = no_overload_amplitudes_generalized(h)
        out = mrt_generalized(h, 0.5)
        np.testing.assert_allclose(out.xbar, amps * 0.5)

    def test_per_element_bounds_hold_for_any_symbol(self):
        rng = np.random.default_rng(1)
        c16 = make_constellation("qam", 16)
        for _ in range(50):
            h = canonicalize_gains(
                rng.normal(size=32) + 1j * rng.normal(size=32)).coefficients
            s = c16.points[rng.integers(0, 16)]
            out = mrt_generalized(h, s)
            amps = out.iq_bound
            rails = np.maximum(np.abs(out.xbar.real), np.abs(out.xbar.imag))
            assert np.all(rails <= amps + BOUND_TOL)
            assert out.gains[0] > 0

    def test_amplitude_override(self):
        h = np.array([1.0, 1.0, 1.0], dtype=complex)
        out = mrt_generalized(h, 1.0, amplitudes=np.ones(3))
        np.testing.assert_allclose(out.xbar, np.ones(3))

    def test_rejects_zero_gain(self):
        with pytest.raises(ValueError):
            mrt_generalized(np.array([0.0, 1.0]), 1.0)


class TestZfPrecode:
    def test_single_user_reduces_to_matched_direction(self):
        rng = np.random.default_rng(2)
        scene = _random_scene(rng, 32, 1)
        s = np.array([np.exp(1j * 0.7)])
        out = zf_precode(scene, s)
        h = _scene_rows(scene)[0]
        np.testing.assert_allclose(h @ out.xbar, out.gains[0] * s[0],
                                   atol=1e-10)
        assert iq_inf_norm(out.xbar) == pytest.approx(1.0, abs=1e-12)

    def test_interference_nulling_and_common_snr(self):
        rng = np.random.default_rng(3)
        const = make_constellation("psk", 8)
        for _ in range(20):
            scene = _random_scene(rng, 128, 8)
            s = const.points[rng.integers(0, 8, 8)]
            out = zf_precode(scene, s)
            h = _scene_rows(scene)
            resid = np.abs(h @ out.xbar - out.gains * s)
            assert resid.max() < 1e-9
            # Per-user effective SNRs agree to relative 1e-9.
            sigma = out.gains / out.metadata["gamma"]
            snrs = (scene.total_power / (2 * scene.geometry.n_antennas)
                    * (out.gains / sigma) ** 2 * out.metadata["gamma"] ** 2)
            assert (snrs.max() - snrs.min()) <= 1e-9 * snrs.max()

    def test_pseudo_inverse_matches_svd_oracle(self):
        rng = np.random.default_rng(4)
        scene = _random_scene(rng, 64, 6)
        const = make_constellation("psk", 8)
        s = const.points[rng.integers(0, 8, 6)]
        out = zf_precode(scene, s)
        angles, gains = scene.single_path_arrays()
        a = steering_matrix(scene.geometry, angles)
        sigma = np.sqrt(analysis.noise_variance_single(
            gains, angles, scene.total_power, scene.noise_variance,
            scene.geometry.spacing_over_wavelength))
        rhs = sigma * np.conj(gains) / np.abs(gains) ** 2 * s
        oracle = np.linalg.pinv(a) @ rhs
        oracle /= iq_inf_norm(oracle)
        np.testing.assert_allclose(out.xbar, oracle, atol=1e-8)

    @pytest.mark.parametrize("design, symbols", [
        (zf_precode, np.ones(2)),
        (zf_precode_qam_block, np.ones((2, 3))),
        (nullspace_zf, np.ones((2, 3))),
    ], ids=["zf_precode", "zf_precode_qam_block", "nullspace_zf"])
    def test_coincident_angles_rejected(self, design, symbols):
        g = ArrayGeometry(16, 0.5)
        chans = (SinglePathChannel(1.0, 0.3), SinglePathChannel(1.0j, 0.3))
        scene = MultiUserScene(g, chans, 4.0, 1.0)
        with pytest.raises(ValueError):
            design(scene, symbols)

    def test_all_zero_symbols_rejected(self):
        rng = np.random.default_rng(5)
        scene = _random_scene(rng, 16, 2)
        with pytest.raises(ValueError):
            zf_precode(scene, np.zeros(2, dtype=complex))

    def test_design_inputs_need_positive_noise_variance(self):
        # Broadside with no thermal noise: no quantization term either.
        with pytest.raises(ValueError, match="noise variance must be positive"):
            design_inputs(ArrayGeometry(16, 0.5), np.array([0.0, 0.3]),
                          np.ones(2, dtype=complex), 4.0, 0.0)


def _zf_batch(n, k, t_len, b, seed=12):
    """Tables, gains, noise levels and 8-PSK symbols of ``b`` scenes with
    users spread over +-60 degrees."""
    rng = np.random.default_rng(seed)
    angles = (np.deg2rad(np.linspace(-60.0, 60.0, k))
              + rng.uniform(-0.01, 0.01, (b, k)))
    gains = (30.0 / rng.uniform(20, 100, (b, k))) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, (b, k)))
    noise_std = rng.uniform(0.5, 2.0, (b, k))
    symbols = make_constellation("psk", 8).points[
        rng.integers(0, 8, (b, k, t_len))]
    return (angles, steering_tables(ArrayGeometry(n, 0.125), angles), gains,
            noise_std, symbols)


class TestZfMemory:
    def test_step_never_holds_the_steering_stack(self):
        # One engine chunk of the shipped zf_multiuser config: 128 scenes,
        # 24 users, 512 antennas, one symbol each.  The Gram and, at T = 1,
        # the back-projection come from the tables with no steering row
        # rebuilt, so the step peaks at a sixth of the 24 MiB stack.
        b, k, n = 128, 24, 512
        _, tables, gains, _, symbols = _zf_batch(n, k, 1, b)
        tracemalloc.start()
        try:
            out = zf_arrays(tables, gains, np.ones((b, k)), symbols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.xbar.shape == (n, b, 1)
        assert peak <= b * k * n * 16 / 6


class TestZfFromTables:
    """The designs from the tables match the stacked-row design, which
    back-projects against the whole ``(B, K, N)`` steering stack in one
    product: bit for bit for T > 1, where the rows are rebuilt from the
    tables, and to roundoff at T = 1, where the back-projection factors over
    the tables and adds each antenna's K user terms in another grouping."""

    @staticmethod
    def _stacked(steering, gains, noise_std, symbols, params=None):
        n = steering.shape[-1]
        fine_len = _ramp_split(n)
        gram = steering_gram((steering[..., :fine_len],
                              steering[..., ::fine_len]))
        weights = noise_std * np.conj(gains) / np.abs(gains) ** 2
        y = np.linalg.solve(gram, weights[..., None] * symbols)
        back = np.conj(y).swapaxes(-1, -2) @ steering
        v = np.conj(back).swapaxes(-1, -2) / n
        if params is None:
            peak = iq_inf_norm(v, axis=(-2, -1))
        else:
            v = v.copy()
            peak = np.empty(v.shape[:-2])
            for i in np.ndindex(peak.shape):
                x, solve = min_iq_inf_norm(v[i].T, steering[i], params=params)
                v[i] = x.T
                peak[i] = np.max(solve.value)
        gamma = 1.0 / peak
        return (np.moveaxis(gamma[..., None, None] * v, -2, 0),
                gamma[..., None] * noise_std)

    @staticmethod
    def _bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    # The shipped zf_multiuser chunk, a zf_qam_block trial, a chunk of odd
    # width, and a prime N (L = 1).
    SHAPES = [(512, 24, 1, 128), (256, 16, 100, 1), (512, 24, 1, 37),
              (97, 5, 3, 8)]

    @pytest.mark.parametrize("n,k,t_len,b", SHAPES)
    @pytest.mark.parametrize("design", ["zf", "nullspace_zf"])
    def test_bits_match_the_stacked_rows(self, n, k, t_len, b, design):
        angles, tables, gains, noise_std, symbols = _zf_batch(n, k, t_len, b)
        steering = steering_matrix(ArrayGeometry(n, 0.125), angles)
        if design == "zf":
            out = zf_arrays(tables, gains, noise_std, symbols)
            params = None
        else:
            # A 12-iteration cap keeps 128 scenes cheap.
            params = SolverSpec(nullspace_max_iters=12).apg_params(
                "nullspace")
            out = nullspace_zf_arrays(tables, gains, noise_std, symbols,
                                      params=params)
        xbar, out_gains = self._stacked(steering, gains, noise_std, symbols,
                                        params)
        assert out.xbar.shape == (n, b, t_len)
        if t_len == 1:
            bound = k * np.finfo(float).eps
            assert (np.abs(out.xbar - xbar).max()
                    <= bound * np.abs(xbar).max())
            assert (np.abs(out.gains - out_gains).max()
                    <= bound * np.abs(out_gains).max())
        else:
            assert np.array_equal(self._bits(out.xbar), self._bits(xbar))
            assert np.array_equal(self._bits(out.gains),
                                  self._bits(out_gains))


class TestZfBlock:
    def test_length_one_block_matches_plain(self):
        rng = np.random.default_rng(6)
        scene = _random_scene(rng, 32, 4)
        const = make_constellation("qam", 16)
        s = const.points[rng.integers(0, 16, (4, 1))]
        block = zf_precode_qam_block(scene, s)
        plain = zf_precode(scene, s[:, 0])
        assert block.xbar.shape[1] == 1
        np.testing.assert_allclose(block.xbar[:, 0], plain.xbar, atol=1e-12)

    def test_common_scale_and_peak_attained(self):
        rng = np.random.default_rng(7)
        scene = _random_scene(rng, 64, 8)
        const = make_constellation("qam", 16)
        s = const.points[rng.integers(0, 16, (8, 20))]
        block = zf_precode_qam_block(scene, s)
        peaks = iq_inf_norm(block.xbar, axis=0)
        assert peaks.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(peaks <= 1.0 + BOUND_TOL)
        gains = np.atleast_2d(block.gains)
        assert np.ptp(gains, axis=0).max() < 1e-12

    def test_equal_symbols_all_saturate(self):
        rng = np.random.default_rng(8)
        scene = _random_scene(rng, 32, 4)
        const = make_constellation("qam", 4)
        s = np.tile(const.points[rng.integers(0, 4, (4, 1))], (1, 5))
        block = zf_precode_qam_block(scene, s)
        for xbar in block.xbar.T:
            assert iq_inf_norm(xbar) == pytest.approx(1.0, abs=1e-12)


class TestNullspaceZf:
    def test_receive_equations_unchanged(self):
        rng = np.random.default_rng(9)
        scene = _random_scene(rng, 48, 6)
        const = make_constellation("qam", 16)
        s = const.points[rng.integers(0, 16, (6, 8))]
        block = nullspace_zf(scene, s)
        h = _scene_rows(scene)
        for t, xbar in enumerate(block.xbar.T):
            np.testing.assert_allclose(h @ xbar, block.gains * s[:, t],
                                       atol=1e-9)

    def test_scale_never_below_plain_zf(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            scene = _random_scene(rng, 48, 6)
            const = make_constellation("qam", 16)
            s = const.points[rng.integers(0, 16, (6, 10))]
            plain = zf_precode_qam_block(scene, s)
            assisted = nullspace_zf(scene, s)
            assert assisted.metadata["gamma"] >= \
                plain.metadata["gamma"] - 1e-12

    def test_full_rank_square_has_empty_nullspace(self):
        rng = np.random.default_rng(11)
        scene = _random_scene(rng, 6, 6)
        const = make_constellation("qam", 4)
        s = const.points[rng.integers(0, 4, (6, 3))]
        assisted = nullspace_zf(scene, s)
        plain = zf_precode_qam_block(scene, s)
        for a, p in zip(assisted.xbar.T, plain.xbar.T):
            np.testing.assert_allclose(a, p, atol=1e-12)

    def test_basis_is_orthonormal_nullspace(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
        b = nullspace_basis(a)
        assert b.shape == (12, 8)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(a @ b, 0.0, atol=1e-12)


class TestSlp:
    def test_single_broadside_user_saturates_real_rails(self):
        g = ArrayGeometry(8, 0.5)
        scene = MultiUserScene(g, (SinglePathChannel(1.0, 0.0),), 4.0, 1.0)
        out = slp_psk(scene, np.array([1.0 + 0j]), 4,
                      params=ApgParams(tol=1e-9, max_iters=5000))
        np.testing.assert_allclose(out.xbar.real, 1.0, atol=1e-3)

    def test_margin_never_below_zf(self):
        rng = np.random.default_rng(13)
        const = make_constellation("psk", 8)
        for _ in range(5):
            scene = _random_scene(rng, 64, 6)
            s = const.points[rng.integers(0, 8, 6)]
            zf = zf_precode(scene, s)
            slp = slp_psk(scene, s, 8)
            h = _scene_rows(scene)
            sigma = zf.gains / zf.metadata["gamma"]
            zf_margin = (analysis.psk_decision_margin(h @ zf.xbar, s, 8)
                         / sigma).min()
            slp_margin = float(np.min(slp.metadata["margins"]))
            assert slp_margin >= zf_margin - 1e-6

    def test_primal_and_dual_agree(self):
        rng = np.random.default_rng(14)
        const = make_constellation("psk", 8)
        scene = _random_scene(rng, 32, 4)
        s = const.points[rng.integers(0, 8, 4)]
        dual = slp_psk(scene, s, 8,
                       params=ApgParams(regularization=1e-4, tol=1e-11,
                                        max_iters=20000))
        angles, gains = scene.single_path_arrays()
        sigma = np.sqrt(analysis.noise_variance_single(
            gains, angles, scene.total_power, scene.noise_variance,
            scene.geometry.spacing_over_wavelength))
        primal = optim.primal_apg(
            margin_rows(_scene_rows(scene), s, sigma, 8),
            ApgParams(smoothing=1e-3, tol=1e-10, max_iters=20000))
        f_p = primal.value
        f_d = dual.metadata["objective"]
        # Single-stage smoothing leaves the primal a little short of the
        # dual; the tight cross-check (annealed smoothing) lives in the
        # solver and acceptance suites.
        assert abs(f_p - f_d) <= 2e-2 * (1.0 + abs(f_d))
        assert np.abs(primal.x).max() <= 1.0 + BOUND_TOL
        assert iq_inf_norm(dual.xbar) <= 1.0 + BOUND_TOL

    def test_coefficient_builder_encodes_margins(self):
        rng = np.random.default_rng(15)
        scene = _random_scene(rng, 16, 3)
        const = make_constellation("psk", 8)
        s = const.points[rng.integers(0, 8, 3)]
        h = _scene_rows(scene)
        angles, gains = scene.single_path_arrays()
        sigma = np.sqrt(analysis.noise_variance_single(
            gains, angles, scene.total_power, scene.noise_variance,
            scene.geometry.spacing_over_wavelength))
        coeffs = minimax_coefficients(h, s, sigma, 8)
        assert coeffs.shape == (32, 6)
        xbar = rng.normal(size=16) + 1j * rng.normal(size=16)
        x = np.concatenate([xbar.real, xbar.imag])
        margins = analysis.psk_decision_margin(h @ xbar, s, 8) / sigma
        np.testing.assert_allclose(
            np.max(coeffs.T @ x), -margins.min(), atol=1e-10)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_complex_rows_apply_the_dense_columns(self, order):
        rng = np.random.default_rng(17 + order)
        batch, k, n = (3, 2), 5, 11
        h = rng.normal(size=batch + (k, n)) + 1j * rng.normal(
            size=batch + (k, n))
        s = make_constellation("psk", order).points[
            rng.integers(0, order, batch + (k,))]
        sigma = rng.uniform(0.5, 2.0, batch + (k,))
        coeffs = minimax_coefficients(h, s, sigma, order)
        op = margin_rows(h, s, sigma, order)
        assert op.shape == coeffs.shape[-2:]
        assert op.batch_shape == batch
        x = rng.normal(size=batch + (2 * n,))
        w = rng.normal(size=batch + (2 * k,))
        image = op.rmatvec(x)
        adjoint = op.matvec(w)
        np.testing.assert_allclose(
            image, np.einsum("...nm,...n->...m", coeffs, x), rtol=1e-12,
            atol=1e-12 * np.abs(image).max())
        np.testing.assert_allclose(
            adjoint, np.einsum("...nm,...m->...n", coeffs, w), rtol=1e-12,
            atol=1e-12 * np.abs(adjoint).max())
        np.testing.assert_allclose((image * w).sum(axis=-1),
                                   (x * adjoint).sum(axis=-1), rtol=1e-12)
        np.testing.assert_allclose(op.norm_sq(), spectral_norm_sq(coeffs),
                                   rtol=1e-12)


class TestSlpFromTables:
    """The margin design from the tables gives the bits of the dual solver
    run on the margin rows of the stacked channel ``gains * steering``."""

    @staticmethod
    def _bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    # An slp_multiuser chunk's width per symbol time, and a prime N over a
    # three-symbol block; the ids name the solver the design runs.
    @pytest.mark.parametrize("b,k,n,t_len", [
        pytest.param(8, 24, 512, 1, id="dual-8-24-512-1"),
        pytest.param(3, 5, 97, 3, id="dual-3-5-97-3"),
    ])
    def test_bits_match_the_row_solve(self, b, k, n, t_len):
        angles, tables, gains, noise_std, symbols = _zf_batch(n, k, t_len, b)
        params = SolverSpec(dual_max_iters=40).apg_params("dual")
        out = slp_arrays(tables, gains, noise_std, symbols, 8, params)

        h = gains[..., None] * steering_matrix(ArrayGeometry(n, 0.125), angles)
        s = symbols.swapaxes(-1, -2)
        problem = margin_rows(h[:, None], s, noise_std[:, None], 8)
        res = optim.dual_apg(problem, params)
        objective = optim.minimax_value(problem, res.x)
        xbar = np.moveaxis(optim.unstack_complex(res.x), -1, 0)
        assert out.xbar.shape == (n, b, t_len)
        assert np.array_equal(self._bits(out.xbar), self._bits(xbar))
        assert np.array_equal(self._bits(out.metadata["objective"]),
                              self._bits(objective))
        for key in ("iterations", "restarts"):
            assert np.array_equal(out.metadata[key], getattr(res, key)), key

        received = (h @ np.moveaxis(xbar, 0, -2)).swapaxes(-1, -2)
        margins = analysis.psk_decision_margin(received, s, 8) \
            / noise_std[:, None]
        rx_gains = (np.conj(s) * received).real
        for got, want in ((out.metadata["margins"], margins),
                          (out.gains, rx_gains)):
            assert got.shape == (b, t_len, k)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_every_multiuser_design_takes_the_same_inputs(self):
        b, k, n, t_len = 3, 5, 97, 3
        _, tables, gains, noise_std, symbols = _zf_batch(n, k, t_len, b)
        spec = SolverSpec(dual_max_iters=5, nullspace_max_iters=5)
        designs = [
            zf_arrays(tables, gains, noise_std, symbols),
            nullspace_zf_arrays(tables, gains, noise_std, symbols,
                                params=spec.apg_params("nullspace")),
            slp_arrays(tables, gains, noise_std, symbols, 8,
                       spec.apg_params("dual")),
        ]
        for out in designs:
            assert out.xbar.shape == (n, b, t_len)


@pytest.mark.parametrize("adapter", [
    lambda scene, s: zf_precode(scene, s),
    lambda scene, s: zf_precode_qam_block(scene, s[:, None]),
    lambda scene, s: nullspace_zf(scene, s[:, None]),
    lambda scene, s: slp_psk(scene, s, 8),
], ids=["zf_precode", "zf_precode_qam_block", "nullspace_zf", "slp_psk"])
def test_scene_adapters_need_single_path_users(adapter):
    chans = (SinglePathChannel(1.0, 0.2),
             MultiPathChannel(gains=[0.7, 0.2j], angles=[0.4, -0.3]))
    scene = MultiUserScene(ArrayGeometry(16, 0.125), chans, 10.0, 1.0)
    with pytest.raises(TypeError, match="single-path"):
        adapter(scene, np.ones(2, dtype=complex))
