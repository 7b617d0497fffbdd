"""Array geometry, channel realization, constellations, and decisions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdprecode.channel import (
    ArbitraryChannel,
    ArrayGeometry,
    MultiPathChannel,
    MultiUserScene,
    SinglePathChannel,
    bit_errors,
    canonicalize_gains,
    decide,
    make_constellation,
    realize_channel,
    steering_gram,
    steering_matrix,
    steering_product,
    steering_rows,
    steering_tables,
)
from sdprecode.channel import _ramp_split
from sdprecode.modulator import feedback_ratios


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        g = ArrayGeometry(4, 0.5)
        np.testing.assert_array_equal(steering_matrix(g, 0.0), np.ones(4))

    def test_endfire_half_wavelength_alternates(self):
        g = ArrayGeometry(2, 0.5)
        a = steering_matrix(g, math.pi / 2)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_eighth_wavelength_phase_step(self):
        # d/lambda = 1/8, angle pi/6: per-element phase step is -pi/8.
        g = ArrayGeometry(3, 0.125)
        a = steering_matrix(g, math.pi / 6)
        expected = np.exp(-1j * np.pi / 8 * np.arange(3))
        np.testing.assert_allclose(a, expected, atol=1e-12)
        np.testing.assert_allclose(a[2], np.exp(-1j * np.pi / 4), atol=1e-12)

    def test_unit_modulus_everywhere(self):
        g = ArrayGeometry(33, 0.37)
        for ang in (-1.2, -0.3, 0.9, 1.5):
            np.testing.assert_allclose(np.abs(steering_matrix(g, ang)), 1.0,
                                       atol=1e-12)

    def test_first_element_exactly_one(self):
        g = ArrayGeometry(8, 0.25)
        assert steering_matrix(g, 0.7)[0] == 1.0 + 0.0j

    def test_angle_out_of_range_rejected(self):
        g = ArrayGeometry(4, 0.5)
        with pytest.raises(ValueError):
            steering_matrix(g, 2.0)

    def test_steering_matrix_rows_match(self):
        g = ArrayGeometry(5, 0.3)
        angles = [-0.5, 0.0, 1.1]
        m = steering_matrix(g, angles)
        for i, ang in enumerate(angles):
            np.testing.assert_allclose(m[i], steering_matrix(g, ang))


class TestTwoFactorSteering:
    """Rows built as ``z^(mL) * z^r`` from a fine and a coarse table."""

    SIZES = [1, 2, 7, 16, 30, 512]
    SPACINGS = [0.125, 0.5]

    @staticmethod
    def _angles(seed=0):
        # Both endfires and broadside, then random angles: (3, 8) users.
        rng = np.random.default_rng(seed)
        angles = np.concatenate([[-math.pi / 2, 0.0, math.pi / 2],
                                 rng.uniform(-math.pi / 2, math.pi / 2, 21)])
        return angles.reshape(3, 8)

    @classmethod
    def _phase_and_rows(cls, n, d, seed=0):
        angles = cls._angles(seed)
        phase = 2.0 * np.pi * d * np.sin(angles)
        return phase, steering_matrix(ArrayGeometry(n, d), angles)

    @staticmethod
    def _bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    @pytest.mark.parametrize("n,split", [(1, 1), (2, 1), (7, 1), (16, 4),
                                         (30, 5), (512, 16), (1000, 25)])
    def test_split_is_largest_divisor_up_to_root(self, n, split):
        assert _ramp_split(n) == split

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", SPACINGS)
    def test_factor_gram_matches_full_product(self, n, d):
        _, rows = self._phase_and_rows(n, d)
        full = rows @ np.conj(rows).swapaxes(-1, -2) / n
        gram = steering_gram(steering_tables(ArrayGeometry(n, d),
                                             self._angles()))
        assert gram.shape == (3, 8, 8)
        assert np.abs(gram - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", SPACINGS)
    def test_matches_direct_exponential(self, n, d):
        phase, rows = self._phase_and_rows(n, d)
        direct = np.exp(-1j * np.multiply.outer(phase, np.arange(n)))
        # Either build rounds its argument near |phase| N, so the two agree
        # to about one ulp there: 5.7e-14 at N = 512, d = 1/8 and 2.3e-13 at
        # endfire with d = 1/2, where exp(-i phase n) is itself 1.1e-13 off.
        tol = 2.0 * np.spacing(np.abs(phase).max() * n) + 1e-15
        assert np.abs(rows - direct).max() <= max(tol, 1e-13)

    @pytest.mark.parametrize("n", SIZES)
    def test_first_element_exactly_one(self, n):
        _, rows = self._phase_and_rows(n, 0.5)
        assert np.all(rows[..., 0] == 1.0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", SPACINGS)
    def test_tables_are_the_rows_own_columns(self, n, d):
        phase, rows = self._phase_and_rows(n, d)
        split = _ramp_split(n)
        fine = np.exp(-1j * np.multiply.outer(phase, np.arange(split)))
        coarse = np.exp(-1j * np.multiply.outer(
            phase, split * np.arange(n // split)))
        assert np.array_equal(self._bits(rows[..., :split]), self._bits(fine))
        assert np.array_equal(self._bits(rows[..., ::split]),
                              self._bits(coarse))
        tables = steering_tables(ArrayGeometry(n, d), self._angles())
        assert np.array_equal(self._bits(tables[0]), self._bits(fine))
        assert np.array_equal(self._bits(tables[1]), self._bits(coarse))
        assert np.array_equal(self._bits(steering_rows(tables)),
                              self._bits(rows))

    @pytest.mark.parametrize("n", SIZES + [97])
    @pytest.mark.parametrize("t_len", [1, 5])
    def test_product_matches_the_rows(self, n, t_len):
        # One-bit antenna vectors, antenna axis first as the modulators emit
        # them, read through the same (B, N, T) view the engine passes.
        rng = np.random.default_rng(n)
        tables = steering_tables(ArrayGeometry(n, 0.125), self._angles())
        x = rng.choice([-1.0, 1.0], (n, 3, t_len)) \
            + 1j * rng.choice([-1.0, 1.0], (n, 3, t_len))
        x = np.moveaxis(x, 0, -2)
        direct = steering_matrix(ArrayGeometry(n, 0.125), self._angles()) @ x
        got = steering_product(tables, x)
        assert got.shape == (3, 8, t_len)
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


class TestGeometryValidation:
    @pytest.mark.parametrize("n,d", [(0, 0.5), (4, 0.0), (4, 0.6), (4, -0.1)])
    def test_bad_geometry_rejected(self, n, d):
        with pytest.raises(ValueError):
            ArrayGeometry(n, d)


class TestRealizeChannel:
    def test_single_path_broadside(self):
        g = ArrayGeometry(4, 0.5)
        h = realize_channel(SinglePathChannel(gain=1.0, angle=0.0), g)
        np.testing.assert_array_equal(h, np.ones(4))

    def test_multipath_cancellation(self):
        g = ArrayGeometry(6, 0.5)
        ch = MultiPathChannel(gains=[1.0, -1.0], angles=[0.4, 0.4])
        np.testing.assert_allclose(realize_channel(ch, g), 0.0, atol=1e-15)

    def test_multipath_two_paths_value(self):
        g = ArrayGeometry(2, 0.5)
        ch = MultiPathChannel(gains=[1.0, 0.5], angles=[0.0, math.pi / 6])
        h = realize_channel(ch, g)
        np.testing.assert_allclose(h[0], 1.5, atol=1e-12)
        np.testing.assert_allclose(h[1], 1.0 + 0.5 * np.exp(-1j * np.pi / 2),
                                   atol=1e-12)

    def test_arbitrary_passthrough_and_length_check(self):
        g = ArrayGeometry(3, 0.5)
        coeffs = np.array([1.0, 2.0j, -1.0 + 1.0j])
        np.testing.assert_array_equal(
            realize_channel(ArbitraryChannel(coeffs), g), coeffs)
        with pytest.raises(ValueError):
            realize_channel(ArbitraryChannel(coeffs), ArrayGeometry(4, 0.5))

    def test_arbitrary_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            ArbitraryChannel(np.array([1.0, 0.0, 2.0]))


class TestCanonicalize:
    def test_sorting_and_permutation_round_trip(self):
        h = np.array([3.0, 1.0 + 1.0j, -0.5j, 2.0])
        can = canonicalize_gains(h)
        mags = np.abs(can.coefficients)
        assert np.all(mags[:-1] <= mags[1:])
        np.testing.assert_array_equal(h[can.permutation], can.coefficients)
        vec = np.arange(4) + 1.0
        np.testing.assert_array_equal(
            can.to_physical_order(can.to_canonical_order(vec)), vec)
        # One channel reorders every column of an (N, T) block alike.
        block = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(can.to_canonical_order(block),
                                      block[can.permutation])
        np.testing.assert_array_equal(
            can.to_physical_order(can.to_canonical_order(block)), block)
        assert not can.coefficients.flags.writeable

    def test_batch_sorts_each_column(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
        can = canonicalize_gains(h)
        for j in range(h.shape[1]):
            column = canonicalize_gains(h[:, j])
            np.testing.assert_array_equal(can.coefficients[:, j],
                                          column.coefficients)
            np.testing.assert_array_equal(can.permutation[:, j],
                                          column.permutation)
        np.testing.assert_array_equal(can.to_canonical_order(h),
                                      can.coefficients)
        vec = rng.normal(size=h.shape)
        np.testing.assert_array_equal(
            can.to_physical_order(can.to_canonical_order(vec)), vec)
        assert can.ratios.tobytes() == feedback_ratios(
            can.coefficients).tobytes()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            canonicalize_gains(np.array([1.0, 0.0]))

    def test_ties_and_nans_sort_stably(self):
        # Exact magnitude ties (unit phases keep |h| exact) and NaNs, mixed
        # with tie-free columns: the permutation is the stable sort's.
        rng = np.random.default_rng(4)
        n, b = 300, 12
        h = rng.integers(1, 4, size=(n, b)) \
            * rng.choice([1.0, -1.0, 1j, -1j], size=(n, b))
        h[:, ::3] = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        h[[5, 17, 250], 0] = np.nan
        h[[7, 90], 3] = complex(np.nan, 1.0)
        can = canonicalize_gains(h)
        stable = np.argsort(np.abs(h), axis=0, kind="stable")
        np.testing.assert_array_equal(can.permutation, stable)
        np.testing.assert_array_equal(
            can.coefficients, np.take_along_axis(h, stable, 0))
        for j in (0, 1, 2):
            np.testing.assert_array_equal(
                canonicalize_gains(h[:, j]).permutation, stable[:, j])


class TestSceneValidation:
    def test_user_count_bounds(self):
        g = ArrayGeometry(2, 0.5)
        chans = [SinglePathChannel(1.0, 0.0)] * 3
        with pytest.raises(ValueError):
            MultiUserScene(g, chans, total_power=1.0, noise_variance=1.0)
        with pytest.raises(ValueError):
            MultiUserScene(g, [], total_power=1.0, noise_variance=1.0)

    def test_power_positive(self):
        g = ArrayGeometry(2, 0.5)
        with pytest.raises(ValueError):
            MultiUserScene(g, [SinglePathChannel(1.0, 0.0)],
                           total_power=0.0, noise_variance=1.0)

    @pytest.mark.parametrize("field", ["total_power", "noise_variance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_power_and_noise_finite(self, field, value):
        g = ArrayGeometry(2, 0.5)
        kw = {"total_power": 1.0, "noise_variance": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            MultiUserScene(g, [SinglePathChannel(1.0, 0.0)], **kw)

    # Each channel kind with one entry of its gain field set to a bad value.
    CHANNELS = {
        "gain": lambda bad: SinglePathChannel(bad, 0.1),
        "gains": lambda bad: MultiPathChannel([1.0, bad], [0.1, -0.2]),
        "coefficients": lambda bad: ArbitraryChannel([1.0, bad, 0.5j]),
    }

    @pytest.mark.parametrize("field", sorted(CHANNELS))
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                     complex(0.0, math.nan), math.inf,
                                     -math.inf, complex(1.0, -math.inf)])
    def test_channel_gains_finite(self, field, bad):
        with pytest.raises(ValueError, match=field):
            self.CHANNELS[field](bad)


class TestConstellations:
    def test_bpsk(self):
        c = make_constellation("psk", 2)
        np.testing.assert_allclose(c.points, [1.0, -1.0], atol=1e-15)

    def test_psk_peak_and_spacing(self):
        c = make_constellation("psk", 8)
        assert np.abs(np.abs(c.points) - 1.0).max() < 1e-15
        phases = np.angle(c.points)
        np.testing.assert_allclose(np.diff(phases[:5]), np.pi / 4, atol=1e-12)

    def test_qam4_corners(self):
        c = make_constellation("qam", 4)
        np.testing.assert_allclose(np.abs(c.points), 1.0, atol=1e-15)
        assert sorted(np.round(p, 6) for p in c.points) == sorted(
            np.round((re + 1j * im) / math.sqrt(2), 6)
            for re in (-1, 1) for im in (-1, 1))

    def test_qam16_moduli(self):
        c = make_constellation("qam", 16)
        mods = np.abs(c.points)
        assert abs(mods.max() - 1.0) < 1e-15
        np.testing.assert_allclose(mods.min(), 1.0 / 3.0, atol=1e-12)
        assert c.order == 16 and len(c.points) == 16

    @pytest.mark.parametrize("kind,order", [("psk", 1), ("qam", 8),
                                            ("qam", 32), ("qam", 2)])
    def test_bad_orders_rejected(self, kind, order):
        with pytest.raises(ValueError):
            make_constellation(kind, order)

    def test_qam_gray_labels_differ_by_one_bit_between_neighbors(self):
        c = make_constellation("qam", 16)
        pts = c.points
        labels = c.bit_labels
        step = 2.0 / (3.0 * math.sqrt(2.0))
        for i in range(16):
            for j in range(16):
                d = pts[i] - pts[j]
                if abs(abs(d) - step) < 1e-9:
                    assert bin(int(labels[i]) ^ int(labels[j])).count("1") == 1

    def test_psk_gray_labels(self):
        c = make_constellation("psk", 8)
        labels = c.bit_labels
        for k in range(8):
            assert bin(int(labels[k]) ^ int(labels[(k + 1) % 8])).count("1") == 1


class TestDecide:
    def test_noiseless_round_trip_all_points(self):
        for kind, order in (("psk", 8), ("qam", 16), ("psk", 5)):
            c = make_constellation(kind, order)
            for scale in (1.0, 0.01, 37.5):
                idx = decide(scale * c.points, c, scale)
                np.testing.assert_array_equal(idx, np.arange(order))

    def test_psk_boundary_inside(self):
        c = make_constellation("psk", 8)
        for k in range(8):
            y = np.exp(1j * (2 * np.pi * k / 8 + np.pi / 8 - 1e-6))
            assert decide(y, c) == k

    def test_psk_scale_invariance(self):
        c = make_constellation("psk", 8)
        rng = np.random.default_rng(0)
        y = rng.normal(size=50) + 1j * rng.normal(size=50)
        np.testing.assert_array_equal(decide(y, c, 0.3), decide(y, c, 42.0))

    def test_qam_nearest_within_half_step(self):
        c = make_constellation("qam", 16)
        step = 2.0 / (3.0 * math.sqrt(2.0))
        target = c.points[5]
        y = 2.0 * (target + 0.49 * step * (1 + 1j) / math.sqrt(2))
        # Brute-force oracle over all 16 points at the receiver scale.
        oracle = int(np.argmin(np.abs(y / 2.0 - c.points)))
        assert decide(y, c, 2.0) == oracle == 5

    def test_scale_must_be_positive(self):
        c = make_constellation("psk", 4)
        with pytest.raises(ValueError):
            decide(1.0 + 0j, c, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 15), st.floats(0.01, 100.0))
    def test_round_trip_property(self, idx, scale):
        c = make_constellation("qam", 16)
        assert decide(scale * c.points[idx], c, scale) == idx


class TestQamRails:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([4, 16, 64, 256]), st.floats(0.01, 100.0),
           st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=1, max_size=8))
    def test_matches_brute_force_argmin(self, order, scale, rails):
        # Per-rail slicing against the distance to every point, for points
        # inside and outside the grid.  A rail within 2e-9 of a decision
        # boundary moves 1e-6 off it, so each stays 1e-9 away after the
        # round trip through the scale.
        c = make_constellation("qam", order)
        m = math.isqrt(order)
        bounds = np.arange(2 - m, m - 1, 2) / math.hypot(m - 1, m - 1)
        u = np.array(rails, dtype=float)
        near = np.any(np.abs(u[..., None] - bounds) < 2e-9, axis=-1)
        u[near] += 1e-6
        y = scale * (u[:, 0] + 1j * u[:, 1])
        u = y / scale
        for rail in (u.real, u.imag):
            assert np.all(np.abs(rail[:, None] - bounds) >= 1e-9)
        oracle = np.argmin(np.abs(u[:, None] - c.points[None, :]), axis=1)
        np.testing.assert_array_equal(decide(y, c, scale), oracle)

    def test_midpoints_take_the_lower_index(self):
        c = make_constellation("qam", 16)
        # Between points 5 and 6 on the quadrature rail, and between 5 and 9
        # on the in-phase rail.
        for other in (6, 9):
            y = (c.points[5] + c.points[other]) / 2.0
            assert decide(y, c) == 5


class TestBitErrors:
    def test_zero_for_equal_indices(self):
        c = make_constellation("qam", 16)
        idx = np.arange(16)
        assert bit_errors(c, idx, idx).sum() == 0

    def test_counts_hamming_distance(self):
        c = make_constellation("psk", 4)
        # Gray labels for 4-PSK are 0, 1, 3, 2.
        assert bit_errors(c, 0, 2) == 2
        assert bit_errors(c, 0, 1) == 1

    def test_rejects_unlabeled(self):
        c = make_constellation("psk", 5)
        with pytest.raises(ValueError):
            bit_errors(c, 0, 1)
