"""One-bit sigma-delta modulators: recursions, identities, and safe ranges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdprecode import modulator
from sdprecode.channel import canonicalize_gains, make_constellation
from sdprecode.modulator import (
    DitherSpec,
    Workspace,
    feedback_ratios,
    no_overload_amplitude,
    no_overload_amplitudes_generalized,
    one_bit,
    sd_angle_steered,
    sd_basic,
    sd_dithered,
    sd_generalized,
)
from sdprecode.precoder import mrt_generalized


def _box_inputs(rng, n, count, bound=1.0):
    re = rng.uniform(-1.0, 1.0, (n, count))
    im = rng.uniform(-1.0, 1.0, (n, count))
    return bound * (re + 1j * im)


class TestBasic:
    def test_hand_simulated_real_rail(self):
        res = sd_basic(np.array([0.5, -0.5, 0.5], dtype=complex))
        np.testing.assert_array_equal(res.output.real, [1, -1, 1])
        np.testing.assert_allclose(res.integrator_trace.real, [0.5, -1.0, 0.5])
        np.testing.assert_allclose(res.quant_error.real, [0.5, 0.0, 0.5])
        assert not res.overloaded

    def test_zero_input_alternates_under_positive_zero_sign(self):
        res = sd_basic(np.zeros(6, dtype=complex))
        np.testing.assert_array_equal(res.output.real, [1, -1, 1, -1, 1, -1])
        np.testing.assert_array_equal(res.quant_error.real, [1, 0, 1, 0, 1, 0])

    def test_constant_overdrive_accumulates(self):
        eps = 0.05
        n = 50
        res = sd_basic(np.full(n, 1.0 + eps, dtype=complex))
        np.testing.assert_allclose(res.integrator_trace.real,
                                   1.0 + eps * np.arange(1, n + 1))
        np.testing.assert_allclose(res.quant_error.real,
                                   -eps * np.arange(1, n + 1))
        assert res.overloaded

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        xbar = _box_inputs(rng, 64, 200)
        res = sd_basic(xbar)
        q = res.quant_error
        q_prev = np.zeros_like(q)
        q_prev[1:] = q[:-1]
        np.testing.assert_allclose(res.output, xbar + q - q_prev, atol=1e-12)

    def test_no_overload_within_unit_box(self):
        rng = np.random.default_rng(4)
        res = sd_basic(_box_inputs(rng, 64, 500))
        assert np.abs(res.quant_error.real).max() <= 1.0 + 1e-12
        assert np.abs(res.quant_error.imag).max() <= 1.0 + 1e-12
        assert not np.any(res.overloaded)

    def test_batched_matches_per_vector(self):
        rng = np.random.default_rng(5)
        xbar = _box_inputs(rng, 16, 7)
        batch = sd_basic(xbar)
        for j in range(7):
            single = sd_basic(xbar[:, j])
            np.testing.assert_array_equal(batch.output[:, j], single.output)
            assert batch.overloaded[j] == single.overloaded


class TestDithered:
    def test_zero_level_matches_basic(self):
        rng = np.random.default_rng(6)
        xbar = _box_inputs(rng, 32, 5)
        a = sd_dithered(xbar, DitherSpec(level=0.0, seed=9))
        b = sd_basic(xbar)
        np.testing.assert_array_equal(a.output, b.output)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        xbar = _box_inputs(rng, 32, 3)
        a = sd_dithered(xbar, DitherSpec(level=0.8, seed=123))
        b = sd_dithered(xbar, DitherSpec(level=0.8, seed=123))
        np.testing.assert_array_equal(a.output, b.output)
        c = sd_dithered(xbar, DitherSpec(level=0.8, seed=124))
        assert np.any(a.output != c.output)

    def test_error_bound_grows_with_level(self):
        rng = np.random.default_rng(8)
        level = 0.6
        res = sd_dithered(_box_inputs(rng, 64, 10_000), DitherSpec(level, seed=1))
        q = res.quant_error
        assert np.abs(q.real).max() <= 1.0 + level + 1e-12
        assert np.abs(q.imag).max() <= 1.0 + level + 1e-12
        # Dither routinely pushes the error past the undithered unit range.
        assert np.abs(q.real).max() > 1.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            DitherSpec(level=-0.1)

    def test_overflowing_level_rejected(self):
        # Generator.uniform refuses a range 2 * level that overflows.
        with pytest.raises(ValueError):
            DitherSpec(level=1e308)
        with pytest.raises(ValueError):
            DitherSpec(level=math.nan)

    @pytest.mark.parametrize("level", [0.0, 1e-300, 0.05, 0.3, 1.0 / 3.0,
                                       0.7, 2.5])
    def test_dither_is_generator_uniform_bit_for_bit(self, monkeypatch,
                                                      level):
        # The workspace draw scales and shifts Generator.random the way
        # Generator.uniform does, so the dither keeps uniform's bits.
        seen = []
        run = modulator._run

        def spy(xbar, feedback, dither=None, **kwargs):
            seen.append(dither.copy())
            return run(xbar, feedback, dither=dither, **kwargs)

        monkeypatch.setattr(modulator, "_run", spy)
        work = Workspace()
        for shape in [(16,), (24, 5), (8, 3, 2)]:
            for seed in (0, 17, 2 ** 40 + 3):
                sd_dithered(np.zeros(shape, dtype=complex),
                            DitherSpec(level, seed=seed), work)
                u = np.random.default_rng(seed).uniform(
                    -level, level, size=shape[1:] + (shape[0], 2))
                expected = np.moveaxis(u.view(complex)[..., 0], -1, 0)
                assert seen[-1].tobytes() == expected.tobytes()


class TestAngleSteered:
    def test_zero_rotation_is_bitwise_basic(self):
        rng = np.random.default_rng(9)
        xbar = _box_inputs(rng, 48, 20)
        a = sd_angle_steered(xbar, 0.0)
        b = sd_basic(xbar)
        np.testing.assert_array_equal(a.output, b.output)
        np.testing.assert_array_equal(a.integrator_trace, b.integrator_trace)

    @pytest.mark.parametrize("phi", [-2.3, -0.7, 0.4, 1.9, math.pi])
    def test_reconstruction_identity_any_phi(self, phi):
        rng = np.random.default_rng(10)
        xbar = _box_inputs(rng, 64, 100, bound=1.3)  # overload allowed
        res = sd_angle_steered(xbar, phi)
        q = res.quant_error
        q_prev = np.zeros_like(q)
        q_prev[1:] = q[:-1]
        recon = xbar + q - np.exp(1j * phi) * q_prev
        np.testing.assert_allclose(res.output, recon, atol=1e-12)

    def test_safe_amplitude_keeps_error_in_unit_box(self):
        rng = np.random.default_rng(11)
        phi = math.pi / 4
        amp = no_overload_amplitude(phi)
        res = sd_angle_steered(_box_inputs(rng, 64, 300, bound=amp), phi)
        assert np.abs(res.quant_error.real).max() <= 1.0 + 1e-12
        assert np.abs(res.quant_error.imag).max() <= 1.0 + 1e-12
        assert not np.any(res.overloaded)

    def test_phi_range_check(self):
        with pytest.raises(ValueError):
            sd_angle_steered(np.zeros(4, dtype=complex), 4.0)


class TestSafeAmplitudes:
    def test_known_values(self):
        assert no_overload_amplitude(0.0) == pytest.approx(1.0)
        assert no_overload_amplitude(math.pi / 2) == pytest.approx(1.0)
        assert no_overload_amplitude(math.pi) == pytest.approx(1.0)
        assert no_overload_amplitude(math.pi / 4) == pytest.approx(2 - math.sqrt(2))

    def test_range(self):
        phis = np.linspace(-math.pi, math.pi, 1001)
        amps = no_overload_amplitude(phis)
        assert amps.min() >= 2 - math.sqrt(2) - 1e-12
        assert amps.max() <= 1.0 + 1e-12

    def test_bits_of_the_cosine_sine_form(self):
        # The steered precoder scales by this amplitude, so its bits are
        # the engine's: pin them to the rule's cos/sin reading.
        phis = np.linspace(-math.pi, math.pi, 20001)
        expected = 2.0 - np.abs(np.cos(phis)) - np.abs(np.sin(phis))
        assert no_overload_amplitude(phis).tobytes() == expected.tobytes()
        for phi in phis[::1000]:
            assert no_overload_amplitude(phi) == float(
                2.0 - abs(np.cos(phi)) - abs(np.sin(phi)))

    def test_generalized_profile(self):
        h = np.ones(5, dtype=complex)
        amps = no_overload_amplitudes_generalized(h)
        np.testing.assert_allclose(amps, [2.0, 1.0, 1.0, 1.0, 1.0])

        h2 = np.array([1.0, 2.0])          # ratio 0.5, zero phase
        np.testing.assert_allclose(
            no_overload_amplitudes_generalized(h2), [2.0, 1.5])

        h3 = np.array([1.0, np.exp(-1j * math.pi / 4)])  # unit ratio, pi/4
        np.testing.assert_allclose(
            no_overload_amplitudes_generalized(h3)[1], 2 - math.sqrt(2))

    def test_generalized_profile_range(self):
        rng = np.random.default_rng(12)
        h = canonicalize_gains(rng.normal(size=40)
                               + 1j * rng.normal(size=40)).coefficients
        amps = no_overload_amplitudes_generalized(h)
        assert amps[0] == 2.0
        assert np.all(amps[1:] >= 2 - math.sqrt(2) - 1e-12)
        assert np.all(amps[1:] < 2.0)


class TestGeneralized:
    def test_all_ones_channel_matches_basic(self):
        rng = np.random.default_rng(13)
        xbar = _box_inputs(rng, 32, 10)
        a = sd_generalized(xbar, np.ones(32, dtype=complex))
        b = sd_basic(xbar)
        np.testing.assert_array_equal(a.output, b.output)

    def test_weighted_sum_identity(self):
        rng = np.random.default_rng(14)
        n = 64
        h = canonicalize_gains(rng.normal(size=n)
                               + 1j * rng.normal(size=n)).coefficients
        xbar = _box_inputs(rng, n, 200, bound=1.5)
        res = sd_generalized(xbar, h)
        lhs = h @ res.output
        rhs = h @ xbar + h[-1] * res.quant_error[-1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_safe_profile_keeps_error_bounded(self):
        rng = np.random.default_rng(15)
        n = 64
        h = canonicalize_gains(rng.normal(size=n)
                               + 1j * rng.normal(size=n)).coefficients
        amps = no_overload_amplitudes_generalized(h)
        xbar = _box_inputs(rng, n, 300) * amps[:, None]
        res = sd_generalized(xbar, h)
        assert np.abs(res.quant_error.real).max() <= 1.0 + 1e-12
        assert np.abs(res.quant_error.imag).max() <= 1.0 + 1e-12
        assert not np.any(res.overloaded)

    @pytest.mark.parametrize("k", [3, 16])
    def test_gains_broadcast_from_the_antenna_axis(self, k):
        # Gains (N, T) against xbar (N, K, T): each run (k, t) uses column t,
        # also when K == N.
        rng = np.random.default_rng(16)
        n, t = 16, 5
        h = rng.normal(size=(n, t)) + 1j * rng.normal(size=(n, t))
        h = np.take_along_axis(h, np.argsort(np.abs(h), axis=0), axis=0)
        xbar = _box_inputs(rng, n, k * t).reshape(n, k, t)
        res = sd_generalized(xbar, h)
        for j in range(t):
            ref = sd_generalized(xbar[:, :, j], h[:, j])
            np.testing.assert_array_equal(res.output[:, :, j], ref.output)
            np.testing.assert_array_equal(res.integrator_trace[:, :, j],
                                          ref.integrator_trace)

    def test_rejects_zero_and_unsorted_gains(self):
        xbar = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError):
            sd_generalized(xbar, np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            sd_generalized(xbar, np.array([2.0, 1.0, 3.0]))

    def test_canonical_gains_give_the_bits_of_their_coefficients(self):
        # The engine hands its sorted (N, B) channel to the safe profile,
        # the precoder and the modulator as one CanonicalGains, whose
        # ratios are computed once.
        rng = np.random.default_rng(17)
        n, b = 32, 40
        can = canonicalize_gains(rng.normal(size=(n, b))
                                 + 1j * rng.normal(size=(n, b)))
        h = can.coefficients
        amps = no_overload_amplitudes_generalized(can)
        assert amps.tobytes() == no_overload_amplitudes_generalized(
            h).tobytes()
        assert can.ratios is feedback_ratios(can)
        symbols = make_constellation("qam", 16).points[
            rng.integers(0, 16, b)]
        out, ref = mrt_generalized(can, symbols), mrt_generalized(h, symbols)
        for name in ("xbar", "gains", "iq_bound"):
            assert (getattr(out, name).tobytes()
                    == getattr(ref, name).tobytes()), name
        xbar = _box_inputs(rng, n, b) * amps
        _assert_same_bits(sd_generalized(xbar, can), sd_generalized(xbar, h))

    @pytest.mark.parametrize("call", [
        lambda h: no_overload_amplitudes_generalized(h),
        lambda h: mrt_generalized(h, 1.0),
        lambda h: mrt_generalized(h, 1.0, amplitudes=1.0),
        lambda h: sd_generalized(np.zeros(2, dtype=complex), h),
    ], ids=["safe_profile", "mrt_safe", "mrt_override", "modulator"])
    def test_channel_matched_functions_reject_unsorted_gains(self, call):
        with pytest.raises(ValueError, match="nondecreasing magnitude"):
            call(np.array([3.0, 1.0]))


class TestOneBit:
    def test_quadrants_and_zero(self):
        vals = np.array([0.3 + 0.2j, -0.3 + 0.2j, -1 - 1j, 0.0 + 0.0j])
        np.testing.assert_array_equal(
            one_bit(vals), [1 + 1j, -1 + 1j, -1 - 1j, 1 + 1j])

    def test_idempotent_on_one_bit(self):
        rng = np.random.default_rng(16)
        x = one_bit(rng.normal(size=20) + 1j * rng.normal(size=20))
        np.testing.assert_array_equal(one_bit(x), x)

    def test_negative_zero_and_nan(self):
        vals = np.array([complex(-0.0, np.nan), complex(np.nan, -0.0)])
        np.testing.assert_array_equal(one_bit(vals), [1 - 1j, -1 + 1j])


def _loop(xbar):
    """The loop on every run of ``xbar``: ``(x, b, peak, overloaded)``."""
    xbar = np.asarray(xbar, dtype=complex)
    flat = xbar.reshape(xbar.shape[0], -1)
    x, b = modulator._recursion(flat, np.ones(flat.shape[0], complex), None,
                                Workspace())
    peak = np.maximum(np.abs(b.real), np.abs(b.imag)).max(axis=0)
    peak = peak.reshape(xbar.shape[1:])
    return x.reshape(xbar.shape), b.reshape(xbar.shape), peak, ~(peak <= 2.0)


def _assert_matches_loop(res, xbar):
    """Outputs and overload flags exact; traces within the derived bound."""
    x, b, peak, overloaded = _loop(xbar)
    np.testing.assert_array_equal(res.output, x)
    np.testing.assert_array_equal(res.overloaded, overloaded)
    tol = modulator._tolerance(np.shape(xbar)[0])
    np.testing.assert_allclose(res.integrator_trace, b, rtol=0, atol=tol)
    np.testing.assert_allclose(res.quant_error, x - b, rtol=0, atol=tol)
    np.testing.assert_allclose(res.peak_integrator, peak, rtol=0, atol=tol)


class TestClosedFormAgainstLoop:
    """Unit feedback runs in closed form; the loop is the reference."""

    @pytest.mark.parametrize("level", [0.1, 0.3, 1 / 3, 0.7, 0.25, -1.0,
                                       0.9, 0.05, 0.01])
    def test_constant_rails(self, level):
        xbar = np.outer(np.ones(256), [level * (1 + 1j), level * (1 - 0.5j)])
        _assert_matches_loop(sd_basic(xbar), xbar)
        _assert_matches_loop(sd_angle_steered(xbar, 0.0), xbar)

    def test_constant_rails_batched(self):
        levels = np.array([0.1, 0.3, 1 / 3, 0.7, 0.25, -1.0, 0.9, 0.05])
        xbar = np.broadcast_to(levels + 1j * levels[::-1], (256, 8))
        _assert_matches_loop(sd_basic(xbar), xbar)

    def test_full_scale_rails_and_overdrive(self):
        rng = np.random.default_rng(17)
        xbar = one_bit(_box_inputs(rng, 256, 40))
        _assert_matches_loop(sd_basic(xbar), xbar)
        over = np.full((256, 2), 1.0 + np.finfo(float).eps, dtype=complex)
        over[:, 1] = 1.001 - 1j
        _assert_matches_loop(sd_basic(over), over)
        drive = np.full(1500, 1.001 + 0.3j)
        res = sd_basic(drive)
        _assert_matches_loop(res, drive)
        assert res.overloaded

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (64,), (64, 5),
                                       (64, 2, 3, 4)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(18)
        xbar = 0.9 * (rng.uniform(-1, 1, shape)
                      + 1j * rng.uniform(-1, 1, shape))
        res = sd_basic(xbar)
        assert res.output.shape == shape
        _assert_matches_loop(res, xbar)

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(19)
        v = _box_inputs(rng, 3, 128 * 7).reshape(3, 128, 7)
        for xbar in (np.moveaxis(v, -2, 0), v[0, :, ::2], v[1, ::-1]):
            _assert_matches_loop(sd_basic(xbar), xbar)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_overloads(self, bad):
        res = sd_basic(np.array([0.5, bad, 0.3]))
        assert res.overloaded
        _assert_matches_loop(res, np.array([0.5, bad, 0.3]))
        xbar = _box_inputs(np.random.default_rng(21), 16, 3, bound=0.9)
        xbar[5, 1] = complex(0.1, bad)
        res = sd_basic(xbar)
        np.testing.assert_array_equal(res.overloaded, [False, True, False])
        _assert_matches_loop(res, xbar)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 300),
           st.integers(1, 6), st.floats(0.05, 2.5), st.integers(0, 8))
    def test_random_boxes(self, seed, n, runs, bound, bits):
        # Inputs rounded to `bits` binary digits make exact ties common.
        rng = np.random.default_rng(seed)
        xbar = _box_inputs(rng, n, runs, bound=bound)
        if bits:
            xbar = (np.round(xbar.real * 2 ** bits)
                    + 1j * np.round(xbar.imag * 2 ** bits)) / 2 ** bits
        _assert_matches_loop(sd_basic(xbar), xbar)

    def test_narrow_and_wide_batches_agree_per_column(self, monkeypatch):
        # The narrow batch (400 KiB) forms its prefix sums in one call, the
        # wide one (2.5 MiB, the same columns inside) one antenna at a time.
        rng = np.random.default_rng(25)
        narrow = _box_inputs(rng, 256, 100, bound=0.95)
        wide = _box_inputs(rng, 256, 640, bound=0.95)
        cols = slice(300, 400)
        wide[:, cols] = narrow
        assert narrow.nbytes <= modulator._ACCUMULATE_BYTES < wide.nbytes

        def no_loop(*args):
            raise AssertionError("a run failed its certificate")

        monkeypatch.setattr(modulator, "_recursion", no_loop)
        res_narrow, res_wide = sd_basic(narrow), sd_basic(wide)
        for name in ("output", "quant_error", "integrator_trace",
                     "peak_integrator"):
            part = np.asarray(getattr(res_wide, name))[..., cols]
            ref = np.asarray(getattr(res_narrow, name))
            assert np.ascontiguousarray(part).tobytes() == ref.tobytes(), name


_CANONICAL = canonicalize_gains(
    _box_inputs(np.random.default_rng(22), 48, 1)[:, 0]).coefficients
MODULATORS = {
    "basic": lambda xbar, work: sd_basic(xbar, work=work),
    "dithered": lambda xbar, work: sd_dithered(
        xbar, DitherSpec(0.3, seed=11), work=work),
    "steered": lambda xbar, work: sd_angle_steered(xbar, 0.7, work=work),
    "generalized": lambda xbar, work: sd_generalized(xbar, _CANONICAL,
                                                     work=work),
}


def _assert_same_bits(res, ref):
    for name in ("output", "quant_error", "integrator_trace", "overloaded",
                 "peak_integrator"):
        a, b = np.asarray(getattr(res, name)), np.asarray(getattr(ref, name))
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestWorkspace:
    """A reused workspace changes where the arrays live, never their bits."""

    @pytest.mark.parametrize("name", sorted(MODULATORS))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_reused_workspace_is_bitwise_fresh(self, name):
        modulate = MODULATORS[name]
        rng = np.random.default_rng(24)
        with_nan = _box_inputs(rng, 48, 4, bound=0.9)
        with_nan[7, 2] = complex(np.nan, 0.2)     # fails the certificate
        cases = [_box_inputs(rng, 48, 10, bound=0.9),
                 _box_inputs(rng, 48, 3, bound=1.2),      # narrower
                 with_nan,
                 _box_inputs(rng, 48, 6).reshape(48, 2, 3)]
        work = Workspace()
        first = None
        for xbar in cases:
            res = modulate(xbar, work)
            _assert_same_bits(res, modulate(xbar, None))
            if first is None:
                first = res.output
            assert np.shares_memory(res.output, first)
        assert np.asarray(modulate(with_nan, None).overloaded).any()

    def test_views_grow_and_keep_their_buffer(self):
        work = Workspace()
        a = work.array("x", (4, 3))
        b = work.array("x", (2, 5))
        c = work.array("x", (3, 6), float)
        assert b.flags.c_contiguous and np.shares_memory(a, b)
        assert np.shares_memory(a, c)
        assert not np.shares_memory(a, work.array("y", (4, 3)))
        d = work.array("x", (8, 8))                 # grows: a new buffer
        assert not np.shares_memory(a, d)
        assert np.shares_memory(d, work.array("x", (1,)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-math.pi, math.pi))
def test_reconstruction_property_random(seed, phi):
    rng = np.random.default_rng(seed)
    xbar = _box_inputs(rng, 24, 4, bound=2.0)
    res = sd_angle_steered(xbar, phi)
    q = res.quant_error
    q_prev = np.zeros_like(q)
    q_prev[1:] = q[:-1]
    np.testing.assert_allclose(res.output,
                               xbar + q - np.exp(1j * phi) * q_prev,
                               atol=1e-12)
