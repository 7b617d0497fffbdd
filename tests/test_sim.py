"""Monte Carlo engine: reproducibility, seeding discipline, and pipelines."""

import importlib.util
import math
import tracemalloc
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdprecode.channel import make_constellation
from sdprecode.modulator import Workspace, one_bit, sd_basic
from sdprecode.sim import (
    ConfigError,
    SimConfig,
    run_iq_scatter,
    run_ser,
    run_spectrum,
)
from sdprecode.sim import engine
from sdprecode.sim.config import SolverSpec
from sdprecode.sim.engine import _complex_normal

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _cfg(**overrides):
    base = {
        "geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.125},
        "constellation": {"kind": "psk", "order": 8},
        "channel": {"model": "single_path", "angle_deg": 0.0},
        "scheme": "mrt",
        "modulator": "basic",
        "snr_db": [-10.0, -5.0],
        "trials": 3000,
        "seed": 7,
    }
    base.update(overrides)
    return SimConfig.from_dict(base)


_BASE = {
    "geometry": {"n_antennas": 32, "spacing_over_wavelength": 0.125},
    "constellation": {"kind": "psk", "order": 8},
    "modulator": "basic",
    "snr_db": [0.0, 3],
}
ROUND_TRIP_CASES = {
    **{path.name: yaml.safe_load(path.read_text())
       for path in CONFIGS.glob("*.yaml")},
    "explicit_angles": {
        **_BASE, "scheme": "slp_dual", "seed": 3,
        "channel": {"model": "multi_user", "angles_deg": [-12.5, 0, 40],
                    "gain_model": "pathloss", "pathloss_range": [10, 50]},
        "solver": {"dual_max_iters": 50, "regularization": 0.01},
    },
    "iid_gaussian": {
        **_BASE, "scheme": "mrt_generalized", "modulator": "generalized",
        "channel": {"model": "iid_gaussian"}, "amplitude_mode": "unit",
        "spectrum": {"grid_deg": [-45, 45, 1], "trials": 7},
        "scatter": {"realizations": 9},
    },
}


def _assert_written_keys_echoed(raw, dumped, path="config"):
    """Every key written in ``raw`` comes back with an equal value."""
    for key, value in raw.items():
        assert key in dumped, f"{path}.{key}"
        if isinstance(value, dict):
            _assert_written_keys_echoed(value, dumped[key], f"{path}.{key}")
        else:
            assert dumped[key] == value, f"{path}.{key}"
            assert isinstance(dumped[key], list) == isinstance(value, list)


class TestConfigValidation:
    def test_round_trip_through_dict(self):
        cfg = _cfg()
        again = SimConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
    def test_every_layout_round_trips(self, name):
        raw = ROUND_TRIP_CASES[name]
        cfg = SimConfig.from_dict(raw)
        dumped = cfg.to_dict()
        assert SimConfig.from_dict(dumped) == cfg
        _assert_written_keys_echoed(raw, dumped)

    @pytest.mark.parametrize("patch,err_key", [
        ({"scheme": "mrt", "modulator": "steered"}, "modulator"),
        ({"scheme": "zf", "modulator": "generalized"}, "modulator"),
        ({"scheme": "zf",
          "channel": {"model": "single_path", "angle_deg": 0.0}}, "channel"),
        ({"scheme": "zf", "constellation": {"kind": "qam", "order": 16},
          "channel": {"model": "multi_user", "n_users": 4}}, "constellation"),
        ({"scheme": "zf_qam", "constellation": {"kind": "psk", "order": 8},
          "channel": {"model": "multi_user", "n_users": 4}}, "constellation"),
        ({"block_length": 7}, "block_length"),
        ({"snr_db": []}, "snr_db"),
        ({"trials": 0}, "trials"),
        ({"geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.7}},
         "spacing"),
        ({"constellation": {"kind": "qam", "order": 12}}, "order"),
        ({"scheme": "zf",
          "channel": {"model": "multi_user", "angles_deg": [10, 10]}},
         "channel.angles_deg"),
        ({"scheme": "zf",
          "geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.5},
          "channel": {"model": "multi_user", "angles_deg": [-90, 90]}},
         "channel.angles_deg"),
    ])
    def test_invalid_configs_name_the_key(self, patch, err_key):
        base = {
            "geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.125},
            "constellation": {"kind": "psk", "order": 8},
            "channel": {"model": "single_path", "angle_deg": 0.0},
            "scheme": "mrt",
            "modulator": "basic",
            "snr_db": [0.0],
            "trials": 10,
        }
        base.update(patch)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_dict(base)
        assert err_key in str(info.value)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as info:
            _cfg(bogus_knob=1)
        assert "bogus_knob" in str(info.value)

    def test_every_solver_knob_is_read_and_documented(self):
        # Each knob, at a value no other knob or default has, reaches the
        # settings of a solver run.
        knobs = fields(SolverSpec)
        distinct = {f.name: 11 + i if isinstance(f.default, int)
                    else 0.5 ** (i + 3) for i, f in enumerate(knobs)}
        spec = SolverSpec(**distinct)
        read = {v for solver in ("dual", "nullspace")
                for v in astuple(spec.apg_params(solver))}
        assert [k for k, v in distinct.items() if v not in read] == []

        # README's solver table lists each knob with its default.
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| key | default | read by | meaning |") + 2
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key, default = line.strip("|").split("|")[:2]
            documented[key.strip().strip("`")] = float(default)
        assert documented == {f.name: f.default for f in knobs}

    def test_separation_too_tight_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(scheme="zf",
                 channel={"model": "multi_user", "n_users": 40,
                          "angle_range_deg": [-10, 10],
                          "min_separation_deg": 1.0})

    def test_too_many_users_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(scheme="zf",
                 channel={"model": "multi_user", "n_users": 65,
                          "angle_range_deg": [-89, 89],
                          "min_separation_deg": 0.0})


class TestDirectQuantize:
    def test_first_quadrant(self):
        x = np.full(5, 0.25 + 0.75j)
        np.testing.assert_array_equal(one_bit(x), np.full(5, 1 + 1j))

    def test_idempotent_on_one_bit_vectors(self):
        res = sd_basic(np.array([0.3, -0.6, 0.2], dtype=complex))
        np.testing.assert_array_equal(one_bit(res.output), res.output)

    def test_matches_feedback_modulator_on_first_antenna_only(self):
        rng = np.random.default_rng(0)
        xbar = rng.uniform(-1, 1, (16, 200)) + 1j * rng.uniform(-1, 1,
                                                                (16, 200))
        hard = one_bit(xbar)
        fed = sd_basic(xbar).output
        np.testing.assert_array_equal(hard[0], fed[0])
        assert np.any(hard[1:] != fed[1:])


class TestReproducibility:
    def test_identical_config_identical_curve(self):
        cfg = _cfg()
        a = run_ser(cfg)
        b = run_ser(cfg)
        np.testing.assert_array_equal(a.ser, b.ser)
        np.testing.assert_array_equal(a.ber, b.ber)
        np.testing.assert_array_equal(a.trials, b.trials)

    def test_seed_changes_curve(self):
        a = run_ser(_cfg(trials=2000, snr_db=[-10.0]))
        b = run_ser(_cfg(trials=2000, snr_db=[-10.0], seed=8))
        assert a.symbol_errors[0] != b.symbol_errors[0]

    def test_scatter_prefix_stable_when_adding_realizations(self):
        cfg = _cfg(snr_db=[0.0])
        s1, r1 = run_iq_scatter(cfg, n_realizations=500)
        s2, r2 = run_iq_scatter(cfg, n_realizations=1400)
        np.testing.assert_array_equal(s1, s2[:500])
        np.testing.assert_array_equal(r1, r2[:500])

    def test_scatter_prefix_stable_with_dither(self):
        cfg = _cfg(snr_db=[0.0], modulator="dithered", dither_level=0.7)
        s1, r1 = run_iq_scatter(cfg, n_realizations=300)
        s2, r2 = run_iq_scatter(cfg, n_realizations=900)
        np.testing.assert_array_equal(r1, r2[:300])

    def test_worker_count_does_not_change_results(self):
        cfg = _cfg(trials=1500)
        a = run_ser(cfg, n_workers=1)
        b = run_ser(cfg, n_workers=2)
        np.testing.assert_array_equal(a.ser, b.ser)

    @pytest.mark.parametrize("shape", [(128, 24, 100), (1024, 256), (3,)])
    def test_complex_normal_keeps_the_pairwise_bits(self, shape):
        # The draw reads each pair of normals as one complex in place; it
        # must keep every bit of the formula that built it from two columns.
        z = np.random.default_rng(21).standard_normal(shape + (2,))
        expected = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
        got = _complex_normal(np.random.default_rng(21), shape)
        assert got.shape == shape
        np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                      expected.view(np.uint64))


class TestSingleUserPipelines:
    def test_unquantized_noiseless_limit_is_error_free(self):
        cfg = _cfg(modulator="unquantized", snr_db=[60.0], trials=2000)
        curve = run_ser(cfg)
        assert curve.ser[0] == 0.0

    def test_theory_column_present_for_basic_mrt(self):
        curve = run_ser(_cfg(trials=1500))
        assert np.all(np.isfinite(curve.theory_ser))
        assert np.all(curve.theory_ser <= 1.0)

    def test_sim_tracks_theory_at_broadside(self):
        cfg = _cfg(trials=40000, snr_db=[-8.0], early_stop_errors=10 ** 9,
                   geometry={"n_antennas": 128,
                             "spacing_over_wavelength": 0.125})
        curve = run_ser(cfg)
        assert curve.ser[0] == pytest.approx(curve.theory_ser[0], rel=0.35)

    def test_dithered_worse_than_basic_at_broadside(self):
        base = dict(trials=30000, snr_db=[-6.0], early_stop_errors=10 ** 9)
        basic = run_ser(_cfg(**base))
        dithered = run_ser(_cfg(modulator="dithered", dither_level=0.8,
                                **base))
        assert dithered.ser[0] > basic.ser[0]

    def test_steered_matches_basic_at_broadside(self):
        # At broadside the steering rotation is zero, so both pipelines are
        # the same modulator; seeds differ only through the scheme branch.
        a = run_ser(_cfg(scheme="mrt_steered", modulator="steered",
                         trials=2000, snr_db=[-6.0]))
        b = run_ser(_cfg(scheme="mrt", modulator="basic", trials=2000,
                         snr_db=[-6.0]))
        np.testing.assert_array_equal(a.ser, b.ser)

    def test_generalized_scheme_runs_and_beats_direct(self):
        base = dict(
            geometry={"n_antennas": 128, "spacing_over_wavelength": 0.125},
            constellation={"kind": "qam", "order": 16},
            channel={"model": "iid_gaussian"},
            scheme="mrt_generalized",
            snr_db=[2.0], trials=8000, seed=3,
        )
        sd = run_ser(SimConfig.from_dict({**base, "modulator": "generalized"}))
        hard = run_ser(SimConfig.from_dict({**base, "modulator": "direct"}))
        assert sd.ser[0] < hard.ser[0]

    def test_quantization_severity_ordering(self):
        # Within the tolerable angular range the pass-through beats the
        # feedback modulator, which beats memoryless one-bit quantization
        # on an amplitude-bearing constellation.  For a single-path MRT
        # target conj(a_n) u the sign pattern depends on arg(u) alone, so
        # memoryless quantization discards |u|: each inner 16-QAM point
        # shares its phase with a corner point and sends the same x, which
        # floors the SER at 4/16.  The sigma-delta loop keeps the amplitude.
        # (With PSK on this channel memoryless quantization has 4/pi more
        # in-band gain than the unit-rail target and beats the loop, so PSK
        # is no case where it loses.)
        base = dict(trials=30000, snr_db=[4.0], early_stop_errors=10 ** 9,
                    constellation={"kind": "qam", "order": 16},
                    channel={"model": "single_path", "angle_deg": 20.0})
        unq = run_ser(_cfg(modulator="unquantized", **base))
        fed = run_ser(_cfg(modulator="basic", **base))
        hard = run_ser(_cfg(modulator="direct", **base))
        slack_fed = 3.0 * (unq.ci_halfwidth[0] + fed.ci_halfwidth[0])
        slack_hard = 3.0 * (fed.ci_halfwidth[0] + hard.ci_halfwidth[0])
        assert unq.ser[0] <= fed.ser[0] + slack_fed
        assert fed.ser[0] + slack_hard < hard.ser[0]
        assert hard.ser[0] >= 0.25 - 3.0 * hard.ci_halfwidth[0]

    def test_early_stop_bounds_trials(self):
        cfg = _cfg(trials=100000, snr_db=[-15.0], early_stop_errors=200)
        curve = run_ser(cfg)
        assert curve.trials[0] < 100000
        assert curve.symbol_errors[0] >= 200


class TestSingleUserMemory:
    def test_later_blocks_reuse_the_workspace(self):
        # Blocks of the shipped mrt_broadside config: 256 antennas, 1024
        # trials, run in two 512-trial slices.  The first block fills the
        # workspace with xbar and the modulator's three arrays, one slice
        # (2 MiB) each, and holds no whole-block array beside them; a later
        # block allocates nothing of that size.
        cfg = SimConfig.from_dict(
            yaml.safe_load((CONFIGS / "mrt_broadside.yaml").read_text()))
        const = make_constellation(cfg.constellation_kind,
                                   cfg.constellation_order)
        work = Workspace()
        peaks = []
        for block in range(2):
            rngs = engine._streams(cfg.seed, 0, 0, block)
            tracemalloc.start()
            try:
                counts = engine._kernel_single_user(
                    cfg, const, 1.0, rngs, engine.RNG_BATCH, work)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counts.trials == engine.RNG_BATCH
            peaks.append(peak)
        slice_bytes = cfg.n_antennas * engine._slice_width(cfg.n_antennas) * 16
        assert slice_bytes == 2 ** 21
        assert 4 * slice_bytes <= peaks[0] < 4.5 * slice_bytes
        array_bytes = cfg.n_antennas * engine.RNG_BATCH * 16
        assert peaks[1] <= array_bytes / 4


class TestMultiUserMemory:
    def test_chunks_never_hold_the_steering_stack(self):
        # 128-trial chunks of the shipped zf_multiuser config: 24 users, 512
        # antennas.  A chunk's steering stack would be 24 MiB; the design
        # and the receive work from the phase tables, so a later chunk
        # peaks at a third of that.
        cfg = SimConfig.from_dict(
            yaml.safe_load((CONFIGS / "zf_multiuser.yaml").read_text()))
        const = make_constellation(cfg.constellation_kind,
                                   cfg.constellation_order)
        chunk = engine._CHUNK
        peaks = []
        for block in range(2):
            rngs = engine._streams(cfg.seed, 0, 0, block)
            tracemalloc.start()
            try:
                counts = engine._kernel_multiuser(cfg, const, 10.0, rngs,
                                                  chunk)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counts.trials == chunk
            peaks.append(peak)
        assert peaks[1] <= 8 * 2 ** 20

    def test_margin_step_holds_two_stacks(self):
        # One 128-trial chunk of the shipped slp_multiuser config, solver
        # capped at 3 iterations.  The channel rows are scaled in place and
        # dropped once the margin rows exist; the solver's Gram takes a
        # conjugate copy of those.  A third stack would read 3.1.
        raw = yaml.safe_load((CONFIGS / "slp_multiuser.yaml").read_text())
        raw["solver"]["dual_max_iters"] = 3
        cfg = SimConfig.from_dict(raw)
        const = make_constellation(cfg.constellation_kind,
                                   cfg.constellation_order)
        b, k = engine._CHUNK, cfg.channel.n_users
        rngs = engine._streams(cfg.seed, 0, 0, 0)
        angles, alpha = engine._draw_mu_channel(cfg, rngs[0], b)
        symbols = const.points[rngs[1].integers(0, const.order, (b, k, 1))]
        tracemalloc.start()
        try:
            _, out = engine._multiuser_step(cfg, const, 10.0, angles, alpha,
                                            symbols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.xbar.shape == (cfg.n_antennas, b, 1)
        assert peak <= 2.5 * b * k * cfg.n_antennas * 16


class TestScatter:
    def test_unquantized_scatter_is_exact(self):
        cfg = _cfg(modulator="unquantized")
        sent, received = run_iq_scatter(cfg, n_realizations=200)
        np.testing.assert_allclose(received, sent, atol=1e-10)

    def test_steered_scatter_error_bounded_by_survivor_term(self):
        n = 128
        cfg = _cfg(scheme="mrt_steered", modulator="steered",
                   channel={"model": "single_path", "angle_deg": 90.0},
                   geometry={"n_antennas": n,
                             "spacing_over_wavelength": 0.5})
        sent, received = run_iq_scatter(cfg, n_realizations=500)
        amp = 1.0  # steering rotation pi keeps the full input range
        errs = np.abs(received - sent)
        assert errs.max() <= math.sqrt(2.0) / (amp * n) + 1e-12

    def test_multi_user_scheme_rejected(self):
        cfg = _cfg(scheme="zf",
                   channel={"model": "multi_user", "n_users": 2})
        with pytest.raises(ConfigError):
            run_iq_scatter(cfg)


@pytest.mark.parametrize("run, name", [(run_iq_scatter, "n_realizations"),
                                       (run_spectrum, "n_trials")])
class TestTrialCounts:
    def test_none_means_the_configs_count(self, run, name):
        cfg = _cfg(scatter={"realizations": 40}, spectrum={"trials": 40})
        default, explicit = run(cfg), run(cfg, **{name: 40})
        for a, b in zip(default, explicit):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("count", [0, -3, True, 2.5])
    def test_counts_below_one_are_rejected(self, run, name, count):
        with pytest.raises(ValueError, match=name):
            run(_cfg(), **{name: count})


class TestSpectrum:
    def test_unquantized_beam_peaks_at_zero_db(self):
        cfg = _cfg(modulator="unquantized",
                   channel={"model": "single_path", "angle_deg": 25.0})
        angles, db = run_spectrum(cfg, n_trials=64)
        at_target = db[np.argmin(np.abs(angles - 25.0))]
        assert at_target == pytest.approx(0.0, abs=0.01)
        assert db.max() <= 0.01

    def test_grid_override(self):
        cfg = _cfg()
        angles, db = run_spectrum(cfg, angles_deg=[-10.0, 0.0, 10.0],
                                  n_trials=32)
        assert angles.shape == db.shape == (3,)

    @pytest.mark.parametrize("grid", [30.0, [[-10.0, 0.0], [10.0, 20.0]]])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="angles_deg"):
            run_spectrum(_cfg(), angles_deg=grid, n_trials=8)

    @pytest.mark.parametrize("grid", [[95.0], [-90.5, 0.0], [0.0, np.nan]])
    def test_grid_must_lie_within_ninety_degrees(self, grid):
        with pytest.raises(ValueError, match="angles_deg must lie in"):
            run_spectrum(_cfg(), angles_deg=grid, n_trials=8)


class TestBlockSchemes:
    def test_zf_qam_block_runs_and_counts_bits(self):
        cfg = SimConfig.from_dict({
            "geometry": {"n_antennas": 32, "spacing_over_wavelength": 0.125},
            "constellation": {"kind": "qam", "order": 16},
            "channel": {"model": "multi_user", "n_users": 4,
                        "angle_range_deg": [-30, 30],
                        "gain_model": "pathloss"},
            "scheme": "zf_qam", "modulator": "basic",
            "snr_db": [15.0], "trials": 20, "block_length": 10, "seed": 5,
        })
        curve = run_ser(cfg)
        assert curve.symbols[0] == 20 * 4 * 10
        assert curve.bits[0] == curve.symbols[0] * 4
        assert 0.0 <= curve.ser[0] <= 1.0

    def test_nullspace_always_at_least_as_good_gamma(self):
        # End to end, on identical draws, the assisted scheme's BER should
        # not be meaningfully worse; check errors instead of gamma here.
        common = {
            "geometry": {"n_antennas": 32, "spacing_over_wavelength": 0.125},
            "constellation": {"kind": "qam", "order": 16},
            "channel": {"model": "multi_user", "n_users": 4,
                        "angle_range_deg": [-30, 30],
                        "gain_model": "pathloss"},
            "modulator": "basic",
            "snr_db": [13.0], "trials": 30, "block_length": 10, "seed": 6,
            "solver": {"nullspace_max_iters": 100},
        }
        plain = run_ser(SimConfig.from_dict({**common, "scheme": "zf_qam"}))
        helped = run_ser(SimConfig.from_dict(
            {**common, "scheme": "nullspace_zf"}))
        assert helped.symbol_errors[0] <= plain.symbol_errors[0]


class TestCurveBookkeeping:
    def test_ci_and_csv_rows(self):
        curve = run_ser(_cfg(trials=1200))
        assert np.all(curve.ci_halfwidth >= 0)
        rows = list(curve.csv_rows())
        assert len(rows) == 2
        header = curve.CSV_HEADER.split(",")
        assert header == ["snr_db", "ser", "ber", "theory_ser",
                          "ci_halfwidth", "trials"]
        assert len(rows[0].split(",")) == len(header)


def test_every_bench_trace_target_resolves():
    # bench/tracing.py patches these (module, attribute) pairs for
    # ``bench/run.py --trace 1``; a renamed or dropped one breaks the trace.
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (
            module, attr)
