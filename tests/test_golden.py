"""Pinned Monte Carlo outputs: exact ``ser.csv`` rows and artifact digests.

Every shipped ``ser`` config runs at reduced size, plus dithered and
channel-matched variants; the ``*_slices`` cases run several RNG blocks,
each in more than one of the engine's column slices; ``spectrum_mrt`` pins
the bytes of the CLI's ``spectrum.csv`` (one RNG block, and as shipped over
three) and ``scatter.csv`` (one block, and three), and ``slp_multiuser``
pins the ``solve.json`` of both margin solvers, iteration and restart
counts included; one nullspace block pins the peak-shaving solve itself,
which the coarse error rates would not notice.  A fixed seed must keep
producing these bytes; a change that moves any of them has to say why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdprecode import analysis, precoder
from sdprecode.channel import ArrayGeometry, make_constellation, steering_tables
from sdprecode.cli import main
from sdprecode.sim import SimConfig, run_ser
from sdprecode.sim.config import SolverSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GENERALIZED = {
    "geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.125},
    "constellation": {"kind": "qam", "order": 16},
    "channel": {"model": "iid_gaussian"},
    "scheme": "mrt_generalized",
    "snr_db": [0.0, 4.0],
    "trials": 256,
    "seed": 3,
}

# Several RNG blocks at N >= 256, where the engine runs each block in
# column slices: three blocks, the last short, at N = 256; a width (256)
# that does not divide the block at N = 300.
SLICES = {"trials": 3001, "early_stop_errors": 10 ** 9}
SLICES_N300 = {"trials": 1100, "early_stop_errors": 10 ** 9,
               "geometry": {"n_antennas": 300,
                            "spacing_over_wavelength": 0.125}}

# name -> (shipped config or None, overrides)
SER_CASES = {
    "mrt_broadside": ("mrt_broadside", {"trials": 256}),
    "mrt_broadside_dithered": ("mrt_broadside",
                               {"trials": 256, "modulator": "dithered"}),
    "steered_endfire": ("steered_endfire", {"trials": 256}),
    "zf_multiuser": ("zf_multiuser", {"trials": 64}),
    "zf_multiuser_dithered": ("zf_multiuser",
                              {"trials": 64, "modulator": "dithered"}),
    "zf_qam_block": ("nullspace_qam_block", {"trials": 2, "scheme": "zf_qam"}),
    "nullspace_qam_block": ("nullspace_qam_block",
                            {"trials": 1, "snr_db": [17]}),
    "slp_multiuser": ("slp_multiuser", {"trials": 2}),
    "mrt_generalized": (None, {**GENERALIZED, "modulator": "generalized"}),
    "mrt_generalized_unquantized": (None, {**GENERALIZED,
                                           "modulator": "unquantized"}),
    "mrt_broadside_slices": ("mrt_broadside", SLICES),
    "mrt_broadside_slices_dithered": ("mrt_broadside",
                                      {**SLICES, "modulator": "dithered",
                                       "seed": 7}),
    "mrt_broadside_slices_n300": ("mrt_broadside", SLICES_N300),
    "mrt_generalized_slices": (None, {
        **GENERALIZED, "modulator": "generalized",
        "geometry": {"n_antennas": 256, "spacing_over_wavelength": 0.125},
        "snr_db": [-6.0, -3.0, 0.0], "trials": 1100}),
}

EXPECTED_ROWS = {
    "mrt_broadside": [
        "-16,0.265625,0.09244791667,0.3318372897,0.05410401619,256",
        "-14,0.21875,0.07552083333,0.2218263434,0.05064133369,256",
        "-12,0.11328125,0.03776041667,0.1240457506,0.03882469484,256",
        "-10,0.0625,0.02083333333,0.05283806496,0.02965252874,256",
        "-8,0.00390625,0.001302083333,0.01478576643,0.007641281755,256",
        "-6,0,0,0.002149658787,0,256",
    ],
    "mrt_broadside_dithered": [
        "-16,0.26171875,0.09114583333,nan,0.05384736137,256",
        "-14,0.21875,0.07552083333,nan,0.05064133369,256",
        "-12,0.11328125,0.03776041667,nan,0.03882469484,256",
        "-10,0.0625,0.02083333333,nan,0.02965252874,256",
        "-8,0.00390625,0.001302083333,nan,0.007641281755,256",
        "-6,0,0,nan,0,256",
    ],
    "mrt_broadside_slices": [
        "-16,0.3222259247,0.1138509386,0.3318372897,0.01672036638,3001",
        "-14,0.2232589137,0.07586360102,0.2218263434,0.01489929147,3001",
        "-12,0.1192935688,0.03976452294,0.1240457506,0.01159704048,3001",
        "-10,0.05864711763,0.01954903921,0.05283806496,0.008406643645,3001",
        "-8,0.01199600133,0.003998667111,0.01478576643,0.003895118525,3001",
        "-6,0.001332889037,0.0004442963457,0.002149658787,0.001305360435,3001",
    ],
    "mrt_broadside_slices_dithered": [
        "-16,0.3412195935,0.1189603466,nan,0.01696330189,3001",
        "-14,0.2209263579,0.07464178607,nan,0.01484349245,3001",
        "-12,0.1159613462,0.03865378207,nan,0.01145553364,3001",
        "-10,0.05798067311,0.01932689104,nan,0.008361700475,3001",
        "-8,0.01566144618,0.005220482062,nan,0.004442334455,3001",
        "-6,0.001332889037,0.0004442963457,nan,0.001305360435,3001",
    ],
    "mrt_broadside_slices_n300": [
        "-16,0.2772727273,0.09757575758,0.2934835879,0.02645455909,1100",
        "-14,0.1736363636,0.05878787879,0.1859970406,0.02238544174,1100",
        "-12,0.09636363636,0.03212121212,0.09592342602,0.01743866233,1100",
        "-10,0.03818181818,0.01272727273,0.03607833382,0.01132490383,1100",
        "-8,0.007272727273,0.002424242424,0.008320927582,0.005021383097,1100",
        "-6,0.0009090909091,0.000303030303,0.0008937307722,0.00178100808,1100",
    ],
    "mrt_generalized": [
        "0,0.23046875,0.0625,nan,0.05158877819,256",
        "4,0.0546875,0.013671875,nan,0.02785273353,256",
    ],
    "mrt_generalized_slices": [
        "-6,0.2554545455,0.07068181818,nan,0.02577283269,1100",
        "-3,0.08272727273,0.02181818182,nan,0.0162792099,1100",
        "0,0.01090909091,0.002727272727,nan,0.006138639284,1100",
    ],
    "mrt_generalized_unquantized": [
        "0,0.1171875,0.029296875,nan,0.03940133803,256",
        "4,0.0078125,0.001953125,nan,0.01078519445,256",
    ],
    "nullspace_qam_block": [
        "17,0.054375,0.01375,nan,0.01111105219,1",
    ],
    "slp_multiuser": [
        "6,0.08333333333,0.02777777778,nan,0.07818988047,2",
        "10,0,0,nan,0,2",
        "14,0,0,nan,0,2",
        "18,0,0,nan,0,2",
    ],
    "steered_endfire": [
        "-6,0.01953125,0.006510416667,0.03001255762,0.01695188456,256",
        "-5,0.01171875,0.00390625,0.01490432789,0.01318308376,256",
        "-4,0.01171875,0.00390625,0.006299448255,0.01318308376,256",
        "-3,0.0078125,0.002604166667,0.002175972425,0.01078519445,256",
        "-2,0,0,0.0005836543061,0,256",
    ],
    "zf_multiuser": [
        "6,0.4505208333,0.1701388889,nan,0.02488247167,64",
        "10,0.2649739583,0.09136284722,nan,0.02207056359,64",
        "14,0.07942708333,0.02647569444,nan,0.01352302553,64",
        "18,0.013671875,0.004557291667,nan,0.005807446419,64",
        "22,0,0,nan,0,64",
    ],
    "zf_multiuser_dithered": [
        "6,0.466796875,0.1773003472,nan,0.02495001302,64",
        "10,0.27734375,0.09700520833,nan,0.02238904333,64",
        "14,0.1184895833,0.03971354167,nan,0.01616271347,64",
        "18,0.02473958333,0.008246527778,nan,0.007768138369,64",
        "22,0.0006510416667,0.0002170138889,nan,0.001275626221,64",
    ],
    "zf_qam_block": [
        "17,0.3821875,0.10703125,nan,0.01683633921,2",
        "19,0.4071875,0.137578125,nan,0.01702303442,2",
        "21,0.10125,0.02625,nan,0.01045196748,2",
        "23,0.0590625,0.015,nan,0.00816803112,2",
    ],
}

# slp_multiuser at its shipped seed 1.
EXPECTED_SOLVES = {
    "slp_dual": {
        "converged": True,
        "dual_value": -44.251497278320585,
        "duality_gap": 0.0102415130060578,
        "iterations": 631,
        "lp_bound": -46.67980888780957,
        "lp_gap": 0.14576243296595237,
        "objective": -46.534046454843335,
        "peak_rail": 1.0,
        "restarts": 3,
        "solver": "dual",
        "worst_margin": 46.53404645484338,
    },
}

EXPECTED_DIGESTS = {
    "spectrum":
        "14d0ef4652854a078511db29aaec1d0fec84a8724166c60d9e74bca45c62a1d1",
    "scatter":
        "756a2463a8e7fbd92280b6fc0c986bd587ac30394681d6f8fa74184dc56f6220",
}

# spectrum_mrt as shipped: 2500 trials in three RNG blocks, the last short.
SHIPPED_SPECTRUM_DIGEST = \
    "b8d6e44797ef1c6832466ff0a79d8c44b18b0bfe5568ef68ff41e25086dc5b9f"

# spectrum_mrt's scatter at 2100 realizations: three RNG blocks, the last
# short, each full block in two column slices.
SLICED_SCATTER_DIGEST = \
    "6f06bf5d7b01334b3934e42c5d8809f867e0b7aa80467dcabe9bf43f8194d8c1"


def _raw(config, overrides):
    raw = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text()) \
        if config else {}
    raw.update(overrides)
    return raw


def ser_config(name):
    return SimConfig.from_dict(_raw(*SER_CASES[name]))


def artifact(tmp_path, command, raw, name):
    """Exit status and bytes of the artifact ``name`` of one CLI run."""
    cfg = tmp_path / f"{command}.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / command
    status = main([command, "--config", str(cfg), "--out", str(out)])
    return status, (out / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SER_CASES))
def test_ser_rows_are_pinned(name):
    assert list(run_ser(ser_config(name)).csv_rows()) == EXPECTED_ROWS[name]


@pytest.mark.parametrize("command", ["spectrum", "scatter"])
def test_artifact_bytes_are_pinned(tmp_path, command):
    raw = _raw("spectrum_mrt", {"spectrum": {"grid_deg": [-90, 90, 0.5],
                                             "trials": 256},
                                "scatter": {"realizations": 256}})
    status, data = artifact(tmp_path, command, raw, f"{command}.csv")
    assert status == 0
    assert hashlib.sha256(data).hexdigest() == EXPECTED_DIGESTS[command]


def test_shipped_spectrum_bytes_are_pinned(tmp_path):
    status, data = artifact(tmp_path, "spectrum", _raw("spectrum_mrt", {}),
                            "spectrum.csv")
    assert status == 0
    assert hashlib.sha256(data).hexdigest() == SHIPPED_SPECTRUM_DIGEST


def test_multi_block_scatter_bytes_are_pinned(tmp_path):
    raw = _raw("spectrum_mrt", {"scatter": {"realizations": 2100}})
    status, data = artifact(tmp_path, "scatter", raw, "scatter.csv")
    assert status == 0
    assert hashlib.sha256(data).hexdigest() == SLICED_SCATTER_DIGEST


@pytest.mark.parametrize("scheme", sorted(EXPECTED_SOLVES))
def test_solver_trajectories_are_pinned(tmp_path, scheme):
    expected = EXPECTED_SOLVES[scheme]
    status, data = artifact(tmp_path, "solve",
                            _raw("slp_multiuser", {"scheme": scheme}),
                            "solve.json")
    assert status == (0 if expected["converged"] else 3)
    doc = json.loads(data)
    assert doc.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, float):
            assert doc[key] == pytest.approx(value, rel=1e-12), key
        else:
            assert doc[key] == value, key


# One 256 x 16 x 100 block of nullspace_qam_block at its shipped solver
# settings, seed 5, 17 dB.  Its two continuation stages run 60 + 120
# iterations, and the solver reports their sum.
EXPECTED_SHAVE = {"gamma": 16.68213000260464, "iterations": 180,
                  "converged": False}


def test_peak_shaving_is_pinned():
    rng = np.random.default_rng(5)
    n, k, t_len = 256, 16, 100
    # Angles in [-30, 30] degrees at least 1 degree apart; path-loss gains.
    angles = np.deg2rad(-30.0 + np.sort(rng.uniform(0.0, 60.0 - (k - 1), k))
                        + np.arange(k))
    gains = (30.0 / rng.uniform(20.0, 100.0, k)) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    power = 10.0 ** 1.7
    noise_std = np.sqrt(analysis.noise_variance_single(
        gains, angles, power, 1.0, 0.125))
    symbols = make_constellation("qam", 16).points[
        rng.integers(0, 16, (k, t_len))]
    spec = SolverSpec(nullspace_max_iters=120, nullspace_smoothing_rel=4e-3)
    out = precoder.nullspace_zf_arrays(
        steering_tables(ArrayGeometry(n, 0.125), angles), gains, noise_std,
        symbols, params=spec.apg_params("nullspace"))
    meta = out.metadata
    assert float(meta["gamma"]) == pytest.approx(EXPECTED_SHAVE["gamma"],
                                                 rel=1e-12)
    assert int(meta["iterations"]) == EXPECTED_SHAVE["iterations"]
    assert bool(meta["converged"]) == EXPECTED_SHAVE["converged"]
