"""Pinned Monte Carlo outputs: exact ``ser.csv`` rows and artifact digests.

Every shipped ``ser`` config runs at reduced size, plus dithered and
channel-matched variants; ``spectrum_mrt`` pins the bytes of the CLI's
``spectrum.csv`` and ``scatter.csv``, and ``slp_multiuser`` pins the
``solve.json`` of both margin solvers, iteration and restart counts
included; one nullspace block pins the peak-shaving solve itself, which
the coarse error rates would not notice.  A fixed seed must keep producing
these bytes; a change that moves any of them has to say why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdprecode import analysis, precoder
from sdprecode.channel import ArrayGeometry, make_constellation, steering_matrix
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
    "mrt_generalized": [
        "0,0.23046875,0.0625,nan,0.05158877819,256",
        "4,0.0546875,0.013671875,nan,0.02785273353,256",
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

# slp_multiuser at its shipped seed 1, under each margin solver.
EXPECTED_SOLVES = {
    "slp_dual": {
        "converged": True,
        "dual_value": -44.251497278320585,
        "duality_gap": 0.0102415130060578,
        "iterations": 631,
        "objective": -46.534046454843335,
        "peak_rail": 1.0,
        "restarts": 3,
        "solver": "dual",
        "worst_margin": 46.53404645484338,
    },
    "slp_primal": {
        "converged": False,
        "iterations": 2000,
        "objective": -9.013112480867257,
        "peak_rail": 0.3846607119653676,
        "restarts": 0,
        "solver": "primal",
        "worst_margin": 9.013112480867255,
    },
}

EXPECTED_DIGESTS = {
    "spectrum":
        "14d0ef4652854a078511db29aaec1d0fec84a8724166c60d9e74bca45c62a1d1",
    "scatter":
        "756a2463a8e7fbd92280b6fc0c986bd587ac30394681d6f8fa74184dc56f6220",
}


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
        steering_matrix(ArrayGeometry(n, 0.125), angles), gains, noise_std,
        symbols, params=spec.apg_params("nullspace"))
    meta = out.metadata
    assert float(meta["gamma"]) == pytest.approx(EXPECTED_SHAVE["gamma"],
                                                 rel=1e-12)
    assert int(meta["iterations"]) == EXPECTED_SHAVE["iterations"]
    assert bool(meta["converged"]) == EXPECTED_SHAVE["converged"]
