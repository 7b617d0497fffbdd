"""CLI: artifacts, manifests, determinism, and exit codes."""

import copy
import json
import math
import subprocess
import sys

import pytest
import yaml

from sdprecode.cli import main

MINIMAL = {
    "geometry": {"n_antennas": 32, "spacing_over_wavelength": 0.125},
    "constellation": {"kind": "psk", "order": 8},
    "channel": {"model": "single_path", "angle_deg": 0.0},
    "scheme": "mrt",
    "modulator": "basic",
    "snr_db": [-8.0, -4.0],
    "trials": 400,
    "seed": 11,
    "scatter": {"realizations": 50},
    "spectrum": {"grid_deg": [-90, 90, 5.0], "trials": 16},
}


def _write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_ser_writes_curve_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["ser", "--config", str(cfg), "--out", str(out),
                 "--threads", "1"]) == 0
    lines = (out / "ser.csv").read_text().splitlines()
    assert lines[0] == "snr_db,ser,ber,theory_ser,ci_halfwidth,trials"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ser"
    assert sorted(manifest["artifacts"]) == ["manifest.json", "ser.csv"]
    assert manifest["seed"] == 11
    # Every listed artifact exists.
    for name in manifest["artifacts"]:
        assert (out / name).exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ser", "--config", str(cfg), "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["ser", "--config", str(cfg), "--out", str(out2),
                 "--threads", "1"]) == 0
    assert (out1 / "ser.csv").read_bytes() == (out2 / "ser.csv").read_bytes()


def test_manifest_config_round_trips(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["ser", "--config", str(cfg), "--out", str(out),
                 "--threads", "1"]) == 0
    from sdprecode.sim import SimConfig
    manifest = json.loads((out / "manifest.json").read_text())
    assert SimConfig.from_dict(manifest["config"]) == \
        SimConfig.from_dict(dict(MINIMAL))


def test_seed_and_trials_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["ser", "--config", str(cfg), "--out", str(out),
                 "--seed", "99", "--trials", "123", "--threads", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["trials"] == 123


def test_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("geometry: [unclosed\n")
    assert main(["ser", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_incompatible_pair_exits_2(tmp_path, capsys):
    doc = dict(MINIMAL)
    doc["modulator"] = "steered"
    cfg = _write_cfg(tmp_path, doc)
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "modulator" in err


@pytest.mark.parametrize("patch,key", [
    ({"geometry": {"n_antennas": "abc", "spacing_over_wavelength": 0.125}},
     "geometry.n_antennas"),
    ({"constellation": "psk"}, "constellation"),
    ({"snr_db": ["low", "high"]}, "snr_db"),
    ({"channel": "single_path"}, "channel"),
    ({"geometry": {"n_antennas": 256.5, "spacing_over_wavelength": 0.125}},
     "geometry.n_antennas"),
    ({"constellation": {"kind": "psk", "order": 16.9}},
     "constellation.order"),
    ({"solver": {"nullspace_max_iters": 120.9}}, "solver.nullspace_max_iters"),
    ({"trials": True}, "trials"),
])
def test_mistyped_value_exits_2_naming_the_key(tmp_path, capsys, patch, key):
    cfg = _write_cfg(tmp_path, {**MINIMAL, **patch})
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key}:" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["ser", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 2


def test_empty_angle_list_exits_2(tmp_path):
    doc = dict(MINIMAL)
    doc["scheme"] = "zf"
    doc["channel"] = {"model": "multi_user", "angles_deg": []}
    cfg = _write_cfg(tmp_path, doc)
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path)]) == 2


ZF_USERS = {"scheme": "zf",
            "channel": {"model": "multi_user", "n_users": 2,
                        "gain_model": "pathloss"}}


def _with(doc, key, value):
    """A copy of ``doc`` with the dotted ``key`` set to ``value``."""
    doc = copy.deepcopy(doc)
    *sections, last = key.split(".")
    where = doc
    for section in sections:
        where = where.setdefault(section, {})
    where[last] = value
    return doc


@pytest.mark.parametrize("base,key,value", [
    ({"modulator": "dithered"}, "dither_level", math.nan),
    ({"modulator": "dithered"}, "dither_level", math.inf),
    (ZF_USERS, "channel.min_separation_deg", math.nan),
    (ZF_USERS, "channel.pathloss_ref", math.nan),
    (ZF_USERS, "channel.pathloss_range", [20.0, math.inf]),
    ({}, "snr_db", [0.0, -math.inf]),
    ({}, "spectrum.grid_deg", [-90.0, 90.0, math.nan]),
    ({}, "solver.tol", math.nan),
])
def test_non_finite_value_exits_2_naming_the_key(tmp_path, capsys, base,
                                                 key, value):
    cfg = _write_cfg(tmp_path, _with({**MINIMAL, **base}, key, value))
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path),
                 "--threads", "1"]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err


# Both users at endfire of a half-wavelength array share one steering vector.
ALIASED = {"scheme": "zf",
           "geometry": {"n_antennas": 32, "spacing_over_wavelength": 0.5},
           "channel": {"model": "multi_user"}}


@pytest.mark.parametrize("base,key,value", [
    ({}, "snr_db", [1e5]),
    ({"modulator": "dithered"}, "dither_level", 1e308),
    (ZF_USERS, "channel.pathloss_ref", 1e308),
    (_with(ZF_USERS, "channel.pathloss_range", [1e10, 1e12]),
     "channel.pathloss_ref", 1e-300),
    (ALIASED, "channel.angles_deg", [-90.0, 90.0]),
])
def test_unrunnable_value_exits_2_naming_the_key(tmp_path, capsys, base, key,
                                                 value):
    cfg = _write_cfg(tmp_path, _with({**MINIMAL, **base}, key, value))
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path),
                 "--threads", "1"]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "ser.csv").exists()


def test_threads_below_one_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as info:
        main(["ser", "--config", str(cfg), "--out", str(tmp_path),
              "--threads", "0"])
    assert info.value.code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("doc,flags", [
    ({**MINIMAL, "seed": -1}, []),
    (MINIMAL, ["--seed", "-1"]),
])
def test_negative_seed_exits_2(tmp_path, capsys, doc, flags):
    cfg = _write_cfg(tmp_path, doc)
    assert main(["ser", "--config", str(cfg), "--out", str(tmp_path),
                 "--threads", "1", *flags]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err


def test_scatter_and_spectrum_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["scatter", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "scatter.csv").read_text().splitlines()
    assert lines[0] == "re_true,im_true,re_rx,im_rx"
    assert len(lines) == 51

    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,value_db"
    assert len(lines) == 38  # -90..90 in 5 degree steps, inclusive


def test_solve_prints_diagnostics(tmp_path, capsys):
    doc = {
        "geometry": {"n_antennas": 64, "spacing_over_wavelength": 0.125},
        "constellation": {"kind": "psk", "order": 8},
        "channel": {"model": "multi_user", "n_users": 6,
                    "angle_range_deg": [-30, 30], "gain_model": "pathloss"},
        "scheme": "slp_dual",
        "modulator": "basic",
        "snr_db": [10.0],
        "trials": 10,
        "seed": 2,
    }
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr().out
    assert code in (0, 3)
    assert "iterations:" in captured
    assert "objective:" in captured
    assert "duality gap" in captured
    doc_json = json.loads((out / "solve.json").read_text())
    assert "objective" in doc_json
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code


SLP_SMALL = {
    "geometry": {"n_antennas": 16, "spacing_over_wavelength": 0.125},
    "constellation": {"kind": "psk", "order": 8},
    "channel": {"model": "multi_user", "n_users": 2},
    "scheme": "slp_dual",
    "modulator": "basic",
    "snr_db": [10.0],
    "trials": 4,
    "seed": 3,
}


@pytest.mark.parametrize("command,artifact", [
    ("ser", "ser.csv"), ("spectrum", "spectrum.csv"),
    ("scatter", "scatter.csv"), ("solve", "solve.json"),
])
def test_manifest_contract(tmp_path, command, artifact):
    cfg = _write_cfg(tmp_path, SLP_SMALL if command == "solve" else MINIMAL)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--threads", "1"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["artifacts"] == sorted([artifact, "manifest.json"])
    for name in manifest["artifacts"]:
        assert (out / name).exists()
    assert {"run", "write"} <= manifest["timings_s"].keys()
    assert manifest["exit_status"] == code
    if command in ("ser", "solve"):
        assert (code == 3) == (manifest["solver_nonconverged"] > 0)
    else:
        assert "solver_nonconverged" not in manifest


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, MINIMAL)
    target = tmp_path / "envout"
    monkeypatch.setenv("SDPRECODE_OUT", str(target))
    assert main(["ser", "--config", str(cfg), "--threads", "1"]) == 0
    assert (target / "ser.csv").exists()


def test_console_entry_point_runs(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sdprecode.cli", "ser", "--config", str(cfg),
         "--out", str(out), "--threads", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "manifest.json").exists()


def test_no_partial_artifacts_on_config_error(tmp_path):
    doc = dict(MINIMAL)
    doc["trials"] = 0
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["ser", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "ser.csv").exists()
    assert not (out / "manifest.json").exists()
