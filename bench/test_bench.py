"""Self-tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import sys

import numpy as np
import pytest

from workloads import ROOT, SRC

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from sdprecode import cli, modulator, optim  # noqa: E402
from sdprecode.sim import engine  # noqa: E402


def test_self_time_of_a_synthetic_nested_trace():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
             ["c", 5.0, 9.0, 0], ["d", 6.0, 7.0, 2]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_summary_adds_self_time_per_name_and_layer():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["cli.main", 0.0, 10.0, -1],
                       ["sim.run_ser", 1.0, 9.0, 0],
                       ["optim.project_simplex", 2.0, 3.0, 1],
                       ["optim.project_simplex", 4.0, 6.0, 1]]
    out = tracing.summarize(tracer, rounds=2)
    assert out["optim.project_simplex.calls"] == 1.0
    assert out["optim.project_simplex.self_s"] == pytest.approx(1.5)
    assert out["sim.run_ser.self_s"] == pytest.approx(2.5)
    assert out["cli.main.self_s"] == pytest.approx(1.0)
    assert out["layer.optim.self_frac"] == pytest.approx(0.3)
    assert sum(v for k, v in out.items() if k.startswith("layer.")) \
        == pytest.approx(1.0)


def test_originals_are_restored_after_tracing():
    before = [getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert not tracing.untraced()
            assert hasattr(engine.run_ser, "__wrapped__")
            raise RuntimeError("leave the block early")
    after = [getattr(sys.modules[m], a) for m, a, _ in tracing.TARGETS]
    assert all(x is y for x, y in zip(before, after))
    assert tracing.untraced()


def test_one_bit_is_counted_only_at_top_level():
    xbar = np.full((8, 3), 0.3 + 0.2j)
    tracer = tracing.Tracer()
    with tracer:
        modulator.sd_basic(xbar)
        modulator.one_bit(xbar)
    names = [s[0] for s in tracer.spans]
    assert names == ["modulator.sd_basic", "modulator.one_bit"]
    out = tracing.summarize(tracer, rounds=1)
    assert out["modulator.sd_basic.elements"] == 24
    assert out["modulator.sd_basic.overload_frac"] == 0.0


def test_calls_inside_a_module_are_traced_as_children():
    problem = optim.MinimaxProblem(
        coefficients=np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]]))
    tracer = tracing.Tracer()
    with tracer:
        res = optim.dual_apg(problem, optim.ApgParams(max_iters=5))
    parents = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parents["optim.project_simplex"]][0] == "optim.dual_apg"
    out = tracing.summarize(tracer, rounds=1)
    assert out["optim.dual_apg.instances"] == 1
    assert out["optim.dual_apg.iterations_max"] == res.iterations


def test_traced_cli_run_matches_untraced(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((ROOT / "configs" / "mrt_broadside.yaml").read_text()
                   .replace("trials: 100000", "trials: 64"))
    argv = ["ser", "--config", str(cfg), "--threads", "1", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    with tracer:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    assert (tmp_path / "plain" / "ser.csv").read_bytes() \
        == (tmp_path / "traced" / "ser.csv").read_bytes()
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracing.summarize(tracing.Tracer(), 1)) \
        | {"trace.overhead_frac", "cli.write_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])


def test_reference_check_uses_binomial_interval():
    ref = f"{checks.HEADER}\n0,0.1,0.05,nan,0.01,1000\n"
    near = f"{checks.HEADER}\n0,0.11,0.05,nan,0.01,1000\n"
    far = f"{checks.HEADER}\n0,0.2,0.05,nan,0.01,1000\n"
    assert checks.check_reference(ref, ref, 1) == ([], 1, 1)
    assert checks.check_reference(near, ref, 1)[:2] == ([], 0)
    assert checks.check_reference(far, ref, 1)[0]


def test_row_check_rejects_non_finite_and_off_theory_values():
    raw = {"snr_db": [0], "trials": 1000, "scheme": "mrt"}
    good = f"{checks.HEADER}\n0,0.1,0.05,0.1,0.01,1000\n"
    assert checks.check_rows(good, raw, 1) == []
    assert checks.check_rows(good.replace("0.05", "nan"), raw, 1)
    assert checks.check_rows(good.replace("0,0.1,", "0,0.3,"), raw, 1)


def test_upper_quartile_interpolates_and_takes_a_single_value():
    import measure
    assert measure.upper_quartile([3.0, 1.0, 2.0]) == pytest.approx(2.5)
    assert measure.upper_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    assert measure.upper_quartile([7.0]) == 7.0
