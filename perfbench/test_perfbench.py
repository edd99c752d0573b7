"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "campaign-cubic": dict(trials=50, check_trials=20),
    "campaign-coded": dict(trials=20, check_trials=3),
    "certify": dict(trials=20),
    "leakage-exact": dict(q=2, N=2),
}


def tiny(name):
    return replace(run.WORKLOADS[name], **TINY[name])


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "JOBS_PAIRS", 1)
    # Tiny campaigns are too short for the 10% noise-power check.
    monkeypatch.setattr(run, "NOISE_TOL", 1.0)
    return tmp_path


def test_spec_names_the_benchmark_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_reports_every_metric(quick, name, trace):
    result = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert (quick / f"record-{name}-seed3-trace{int(trace)}.json").is_file()


def test_same_seed_gives_same_digest(quick):
    w = tiny("certify")
    first = run.run(w, seed=5, seconds=0, trace=False)["record"]
    second = run.run(w, seed=5, seconds=0, trace=True)["record"]
    other = run.run(w, seed=6, seconds=0, trace=False)["record"]
    assert first["csv_sha256"] == second["csv_sha256"]
    assert first["csv_sha256"] != other["csv_sha256"]


@pytest.mark.parametrize("name, old, new", [
    ("certify", ",0,", ",1,"),                       # failures=1
    ("certify", ",1\n", ",0\n"),                     # passed=0
    ("certify", "max_index", "max_idx"),             # wrong header
    ("leakage-exact", ",1,", ",0,"),                 # identity_ok=0
    ("campaign-cubic", ",50,", ",51,"),              # trials mismatch
])
def test_corrupted_csv_counts_as_failed(quick, name, old, new):
    w = tiny(name)
    cli = run.import_cli()

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(out.read_text().replace(old, new, 1))
        return code

    out = quick / "op.csv"
    good, _ = run.measure(cli, w, run.op_seeds(w, 1), out, 0)
    bad, _ = run.measure(SimpleNamespace(main=corrupting_main), w,
                         run.op_seeds(w, 1), out, 0)
    assert all(op.error is None for op in good)
    assert all(op.error is not None for op in bad)


def test_crashing_op_counts_as_failed(quick):
    def crash(argv):
        raise ZeroDivisionError

    w = tiny("certify")
    ops, _ = run.measure(SimpleNamespace(main=crash), w, run.op_seeds(w, 1),
                         quick / "op.csv", 0)
    assert [op.error for op in ops] == ["raised ZeroDivisionError"] * len(ops)


def test_campaign_check_rejects_noise_power_off_by_more_than_ten_percent():
    w = run.WORKLOADS["campaign-cubic"]
    cells = dict.fromkeys(run.HEADERS["simulate"].split(","), "0")
    cells.update(trials=str(w.trials), seed="7", direct_counts="0;0",
                 predicted_eff_noise_var="0.100000",
                 mean_eff_noise_power="0.111000")
    text = "\n".join(["# config: x seed=7", run.HEADERS["simulate"],
                      ",".join(cells.values())])
    assert "10%" in run.check_csv(w, text, 7)
    assert run.check_csv(w, text.replace("0.111000", "0.109000"), 7) is None


def test_times_are_scaled_by_the_reference_kernel_of_the_same_run():
    w = run.WORKLOADS["certify"]
    # Twelve ops, each 10x the reference kernel run after it, on a machine
    # that gets slower as the run goes on.
    ops = [run.Op(seed=k, wall_s=0.01 * k, cpu_s=0.01 * k, text="",
                  error=None, ref_wall_s=0.001 * k, ref_cpu_s=0.001 * k)
           for k in range(1, 13)]
    values, raw = run.end_to_end_metrics(w, ops, setups=[0.0065])
    assert values["op_s_p50"] == pytest.approx(10 * run.REF_S)
    assert values["op_s_tail"] == pytest.approx(10 * run.REF_S)
    assert values["op_cpu_s_p50"] == pytest.approx(10 * run.REF_S)
    assert values["setup_s"] == pytest.approx(run.REF_S)
    assert values["trials_per_s"] == pytest.approx(w.trials / (10 * run.REF_S))
    assert raw["raw_op_s_p50"] == pytest.approx(0.065)
    assert (raw["op_s_tail_percentile"], raw["op_s_tail_ops_beyond"]) == (
        pytest.approx(100 * 2 / 12), 10)


def _attributes():
    run.import_cli()
    snapshot = {}
    for mod in tracer._lsl_modules():
        for attr, val in vars(mod).items():
            snapshot[(mod.__name__, attr)] = val
    for layer, cls_name, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"lsl.{layer}"], cls_name)
        for attr, val in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = val
    return snapshot


def test_tracing_restores_every_patched_attribute():
    before = _attributes()
    import lsl.lattices
    import lsl.simulate

    quantize = lsl.lattices.quantize
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.Tracer()):
            assert lsl.simulate.quantize is not quantize
            assert lsl.simulate.quantize is lsl.lattices.quantize
            reduce = lsl.lattices.NestedPair.__dict__["reduce"]
            assert reduce is not before[("NestedPair", "reduce")]
            raise RuntimeError("leave the context by an error")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    t = tracer.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = t.wrap("x.inner", inner)
    assert t.wrap("x.outer", outer)() == 2
    s = t.summary()
    assert s["x.outer"]["calls"] == s["x.inner"]["calls"] == 1
    assert s["x.outer"]["self_s"] == pytest.approx(
        s["x.outer"]["wall_s"] - s["x.inner"]["wall_s"])


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
