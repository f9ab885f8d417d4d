"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402


@pytest.fixture
def recorder():
    rec = Recorder()
    rec.install()
    yield rec
    rec.uninstall()


def test_wrappers_return_what_the_wrapped_functions_return(recorder, tmp_path):
    import fracspec.acceptance as acc
    import fracspec.experiments as ex
    from fracspec.cantor import build_level, middle_thirds_params, write_level_csv
    from fracspec.fourier import cantor_fourier_grid
    from fracspec.geometry import (
        PointCloud,
        ScaleSweep,
        covering_number,
        minkowski_ratio_sweep,
        packing_number,
    )
    from fracspec.numeric import LogRatio
    from fracspec.tauberian import GridFunction, circulant_rank

    originals = {(m.__name__, attr): fn for m, attr, fn in recorder._patched}
    write_csv = originals[("fracspec.experiments", "write_csv")]
    for module, attr, fn in recorder._patched:
        assert getattr(module, attr).__wrapped__ is fn

    params = middle_thirds_params()
    level = ex.build_level(params, 6)
    assert level == build_level(params, 6)

    xi = np.linspace(0.5, 40.0, 257)
    got = acc.cantor_fourier_grid(params, 10, xi)
    want = cantor_fourier_grid(params, 10, xi)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)

    cloud = PointCloud.from_points([(Fraction(k, 7),) for k in (0, 1, 3, 4, 6)])
    assert acc.covering_number(cloud, Fraction(1, 5)) == covering_number(cloud, Fraction(1, 5))
    assert acc.packing_number(cloud, Fraction(1, 5)) == packing_number(cloud, Fraction(1, 5))

    spec = ScaleSweep(eps_max=Fraction(1, 9), ratio=Fraction(1, 3), count=4)
    assert acc.minkowski_ratio_sweep(level.intervals, LogRatio(2, 3), spec) == (
        minkowski_ratio_sweep(level.intervals, LogRatio(2, 3), spec)
    )

    f = GridFunction(np.arange(16.0) + 1j)
    assert acc.circulant_rank(f) == circulant_rank(f)

    ex.write_level_csv(level, tmp_path / "traced.csv")
    write_level_csv(level, tmp_path / "plain.csv")
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    rows = [("a", 1, 0.25), ("b", 2, 1 / 3)]
    ex.write_csv(tmp_path / "t.csv", ("k", "n", "x"), rows)
    write_csv(tmp_path / "p.csv", ("k", "n", "x"), rows)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()

    counts = recorder.counts
    assert counts["cantor.build_level"] == {"calls": 1, "intervals": 64}
    assert counts["fourier.cantor_fourier_grid"]["xi"] == 257
    assert counts["cantor.write_level_csv"]["bytes"] == (tmp_path / "plain.csv").stat().st_size
    names = recorder.summary()["names"]
    assert set(names) >= {"geometry.covering_number", "tauberian.circulant_rank"}


def test_uninstall_restores_the_module_namespaces():
    import fracspec.acceptance as acc
    import fracspec.experiments as ex

    before = (dict(vars(ex)), dict(vars(acc)))
    rec = Recorder()
    rec.install()
    assert ex.build_level is not before[0]["build_level"]
    rec.uninstall()
    assert (dict(vars(ex)), dict(vars(acc))) == before


def test_self_time_excludes_layer_spans():
    rec = Recorder()
    span = rec.begin_step("step")
    rec.wrap("cantor.fake", lambda: None)()
    inner = rec.spans[1]
    rec.end_step(span, inner[1] - 1.0, inner[2] + 2.0)
    summary = rec.summary()
    step = summary["steps"]["step"]
    assert step["self_s"] == pytest.approx(3.0)
    assert step["s"] == pytest.approx(3.0 + inner[2] - inner[1])
    assert summary["names"]["cantor.fake"]["calls"] == 1


def test_spans_read_the_recorders_clock():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.wrap("cantor.fake", lambda: None)()
    assert rec.summary()["names"]["cantor.fake"]["s"] == 1.0


def _busy(seconds):
    from time import thread_time

    end = thread_time() + seconds
    while thread_time() < end:
        pass


def test_step_on_a_worker_thread_is_counted():
    def main(argv):
        worker = threading.Thread(target=_busy, args=(0.3,))
        worker.start()
        worker.join()
        return 0

    record = child._run_step(main, [], None, "threaded", child.SpeedSampler())
    assert record["exit"] == 0
    assert record["cpu_s"] >= 0.25
    assert record["elapsed_s"] >= 0.25


def test_sampler_keeps_the_cpu_clock_fine_grained():
    from time import perf_counter

    readings = set()
    with child.SpeedSampler() as sampler:
        end = perf_counter() + 0.05
        while perf_counter() < end:
            readings.add(sampler.cpu())
    assert sampler.times
    assert len(readings) > 1000


def _record(**fields):
    record = {"exit": 0, "traceback": None, "stdout_last": "", "report": None, "hashes": {}}
    record.update(fields)
    return record


def test_gate_rejects_wrong_outcomes():
    dim = Step("dim", ("dim",), "seed = 1\n", checks=(("abs_error", "<=", 0.02),))
    good = {"flags": {}, "metrics": {"abs_error": 0.0}}
    hashes = {"dim/counts.csv": "x"}
    assert run.step_problems(dim, _record(report=good, hashes=hashes)) == []
    bad = {"flags": {}, "metrics": {"abs_error": 0.1}}
    assert run.step_problems(dim, _record(report=bad, hashes=hashes))
    assert run.step_problems(dim, _record(report=good, hashes=hashes, exit=1))
    assert run.step_problems(dim, _record(report=good))
    assert run.step_problems(dim, _record(report=good, hashes=hashes, traceback="Traceback\nKeyError"))

    salem = next(s for s in WORKLOADS["acceptance"](1).steps if s.id == "salem-decay")
    failed = json.dumps({"criteria": {"salem-decay": False}, "failed": 1, "passed": 0})
    passed = json.dumps({"criteria": {"salem-decay": True}, "failed": 0, "passed": 1})
    assert run.step_problems(salem, _record(exit=1, stdout_last=failed)) == []
    assert run.step_problems(salem, _record(exit=0, stdout_last=passed))
    assert run.step_problems(salem, _record(exit=1, stdout_last=""))


def test_hash_gate_flags_changed_artifacts():
    bench = run.Run(ROOT, "exact-levels", 5, tiny=True)
    bench.expected_hashes = {"construct": {"construct/level.csv": "0" * 64}}
    assert bench.sample(0, traced=False) is not None
    assert bench.failed == 1
    assert "construct" in bench.problems[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(workload):
    bench, setups, samples = run.measure(ROOT, workload, 3, 0, trace=False, tiny=True)
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted == len(bench.workload.steps)
    values = run.end_to_end_metrics(bench.workload, setups, samples)
    assert set(values) == set(run.END_TO_END)
    assert all(v and min(v) > 0 for v in values.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_artifacts_match_untraced(workload):
    bench, setups, samples = run.measure(ROOT, workload, 4, 0, trace=True, tiny=True)
    assert [traced for traced, _ in samples] == [False, True]
    assert bench.failed == 0, bench.problems
    (_, plain), (_, traced) = samples
    assert [s["hashes"] for s in plain["steps"]] == [s["hashes"] for s in traced["steps"]]
    assert [s["exit"] for s in plain["steps"]] == [s["exit"] for s in traced["steps"]]
    values = run.per_layer_metrics(bench.workload, setups, samples)
    assert set(values) == set(run.PER_LAYER)
    trace_dir = run.write_trace(bench, samples, values)
    assert (trace_dir / "spans.jsonl").stat().st_size > 0
    assert "overhead" in (trace_dir / "layers.tsv").read_text()


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]](1).why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
