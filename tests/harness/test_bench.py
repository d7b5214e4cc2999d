"""Benchmark harness: artifact shape, byte-stability, and the regression gate."""

import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    attribution_benchmark,
    check_regression,
    load_bench,
    step_time_payload,
    write_bench,
)


@pytest.fixture(scope="module")
def payload():
    return attribution_benchmark(models=("dcgan",))


class TestArtifacts:
    def test_payload_shape(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        entry = payload["models"]["dcgan"]
        assert entry["steps"] == len(entry["step_times"])
        assert entry["median_step_time"] > 0.0
        assert set(entry["attribution_totals"]) == {
            "compute",
            "migration_stall",
            "channel_contention",
            "fault",
            "pressure_reclaim",
            "ras_recovery",
            "idle",
        }
        # What-ifs are bounds: free migration <= measured median.
        assert entry["what_if_free_migration"] <= entry["median_step_time"]
        assert entry["what_if_2x_bandwidth"] <= entry["median_step_time"]

    def test_step_time_projection(self, payload):
        gate = step_time_payload(payload)
        assert gate["schema"] == payload["schema"]
        assert set(gate["models"]["dcgan"]) == {"median_step_time", "step_times"}

    def test_write_and_load_round_trip(self, payload, tmp_path):
        path = tmp_path / "nested" / "BENCH_step_time.json"
        gate = step_time_payload(payload)
        write_bench(gate, path)
        assert load_bench(path) == gate
        # Canonical rendering: sorted keys, trailing newline, rewritable.
        first = path.read_text()
        assert first.endswith("\n")
        write_bench(json.loads(first), path)
        assert path.read_text() == first

    def test_load_missing_returns_none(self, tmp_path):
        assert load_bench(tmp_path / "absent.json") is None


def gate(median, model="dcgan"):
    return {
        "schema": BENCH_SCHEMA,
        "models": {model: {"median_step_time": median, "step_times": [median]}},
    }


class TestRegressionGate:
    def test_identical_run_passes(self):
        assert check_regression(gate(1.0), gate(1.0)) == []

    def test_within_threshold_passes(self):
        assert check_regression(gate(1.0), gate(1.04)) == []

    def test_beyond_threshold_fails(self):
        problems = check_regression(gate(1.0), gate(1.06))
        assert len(problems) == 1
        assert "regressed" in problems[0] and "dcgan" in problems[0]

    def test_improvement_passes(self):
        assert check_regression(gate(1.0), gate(0.5)) == []

    def test_custom_threshold(self):
        assert check_regression(gate(1.0), gate(1.04), threshold=0.01)
        assert not check_regression(gate(1.0), gate(1.3), threshold=0.5)
        with pytest.raises(ValueError):
            check_regression(gate(1.0), gate(1.0), threshold=-0.1)

    def test_model_missing_from_current_fails(self):
        baseline = gate(1.0)
        baseline["models"]["lstm"] = {"median_step_time": 2.0, "step_times": [2.0]}
        problems = check_regression(baseline, gate(1.0))
        assert any("lstm" in p and "missing" in p for p in problems)

    def test_model_missing_from_baseline_is_reported(self):
        problems = check_regression(gate(1.0), gate(1.0, model="other"))
        assert any("not in baseline" in p for p in problems)
        assert any("missing from current" in p for p in problems)


class TestCommittedBaseline:
    def test_committed_baseline_matches_current_tree(self):
        # The CI gate compares against benchmarks/BENCH_step_time.json; a
        # drifted committed baseline would make every CI run fail (or pass
        # vacuously), so regenerating it must reproduce the committed file.
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        committed = load_bench(root / "benchmarks" / "BENCH_step_time.json")
        assert committed is not None, "baseline missing — run: repro bench"
        fresh = step_time_payload(
            attribution_benchmark(models=tuple(sorted(committed["models"])))
        )
        assert check_regression(committed, fresh) == []
        assert fresh == committed, (
            "committed BENCH_step_time.json is stale — regenerate with "
            "PYTHONPATH=src python -m repro bench --out-dir benchmarks"
        )


class TestWallclock:
    def test_trimmed_median_drops_slow_tail_only(self):
        from repro.harness.bench import _trimmed_median

        assert _trimmed_median([1.0, 2.0, 100.0], trim=1) == 1.5
        assert _trimmed_median([3.0], trim=1) == 3.0
        assert _trimmed_median([1.0, 2.0, 3.0, 4.0, 50.0], trim=1) == 2.5
        with pytest.raises(ValueError):
            _trimmed_median([], trim=1)

    def test_wallclock_payload_shape(self):
        from repro.harness.bench import WALLCLOCK_SCHEMA, wallclock_benchmark

        payload = wallclock_benchmark(models=("dcgan",), repeats=1, trim=0)
        assert payload["schema"] == WALLCLOCK_SCHEMA
        entry = payload["models"]["dcgan"]
        assert set(entry) == {"calls_per_step", "steps_per_sec"}
        assert entry["steps_per_sec"] > 0.0
        assert entry["calls_per_step"] > 0.0

    def test_calls_per_step_is_deterministic(self):
        from repro.harness.bench import wallclock_benchmark

        def calls():
            payload = wallclock_benchmark(models=("dcgan",), repeats=1, trim=0)
            return payload["models"]["dcgan"]["calls_per_step"]

        assert calls() == calls()

    def test_package_calls_count_only_repro_functions(self):
        from repro.harness.bench import _package_calls, _trimmed_median

        # The lambdas live in this file and json/sorted/len are stdlib or
        # builtins: only the one call into repro counts.
        assert _package_calls(lambda: json.dumps([len("x")] * 10)) == 0
        assert _package_calls(lambda: _trimmed_median([2.0, 1.0], trim=0)) == 1

    def test_wallclock_gate_band(self):
        from repro.harness.bench import check_wallclock_regression

        def payload(calls):
            return {"models": {"dcgan": {"calls_per_step": calls}}}

        baseline = payload(1000.0)
        assert check_wallclock_regression(baseline, payload(1000.0)) == []
        assert check_wallclock_regression(baseline, payload(1040.0), band=0.05) == []
        assert check_wallclock_regression(baseline, payload(10.0)) == []
        problems = check_wallclock_regression(baseline, payload(1060.0), band=0.05)
        assert problems and "dcgan" in problems[0]

    def test_wallclock_gate_reports_missing_models(self):
        from repro.harness.bench import check_wallclock_regression

        baseline = {"models": {"dcgan": {"calls_per_step": 1000.0}}}
        current = {"models": {"lstm": {"calls_per_step": 1000.0}}}
        problems = check_wallclock_regression(baseline, current)
        assert len(problems) == 2

    def test_committed_wallclock_baseline_has_current_schema(self):
        import pathlib

        from repro.harness.bench import WALLCLOCK_SCHEMA

        root = pathlib.Path(__file__).resolve().parents[2]
        committed = load_bench(root / "benchmarks" / "BENCH_wallclock.json")
        assert committed is not None
        assert committed["schema"] == WALLCLOCK_SCHEMA
        for entry in committed["models"].values():
            assert entry["calls_per_step"] > 0.0

    def test_wallclock_gate_rejects_negative_band(self):
        from repro.harness.bench import check_wallclock_regression

        with pytest.raises(ValueError):
            check_wallclock_regression({}, {}, band=-0.1)
