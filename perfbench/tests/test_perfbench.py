"""Smoke tests of the benchmark on reduced-size workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_RUNS = {}


def run(workload, seed=1, trace=0, root=ROOT):
    """Run the benchmark at smoke size; cached per (workload, seed, trace)."""
    key = (workload, seed, trace, root)
    if key not in _RUNS:
        _RUNS[key] = subprocess.run(
            [
                sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
            ],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
    return _RUNS[key]


def result(workload, seed=1, trace=0):
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def sim_metrics(workload, seed):
    metrics = result(workload, seed)["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.startswith("sim_")}


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_and_checks_pass(workload, trace):
    out = result(workload, trace=trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in declared}
    report = run(workload, trace=trace).stdout
    for metric in declared:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
        row = re.search(
            rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s+{metric['better']}$",
            report,
            re.MULTILINE,
        )
        assert row, f"{metric['name']} missing from the report table"
    for metric in SPEC["end_to_end"] if not trace else []:
        assert out["metrics"][metric["name"]]["value"] > 0
    assert re.search(r"^failed_frac 0\.0000 ", report, re.MULTILINE)


def test_zoo_sweep_prints_the_paper_reference():
    report = run("zoo-sweep").stdout
    assert "paper: within 9% on average" in report
    assert "not validated against hardware" in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_for_a_seed(workload):
    first = sim_metrics(workload, 1)
    _RUNS.pop((workload, 1, 0, ROOT))
    assert sim_metrics(workload, 1) == first


def test_serve_overload_follows_its_seed():
    assert sim_metrics("serve-overload", 1) != sim_metrics("serve-overload", 2)


def test_call_counts_repeat():
    counts = [
        {k: v for k, v in result("zoo-sweep", seed, trace=1)["metrics"].items()
         if k.startswith("calls.")}
        for seed in (1, 2)
    ]
    assert counts[0] == counts[1]


def test_layer_split():
    traced = {w: result(w, trace=1)["metrics"] for w in WORKLOADS}

    def value(workload, name):
        return traced[workload][name]["value"]

    for workload in WORKLOADS:
        on_tournament = workload == "tournament"
        assert (value(workload, "obs.insight.self_s") > 0) == on_tournament
        assert (value(workload, "mem.admission.decide.calls") > 0) == on_tournament
    assert value("serve-overload", "core.runtime.calls") == 0
    assert value("zoo-sweep", "core.runtime.calls") > 0
    for workload in WORKLOADS:
        assert value(workload, "calls.dnn") > 0

    def share(workload, layers):
        names = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_s")]
        total = sum(value(workload, name) for name in names)
        return sum(value(workload, f"{layer}.self_s") for layer in layers) / total

    churn = ("dnn.arena", "mem.pressure")
    assert share("serve-overload", churn) > share("zoo-sweep", churn)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
