"""Benchmark entry point: one workload, one seed, end-to-end or traced metrics.

Run from the repository root::

    python3 perfbench/run.py --workload zoo-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (the median
of several cold starts in fresh interpreters), then whole passes of the
workload body for ``--seconds`` (at least one), reporting the median pass
as ``wall_s``, the process's peak RSS, and the simulated metrics.
``--trace 1`` measures the per-layer metrics instead: one untraced pass,
one pass with every layer wrapped in spans (plus an event tracer and the
invariant auditor on training cells), one cProfile pass for per-package
call counts, and the hook-overhead table.

Metric names, units and directions come from ``BENCHMARK.json``.  Every
run checks the simulator's outputs; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Cold starts measured per run for ``setup_s`` (after one unmeasured
#: start that fills the bytecode cache).
SETUP_SAMPLES = 5

#: Layers reported as steps and events rather than calls (see ``per_layer``).
COUNTED_APART = ("dnn.executor", "sim.engine")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced-size workloads for the benchmark's tests"
    )
    return parser.parse_args(argv)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    return env


def measure_setup(args) -> float:
    """Median cold start, each in a fresh interpreter (see ``setup_probe.py``)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        if index:
            samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return median(samples)


def timed_pass(workload, tracing=None):
    start = time.perf_counter()
    result = workload.run_pass(tracing)
    result.wall_s = time.perf_counter() - start
    result.problems.extend(workload.check(result.outcome))
    return result


def end_to_end(args, workload):
    """Untraced passes for ``--seconds``; returns (metrics, passes, report lines)."""
    metrics = {"setup_s": measure_setup(args)}
    passes = [timed_pass(workload)]
    start = time.perf_counter() - passes[0].wall_s
    # Start another pass only while it is expected to end within --seconds.
    while time.perf_counter() - start + median(p.wall_s for p in passes) <= args.seconds:
        passes.append(timed_pass(workload))
    first = workload.canonical(passes[0].outcome)
    for index, later in enumerate(passes[1:], start=2):
        if workload.canonical(later.outcome) != first:
            later.problems.append(f"pass {index} simulated different results from pass 1")
    metrics["wall_s"] = median(p.wall_s for p in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim = workload.sim_metrics(passes[0].outcome, workload.reference())
    lines = [
        f"passes {len(passes)}: wall_s of each "
        + ", ".join(f"{p.wall_s:.3f}" for p in passes),
        f"latency samples {sim.pop('latency_count')}, "
        f"{sim.pop('latency_beyond_p90')} beyond p90",
    ]
    metrics.update(sim)
    return metrics, passes, lines + workload.report(passes[0].outcome)


def per_layer(args, workload):
    """The traced run; returns (metrics, passes, report lines)."""
    from hooks import hook_table, package_calls
    from layers import LAYERS, Instrumentation
    from repro.harness.runner import STEADY_STEPS
    from workloads import CRITPATH_METRICS, CellTracer

    plain = timed_pass(workload)
    instrumentation = Instrumentation()
    tracing = CellTracer(instrumentation, STEADY_STEPS) if workload.training else None
    with instrumentation:
        traced = timed_pass(workload, tracing)
    if workload.canonical(traced.outcome) != workload.canonical(plain.outcome):
        traced.problems.append("the traced pass simulated different results from the untraced pass")
    if tracing is not None:
        traced.problems.extend(tracing.problems)

    calls, self_s = instrumentation.calls, instrumentation.self_s
    metrics: Dict[str, float] = {}
    for layer in (name for name in LAYERS if name not in COUNTED_APART):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["dnn.executor.steps"] = instrumentation.steps["dnn.executor"]
    metrics["dnn.executor.self_s"] = self_s["dnn.executor"]
    events = instrumentation.events
    metrics["sim.engine.events"] = events
    metrics["sim.engine.host_us_per_event"] = self_s["sim.engine"] / events * 1e6 if events else 0.0

    counters: Dict[str, float] = {}
    for machine in instrumentation.machines:
        for key, value in machine.stats.counters("").items():
            counters[key] = counters.get(key, 0) + value
    extras = tracing.extras if tracing is not None else {}
    for component, name in CRITPATH_METRICS.items():
        metrics[name] = tracing.components[component] if tracing is not None else 0.0
    metrics["mem.migration.promoted_bytes"] = counters.get("migration.promoted_bytes", 0)
    metrics["mem.migration.demoted_bytes"] = counters.get("migration.demoted_bytes", 0)
    landed = extras.get("prefetch_landed_bytes", 0.0)
    metrics["core.runtime.prefetch_landed_frac"] = (
        landed / tracing.prefetch_promoted if landed else 0.0
    )
    decisions = calls["mem.admission.decide"]
    metrics["mem.admission.admit_frac"] = (
        counters.get("admission.admitted", 0) / decisions if decisions else 0.0
    )
    migrations = extras.get("insight.migration_events", 0.0)
    metrics["obs.insight.pingpong_frac"] = (
        extras.get("insight.pingpong_events", 0.0) / migrations if migrations else 0.0
    )
    metrics["mem.pressure.reclaimed_bytes"] = counters.get("pressure.reclaimed_bytes", 0)
    arrivals = counters.get("serve.arrivals", 0)
    metrics["serve.shed_frac"] = counters.get("serve.shed", 0) / arrivals if arrivals else 0.0
    metrics["serve.retries"] = counters.get("serve.retry", 0)
    waits = instrumentation.queue_waits
    metrics["serve.queue_wait_p50_s"] = median(waits) if waits else 0.0
    metrics["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    del instrumentation, tracing

    counts = package_calls(lambda: workload.run_pass())
    for entry in args.spec["per_layer"]:
        if entry["name"].startswith("calls."):
            metrics[entry["name"]] = counts[entry["name"][len("calls."):]]
    hooks, hook_lines, hook_problems = hook_table(repeats=1 if args.smoke else 3)
    metrics.update(hooks)
    traced.problems.extend(hook_problems)
    lines = [
        f"untraced pass {plain.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s",
    ] + hook_lines + workload.report(plain.outcome)
    return metrics, [plain, traced], lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SOURCE / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no simulator source under {SOURCE}", file=sys.stderr)
        return 2
    spec = args.spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SOURCE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](seed=args.seed, smoke=args.smoke)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        metrics, passes, lines = (per_layer if args.trace else end_to_end)(args, workload)
    except Exception as exc:  # a crashed run is a failed run, reported as such
        print(f"perfbench: {args.workload} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    problems: List[str] = [p for result in passes for p in result.problems]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    problems += [f"metric {name} was not measured" for name in missing]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and not failed

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(f"{'metric':<40} {'value':>18} {'unit':<8} better")
    for entry in declared:
        value = metrics.get(entry["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{entry['name']:<40} {shown:>18} {entry['unit']:<8} {entry['better']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed + (1 if problems and not failed else 0),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
