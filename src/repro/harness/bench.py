"""Perf-regression benchmark harness over the attribution engine.

Runs traced end-to-end policy runs per model, attributes every step via
:mod:`repro.obs.critpath`, and emits two JSON artifacts:

* ``BENCH_step_time.json`` — per-model steady-state step times (the
  gating surface: median simulated step time, deterministic by
  construction, so CI can fail on >5% regressions without wall-clock
  noise);
* ``BENCH_attribution.json`` — the full component breakdown and what-if
  answers per model (the perf trajectory record: future policy PRs justify
  themselves against this file's history).

Both artifacts are byte-stable for a given tree: they contain only
simulated-time quantities, never wall-clock timings or dates, so
regenerating them on an unchanged tree produces an identical file and the
committed baselines never churn.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.runner import (
    EXPERIMENT_WARMUP_STEPS,
    STEADY_STEPS,
    run_policy,
)
from repro.obs.critpath import Attribution, attribute
from repro.obs.trace import EventTracer

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_BENCH_MODELS",
    "attribution_benchmark",
    "step_time_payload",
    "write_bench",
    "load_bench",
    "check_regression",
    "wallclock_benchmark",
    "check_wallclock_regression",
]

#: Schema version stamped into both artifacts; bump on shape changes.
BENCH_SCHEMA = 1

#: The CI smoke set: small models that exercise the full Sentinel lifecycle.
DEFAULT_BENCH_MODELS = ("dcgan", "lstm")


def attribution_benchmark(
    models: Sequence[str] = DEFAULT_BENCH_MODELS,
    policy: str = "sentinel",
    fast_fraction: float = 0.2,
    steady_steps: int = STEADY_STEPS,
) -> Dict:
    """Run the attribution benchmark and return the full payload.

    Each model runs traced under ``policy`` with fast memory sized to
    ``fast_fraction`` of its peak; every step is attributed, and the
    steady-state tail (the last ``steady_steps`` steps, past warmup and
    profiling) yields the gated median step time.
    """
    out: Dict = {
        "schema": BENCH_SCHEMA,
        "policy": policy,
        "fast_fraction": fast_fraction,
        "steady_steps": steady_steps,
        "models": {},
    }
    for model in models:
        tracer = EventTracer()
        run_policy(
            policy,
            model=model,
            fast_fraction=fast_fraction,
            steady_steps=steady_steps,
            tracer=tracer,
        )
        attribution = attribute(tracer.events, tracer.dropped)
        out["models"][model] = _model_entry(attribution, steady_steps)
    return out


def _model_entry(attribution: Attribution, steady_steps: int) -> Dict:
    steady = attribution.steps[-steady_steps:]
    totals = {key: round(value, 9) for key, value in attribution.totals().items()}
    return {
        "steps": len(attribution),
        "step_times": [round(step.duration, 9) for step in attribution],
        "median_step_time": round(
            attribution.median_step_time(last=steady_steps), 9
        ),
        "attribution_totals": totals,
        "steady_attribution": {
            key: round(sum(step.components()[key] for step in steady), 9)
            for key in totals
        },
        "what_if_free_migration": round(
            attribution.what_if_free_migration(last=steady_steps), 9
        ),
        "what_if_2x_bandwidth": round(
            attribution.what_if_bandwidth_scale(2.0, last=steady_steps), 9
        ),
    }


def step_time_payload(payload: Dict) -> Dict:
    """Project the gating subset (``BENCH_step_time.json``) out of the
    full attribution payload — only what the regression check compares."""
    return {
        "schema": payload["schema"],
        "policy": payload["policy"],
        "fast_fraction": payload["fast_fraction"],
        "models": {
            model: {
                "median_step_time": entry["median_step_time"],
                "step_times": entry["step_times"],
            }
            for model, entry in sorted(payload["models"].items())
        },
    }


def write_bench(payload: Dict, path: Path) -> None:
    """Write a benchmark artifact as canonical JSON (sorted keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench(path: Path) -> Optional[Dict]:
    """Load a benchmark artifact, or ``None`` when it does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_regression(
    baseline: Dict, current: Dict, threshold: float = 0.05
) -> List[str]:
    """Compare two step-time payloads; return regression descriptions.

    A model regresses when its median simulated step time grows more than
    ``threshold`` relative to the baseline.  Models present on only one
    side are reported too (a silently vanished benchmark is not a pass);
    improvements are never failures.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    problems: List[str] = []
    base_models = baseline.get("models", {})
    cur_models = current.get("models", {})
    for model in sorted(base_models):
        if model not in cur_models:
            problems.append(f"{model}: missing from current benchmark run")
            continue
        base = base_models[model]["median_step_time"]
        cur = cur_models[model]["median_step_time"]
        if base <= 0.0:
            continue
        growth = (cur - base) / base
        if growth > threshold:
            problems.append(
                f"{model}: median step time regressed {growth * 100.0:.1f}% "
                f"({base:.6f}s -> {cur:.6f}s, threshold {threshold * 100.0:.0f}%)"
            )
    for model in sorted(cur_models):
        if model not in base_models:
            problems.append(
                f"{model}: not in baseline — regenerate the baseline to adopt it"
            )
    return problems


# --------------------------------------------------------------- wall clock
#
# Unlike the simulated-time artifacts above, wall-clock throughput depends
# on the machine running the benchmark.  The gated quantity is therefore a
# work count instead: Python function calls into ``repro`` per simulated
# step, counted by cProfile.  Builtins and the standard library are left
# out, so the count depends on neither machine speed nor interpreter
# internals, and it repeats exactly from process to process.  Steps/sec is
# recorded for trend reading only.

#: Schema version for ``BENCH_wallclock.json``.
WALLCLOCK_SCHEMA = 2

#: Repeats per model for the timed runs; the slowest ``WALLCLOCK_TRIM``
#: are dropped before taking the median, which discards GC pauses and
#: CI-runner noise spikes without rewarding lucky fast outliers.
WALLCLOCK_REPEATS = 5
WALLCLOCK_TRIM = 1

#: Directory whose functions count towards ``calls_per_step``.
_PACKAGE_DIR = str(Path(__file__).resolve().parents[1])


def _trimmed_median(samples: Sequence[float], trim: int) -> float:
    """Median after dropping the ``trim`` largest samples.

    Wall-clock noise on shared runners is one-sided (preemption only makes
    runs slower), so only the slow tail is trimmed.
    """
    if not samples:
        raise ValueError("need at least one sample")
    kept = sorted(samples)[: max(1, len(samples) - trim)]
    mid = len(kept) // 2
    if len(kept) % 2:
        return kept[mid]
    return (kept[mid - 1] + kept[mid]) / 2.0


def _simulated_steps(policy: str, steady_steps: int) -> int:
    """Steps one ``run_policy`` call executes (mirrors the runner's count)."""
    total = steady_steps
    if policy.startswith("sentinel"):
        total += EXPERIMENT_WARMUP_STEPS + 1
    return total


def _package_calls(run: Callable[[], object]) -> int:
    """Calls to functions defined under ``src/repro`` while ``run`` runs."""
    import cProfile
    import os
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(run)
    prefix = _PACKAGE_DIR + os.sep
    return sum(
        total_calls
        for (filename, _, _), (_, total_calls, _, _, _) in pstats.Stats(
            profiler
        ).stats.items()
        if os.path.abspath(filename).startswith(prefix)
    )


def wallclock_benchmark(
    models: Sequence[str] = DEFAULT_BENCH_MODELS,
    policy: str = "sentinel",
    fast_fraction: float = 0.2,
    steady_steps: int = STEADY_STEPS,
    repeats: int = WALLCLOCK_REPEATS,
    trim: int = WALLCLOCK_TRIM,
) -> Dict:
    """Measure per-model work and wall-clock throughput.

    Each model runs ``repeats`` timed times; the slow tail is trimmed and
    the median gives ``steps_per_sec``, which is machine-dependent context.
    One further run under cProfile gives ``calls_per_step``, the CI-gated
    quantity: calls to functions defined in the ``repro`` package per
    simulated step.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    out: Dict = {
        "schema": WALLCLOCK_SCHEMA,
        "policy": policy,
        "fast_fraction": fast_fraction,
        "steady_steps": steady_steps,
        "repeats": repeats,
        "trim": trim,
        "models": {},
    }
    steps = _simulated_steps(policy, steady_steps)
    for model in models:

        def run() -> None:
            run_policy(
                policy,
                model=model,
                fast_fraction=fast_fraction,
                steady_steps=steady_steps,
            )

        seconds: List[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - start)
        out["models"][model] = {
            "calls_per_step": round(_package_calls(run) / steps, 1),
            "steps_per_sec": round(steps / _trimmed_median(seconds, trim), 3),
        }
    return out


def check_wallclock_regression(
    baseline: Dict, current: Dict, band: float = 0.05
) -> List[str]:
    """Gate ``calls_per_step`` against the committed baseline.

    A model fails when its current ``calls_per_step`` exceeds the
    baseline's by more than ``band`` (relative).  The count is
    deterministic for a given tree, so the band only has to absorb
    interpreter-version differences; fewer calls always pass.
    ``steps_per_sec`` is never gated (different CI hardware would fail
    spuriously).
    """
    if band < 0.0:
        raise ValueError(f"band must be non-negative, got {band!r}")
    problems: List[str] = []
    base_models = baseline.get("models", {})
    cur_models = current.get("models", {})
    for model in sorted(base_models):
        if model not in cur_models:
            problems.append(f"{model}: missing from current wallclock run")
            continue
        base = base_models[model]["calls_per_step"]
        cur = cur_models[model]["calls_per_step"]
        if base > 0 and cur > base * (1.0 + band):
            problems.append(
                f"{model}: calls per step grew {100.0 * (cur - base) / base:.1f}% "
                f"over baseline ({base:,.1f} -> {cur:,.1f}, band {band * 100.0:.0f}%)"
            )
    for model in sorted(cur_models):
        if model not in base_models:
            problems.append(
                f"{model}: not in wallclock baseline — regenerate to adopt it"
            )
    return problems
