"""Hook overhead on one fixed cell, and per-package cProfile call counts.

The hook table runs ``run_policy("sentinel", model="dcgan",
fast_fraction=0.2)`` with each observability or robustness hook attached
and detached.  ``wall_ratio`` is the median host time with the hook over
the median without it; ``calls_ratio`` is the cProfile call count with
the hook over the count without it, which repeats exactly from run to run.
Where the repository promises that a hook observes without steering, the
simulated results with the hook must equal those without it.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median
from typing import Callable, Counter, Dict, List, Tuple

HOOK_CELL = {"policy_name": "sentinel", "model": "dcgan", "fast_fraction": 0.2}


def _hooks() -> Dict[str, Tuple[Callable[[], dict], object]]:
    """Hook name -> (run_policy kwargs factory, extras prefix or None).

    The second element is ``None`` where no byte-identity is promised
    (chaos and RAS inject faults by design); otherwise simulated results
    must match the hook-free run once extras keys with that prefix, which
    the hook adds by contract, are set aside.
    """
    from repro.chaos import ChaosConfig
    from repro.mem.ras import RASConfig
    from repro.obs import EventTracer, InsightCollector, MetricsRegistry

    return {
        "tracer": (lambda: {"tracer": EventTracer()}, ""),
        "metrics": (lambda: {"metrics": MetricsRegistry()}, ""),
        "insight": (lambda: {"insight": InsightCollector()}, "insight."),
        "admission": (lambda: {"admission": "always"}, "admission."),
        "audit": (lambda: {"audit": True}, ""),
        "chaos": (lambda: {"chaos": ChaosConfig.uniform(0.05, seed=1)}, None),
        "ras": (lambda: {"ras": RASConfig(seed=1, ce_rate=1e-8)}, None),
    }


def _simulated(result: dict, added_prefix: str) -> dict:
    """``result`` without the extras keys a hook adds by contract."""
    if not added_prefix:
        return result
    extras = {k: v for k, v in result["extras"].items() if not k.startswith(added_prefix)}
    return {**result, "extras": extras}


def package_calls(body: Callable[[], object]) -> Counter:
    """Run ``body`` under cProfile and count calls into each top-level
    ``repro`` package or module (``core``, ``chaos``, ...)."""
    import repro

    root = str(Path(repro.__file__).resolve().parent)
    # Builtins are never ``repro`` code; leaving them out makes the pass faster.
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        body()
    finally:
        profile.disable()
    counts: Counter = Counter()
    for (filename, _, _), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items():
        if filename.startswith(root):
            package = Path(filename).relative_to(root).parts[0]
            counts[package.removesuffix(".py")] += ncalls
    return counts


def hook_table(repeats: int = 3) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Measure every hook; returns (metrics, report lines, problems)."""
    from repro.harness.runner import run_policy

    def timed(kwargs_factory) -> Tuple[float, object]:
        kwargs = kwargs_factory()
        start = time.perf_counter()
        metrics = run_policy(**HOOK_CELL, **kwargs)
        return time.perf_counter() - start, metrics

    def total_calls(kwargs_factory) -> int:
        kwargs = kwargs_factory()
        return sum(package_calls(lambda: run_policy(**HOOK_CELL, **kwargs)).values())

    # Round-robin over the repeats so drift in machine speed hits every
    # hook alike; the hook-free run goes first in each round.
    hooks = _hooks()
    gc.collect()
    runs: Dict[str, list] = {"off": [], **{name: [] for name in hooks}}
    for _ in range(repeats):
        runs["off"].append(timed(dict))
        for name, (factory, _) in hooks.items():
            runs[name].append(timed(factory))
    off_wall = median(t for t, _ in runs["off"])
    off_calls = total_calls(dict)
    reference = asdict(runs["off"][0][1])

    metrics: Dict[str, float] = {}
    problems: List[str] = []
    lines = [
        f"hook overhead on {HOOK_CELL['model']}/{HOOK_CELL['policy_name']} at "
        f"fast_fraction {HOOK_CELL['fast_fraction']} (median of {repeats}):",
        f"  {'hook':<10} {'wall_ratio':>10} {'calls_ratio':>11}  simulated results",
    ]
    for name, (factory, added_prefix) in hooks.items():
        on = runs[name]
        wall_ratio = median(t for t, _ in on) / off_wall
        calls_ratio = total_calls(factory) / off_calls
        metrics[f"hook.{name}.wall_ratio"] = wall_ratio
        metrics[f"hook.{name}.calls_ratio"] = calls_ratio
        if added_prefix is None:
            verdict = "may differ (faults injected)"
        elif _simulated(asdict(on[0][1]), added_prefix) == _simulated(reference, added_prefix):
            verdict = "identical"
        else:
            verdict = "DIFFER"
            problems.append(f"hook {name} changed the simulated results")
        lines.append(f"  {name:<10} {wall_ratio:>10.3f} {calls_ratio:>11.3f}  {verdict}")
    return metrics, lines, problems

