#!/usr/bin/env python
"""Where do the Joules go? Energy accounting per memory-management policy.

§IV-C of the paper argues that moving short-lived tensors is "highly
inefficient in terms of both performance and energy efficiency"; this
example quantifies the claim on the simulated Optane machine and drills
into Sentinel's run to show which tensor kinds the traffic and the
exposed migration stall belong to.

Usage::

    python examples/energy_analysis.py [model] [fast_fraction]
"""

import sys

from repro.harness import format_table, run_policy
from repro.mem import OPTANE_ENERGY, estimate_step_energy
from repro.obs import EventTracer, InsightCollector, attribute, join_stall_attribution


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "resnet32"
    fraction = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2

    # Sentinel's run is also observed: an event trace for the step
    # attribution and tensor insight for the per-tensor drill-down.
    tracer, insight = EventTracer(), InsightCollector()
    rows = []
    for policy in ("slow-only", "first-touch", "ial", "autotm", "sentinel"):
        frac = None if policy == "slow-only" else fraction
        observe = {"tracer": tracer, "insight": insight} if policy == "sentinel" else {}
        metrics = run_policy(policy, model=model, fast_fraction=frac, **observe)
        energy = estimate_step_energy(metrics, OPTANE_ENERGY)
        rows.append(
            (
                policy,
                f"{metrics.step_time:.4f}",
                f"{energy.fast_access:.2f}",
                f"{energy.slow_access:.2f}",
                f"{energy.migration:.2f}",
                f"{energy.total:.2f}",
            )
        )
    print(
        format_table(
            ("policy", "step (s)", "fast J", "slow J", "migration J", "total J"),
            rows,
            title=f"Energy per training step — {model}, fast = {fraction:.0%} of peak",
        )
    )

    # Drill-down: bytes each tensor kind touched and migrated over
    # Sentinel's run, and the exposed migration stall joined onto the
    # tensors whose migrations landed in each step.
    attribution = attribute(tracer.events, dropped=tracer.dropped)
    report = insight.report()
    join_stall_attribution(report, attribution)
    by_kind = {}
    for row in report["tensors"]:
        touched, migrated, stall = by_kind.get(row["kind"], (0, 0, 0.0))
        by_kind[row["kind"]] = (
            touched + row["bytes_touched"],
            migrated + row["migrated_bytes"],
            stall + row["stall"],
        )
    print(
        format_table(
            ("tensor kind", "touched (MiB)", "migrated (MiB)", "stall (ms)"),
            [
                (kind, f"{touched / 2**20:.0f}", f"{migrated / 2**20:.0f}",
                 f"{stall * 1e3:.2f}")
                for kind, (touched, migrated, stall) in sorted(by_kind.items())
            ],
            title="\nSentinel's traffic by tensor kind (short-lived temps "
            "should migrate ~never: the reservation works)",
        )
    )
    step = attribution.steps[-1]
    print(
        format_table(
            ("component", "seconds"),
            [(name, f"{seconds:.4f}") for name, seconds in step.components().items()],
            title=f"\nmeasured step {step.step}: {step.duration:.4f}s, split "
            "exclusively on the critical path",
        )
    )


if __name__ == "__main__":
    main()
