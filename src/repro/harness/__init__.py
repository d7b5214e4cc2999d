"""Experiment harness: run (model x policy x platform) and report.

* :mod:`repro.harness.runner` — single-run orchestration, the
  :class:`~repro.harness.runner.Scenario` every entry point builds its
  machine from, and the maximum-batch-size search.
* :mod:`repro.harness.report` — plain-text tables/series matching the
  paper's figures and tables.
* :mod:`repro.harness.experiments` — one entry point per paper artifact
  (Figure 5..13, Table III..V); the benchmarks are thin wrappers over these.
* :mod:`repro.harness.cluster` — multi-workload co-scheduling on one
  machine via the discrete-event engine.
"""

from repro.harness.runner import RunMetrics, Scenario, max_batch_size, run_policy
from repro.harness.report import format_bars, format_series, format_table, jsonable
from repro.harness.sweeps import SweepPoint, SweepResult, sweep
from repro.harness.cluster import (
    ClusterReport,
    WorkloadReport,
    WorkloadSpec,
    run_concurrent,
)

__all__ = [
    "RunMetrics",
    "Scenario",
    "run_policy",
    "max_batch_size",
    "run_concurrent",
    "WorkloadSpec",
    "WorkloadReport",
    "ClusterReport",
    "format_table",
    "format_series",
    "format_bars",
    "jsonable",
    "sweep",
    "SweepResult",
    "SweepPoint",
]
