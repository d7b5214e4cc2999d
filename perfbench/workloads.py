"""The benchmark's workloads, driven through the simulator's public entry points.

Each workload has one-time construction (:meth:`Workload.setup`, timed
as ``setup_s`` in a fresh interpreter) and a body (:meth:`Workload.run_pass`,
timed as ``wall_s``).  A pass returns a :class:`Pass`: its canonical
simulated outcome, used to compare passes and the traced pass with the
untraced one, plus the problems its output checks found.

* ``zoo-sweep``: seven zoo models under ``fast-only``, ``sentinel`` and
  ``ial`` at 20% fast memory, run back to back (a closed loop of cells).
* ``tournament``: one serial :func:`~repro.harness.tournament.run_tournament`
  call over its default policies, admissions and governors.
* ``serve-overload``: seeded Poisson arrivals of the CLI's serving mix at
  the overload rate, on a 2-slot EDF server with a queue of 4 (an open
  loop in simulated time).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

#: The paper's Fig. 7 target: Sentinel's step time within 9% of fast-only.
PAPER_SLO_SLOWDOWN = 1.09

#: Step-time components from :func:`repro.obs.critpath.attribute`, mapped
#: to the layer that models them.  ``ras_recovery`` is zero without RAS.
CRITPATH_METRICS = {
    "compute": "dnn.executor.sim_compute_s",
    "fault": "mem.faults.sim_fault_s",
    "channel_contention": "sim.channel.sim_contention_s",
    "migration_stall": "mem.migration.sim_stall_s",
    "pressure_reclaim": "mem.pressure.sim_reclaim_s",
    "idle": "dnn.executor.sim_idle_s",
}


@dataclass
class Pass:
    """One execution of a workload body."""

    outcome: object
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50 and p90, with the sample count and the samples past p90."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(0.9 * len(ordered)))
    return {
        "sim_p50_latency_s": nearest_rank(ordered, 50.0),
        "sim_p90_latency_s": ordered[rank - 1],
        "latency_count": len(ordered),
        "latency_beyond_p90": len(ordered) - rank,
    }


class CellTracer:
    """Traced-pass companion of one training cell at a time.

    Gives each cell a fresh event tracer and the invariant auditor, then
    folds the cell's critical-path split (steady steps only) and its
    numeric extras into running totals, checking that the split sums to
    every step's duration.
    """

    def __init__(self, instrumentation, steady_steps: int) -> None:
        self.instrumentation = instrumentation
        self.steady_steps = steady_steps
        self.components = {name: 0.0 for name in CRITPATH_METRICS}
        self.prefetch_promoted = 0
        self.extras: Dict[str, float] = {}
        self.problems: List[str] = []
        self._tracer = None

    def cell_kwargs(self) -> Dict[str, object]:
        from repro.obs import EventTracer

        self._tracer = EventTracer()
        return {"tracer": self._tracer, "audit": True}

    def cell_done(self, label: str, metrics) -> None:
        from repro.obs.critpath import attribute

        tracer, self._tracer = self._tracer, None
        steps = list(attribute(tracer.events, tracer.dropped))
        for step in steps:
            total = sum(step.components().values())
            if abs(total - step.duration) > 1e-9 * max(1.0, step.duration):
                self.problems.append(
                    f"{label}: step {step.step} components sum to {total!r}, "
                    f"duration is {step.duration!r}"
                )
        for step in steps[-self.steady_steps:]:
            for name, value in step.components().items():
                if name in self.components:
                    self.components[name] += value
        for key, value in metrics.extras.items():
            if isinstance(value, (int, float)):
                self.extras[key] = self.extras.get(key, 0.0) + value
        if "prefetch_landed_bytes" in metrics.extras:
            machine = self.instrumentation.machines[-1]
            self.prefetch_promoted += machine.stats.counter("migration.promoted_bytes").value


class Workload:
    """Base class: ``setup`` builds inputs, ``run_pass`` runs the body."""

    name = ""
    training = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> object:
        raise NotImplementedError

    def run_pass(self, tracing: Optional[CellTracer] = None) -> Pass:
        raise NotImplementedError

    def reference(self) -> object:
        """Simulated reference the metrics are normalised by, outside the body."""
        return None

    def sim_metrics(self, outcome, reference) -> Dict[str, float]:
        raise NotImplementedError

    def check(self, outcome) -> List[str]:
        """Output checks beyond the cross-pass comparison."""
        return []

    def report(self, outcome) -> List[str]:
        """Extra human-readable lines for the report."""
        return []

    def canonical(self, outcome) -> str:
        return json.dumps(outcome, sort_keys=True, separators=(",", ":"))


def _training_sim_metrics(cells: List[Dict[str, object]], baselines: Dict[str, float]):
    """End-to-end simulated metrics of a training campaign.

    A managed cell is a job: its latency is its steady step time and it
    meets its SLO when its slowdown against its model's ``fast-only`` step
    time is within the paper's 9%.  Goodput is SLO-meeting cells per
    simulated second of the campaign, one steady step per cell, run back
    to back.
    """
    managed = [c for c in cells if c["failure"] is None and c["policy"] != "fast-only"]
    slowdowns = [c["step_time"] / baselines[c["model"]] for c in managed]
    met = sum(1 for s in slowdowns if s <= PAPER_SLO_SLOWDOWN)
    latencies = [c["step_time"] for c in managed]
    campaign = sum(latencies) + sum(baselines.values())
    metrics = {
        "sim_slowdown": geomean(slowdowns),
        "sim_slo_attainment": met / len(managed),
        "sim_goodput_jobs_per_s": met / campaign,
    }
    metrics.update(latency_metrics(latencies))
    return metrics


class ZooSweep(Workload):
    """The paper's Fig. 7 campaign: every zoo model under three policies."""

    name = "zoo-sweep"
    MODELS = ("dcgan", "lstm", "resnet32", "resnet200", "bert-base", "gpt-small", "mobilenet")
    SMOKE_MODELS = ("dcgan",)
    POLICIES = ("fast-only", "sentinel", "ial")
    FAST_FRACTION = 0.2

    @property
    def models(self) -> Sequence[str]:
        return self.SMOKE_MODELS if self.smoke else self.MODELS

    def setup(self) -> object:
        import repro.harness.runner  # noqa: F401  (the entry point's imports)
        from repro.models.zoo import build_model

        return [build_model(model) for model in self.models]

    def run_pass(self, tracing: Optional[CellTracer] = None) -> Pass:
        from repro.harness.runner import run_policy

        cells = []
        failed = 0
        for model in self.models:
            for policy in self.POLICIES:
                fraction = None if policy == "fast-only" else self.FAST_FRACTION
                kwargs = tracing.cell_kwargs() if tracing is not None else {}
                cell = {"model": model, "policy": policy, "failure": None}
                try:
                    metrics = run_policy(policy, model=model, fast_fraction=fraction, **kwargs)
                except Exception as exc:  # a failed cell is counted, not fatal
                    cell["failure"] = f"{type(exc).__name__}: {exc}"
                    failed += 1
                else:
                    cell.update(asdict(metrics))
                    if tracing is not None:
                        tracing.cell_done(f"{model}/{policy}", metrics)
                cells.append(cell)
        return Pass(outcome=cells, attempted=len(cells), failed=failed)

    def _baselines(self, cells) -> Dict[str, float]:
        return {
            c["model"]: c["step_time"]
            for c in cells
            if c["policy"] == "fast-only" and c["failure"] is None
        }

    def check(self, cells) -> List[str]:
        problems = [f"{c['model']}/{c['policy']}: {c['failure']}" for c in cells if c["failure"]]
        for cell in cells:
            if cell["failure"] is None and not cell["step_time"] > 0:
                problems.append(f"{cell['model']}/{cell['policy']}: step time {cell['step_time']!r}")
        return problems

    def sim_metrics(self, cells, reference) -> Dict[str, float]:
        return _training_sim_metrics(cells, self._baselines(cells))

    def report(self, cells) -> List[str]:
        baselines = self._baselines(cells)
        per_policy = {}
        for policy in self.POLICIES[1:]:
            ratios = [
                c["step_time"] / baselines[c["model"]]
                for c in cells
                if c["policy"] == policy and c["failure"] is None
            ]
            per_policy[policy] = geomean(ratios)
        lines = [
            "paper reference (Fig. 7, informational, not gated):",
            f"  sentinel sim_slowdown vs fast-only: {per_policy['sentinel']:.4f}"
            "   paper: within 9% on average (<= 1.09)",
            f"  ial sim_slowdown vs fast-only:      {per_policy['ial']:.4f}",
            f"  ial / sentinel step time:           {per_policy['ial'] / per_policy['sentinel']:.4f}"
            "   paper: Sentinel outperforms IAL by 37% on average (1.37)",
            "  the simulated memory substrate is not validated against hardware",
        ]
        return lines


class Tournament(Workload):
    """One serial policy tournament with an insight collector per cell."""

    name = "tournament"
    MODELS = ("dcgan",)
    SMOKE = {
        "models": ("dcgan",),
        "policies": ("sentinel",),
        "admissions": ("always", "feedback"),
    }

    def _kwargs(self) -> Dict[str, object]:
        kwargs: Dict[str, object] = {"workers": 1}
        if self.smoke:
            kwargs.update(self.SMOKE)
        else:
            kwargs["models"] = self.MODELS
        return kwargs

    def setup(self) -> object:
        import repro.harness.tournament  # noqa: F401  (the entry point's imports)
        from repro.models.zoo import build_model

        return [build_model(model) for model in self._kwargs()["models"]]

    def run_pass(self, tracing: Optional[CellTracer] = None) -> Pass:
        from repro.harness import tournament

        original = tournament.run_policy
        if tracing is not None:
            # Give every tournament cell a tracer and the auditor, keeping
            # the tournament's own arguments untouched.
            def traced_run_policy(policy, **kwargs):
                kwargs.update(tracing.cell_kwargs())
                metrics = original(policy, **kwargs)
                tracing.cell_done(f"{kwargs.get('model')}/{policy}", metrics)
                return metrics

            tournament.run_policy = traced_run_policy
        try:
            result = tournament.run_tournament(**self._kwargs())
        finally:
            tournament.run_policy = original
        text = tournament.tournament_json(result)
        failed = sum(1 for c in result["cells"] if c.get("failure") is not None)
        failed += len(result["config"]["models"]) - len(result["baselines"])
        attempted = len(result["cells"]) + len(result["config"]["models"])
        return Pass(outcome=text, attempted=attempted, failed=failed)

    def canonical(self, text) -> str:
        return text

    def check(self, text) -> List[str]:
        result = json.loads(text)
        problems = [
            f"{c['model']}/{c['policy']}/{c['admission']}: {c['failure']}"
            for c in result["cells"]
            if c.get("failure") is not None
        ]
        missing = set(result["config"]["models"]) - set(result["baselines"])
        problems += [f"{model}/fast-only baseline failed" for model in sorted(missing)]
        return problems

    def sim_metrics(self, text, reference) -> Dict[str, float]:
        result = json.loads(text)
        return _training_sim_metrics(result["cells"], result["baselines"])


class ServeOverload(Workload):
    """Open-loop serving at the overload preset, seeded arrivals."""

    name = "serve-overload"
    training = False
    RATE = 1.0
    HORIZON = 600.0
    SMOKE_HORIZON = 20.0

    def _mix(self):
        from repro.serve import JobTemplate

        # The CLI's serving mix: many short inference jobs, some training.
        return (
            JobTemplate(name="infer", model="mobilenet", policy="ial", steps=1, slo=15.0, weight=4.0),
            JobTemplate(name="train", model="dcgan", policy="ial", steps=2, slo=60.0),
        )

    def _config(self):
        from repro.serve import ServeConfig

        return ServeConfig(
            seed=self.seed,
            slots=2,
            admission="edf",
            queue_limit=4,
            timeout=240.0,
            max_attempts=3,
            restart_budget=2,
        )

    def setup(self) -> object:
        from repro.serve import PoissonArrivals, Server

        horizon = self.SMOKE_HORIZON if self.smoke else self.HORIZON
        arrivals = PoissonArrivals(
            rate=self.RATE, horizon=horizon, templates=self._mix(), seed=self.seed
        )
        return Server(arrivals, self._config(), fast_fraction=0.5)

    def run_pass(self, tracing: Optional[CellTracer] = None) -> Pass:
        report = json.loads(self.setup().run().to_json())
        broken = sum(
            1 for job in report["jobs"] if job["state"] in ("failed", "infeasible", "timed-out")
        )
        return Pass(outcome=report, attempted=report["total_jobs"], failed=broken)

    def reference(self) -> Dict[str, float]:
        """Each template's latency alone on an idle machine of the same size."""
        from repro.serve import Server, TraceArrivals

        capacity = self.setup().machine.fast.capacity
        isolated = {}
        for template in self._mix():
            alone = Server(
                TraceArrivals(trace=((0.0, template.name),), templates=self._mix()),
                self._config(),
                fast_capacity=capacity,
            ).run()
            if not alone.latencies:
                raise RuntimeError(f"template {template.name} did not complete alone")
            isolated[template.name] = alone.latencies[0]
        return isolated

    def check(self, report) -> List[str]:
        states: Dict[str, int] = {}
        for job in report["jobs"]:
            states[job["state"]] = states.get(job["state"], 0) + 1
        counts = report["counts"]
        problems = []
        if sum(states.values()) != report["total_jobs"] or states.get("queued") or states.get("running"):
            problems.append(f"jobs left unsettled: {states}")
        for state, key in (
            ("completed", "serve.completed"),
            ("shed", "serve.shed.permanent"),
            ("expired", "serve.expired"),
            ("failed", "serve.failed"),
        ):
            if states.get(state, 0) != counts.get(key, 0):
                problems.append(f"{key} is {counts.get(key, 0)}, {states.get(state, 0)} jobs are {state}")
        for job in report["jobs"]:
            if job["state"] == "completed" and not job["latency"] >= 0:
                problems.append(f"{job['name']}: latency {job['latency']!r}")
        if report["completed"] == 0:
            problems.append("no job completed")
        return problems

    def sim_metrics(self, report, isolated) -> Dict[str, float]:
        jobs = [j for j in report["jobs"] if j["state"] == "completed"]
        metrics = {
            "sim_slowdown": geomean([j["latency"] / isolated[j["template"]] for j in jobs]),
            "sim_slo_attainment": report["slo_attainment"],
            "sim_goodput_jobs_per_s": report["goodput"],
        }
        metrics.update(latency_metrics([j["latency"] for j in jobs]))
        return metrics

    def report(self, report) -> List[str]:
        jobs = report["total_jobs"]
        return [
            f"jobs {jobs}: completed {report['completed']}, "
            f"shed {report['counts'].get('serve.shed.permanent', 0)}, "
            f"expired {report['counts'].get('serve.expired', 0)}; "
            f"failed_frac (jobs not completed) {1.0 - report['completed'] / jobs:.4f}",
        ]


WORKLOADS = {cls.name: cls for cls in (ZooSweep, Tournament, ServeOverload)}

