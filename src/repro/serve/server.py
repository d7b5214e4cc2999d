"""The open-loop serving harness: arrivals → admission → execution → report.

:class:`Server` replays a precomputed arrival schedule on the discrete-event
engine and pushes each job through the serving lifecycle:

1. **Arrival.**  A :data:`~repro.sim.engine.EventKind.SERVE` event fires at
   the job's arrival instant; the admission policy decides queue-or-shed.
2. **Shed → retry.**  A shed job retries with seeded-jittered exponential
   backoff up to ``max_attempts`` total arrivals, then counts as
   permanently shed.
3. **Dispatch.**  When an execution slot frees up (bounded concurrency),
   the admission policy picks the next queued job; it runs as an engine
   process — a fresh :class:`~repro.dnn.executor.Executor` on the shared
   machine, contending for channels and fast-tier capacity with every
   other in-flight job.
4. **Timeout.**  A per-attempt timeout interrupts the process
   (:class:`JobTimeout`); the job tears down, freeing its memory.
5. **Failure episodes.**  When a :class:`repro.chaos.EpisodeDriver`
   machine-offline episode begins, every in-flight job is interrupted
   (:class:`MachineOffline`), tears down, and — restart budget permitting —
   re-enqueues *from its last completed steady step* (checkpoint/restart
   semantics: completed steady steps are never re-run, the policy's
   warm-up/profiling phase is).  Budget exhausted ⇒ permanent failure.
6. **Report.**  Completion latency is measured from *arrival* (queueing,
   backoff, and restarts all count against the SLO); the report carries
   nearest-rank p50/p95/p99, goodput, SLO attainment, and every
   shed/retry/restart/expiry count, and serializes canonically —
   same seed ⇒ byte-identical JSON.

Every lifecycle decision is emitted twice: as a typed ``SERVE`` engine
event (for subscribers) and as a ``serve``-category trace record (for the
Chrome timeline), so overload behaviour is fully observable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.chaos import EpisodeConfig, EpisodeDriver, generate_episodes
from repro.core.runtime import SentinelPolicy
from repro.dnn.executor import Executor
from repro.dnn.graph import Graph
from repro.errors import UncorrectableMemoryError
from repro.harness.cluster import DEFAULT_CLUSTER_PRESSURE
from repro.harness.runner import OOM_ERRORS, _sentinel_config, make_policy
from repro.mem.machine import Machine
from repro.mem.platforms import Platform
from repro.mem.ras import RASConfig
from repro.serve.admission import AdmissionPolicy, make_admission
from repro.serve.arrivals import Arrival
from repro.sim.engine import Engine, EventKind, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.insight import InsightCollector
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import EventTracer

__all__ = [
    "JobTimeout",
    "MachineOffline",
    "Job",
    "ServeConfig",
    "ServeReport",
    "Server",
    "serve",
]

#: Sentinel marker for "caller did not pass pressure=".
_UNSET = object()


class JobTimeout(Interrupt):
    """Thrown into a job process when its per-attempt timeout expires."""


class MachineOffline(Interrupt):
    """Thrown into every in-flight job when a machine-offline episode begins."""


# Job lifecycle states (plain strings so reports serialize directly).
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
SHED = "shed"
EXPIRED = "expired"
TIMED_OUT = "timed-out"
FAILED = "failed"
INFEASIBLE = "infeasible"


class Job:
    """One job instance moving through the serving lifecycle.

    Attributes:
        arrival: the schedule entry that created this job.
        state: current lifecycle state (module-level string constants).
        attempts: admission attempts so far (first arrival counts as one).
        restarts: failure-episode restarts consumed.
        completed_steady: steady steps finished across all attempts — the
            checkpoint a restart resumes from.
        deadline: absolute SLO deadline (``arrival.time + template.slo``).
    """

    def __init__(self, arrival: Arrival) -> None:
        self.arrival = arrival
        self.template = arrival.template
        self.name = arrival.job_name
        self.state = QUEUED
        self.attempts = 0
        self.restarts = 0
        self.completed_steady = 0
        self.deadline = arrival.time + arrival.template.slo
        self.admitted_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.process = None
        self.timeout_event = None

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion latency (None unless completed)."""
        if self.finished_at is None or self.state != COMPLETED:
            return None
        return self.finished_at - self.arrival.time

    @property
    def slo_met(self) -> bool:
        return (
            self.state == COMPLETED
            and self.finished_at is not None
            and self.finished_at <= self.deadline
        )

    def record(self) -> Dict[str, object]:
        """JSON-ready summary of this job's outcome."""
        return {
            "name": self.name,
            "template": self.template.name,
            "state": self.state,
            "arrival": self.arrival.time,
            "deadline": self.deadline,
            "finished": self.finished_at,
            "latency": self.latency,
            "slo_met": self.slo_met,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "completed_steps": self.completed_steady,
        }


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one serving run (arrival schedule supplied separately).

    Attributes:
        seed: seeds the backoff-jitter stream; arrival schedules and
            episode timelines carry their own seeds.
        slots: maximum concurrently-executing jobs (>= 1).  Bounded
            concurrency is what turns overload into queueing instead of
            unbounded memory thrash.
        admission: admission policy name (``"fifo"``/``"edf"``/
            ``"watermark"``).
        queue_limit: bounded-queue depth for the admission policy.
        timeout: per-attempt execution timeout in simulated seconds
            (``None`` disables; timed-out jobs free their memory and count
            as failures).
        max_attempts: total admission attempts per job including the first
            (>= 1); shed jobs retry with jittered exponential backoff until
            exhausted.
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_cap: upper bound on any single backoff delay.
        restart_budget: failure-episode restarts allowed per job before it
            counts as permanently failed.
        episodes: optional failure timeline — either a
            :class:`repro.chaos.EpisodeConfig` (a seeded generator) or an
            explicit tuple of :class:`repro.chaos.Episode` windows (for
            regression scenarios that need exact outage timing).
    """

    seed: int = 0
    slots: int = 2
    admission: str = "fifo"
    queue_limit: int = 8
    timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    restart_budget: int = 2
    episodes: Optional[object] = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots!r}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        if self.backoff_base <= 0.0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"base={self.backoff_base!r} cap={self.backoff_cap!r}"
            )
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget!r}"
            )


def _percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile (exact, no interpolation); 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class ServeReport:
    """Outcome of one serving run.

    ``counts`` uses dotted keys (``serve.admitted``, ``serve.shed.queue-full``,
    ``serve.restart``, ...) mirroring the machine's stats registry; latency
    aggregates cover *completed* jobs only (shed and failed jobs never get a
    completion latency — they are accounted in the counts and in
    ``slo_attainment``'s denominator instead).
    """

    seed: int
    makespan: float
    counts: Dict[str, int] = field(default_factory=dict)
    jobs: List[Dict[str, object]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    episodes: int = 0

    @property
    def total_jobs(self) -> int:
        return len(self.jobs)

    @property
    def completed(self) -> int:
        return self.counts.get("serve.completed", 0)

    @property
    def slo_met(self) -> int:
        return self.counts.get("serve.slo_met", 0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of *all* jobs that completed within their SLO."""
        return self.slo_met / self.total_jobs if self.total_jobs else 0.0

    @property
    def goodput(self) -> float:
        """SLO-meeting completions per simulated second."""
        return self.slo_met / self.makespan if self.makespan > 0 else 0.0

    @property
    def p50(self) -> float:
        return _percentile(self.latencies, 50.0)

    @property
    def p95(self) -> float:
        return _percentile(self.latencies, 95.0)

    @property
    def p99(self) -> float:
        return _percentile(self.latencies, 99.0)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> float:
        return self.latencies[-1] if self.latencies else 0.0

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, fixed separators — same run, same bytes."""
        payload = {
            "schema": "serve-report/v1",
            "seed": self.seed,
            "makespan": self.makespan,
            "total_jobs": self.total_jobs,
            "completed": self.completed,
            "slo_met": self.slo_met,
            "slo_attainment": self.slo_attainment,
            "goodput": self.goodput,
            "latency": {
                "p50": self.p50,
                "p95": self.p95,
                "p99": self.p99,
                "mean": self.mean_latency,
                "max": self.max_latency,
            },
            "counts": dict(sorted(self.counts.items())),
            "episodes": self.episodes,
            "jobs": self.jobs,
        }
        separators = (",", ": ") if indent is not None else (",", ":")
        return json.dumps(
            payload, indent=indent, sort_keys=True, separators=separators
        )


class Server:
    """Orchestrates one serving run on one machine.

    Args:
        arrivals: an object with ``.schedule() -> List[Arrival]``
            (:class:`~repro.serve.arrivals.PoissonArrivals` or
            :class:`~repro.serve.arrivals.TraceArrivals`).
        config: serving tunables (:class:`ServeConfig`).
        machine: run on an existing machine; otherwise one is built from
            ``platform`` (default Optane) with the cluster harness's
            spill-to-slow pressure governor.
        fast_fraction: size fast memory as this fraction of (largest
            template peak × slots) — the footprint of a full complement of
            the biggest jobs.  ``fast_capacity`` (bytes) wins over it.
        pressure / tracer / metrics: forwarded to the built machine
            (same contract as :func:`repro.harness.cluster.run_concurrent`).
        ras: optional :class:`~repro.mem.ras.RASConfig` for the built
            machine.  A job whose recovery ladder exhausts fails alone
            (``serve.ue``) under the same restart budget as offline
            episodes; the machine itself stays up.
        insight: optional :class:`~repro.obs.InsightCollector`.  Each job
            attempt runs under its own collector scope (tensor keys are
            ``(job-name, tid)``, so per-job tid namespaces never collide),
            and every terminal job outcome feeds the windowed SLO
            burn-rate aggregation — including permanently shed and
            expired jobs, which never touched the machine but did miss
            their SLO.  The server finalizes the collector at the end of
            :meth:`run`.
        migration_admission: optional *migration* admission controller for
            the built machine — either an
            :class:`~repro.mem.admission.AdmissionController` instance or
            a registered controller name (see
            :data:`repro.mem.admission.CONTROLLERS`), built with
            ``migration_admission_args``.  Distinct from ``config.admission``,
            which decides which *jobs* enter the queue; this decides which
            *tensor migrations* the machine performs.
    """

    def __init__(
        self,
        arrivals,
        config: ServeConfig,
        machine: Optional[Machine] = None,
        platform: Optional[Platform] = None,
        fast_fraction: Optional[float] = None,
        fast_capacity: Optional[int] = None,
        pressure=_UNSET,
        tracer: Optional["EventTracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        ras: Optional[RASConfig] = None,
        insight: Optional["InsightCollector"] = None,
        migration_admission: Optional[object] = None,
        migration_admission_args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.config = config
        self.schedule = arrivals.schedule()
        self.admission: AdmissionPolicy = make_admission(
            config.admission, queue_limit=config.queue_limit
        )
        templates = {a.template.name: a.template for a in self.schedule}
        # One graph per template, shared read-only by every job's executor
        # (see :class:`~repro.dnn.graph.Graph`): zoo builds are
        # deterministic, so rebuilding per dispatch only repeats work.
        self._graphs: Dict[str, Graph] = {
            name: t.build_graph() for name, t in templates.items()
        }
        if machine is None:
            if platform is None:
                from repro.mem.platforms import OPTANE_HM

                platform = OPTANE_HM
            if fast_capacity is None and fast_fraction is not None:
                if fast_fraction <= 0:
                    raise ValueError(
                        f"fast fraction must be positive: {fast_fraction!r}"
                    )
                peaks = [g.peak_memory_bytes() for g in self._graphs.values()]
                reference = max(peaks) * config.slots if peaks else 0
                fast_capacity = max(
                    platform.page_size, int(reference * fast_fraction)
                )
            governor = DEFAULT_CLUSTER_PRESSURE if pressure is _UNSET else pressure
            controller = migration_admission
            if isinstance(migration_admission, str):
                from repro.mem.admission import make_admission as make_migration

                controller = make_migration(
                    migration_admission, **(migration_admission_args or {})
                )
            elif migration_admission_args:
                raise ValueError(
                    "migration_admission_args= requires migration_admission= "
                    "to be a controller name"
                )
            machine = Machine.for_platform(
                platform,
                fast_capacity=fast_capacity,
                tracer=tracer,
                pressure=governor,
                metrics=metrics,
                ras=ras,
                insight=insight,
                admission=controller,
            )
        else:
            if tracer is not None and machine.tracer is None:
                raise ValueError(
                    "pass the tracer to the Machine when supplying one explicitly"
                )
            if insight is not None and machine.insight is None:
                raise ValueError(
                    "pass the insight collector to the Machine when supplying "
                    "one explicitly"
                )
            if migration_admission is not None and machine.admission is None:
                raise ValueError(
                    "pass the admission controller to the Machine when "
                    "supplying one explicitly"
                )
        self.machine = machine
        self.insight = machine.insight
        # Stable per-job Chrome tids: 0 is the serve lifecycle track, jobs
        # get 1..N in schedule (arrival) order — independent of dispatch
        # interleaving, retries, and restarts, so reruns diff cleanly.
        self._job_tids: Dict[str, int] = {"serve": 0}
        for arrival in self.schedule:
            if arrival.job_name not in self._job_tids:
                self._job_tids[arrival.job_name] = len(self._job_tids)
        self.engine = Engine()
        self._backoff = random.Random(f"{config.seed}:backoff")
        self._queue: List[Job] = []
        self._running: Dict[str, Job] = {}
        self._jobs: List[Job] = []
        self._counts: Dict[str, int] = {}
        self._episode_driver: Optional[EpisodeDriver] = None

    # ------------------------------------------------------------- plumbing

    @property
    def _tracer(self) -> Optional["EventTracer"]:
        return self.machine.tracer

    def job_tids(self) -> Dict[str, int]:
        """Stable track→tid map for :func:`repro.obs.to_chrome`.

        Tids are pinned by schedule order (``serve`` is 0), so two runs of
        the same schedule export byte-identical Chrome JSON even when
        dispatch interleaving differs.
        """
        return dict(self._job_tids)

    def _count(self, key: str, n: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + n
        self.machine.stats.counter(key).add(n)

    def _mark(self, name: str, job: Job, **extra) -> None:
        """Emit one lifecycle decision: SERVE engine event + trace instant."""
        payload = {"job": job.name, "template": job.template.name}
        payload.update(extra)
        self.engine.emit(EventKind.SERVE, name=name, payload=payload)
        if self._tracer is not None:
            self._tracer.instant(
                name, "serve", ts=self.engine.now, track="serve", **payload
            )

    # ------------------------------------------------------------ lifecycle

    def run(self) -> ServeReport:
        """Play the whole schedule to completion and return the report."""
        engine = self.engine
        machine = self.machine
        machine.bind_engine(engine)
        if self._tracer is not None:
            self._tracer.bind_clock(engine.clock)
        machine.stats.bind_clock(engine.clock)
        episodes = []
        configured = self.config.episodes
        if isinstance(configured, EpisodeConfig):
            if configured.enabled:
                episodes = generate_episodes(configured)
        elif configured is not None:
            episodes = list(configured)
        episode_count = len(episodes)
        if episodes:
            self._episode_driver = EpisodeDriver(machine, episodes)
            self._episode_driver.arm(engine)
            engine.subscribe(EventKind.FAULT, self._on_fault)
        for arrival in self.schedule:
            job = Job(arrival)
            self._jobs.append(job)
            engine.schedule_at(
                arrival.time,
                EventKind.SERVE,
                name="arrival",
                payload={"job": job.name},
                callback=lambda _ev, j=job: self._on_arrival(j),
            )
        engine.run()
        engine.ensure_quiescent()
        if self.insight is not None:
            self.insight.finalize(engine.now)
        latencies = sorted(
            job.latency for job in self._jobs if job.latency is not None
        )
        return ServeReport(
            seed=self.config.seed,
            makespan=engine.now,
            counts=dict(self._counts),
            jobs=[job.record() for job in self._jobs],
            latencies=latencies,
            episodes=episode_count,
        )

    def _on_arrival(self, job: Job) -> None:
        now = self.engine.now
        job.attempts += 1
        self._count("serve.arrivals")
        admitted, reason = self.admission.admit(
            job, self._queue, self.machine, now
        )
        if admitted:
            job.state = QUEUED
            if job.admitted_at is None:
                job.admitted_at = now
            self._queue.append(job)
            self._count("serve.admitted")
            self._mark("admit", job, attempt=job.attempts)
            self._pump()
            return
        self._count("serve.shed")
        self._count(f"serve.shed.{reason}")
        self._mark("shed", job, reason=reason, attempt=job.attempts)
        if job.attempts < self.config.max_attempts:
            delay = min(
                self.config.backoff_cap,
                self.config.backoff_base * (2.0 ** (job.attempts - 1)),
            )
            # Jitter in [0.5, 1.5) of the nominal delay, from the seeded
            # backoff stream — retries desynchronize deterministically.
            delay *= 0.5 + self._backoff.random()
            self._count("serve.retry")
            self._mark("retry", job, delay=delay, attempt=job.attempts)
            self.engine.schedule(
                delay,
                EventKind.SERVE,
                name="re-arrival",
                payload={"job": job.name},
                callback=lambda _ev, j=job: self._on_arrival(j),
            )
        else:
            job.state = SHED
            job.finished_at = now
            self._count("serve.shed.permanent")
            self._mark("give-up", job, attempts=job.attempts)
            if self.insight is not None:
                self.insight.on_job_final(job, now)

    def _pump(self) -> None:
        """Dispatch queued jobs while slots are free and the machine is up."""
        while (
            self.machine.online
            and len(self._running) < self.config.slots
        ):
            now = self.engine.now
            job, expired = self.admission.select(self._queue, now)
            for dead in expired:
                dead.state = EXPIRED
                dead.finished_at = now
                self._count("serve.expired")
                self._mark("expire", dead, deadline=dead.deadline)
                if self.insight is not None:
                    self.insight.on_job_final(dead, now)
            if job is None:
                return
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        now = self.engine.now
        template = job.template
        policy = make_policy(template.policy, sentinel_config=_sentinel_config(None))
        # A restart re-runs the policy's warm-up/profiling phase (the fresh
        # policy has no profile) but resumes steady work at the checkpoint:
        # completed steady steps are never executed twice.
        phase = (
            policy.config.warmup_steps + 1
            if isinstance(policy, SentinelPolicy)
            else 0
        )
        remaining = template.steps - job.completed_steady
        insight_scope = None
        observers = ()
        if self.insight is not None:
            insight_scope = self.insight.scope(job.name)
            observers = (insight_scope,)
        executor = Executor(
            self._graphs[template.name],
            self.machine,
            policy,
            engine=self.engine,
            track=job.name,
            observers=observers,
            tracer=insight_scope,
        )
        job.state = RUNNING
        job.dispatched_at = now
        self._running[job.name] = job
        self._count("serve.dispatched")
        self._mark(
            "dispatch",
            job,
            queue_wait=now - (job.admitted_at if job.admitted_at is not None else now),
            remaining_steps=remaining,
        )
        job.process = self.engine.process(
            self._job_gen(job, executor, phase, phase + remaining),
            name=job.name,
        )
        if self.config.timeout is not None and not job.process.done:
            job.timeout_event = self.engine.schedule(
                self.config.timeout,
                EventKind.TIMER,
                name=f"timeout:{job.name}",
                callback=lambda _ev, j=job: self._fire_timeout(j),
            )

    def _job_gen(self, job: Job, executor: Executor, phase: int, total: int):
        """The job's engine process: run steps, absorb interrupts, clean up."""
        outcome = COMPLETED
        try:
            for index in range(total):
                yield from executor.step_process()
                if index >= phase:
                    job.completed_steady += 1
        except MachineOffline:
            outcome = "offline"
        except JobTimeout:
            outcome = TIMED_OUT
        except UncorrectableMemoryError:
            # The recovery ladder is exhausted for a page this job owns:
            # the blast radius is the job, never the machine.
            outcome = "ue"
        except OOM_ERRORS:
            outcome = INFEASIBLE
        # Teardown runs on *every* exit path: a job leaving the machine —
        # however it leaves — returns its fast/slow capacity to co-tenants.
        executor.teardown()
        self._finish_attempt(job, outcome)

    def _fire_timeout(self, job: Job) -> None:
        proc = job.process
        if job.name in self._running and proc is not None and not proc.done:
            proc.interrupt(
                JobTimeout(
                    f"job {job.name!r} exceeded per-attempt timeout of "
                    f"{self.config.timeout}s"
                )
            )

    def _finish_attempt(self, job: Job, outcome: str) -> None:
        now = self.engine.now
        if job.timeout_event is not None:
            job.timeout_event.cancel()
            job.timeout_event = None
        self._running.pop(job.name, None)
        job.process = None
        if self._tracer is not None and job.dispatched_at is not None:
            self._tracer.complete(
                "job-attempt",
                "serve",
                ts=job.dispatched_at,
                dur=now - job.dispatched_at,
                track=job.name,
                outcome=outcome,
            )
        if outcome == COMPLETED:
            job.state = COMPLETED
            job.finished_at = now
            self._count("serve.completed")
            if job.slo_met:
                self._count("serve.slo_met")
            self._mark(
                "complete",
                job,
                latency=now - job.arrival.time,
                slo_met=job.slo_met,
            )
        elif outcome == "offline":
            self._count("serve.interrupted")
            if job.restarts < self.config.restart_budget:
                job.restarts += 1
                job.state = QUEUED
                self._count("serve.restart")
                self._mark(
                    "restart",
                    job,
                    restart=job.restarts,
                    checkpoint=job.completed_steady,
                )
                # Restarts re-enter the queue directly (the job was already
                # admitted); dispatch resumes once the machine is back up.
                self._queue.append(job)
            else:
                job.state = FAILED
                job.finished_at = now
                self._count("serve.failed")
                self._mark("fail", job, reason="restart-budget-exhausted")
        elif outcome == "ue":
            # Uncorrectable memory error past the recovery ladder: the
            # attempt's data is gone, but the frame was retired, so a
            # restart-budget-permitting retry starts from the checkpoint on
            # healthy pages.  Same budget as machine-offline restarts.
            self._count("serve.ue")
            if job.restarts < self.config.restart_budget:
                job.restarts += 1
                job.state = QUEUED
                self._count("serve.restart")
                self._mark(
                    "restart",
                    job,
                    restart=job.restarts,
                    checkpoint=job.completed_steady,
                    reason="ue",
                )
                self._queue.append(job)
            else:
                job.state = FAILED
                job.finished_at = now
                self._count("serve.failed")
                self._mark("fail", job, reason="ue-restart-budget-exhausted")
        elif outcome == TIMED_OUT:
            job.state = TIMED_OUT
            job.finished_at = now
            self._count("serve.timeout")
            self._mark("timeout", job)
        elif outcome == INFEASIBLE:
            job.state = INFEASIBLE
            job.finished_at = now
            self._count("serve.infeasible")
            self._mark("infeasible", job)
        if self.insight is not None:
            if job.finished_at is not None:
                # Terminal: close the scope and feed the SLO windows.
                self.insight.on_job_final(job, now)
            else:
                # Restarting: close this attempt's tensor timelines only.
                self.insight.on_attempt_end(job.name, now)
        self._pump()

    def _on_fault(self, event) -> None:
        episode = event.payload.get("episode")
        if episode is None:
            return
        if episode.kind != "machine-offline":
            return
        if event.payload.get("phase") == "begin":
            # Interrupt in insertion order — deterministic and matches
            # dispatch order, so restart sequencing is stable.
            for name in list(self._running):
                job = self._running.get(name)
                if job is None or job.process is None or job.process.done:
                    continue
                job.process.interrupt(
                    MachineOffline(
                        f"machine went offline at t={event.time:.6f} with "
                        f"job {job.name!r} in flight"
                    )
                )
        else:
            self._pump()


def serve(
    arrivals,
    config: Optional[ServeConfig] = None,
    **server_kwargs,
) -> ServeReport:
    """Convenience wrapper: build a :class:`Server`, run it, return the report."""
    return Server(
        arrivals, config if config is not None else ServeConfig(), **server_kwargs
    ).run()
