"""Engine-vs-inline differential, event-engine determinism and driver guards.

``Executor.run_step()`` drives the step body as a process on the
discrete-event engine (channel completions fire as ``TRANSFER_DONE``
events, migration commits happen at their analytic finish instants).  The
engine port's contract is *observational identity* with the inline
lockstep loop it replaced: the engine changes when code runs, never what
times it computes.  The inline driver is gone; what it computed for these
workloads is kept as data (``scalar_reference.py``), and these tests pin
per-step timings, migration traffic and the full trace byte stream of the
engine driver against it.  They also pin that the same seed and workload
fire the same events in the same order, and that the executor refuses to
share a machine already bound to another engine.

If an equivalence test fails, the engine has changed simulation
semantics: fix the engine, do not refresh the reference.
"""

import dataclasses

import pytest

from repro.baselines.registry import make_policy
from repro.core.runtime import SentinelConfig, SentinelPolicy
from repro.dnn.executor import Executor
from repro.errors import ExecutionError
from repro.harness.runner import EXPERIMENT_WARMUP_STEPS
from repro.mem.machine import Machine
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.models.zoo import build_model
from repro.obs import EventTracer, canonical_digest
from tests.integration.scalar_reference import reference, sha256_json

#: (model, policy, platform) points covering the zoo's families: GAN,
#: recurrent, plain conv, and the GPU flavour of Sentinel.
ZOO_POINTS = [
    ("dcgan", "sentinel", OPTANE_HM),
    ("dcgan", "ial", OPTANE_HM),
    ("lstm", "sentinel", OPTANE_HM),
    ("resnet32", "first-touch", OPTANE_HM),
    ("dcgan", "sentinel-gpu", GPU_HM),
]

#: What the inline lockstep driver computed for the workloads below.
INLINE = reference("engine_equivalence")

STEPS = 7  # enough to cross Sentinel's warmup -> profiling -> managed phases


def build_setup(model, policy_name, platform, tracer=None):
    graph = build_model(model)
    fast_capacity = max(
        platform.page_size, int(graph.peak_memory_bytes() * 0.2)
    )
    machine = Machine.for_platform(
        platform, fast_capacity=fast_capacity, tracer=tracer
    )
    policy = make_policy(
        policy_name,
        sentinel_config=SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS),
    )
    return Executor(graph, machine, policy)


def run_engine(model, policy_name, platform):
    tracer = EventTracer()
    executor = build_setup(model, policy_name, platform, tracer=tracer)
    results = [executor.run_step() for _ in range(STEPS)]
    return results, tracer.events, executor


class TestEngineInlineEquivalence:
    @pytest.mark.parametrize(
        "model,policy,platform",
        ZOO_POINTS,
        ids=[f"{m}-{p}" for m, p, _ in ZOO_POINTS],
    )
    def test_per_step_results_identical(self, model, policy, platform):
        results, events, _ = run_engine(model, policy, platform)
        # Every field of every StepResult — start/end times, compute/mem/
        # stall/fault decomposition, migrated bytes, peaks, layer spans.
        assert sha256_json(
            [dataclasses.asdict(r) for r in results]
        ) == INLINE[f"steps/{model}-{policy}"]
        # And the structured event stream, byte for byte.
        assert canonical_digest(events) == INLINE[f"events/{model}-{policy}"]

    def test_migrated_bytes_match_step_by_step(self):
        results, _, _ = run_engine("dcgan", "sentinel", OPTANE_HM)
        assert [r.migrated_bytes for r in results] == INLINE["migrated_bytes"]
        # The managed phase actually migrates — the comparison is not vacuous.
        assert sum(r.migrated_bytes for r in results) > 0

    def test_sentinel_phase_bookkeeping_matches(self):
        _, _, executor = run_engine("dcgan", "sentinel", OPTANE_HM)
        assert isinstance(executor.policy, SentinelPolicy)
        assert {
            "case2": executor.policy.case2_occurrences,
            "case3": executor.policy.case3_occurrences,
        } == INLINE["case_occurrences"]


class TestEventOrderDeterminism:
    """Same seed + same workload ⇒ the engine fires the *same events in the
    same order*, not merely the same aggregate numbers."""

    def fired_events(self, chaos_seed=None):
        from repro.chaos import ChaosConfig, FaultInjector
        from repro.sim.engine import Engine

        graph = build_model("dcgan")
        injector = None
        if chaos_seed is not None:
            injector = FaultInjector(ChaosConfig.uniform(0.2, seed=chaos_seed))
        machine = Machine.for_platform(
            OPTANE_HM,
            fast_capacity=max(
                OPTANE_HM.page_size, int(graph.peak_memory_bytes() * 0.2)
            ),
            injector=injector,
        )
        policy = make_policy(
            "sentinel",
            sentinel_config=SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS),
        )
        engine = Engine()
        executor = Executor(graph, machine, policy, engine=engine)
        log = []
        engine.subscribe(
            None,
            lambda event: log.append(
                (event.time, event.seq, event.kind.name, event.name)
            ),
        )
        for _ in range(STEPS):
            executor.run_step()
        return log

    def test_identical_event_log_across_runs(self):
        first = self.fired_events()
        second = self.fired_events()
        assert first == second
        assert first  # the engine actually fired events

    def test_identical_event_log_under_chaos(self):
        assert self.fired_events(chaos_seed=13) == self.fired_events(
            chaos_seed=13
        )

    def test_chaos_seed_perturbs_the_event_log(self):
        assert self.fired_events(chaos_seed=13) != self.fired_events(
            chaos_seed=14
        )

    def test_event_log_spans_the_kernel_taxonomy(self):
        kinds = {kind for _, _, kind, _ in self.fired_events(chaos_seed=13)}
        assert {"TRANSFER_DONE", "FAULT"} <= kinds


class TestEngineCounters:
    def test_prefetch_landings_are_counted(self):
        # The landed-prefetch counters are engine TRANSFER_DONE
        # subscriptions: Sentinel's managed phase must register landings.
        executor = build_setup("dcgan", "sentinel", OPTANE_HM)
        executor.run_steps(STEPS)
        assert executor.policy.prefetch_landed_bytes > 0


class TestDriverGuards:
    def test_inline_after_engine_is_rejected(self):
        # A second executor driving its own engine on a machine already
        # bound to one would silently race the queued TRANSFER_DONE
        # events; the executor refuses instead.
        executor = build_setup("dcgan", "ial", OPTANE_HM)
        executor.run_step()
        second = Executor(
            executor.graph, executor.machine, make_policy("ial")
        )
        with pytest.raises(ExecutionError, match="already driven"):
            second.run_step()

    def test_run_steps_still_validates_count(self):
        executor = build_setup("dcgan", "ial", OPTANE_HM)
        with pytest.raises(ValueError, match="positive"):
            executor.run_steps(0)
