"""Scenario: the one machine-assembly step behind every entry point.

``run_policy``, ``run_concurrent``, ``Server``, sweeps and tournaments all
build their machine through :meth:`Scenario.build`, each with its own
reference peak.  These tests pin the sizing rule (page floor, lazy peak,
one validation with one message everywhere), admission resolution,
observer selection, :func:`build_policy`'s warm-up count, and that a
scenario crosses the worker pool unchanged.
"""

import inspect
import math
import pickle

import pytest

from repro.chaos import CapacityShrinker, ChaosConfig, InvariantAuditor
from repro.core.runtime import SentinelConfig, SentinelPolicy
from repro.harness.cluster import WorkloadSpec, run_concurrent
from repro.harness.runner import (
    EXPERIMENT_WARMUP_STEPS,
    Scenario,
    build_policy,
    run_policy,
)
from repro.harness.sweeps import pmap
from repro.mem.admission import FeedbackController
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.mem.pressure import PressureConfig
from repro.serve import JobTemplate, ServeConfig, Server, TraceArrivals

MIB = 1024 * 1024


def _peak_must_not_be_read():
    raise AssertionError("reference peak evaluated")


def _echo(value):
    return value


class TestSizing:
    def test_fraction_of_reference_peak(self):
        scenario = Scenario(fast_fraction=0.25)
        assert scenario.fast_capacity_for(lambda: 400 * MIB) == 100 * MIB

    @pytest.mark.parametrize("platform", [OPTANE_HM, GPU_HM])
    def test_page_size_floor(self, platform):
        scenario = Scenario(platform=platform, fast_fraction=1e-9)
        assert scenario.fast_capacity_for(lambda: MIB) == platform.page_size

    def test_default_platform_floor_and_machine(self):
        scenario = Scenario(fast_fraction=1e-9)
        assert scenario.fast_capacity_for(lambda: MIB) == OPTANE_HM.page_size
        machine, _ = Scenario().build(_peak_must_not_be_read)
        assert machine.platform is OPTANE_HM

    def test_explicit_capacity_wins_without_reading_the_peak(self):
        scenario = Scenario(fast_fraction=0.2, fast_capacity=64 * MIB)
        assert scenario.fast_capacity_for(_peak_must_not_be_read) == 64 * MIB
        machine, _ = scenario.build(_peak_must_not_be_read)
        assert machine.fast.capacity == 64 * MIB

    def test_no_fraction_keeps_the_platform_size_without_reading_the_peak(self):
        assert Scenario().fast_capacity_for(_peak_must_not_be_read) is None
        machine, _ = Scenario(platform=GPU_HM).build(_peak_must_not_be_read)
        assert machine.fast.capacity == GPU_HM.fast.capacity

    @pytest.mark.parametrize("fraction", [0, -0.5, math.nan, math.inf])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="fast fraction must be positive and finite"):
            Scenario(fast_fraction=fraction).build(lambda: 100 * MIB)


def _run_policy(fraction):
    run_policy("ial", model="dcgan", fast_fraction=fraction)


def _run_concurrent(fraction):
    run_concurrent([WorkloadSpec(name="w", model="dcgan")], fast_fraction=fraction)


def _server(fraction):
    template = JobTemplate(name="t", model="dcgan", policy="ial", steps=1, slo=10.0)
    arrivals = TraceArrivals(trace=((0.0, "t"),), templates=(template,))
    Server(arrivals, ServeConfig(), fast_fraction=fraction)


@pytest.mark.parametrize("entry", [_run_policy, _run_concurrent, _server])
@pytest.mark.parametrize("fraction", [0, -0.5, math.nan, math.inf])
def test_every_entry_point_rejects_bad_fractions_alike(entry, fraction):
    with pytest.raises(ValueError) as info:
        entry(fraction)
    assert str(info.value) == f"fast fraction must be positive and finite: {fraction!r}"


class TestAdmission:
    def test_each_build_makes_a_fresh_controller(self):
        scenario = Scenario(admission="feedback", admission_args={"stall_target": 0.02})
        first, _ = scenario.build(_peak_must_not_be_read)
        second, _ = scenario.build(_peak_must_not_be_read)
        assert isinstance(first.admission, FeedbackController)
        assert first.admission is not second.admission
        assert first.admission.stall_target == second.admission.stall_target == 0.02

    def test_instance_is_attached_as_is(self):
        controller = FeedbackController()
        machine, _ = Scenario(admission=controller).build(_peak_must_not_be_read)
        assert machine.admission is controller

    def test_no_admission_leaves_the_gate_dormant(self):
        machine, _ = Scenario().build(_peak_must_not_be_read)
        assert machine.admission is None

    def test_args_without_a_name_raise(self):
        with pytest.raises(ValueError, match="requires admission= to be a name"):
            Scenario(admission_args={"stall_target": 0.02}).build(_peak_must_not_be_read)
        with pytest.raises(ValueError, match="requires admission= to be a name"):
            Scenario(
                admission=FeedbackController(), admission_args={"cooldown": 0.1}
            ).build(_peak_must_not_be_read)


class TestObservers:
    def kinds(self, scenario):
        _, observers = scenario.build(_peak_must_not_be_read)
        return [type(observer) for observer in observers]

    def test_none_by_default(self):
        assert self.kinds(Scenario()) == []

    def test_chaos_without_shrink_adds_no_shrinker(self):
        machine, observers = Scenario(chaos=ChaosConfig.uniform(0.1, seed=3)).build(
            _peak_must_not_be_read
        )
        assert machine.injector is not None
        assert observers == []

    def test_shrinker_only_with_a_shrink_rate(self):
        chaos = ChaosConfig(seed=1, capacity_shrink_rate=0.5)
        assert self.kinds(Scenario(chaos=chaos)) == [CapacityShrinker]

    def test_auditor_only_with_audit(self):
        assert self.kinds(Scenario(audit=True)) == [InvariantAuditor]
        chaos = ChaosConfig(seed=1, capacity_shrink_rate=0.5)
        assert self.kinds(Scenario(chaos=chaos, audit=True)) == [
            CapacityShrinker,
            InvariantAuditor,
        ]


class TestBuildPolicy:
    def test_sentinel_warms_up_then_profiles(self):
        policy, warmup = build_policy("sentinel")
        assert isinstance(policy, SentinelPolicy)
        assert warmup == EXPERIMENT_WARMUP_STEPS + 1

    def test_custom_sentinel_config(self):
        policy, warmup = build_policy("sentinel", SentinelConfig(warmup_steps=5))
        assert policy.config.warmup_steps == 5
        assert warmup == 6

    @pytest.mark.parametrize("name", ["ial", "fast-only", "autotm"])
    def test_other_policies_are_steady_at_once(self, name):
        _, warmup = build_policy(name)
        assert warmup == 0

    def test_fresh_policy_per_call(self):
        assert build_policy("sentinel")[0] is not build_policy("sentinel")[0]


class TestValue:
    SCENARIO = Scenario(
        platform=GPU_HM,
        fast_fraction=0.3,
        chaos=ChaosConfig.uniform(0.05, seed=9),
        pressure=PressureConfig.watermarks(0.75, 0.9),
        admission="feedback",
        admission_args={"stall_target": 0.02},
        audit=True,
    )

    def test_fields_are_run_policys_machine_keywords(self):
        kwargs = self.SCENARIO.as_kwargs()
        assert set(kwargs) == {
            "platform", "fast_fraction", "fast_capacity", "chaos", "pressure",
            "ras", "admission", "admission_args", "audit",
        }
        assert set(kwargs) <= set(inspect.signature(run_policy).parameters)
        assert Scenario(**kwargs) == self.SCENARIO

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self.SCENARIO.fast_fraction = 0.5

    def test_pickles(self):
        assert pickle.loads(pickle.dumps(self.SCENARIO)) == self.SCENARIO

    def test_survives_the_worker_pool(self):
        scenarios = [self.SCENARIO, Scenario(), Scenario(fast_capacity=8 * MIB)]
        assert pmap(_echo, scenarios, workers=2) == scenarios
