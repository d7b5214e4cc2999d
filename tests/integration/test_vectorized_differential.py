"""Differential equivalence: the vectorized hot path vs the scalar reference.

The vectorized accounting paths (``repro.accel``) promise *byte-identical*
results to the original scalar loops — not "close", identical: every float
is produced by the same operation on the same operands in the same order.
These tests run the same workload once per path and compare everything we
can serialize: steady-state metrics (including the extras counters), the
full per-step event trace, and the checked-in golden digest.

If one of these fails, the vectorized twin has drifted from the scalar
reference — fix the twin, never the tolerance (there is none).
"""

import dataclasses

import pytest

from repro import accel
from repro.chaos import ChaosConfig
from repro.harness.runner import run_policy
from repro.mem.pressure import PressureConfig
from repro.obs import EventTracer, canonical_digest, to_jsonl

#: (policy, model, fast_fraction) cases spanning the model zoo and the
#: policy families whose hot paths were vectorized.  fast-only is absent:
#: it needs full-capacity headroom at these fractions (pre-existing, path
#: independent).
DIFFERENTIAL_CASES = [
    ("sentinel", "dcgan", 0.3),
    ("sentinel", "lstm", 0.5),
    ("sentinel", "mobilenet", 0.4),
    ("slow-only", "dcgan", 0.3),
    ("ial", "resnet32", 0.4),
    ("first-touch", "lstm", 0.3),
    ("memory-mode", "dcgan", 0.5),
    ("vdnn", "dcgan", 0.4),
    ("autotm", "lstm", 0.4),
    ("capuchin", "dcgan", 0.5),
]


def run_both_paths(**kwargs):
    """Run the same workload on each path; returns (scalar, vectorized)."""
    with accel.scalar_path(True):
        scalar = run_policy(**kwargs)
    with accel.scalar_path(False):
        vectorized = run_policy(**kwargs)
    return scalar, vectorized


def as_dict(metrics):
    return dataclasses.asdict(metrics)


class TestMetricsEquivalence:
    @pytest.mark.parametrize("policy,model,fraction", DIFFERENTIAL_CASES)
    def test_metrics_byte_identical(self, policy, model, fraction):
        scalar, vectorized = run_both_paths(
            policy_name=policy, model=model, fast_fraction=fraction
        )
        assert as_dict(scalar) == as_dict(vectorized)

    def test_chaos_fault_sequence_identical(self):
        chaos = ChaosConfig.uniform(0.2, seed=99)
        scalar, vectorized = run_both_paths(
            policy_name="sentinel", model="dcgan", fast_fraction=0.3, chaos=chaos
        )
        # The extras carry the injected-fault counters: identical extras
        # mean the fault sequence (not just its aggregate cost) matched.
        assert as_dict(scalar) == as_dict(vectorized)

    def test_pressure_governor_identical(self):
        pressure = PressureConfig()
        scalar, vectorized = run_both_paths(
            policy_name="sentinel", model="dcgan", fast_fraction=0.3,
            pressure=pressure,
        )
        assert as_dict(scalar) == as_dict(vectorized)


class TestTraceEquivalence:
    def traced(self, scalar, chaos=None):
        tracer = EventTracer()
        with accel.scalar_path(scalar):
            run_policy(
                "sentinel", model="dcgan", fast_fraction=0.2,
                chaos=chaos, tracer=tracer,
            )
        return tracer.events

    def test_per_step_event_stream_identical(self):
        # to_jsonl serializes every event of every step: equality here is
        # per-step, per-event byte identity, not just end-of-run totals.
        assert to_jsonl(self.traced(scalar=True)) == to_jsonl(
            self.traced(scalar=False)
        )

    def test_chaos_trace_identical(self):
        chaos = ChaosConfig.uniform(0.2, seed=99)
        assert to_jsonl(self.traced(scalar=True, chaos=chaos)) == to_jsonl(
            self.traced(scalar=False, chaos=chaos)
        )

    def test_both_paths_match_checked_in_golden(self, golden_digest):
        # Each path independently reproduces the committed golden digest —
        # the strongest cross-version anchor we have.
        assert canonical_digest(self.traced(scalar=True)) == golden_digest
        assert canonical_digest(self.traced(scalar=False)) == golden_digest


@pytest.fixture(scope="module")
def golden_digest():
    from pathlib import Path

    golden = (
        Path(__file__).resolve().parent.parent
        / "golden"
        / "dcgan_sentinel_trace.sha256"
    )
    return golden.read_text().strip()


class TestSwitch:
    def test_context_manager_restores(self):
        before = accel.scalar_enabled()
        with accel.scalar_path(True):
            assert accel.scalar_enabled()
            with accel.scalar_path(False):
                assert accel.vectorized_enabled()
            assert accel.scalar_enabled()
        assert accel.scalar_enabled() == before

    def test_default_is_vectorized(self):
        assert accel.vectorized_enabled()
        assert not accel.scalar_enabled()
