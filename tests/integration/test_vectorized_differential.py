"""Differential equivalence: the vectorized hot path vs the scalar reference.

The vectorized accounting paths promised *byte-identical* results to the
original scalar loops — not "close", identical: every float is produced by
the same operation on the same operands in the same order.  The scalar
loops are gone; what they produced for these workloads is kept as data
(``scalar_reference.py``).  These tests run each workload on the one
remaining path and compare everything we can serialize against it:
steady-state metrics (including the extras counters), the full per-step
event trace, and the checked-in golden digest.

If one of these fails, the hot path has drifted from the scalar
reference — fix the hot path, never the tolerance (there is none).
"""

from pathlib import Path

import pytest

from repro.chaos import ChaosConfig
from repro.harness.runner import run_policy
from repro.mem.pressure import PressureConfig
from repro.obs import EventTracer, canonical_digest
from tests.integration.scalar_reference import metrics_digest, reference

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

SCALAR = reference("vectorized_differential")


class TestMetricsEquivalence:
    @pytest.mark.parametrize("policy,model,fraction", DIFFERENTIAL_CASES)
    def test_metrics_byte_identical(self, policy, model, fraction):
        metrics = run_policy(policy_name=policy, model=model, fast_fraction=fraction)
        assert metrics_digest(metrics) == SCALAR[f"metrics/{policy}-{model}-{fraction}"]

    def test_chaos_fault_sequence_identical(self):
        chaos = ChaosConfig.uniform(0.2, seed=99)
        metrics = run_policy(
            policy_name="sentinel", model="dcgan", fast_fraction=0.3, chaos=chaos
        )
        # The extras carry the injected-fault counters: identical extras
        # mean the fault sequence (not just its aggregate cost) matched.
        assert metrics_digest(metrics) == SCALAR["metrics/chaos"]

    def test_pressure_governor_identical(self):
        metrics = run_policy(
            policy_name="sentinel", model="dcgan", fast_fraction=0.3,
            pressure=PressureConfig(),
        )
        assert metrics_digest(metrics) == SCALAR["metrics/pressure"]


class TestTraceEquivalence:
    def traced(self, chaos=None):
        tracer = EventTracer()
        run_policy(
            "sentinel", model="dcgan", fast_fraction=0.2,
            chaos=chaos, tracer=tracer,
        )
        return tracer.events

    def test_per_step_event_stream_identical(self):
        # The canonical digest hashes the JSONL of every event of every
        # step: equality here is per-step, per-event byte identity, not
        # just end-of-run totals.
        assert canonical_digest(self.traced()) == SCALAR["trace/plain"]

    def test_chaos_trace_identical(self):
        chaos = ChaosConfig.uniform(0.2, seed=99)
        assert canonical_digest(self.traced(chaos=chaos)) == SCALAR["trace/chaos"]

    def test_both_paths_match_checked_in_golden(self, golden_digest):
        # The scalar reference and the remaining path each reproduce the
        # committed golden digest — the strongest cross-version anchor.
        assert SCALAR["trace/plain"] == golden_digest
        assert canonical_digest(self.traced()) == golden_digest


@pytest.fixture(scope="module")
def golden_digest():
    golden = (
        Path(__file__).resolve().parent.parent
        / "golden"
        / "dcgan_sentinel_trace.sha256"
    )
    return golden.read_text().strip()
