"""The mechanisms are platform-agnostic: orderings hold on machines the
paper never ran (CXL capacity tier, A100-class GPU)."""

import pytest

from repro.harness.runner import run_policy
from repro.mem.platforms import CXL_HM, GPU_A100_HM


class TestCXL:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for policy in ("slow-only", "fast-only", "ial", "sentinel"):
            fraction = None if policy in ("slow-only", "fast-only") else 0.2
            out[policy] = run_policy(
                policy,
                model="dcgan",
                batch_size=128,
                platform=CXL_HM,
                fast_fraction=fraction,
            )
        return out

    def test_ordering_carries_over(self, results):
        assert results["sentinel"].step_time <= results["ial"].step_time
        assert results["fast-only"].step_time <= results["sentinel"].step_time * 1.01
        assert results["sentinel"].step_time < results["slow-only"].step_time

    def test_sentinel_near_ceiling(self, results):
        gap = results["sentinel"].step_time / results["fast-only"].step_time
        assert gap < 1.3


class TestA100:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        # Batch sized so peak exceeds the 40 GiB device (~57 GiB).
        for policy in ("unified-memory", "capuchin", "sentinel-gpu"):
            out[policy] = run_policy(
                policy, model="resnet200", batch_size=128, platform=GPU_A100_HM
            )
        return out

    def test_sentinel_leads_on_bigger_device(self, results):
        sentinel = results["sentinel-gpu"].step_time
        assert sentinel < results["unified-memory"].step_time
        assert sentinel < results["capuchin"].step_time * 1.3

    def test_migration_happens(self, results):
        assert results["sentinel-gpu"].migrated_bytes > 0
