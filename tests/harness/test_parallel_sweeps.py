"""Parallel sweep runner: deterministic merge, cross-process seeds, edges.

``sweep(..., workers=N)`` distributes grid points over a multiprocessing
pool; its contract is that the merged :class:`SweepResult` is byte-identical
to the serial run no matter how the pool schedules points.  The property
test drives real pools over randomly drawn sub-grids; the subprocess tests
pin :func:`point_seed` against ``PYTHONHASHSEED`` (grid seeds must not
depend on interpreter hash randomization, or worker processes would
disagree with the parent).
"""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig
from repro.harness.runner import Scenario
from repro.harness.sweeps import (
    SweepPoint,
    _enumerate_grid,
    _run_point,
    point_seed,
    sweep,
)
from repro.mem.platforms import OPTANE_HM


def point_reprs(result):
    return [repr(point) for point in result.points]


class TestParallelMerge:
    @pytest.fixture(scope="class")
    def serial(self):
        return sweep(
            policies=("sentinel", "slow-only"),
            models=("dcgan",),
            fast_fractions=(0.2, 0.4),
        )

    def test_workers_two_byte_identical(self, serial):
        parallel = sweep(
            policies=("sentinel", "slow-only"),
            models=("dcgan",),
            fast_fractions=(0.2, 0.4),
            workers=2,
        )
        assert point_reprs(parallel) == point_reprs(serial)

    def test_workers_one_is_serial(self, serial):
        explicit = sweep(
            policies=("sentinel", "slow-only"),
            models=("dcgan",),
            fast_fractions=(0.2, 0.4),
            workers=1,
        )
        assert point_reprs(explicit) == point_reprs(serial)

    def test_more_workers_than_points(self, serial):
        oversubscribed = sweep(
            policies=("sentinel", "slow-only"),
            models=("dcgan",),
            fast_fractions=(0.2, 0.4),
            workers=16,
        )
        assert point_reprs(oversubscribed) == point_reprs(serial)

    # Real pools, randomly drawn sub-grids: completion order is up to the
    # OS scheduler, the merged result must not be.  max_examples is small
    # because every example runs the grid twice end to end.
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policies=st.permutations(["slow-only", "sentinel", "first-touch"]).map(
            lambda p: tuple(p[: 1 + len(p) % 2 + 1])
        ),
        fractions=st.sampled_from([(0.2,), (0.3,), (0.2, 0.4)]),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_merge_is_completion_order_independent(
        self, policies, fractions, workers
    ):
        serial = sweep(policies, ("dcgan",), fast_fractions=fractions)
        parallel = sweep(
            policies, ("dcgan",), fast_fractions=fractions, workers=workers
        )
        assert point_reprs(parallel) == point_reprs(serial)


class TestChaosUnderWorkers:
    def test_fault_sequence_unchanged_by_parallelism(self):
        # Each point's injector is reseeded from the point's own
        # coordinates before any process runs, so the fault sequence (and
        # with it the extras counters) must not care which process ran it.
        chaos = ChaosConfig.uniform(0.2, seed=7)
        kwargs = dict(
            policies=("sentinel",),
            models=("dcgan", "lstm"),
            fast_fractions=(0.3,),
            chaos=chaos,
        )
        serial = sweep(**kwargs)
        parallel = sweep(workers=2, **kwargs)
        assert point_reprs(parallel) == point_reprs(serial)
        for a, b in zip(serial.points, parallel.points):
            assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)


class TestGridEnumeration:
    def test_specs_are_indexed_in_serial_order(self):
        specs = _enumerate_grid(
            ("sentinel", "slow-only"), ("dcgan", "lstm"), (0.2, 0.4),
            None, Scenario(platform=OPTANE_HM), False,
        )
        # Models outermost, then policies, then fractions; slow-only is
        # fraction-independent, so it gets one point per model.
        assert [(s.model, s.policy, s.scenario.fast_fraction) for s in specs] == [
            ("dcgan", "sentinel", 0.2),
            ("dcgan", "sentinel", 0.4),
            ("dcgan", "slow-only", None),
            ("lstm", "sentinel", 0.2),
            ("lstm", "sentinel", 0.4),
            ("lstm", "slow-only", None),
        ]

    def test_run_point_matches_sweep_point(self):
        specs = _enumerate_grid(
            ("slow-only",), ("dcgan",), (0.2,),
            None, Scenario(platform=OPTANE_HM), False,
        )
        point = _run_point(specs[0])
        grid = sweep(("slow-only",), ("dcgan",))
        assert repr(point) == repr(grid.points[0])


class TestPointSeedCrossProcess:
    def seed_in_subprocess(self, hashseed):
        code = (
            "from repro.harness.sweeps import point_seed;"
            "print(point_seed(1234, 'sentinel', 'dcgan', None, 0.2))"
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        return int(out.stdout.strip())

    def test_stable_across_hash_randomization(self):
        # str.__hash__ varies per interpreter under PYTHONHASHSEED; the
        # CRC-32 derivation must not.
        seeds = {self.seed_in_subprocess(h) for h in ("0", "1", "42")}
        assert len(seeds) == 1
        assert seeds.pop() == point_seed(1234, "sentinel", "dcgan", None, 0.2)

    def test_distinct_points_distinct_seeds(self):
        a = point_seed(1234, "sentinel", "dcgan", None, 0.2)
        b = point_seed(1234, "sentinel", "dcgan", None, 0.4)
        c = point_seed(1234, "sentinel", "lstm", None, 0.2)
        assert len({a, b, c}) == 3


class TestSweepEdgeCases:
    def test_empty_policies_raises(self):
        with pytest.raises(ValueError):
            sweep((), ("dcgan",))

    def test_empty_models_raises(self):
        with pytest.raises(ValueError):
            sweep(("sentinel",), ())

    def test_empty_fractions_raises(self):
        with pytest.raises(ValueError):
            sweep(("sentinel",), ("dcgan",), fast_fractions=())

    def test_zero_workers_raises(self):
        with pytest.raises(ValueError):
            sweep(("sentinel",), ("dcgan",), workers=0)

    def test_where_unknown_attribute_raises(self):
        grid = sweep(("slow-only",), ("dcgan",))
        with pytest.raises(AttributeError, match="modle"):
            grid.where(modle="dcgan")
        assert grid.where(model="dcgan")

    def test_best_policy_tie_breaks_lexicographically(self):
        # Two policies, identical step time: the winner must not depend on
        # grid enumeration order.
        metrics = sweep(("slow-only",), ("dcgan",)).points[0].metrics
        tied = [
            SweepPoint("zeta", "dcgan", None, None, metrics),
            SweepPoint("alpha", "dcgan", None, None, metrics),
        ]
        from repro.harness.sweeps import SweepResult

        assert SweepResult(points=tied).best_policy("dcgan") == "alpha"
        assert SweepResult(points=tied[::-1]).best_policy("dcgan") == "alpha"


class TestExperimentWorkers:
    """fig7/fig10 ride the same pool: workers>1 is byte-identical."""

    def test_fig7_workers_byte_identical(self):
        from repro.harness.experiments import fig7_speedup

        serial = fig7_speedup(models=("dcgan",), workers=1)
        pooled = fig7_speedup(models=("dcgan",), workers=2)
        assert pooled == serial

    def test_fig10_workers_byte_identical(self):
        from repro.harness.experiments import fig10_sensitivity

        serial = fig10_sensitivity(
            models=("dcgan",), fractions=(0.2, 0.4), workers=1
        )
        pooled = fig10_sensitivity(
            models=("dcgan",), fractions=(0.2, 0.4), workers=2
        )
        assert pooled == serial
