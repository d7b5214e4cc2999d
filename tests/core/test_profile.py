"""Profile data model queries."""

import pytest

from repro.core.interval import partition_layers
from repro.core.profile import Profile, TensorProfile
from repro.core.profiler import DynamicProfiler
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model
from repro.models.zoo import MODELS


def record(tid, nbytes=1000, alloc=0, free=0, touches=None, preallocated=False):
    return TensorProfile(
        tid=tid,
        name=f"t{tid}",
        nbytes=nbytes,
        alloc_layer=alloc if not preallocated else -1,
        free_layer=None if preallocated else free,
        preallocated=preallocated,
        touches_by_layer=dict(touches or {}),
    )


def make_profile(tensors, num_layers=4, short_bytes=None):
    return Profile(
        graph_name="g",
        signature=(),
        num_layers=num_layers,
        page_size=4096,
        tensors={t.tid: t for t in tensors},
        layer_fast_times=[0.1] * num_layers,
        layer_short_lived_bytes=short_bytes or [0] * num_layers,
    )


class TestTensorProfile:
    def test_short_lived_classification(self):
        assert record(0, alloc=1, free=1).short_lived
        assert not record(0, alloc=1, free=2).short_lived
        assert not record(0, preallocated=True).short_lived

    def test_next_touch_after(self):
        r = record(0, touches={1: 2, 3: 1, 5: 1})
        assert r.next_touch_after(0) == 1
        assert r.next_touch_after(1) == 3
        assert r.next_touch_after(5) is None

    def test_touched_in(self):
        r = record(0, touches={2: 1, 6: 1})
        assert r.touched_in(0, 2)
        assert r.touched_in(3, 6)
        assert not r.touched_in(3, 5)

    def test_lifetime_key_groups_identical_lifetimes(self):
        assert record(0, alloc=1, free=3).lifetime_key() == record(
            1, alloc=1, free=3
        ).lifetime_key()
        assert record(0, alloc=1, free=3).lifetime_key() != record(
            1, alloc=1, free=4
        ).lifetime_key()


class TestProfileQueries:
    def test_partitions(self):
        short = record(0, alloc=0, free=0)
        long = record(1, alloc=0, free=2)
        profile = make_profile([short, long])
        assert [t.tid for t in profile.short_lived_tensors()] == [0]
        assert [t.tid for t in profile.long_lived_tensors()] == [1]

    def test_rs_near_constant_in_interval_length(self):
        """The paper's observation: RS barely varies with MIL because it is
        a per-layer peak, not a sum."""
        profile = make_profile([], num_layers=6, short_bytes=[10, 40, 20, 40, 10, 5])
        assert profile.rs(1) == 40
        assert profile.rs(2) == 40
        assert profile.rs(6) == 40

    def test_long_lived_bytes_touched_in(self):
        long_a = record(1, nbytes=100, alloc=0, free=3, touches={0: 1, 3: 1})
        long_b = record(2, nbytes=50, alloc=1, free=3, touches={1: 1})
        short = record(3, nbytes=10, alloc=2, free=2, touches={2: 5})
        profile = make_profile([long_a, long_b, short])
        assert profile.long_lived_bytes_touched_in(0, 1) == 150
        assert profile.long_lived_bytes_touched_in(2, 2) == 0  # short excluded
        assert profile.long_lived_bytes_touched_in(3, 3) == 100

    def test_memory_overhead(self):
        profile = make_profile([])
        profile.packed_peak_bytes = 100
        profile.profiled_peak_bytes = 102
        assert profile.memory_overhead == pytest.approx(0.02)

    def test_hotness_rank_orders_descending(self):
        cold = record(0, touches={0: 1})
        hot = record(1, touches={0: 50, 1: 60})
        profile = make_profile([cold, hot])
        ranks = profile.hotness_rank()
        assert ranks[1] == 0
        assert ranks[0] == 1

    def test_interval_fast_time(self):
        profile = make_profile([], num_layers=4)
        assert profile.interval_fast_time([0, 1]) == pytest.approx(0.2)


class TestTouchQueryBoundaries:
    """``next_touch_after``/``touched_in`` bisect a sorted touch tuple:
    pin the first layer, the last layer and queries past the end."""

    def test_next_touch_after_boundaries(self):
        r = record(0, touches={0: 1, 4: 1, 7: 1})
        assert r.next_touch_after(-1) == 0  # first layer
        assert r.next_touch_after(0) == 4
        assert r.next_touch_after(6) == 7  # last layer
        assert r.next_touch_after(7) is None
        assert r.next_touch_after(100) is None  # past the end

    def test_touched_in_boundaries(self):
        r = record(0, touches={0: 1, 4: 1, 7: 1})
        assert r.touched_in(0, 0)  # first layer alone
        assert r.touched_in(7, 7)  # last layer alone
        assert r.touched_in(-5, 0)
        assert r.touched_in(7, 100)
        assert not r.touched_in(1, 3)
        assert not r.touched_in(8, 100)  # past the end
        assert not r.touched_in(-5, -1)

    def test_untouched_tensor(self):
        r = record(0, touches={})
        assert r.next_touch_after(-1) is None
        assert not r.touched_in(0, 100)


@pytest.fixture(scope="module", params=sorted(MODELS))
def zoo_profile(request):
    graph = build_model(request.param)
    return DynamicProfiler(OPTANE_HM).run(graph).profile


class TestPlanIndexMatchesScans:
    """:class:`PlanIndex` answers every interval of a candidate MIL at once;
    the per-interval scans on :class:`Profile` are its reference."""

    def test_interval_rs(self, zoo_profile):
        index = zoo_profile.plan_index()
        for length in range(1, zoo_profile.num_layers + 1):
            assert index.interval_rs(length) == zoo_profile.rs(length)

    def test_interval_tensor_bytes(self, zoo_profile):
        index = zoo_profile.plan_index()
        for length in range(1, zoo_profile.num_layers + 1):
            intervals = partition_layers(zoo_profile.num_layers, length)
            assert index.interval_tensor_bytes(length) == [
                zoo_profile.long_lived_bytes_touched_in(interval[0], interval[-1])
                for interval in intervals
            ]

    def test_interval_fast_times(self, zoo_profile):
        # evaluate_interval_length slices layer_fast_times; the slice sums
        # must equal interval_fast_time exactly, not approximately.
        times = zoo_profile.layer_fast_times
        for length in range(1, zoo_profile.num_layers + 1):
            for interval in partition_layers(zoo_profile.num_layers, length):
                sliced = sum(times[interval[0] : interval[-1] + 1])
                assert sliced == zoo_profile.interval_fast_time(interval)
