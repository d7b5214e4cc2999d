"""Property tests for page-table surgery around RAS page retirement.

Retirement carves a single dead page out of a mapped run: split the run so
one entry covers exactly the struck page, unmap that entry, and keep every
surviving page mapped with its state intact.  These properties pin the
invariants the RAS engine leans on — whatever the run size, strike offset,
or pre-existing fragmentation:

* the sorted-start interval index stays consistent;
* ``mapped_pages`` drops by exactly one page per retirement;
* survivors tile the original span with only the dead pages missing;
* split inheritance carries placement/poison/pin/initialized state;
* ``entries_by_vpn()`` (the walk the pressure governor's reclaim takes)
  equals a vpn sort of ``entries()`` after any map/unmap/split/retire mix.

Skipped wholesale when hypothesis is unavailable (it is an optional test
dependency; the simulator itself never imports it).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.mem.devices import DeviceKind  # noqa: E402
from repro.mem.page import PageTable  # noqa: E402


def retire(table, vpn):
    """The RAS engine's surgery: isolate page ``vpn`` in its own run, unmap it."""
    run = table.run_containing(vpn)
    assert run is not None and not run.in_flight
    if vpn > run.vpn:
        run = table.split(run.vpn, vpn - run.vpn)
    if run.npages > 1:
        table.split(run.vpn, 1)
    return table.unmap(vpn)


def assert_index_consistent(table):
    starts = table._starts
    assert starts == sorted(starts)
    assert set(starts) == set(e.vpn for e in table.entries())
    assert list(table.entries_by_vpn()) == sorted(
        table.entries(), key=lambda r: r.vpn
    )
    spans = sorted((e.vpn, e.npages) for e in table.entries())
    for (vpn, npages), (next_vpn, _) in zip(spans, spans[1:]):
        assert vpn + npages <= next_vpn  # no overlap


class TestRetirementProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        npages=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_repeated_retirement_conserves_survivors(self, npages, data):
        table = PageTable()
        run = table.map_run(npages, DeviceKind.SLOW)
        base, total = run.vpn, npages
        strikes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=npages - 1),
                min_size=1,
                max_size=npages,
                unique=True,
            )
        )
        for offset in strikes:
            dead = retire(table, base + offset)
            assert dead.npages == 1 and dead.vpn == base + offset
            assert_index_consistent(table)
        assert table.mapped_pages == total - len(strikes)
        survivors = set()
        for entry in table.entries():
            survivors.update(range(entry.vpn, entry.vpn + entry.npages))
        expected = set(range(base, base + total)) - {
            base + off for off in strikes
        }
        assert survivors == expected
        for offset in strikes:
            assert table.run_containing(base + offset) is None

    @settings(max_examples=60, deadline=None)
    @given(
        npages=st.integers(min_value=2, max_value=64),
        offset=st.data(),
        poisoned=st.booleans(),
        pinned=st.booleans(),
        initialized=st.booleans(),
    )
    def test_survivors_inherit_run_state(
        self, npages, offset, poisoned, pinned, initialized
    ):
        table = PageTable()
        run = table.map_run(npages, DeviceKind.FAST)
        run.poisoned = poisoned
        run.pinned = pinned
        run.initialized = initialized
        strike = offset.draw(st.integers(min_value=0, max_value=npages - 1))
        retire(table, run.vpn + strike)
        remaining = list(table.entries())
        assert remaining  # npages >= 2, so someone survives
        for entry in remaining:
            assert entry.device is DeviceKind.FAST
            assert entry.poisoned == poisoned
            assert entry.pinned == pinned
            assert entry.initialized == initialized

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_retirement_in_fragmented_table(self, sizes, data):
        table = PageTable()
        runs = [table.map_run(n, DeviceKind.SLOW) for n in sizes]
        victim = data.draw(st.sampled_from(runs))
        strike = data.draw(
            st.integers(min_value=0, max_value=victim.npages - 1)
        )
        before = table.mapped_pages
        retire(table, victim.vpn + strike)
        assert table.mapped_pages == before - 1
        assert_index_consistent(table)
        # Every other run is untouched.
        for run, size in zip(runs, sizes):
            if run is victim:
                continue
            assert table.run_containing(run.vpn) is not None


#: One page-table operation: (kind, which run, size or offset).
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap", "split", "retire"]),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=1, max_value=16),
    ),
    max_size=60,
)


class TestVpnOrder:
    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_entries_by_vpn_equals_sorted_entries(self, operations):
        table = PageTable()
        for kind, pick, size in operations:
            runs = list(table.entries())
            if kind == "map" or not runs:
                table.map_run(size, DeviceKind.FAST if pick % 2 else DeviceKind.SLOW)
                continue
            run = runs[pick % len(runs)]
            if kind == "unmap":
                table.unmap(run.vpn)
            elif kind == "split":
                if run.npages > 1:
                    table.split(run.vpn, 1 + size % (run.npages - 1))
            else:
                retire(table, run.vpn + size % run.npages)
            assert_index_consistent(table)
