"""Arena allocator: chunk recycling, page persistence, BFC semantics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnn.alloc import AllocationError
from repro.dnn.arena import ArenaAllocator, _size_class
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM

PAGE = OPTANE_HM.page_size


def make_arena():
    machine = Machine(OPTANE_HM)
    arena = ArenaAllocator(machine, lambda tensor, now: DeviceKind.SLOW)
    return machine, arena


def make_tensor(tid, nbytes):
    tensor = Tensor(tid=tid, name=f"t{tid}", nbytes=nbytes, kind=TensorKind.TEMP)
    tensor.alloc_layer = 0
    tensor.free_layer = 0
    return tensor


class TestSizeClass:
    """Integer size classes bin exactly like the float ``ceil(log2(n))``."""

    @staticmethod
    def float_class(nbytes):
        return max(8, math.ceil(math.log2(nbytes)))

    def test_small_sizes(self):
        for nbytes in range(1, 2**16 + 1):
            assert _size_class(nbytes) == self.float_class(nbytes), nbytes

    def test_power_of_two_boundaries(self):
        for k in range(49):
            for nbytes in (2**k - 1, 2**k, 2**k + 1):
                if nbytes >= 1:
                    assert _size_class(nbytes) == self.float_class(nbytes), nbytes


class TestChunkRecycling:
    def test_freed_chunk_is_reused(self):
        machine, arena = make_arena()
        a = make_tensor(0, 1000)
        mapping_a = arena.alloc(a, now=0.0)
        run_a = mapping_a.shares[0].run
        arena.free(a, now=0.0)
        b = make_tensor(1, 900)
        mapping_b = arena.alloc(b, now=0.0)
        # Same underlying run: the arena recycled the chunk.
        assert mapping_b.shares[0].run.vpn == run_a.vpn

    def test_pages_not_returned_on_free(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, PAGE * 4)
        arena.alloc(tensor, now=0.0)
        used = machine.slow.used
        arena.free(tensor, now=0.0)
        assert machine.slow.used == used  # the arena keeps its slabs

    def test_release_all_returns_everything(self):
        machine, arena = make_arena()
        tensors = [make_tensor(i, 5000 * (i + 1)) for i in range(5)]
        for tensor in tensors:
            arena.alloc(tensor, now=0.0)
        for tensor in tensors:
            arena.free(tensor, now=0.0)
        arena.release_all(now=0.0)
        assert machine.slow.used == 0
        assert arena.arena_bytes == 0

    def test_best_fit_prefers_smallest_sufficient_chunk(self):
        machine, arena = make_arena()
        big = make_tensor(0, PAGE * 8)
        small = make_tensor(1, PAGE)
        arena.alloc(big, now=0.0)
        arena.alloc(small, now=0.0)
        arena.free(big, now=0.0)
        arena.free(small, now=0.0)
        # A tensor the size of the small chunk reuses it, not the big one.
        fit = make_tensor(2, PAGE)
        mapping = arena.alloc(fit, now=0.0)
        assert mapping.shares[0].nbytes == PAGE

    def test_split_remainder_is_allocatable(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, 100)  # slab is SLAB_PAGES pages; big split
        arena.alloc(tensor, now=0.0)
        before = machine.slow.used
        other = make_tensor(1, 100)
        arena.alloc(other, now=0.0)
        # Second allocation came from the remainder: no new slab mapped.
        assert machine.slow.used == before

    def test_double_alloc_rejected(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, 100)
        arena.alloc(tensor, now=0.0)
        with pytest.raises(AllocationError):
            arena.alloc(tensor, now=0.0)

    def test_free_unknown_rejected(self):
        machine, arena = make_arena()
        with pytest.raises(AllocationError):
            arena.free(make_tensor(0, 100), now=0.0)


class TestPersistence:
    def test_promoted_run_stays_fast_for_next_tenant(self):
        """The mechanism behind IAL's cross-step behaviour."""
        machine, arena = make_arena()
        first = make_tensor(0, PAGE * 2)
        mapping = arena.alloc(first, now=0.0)
        run = mapping.shares[0].run
        transfer, _, _ = machine.migration.promote([run], now=0.0)
        machine.migration.sync(transfer.finish)
        arena.free(first, now=1.0)
        second = make_tensor(1, PAGE * 2)
        mapping2 = arena.alloc(second, now=1.0)
        assert mapping2.shares[0].run.device is DeviceKind.FAST

    def test_counters_accumulate_across_tenants(self):
        """Observation 3's time dimension: page heat outlives tensors."""
        machine, arena = make_arena()
        first = make_tensor(0, PAGE)
        mapping = arena.alloc(first, now=0.0)
        run = mapping.shares[0].run
        run.poisoned = True
        machine.fault_handler.on_access_pass(run, 1, is_write=False, passes=5)
        arena.free(first, now=0.0)
        second = make_tensor(1, PAGE)
        mapping2 = arena.alloc(second, now=0.0)
        assert mapping2.shares[0].run.accesses >= 5  # inherited heat


class TestArenaProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=PAGE * 20), min_size=1, max_size=40
        ),
        free_order=st.randoms(use_true_random=False),
    )
    def test_alloc_free_cycles_conserve_accounting(self, sizes, free_order):
        machine, arena = make_arena()
        tensors = [make_tensor(i, s) for i, s in enumerate(sizes)]
        for tensor in tensors:
            mapping = arena.alloc(tensor, now=0.0)
            assert mapping.nbytes == tensor.nbytes
        shuffled = list(tensors)
        free_order.shuffle(shuffled)
        for tensor in shuffled:
            arena.free(tensor, now=0.0)
        assert arena.live_tensor_bytes == 0
        # Device usage equals the arena's retained slabs exactly.
        assert machine.slow.used == arena.arena_bytes
        arena.release_all(now=0.0)
        assert machine.slow.used == 0

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=64, max_value=PAGE * 4), min_size=2, max_size=30
        )
    )
    def test_second_round_reuses_pages(self, sizes):
        """A steady training loop stops growing the arena after step one."""
        machine, arena = make_arena()
        for round_index in range(2):
            tensors = [
                make_tensor(round_index * 1000 + i, s) for i, s in enumerate(sizes)
            ]
            for tensor in tensors:
                arena.alloc(tensor, now=0.0)
            if round_index == 0:
                first_round_bytes = arena.arena_bytes
            for tensor in tensors:
                arena.free(tensor, now=0.0)
        assert arena.arena_bytes == first_round_bytes


class TestPageRetirementQuarantine:
    """RAS retirement on a BFC slab: quarantine, never carve."""

    def _retire(self, arena, run, page_index):
        return arena.retire_page(run, run.vpn + page_index, now=0.0)

    def test_retire_returns_false_and_keeps_slab_mapped(self):
        machine, arena = make_arena()
        mapping = arena.alloc(make_tensor(0, PAGE * 4), now=0.0)
        run = mapping.shares[0].run
        assert self._retire(arena, run, 1) is False
        assert run.vpn in machine.page_table
        assert machine.page_table.entry(run.vpn).npages == run.npages

    def test_freed_tenant_bytes_skip_the_quarantined_page(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, PAGE * 4)
        mapping = arena.alloc(tensor, now=0.0)
        run = mapping.shares[0].run
        self._retire(arena, run, 1)
        arena.free(tensor, now=0.0)
        # The slab's free list covers everything except the dead page.
        slab_bytes = run.npages * PAGE
        assert arena.free_bytes == slab_bytes - PAGE
        # No free chunk overlaps the quarantined range.
        for chunks in arena._bins.values():
            for chunk in chunks:
                if chunk.run is run:
                    assert not (
                        chunk.offset < 2 * PAGE
                        and chunk.offset + chunk.nbytes > PAGE
                    )

    def test_quarantined_range_is_never_reallocated(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, PAGE * 4)
        arena.alloc(tensor, now=0.0)
        run = arena.mapping(tensor).shares[0].run
        self._retire(arena, run, 0)
        arena.free(tensor, now=0.0)
        # Refilling the slab never places a tenant over the dead page.
        placed = []
        for tid in range(1, 20):
            t = make_tensor(tid, PAGE)
            mapping = arena.alloc(t, now=0.0)
            placed.extend(arena._chunks_by_tid[t.tid])
        for chunk in placed:
            if chunk.run is run:
                assert not (
                    chunk.offset < PAGE and chunk.offset + chunk.nbytes > 0
                )

    def test_free_chunk_struck_by_retirement_is_clipped(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, PAGE * 4)
        arena.alloc(tensor, now=0.0)
        run = arena.mapping(tensor).shares[0].run
        arena.free(tensor, now=0.0)  # slab fully on the free lists
        free_before = arena.free_bytes
        self._retire(arena, run, 2)
        # Exactly one page of free space disappears; the remnants on
        # either side of the hole stay allocatable.
        assert arena.free_bytes == free_before - PAGE
        small = make_tensor(1, PAGE)
        assert arena.alloc(small, now=0.0).shares[0].run.vpn == run.vpn

    def test_release_all_clears_quarantine_and_returns_slabs(self):
        machine, arena = make_arena()
        tensor = make_tensor(0, PAGE * 4)
        arena.alloc(tensor, now=0.0)
        run = arena.mapping(tensor).shares[0].run
        self._retire(arena, run, 1)
        arena.release_all(now=0.0)
        assert machine.slow.used == 0
        assert len(machine.page_table) == 0
        assert arena._quarantined == {}

    def test_unowned_or_stale_runs_are_refused(self):
        machine, arena = make_arena()
        foreign = machine.map_run(2, DeviceKind.SLOW)
        assert arena.retire_page(foreign, foreign.vpn, now=0.0) is False
