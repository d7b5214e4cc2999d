"""A BFC-style arena allocator with cross-step page reuse.

TensorFlow's best-fit-with-coalescing allocator grabs pages from the OS
once and recycles them: a freed chunk goes onto a free list and is handed
to the next allocation that fits.  Two consequences matter for the paper:

* **page reuse across steps** — the same OS pages back the same (or
  different!) tensors step after step, so their NUMA placement and kernel
  page heat persist.  This is why first-touch and active-list policies see
  stable page behaviour despite tensors being logically reallocated every
  step, and it is the mechanism behind our IAL baseline's warm placement.
* **false sharing in time** — a page's access counters accumulate over
  *successive tenants*, so a page that once hosted a hot tensor keeps
  looking hot while holding a cold one (Observation 3's page-level
  misclassification).

The arena requests page runs from the machine like any allocator, but only
returns them when :meth:`ArenaAllocator.release_all` is called — freed
chunks go to a size-bucketed free list instead.  Chunk splitting mirrors
BFC: a larger free chunk is split, the remainder re-listed.

Under capacity pressure the arena's weakness is *external fragmentation*:
free bytes scattered across chunks too small for the request sizes the
workload actually makes.  :meth:`ArenaAllocator.external_fragmentation`
measures it (free bytes unusable for the largest request class seen) and
:meth:`ArenaAllocator.compact` runs a bounded BFC-coalescing pass that
vacates mostly-empty slabs by relocating their tenants into free chunks
elsewhere — paying real migration-channel time per move — and returns the
emptied slabs to the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnn.alloc import Allocator, RunShare, TensorMapping
from repro.dnn.tensor import Tensor
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry

#: Free chunks are binned by power-of-two size class, BFC style.
_MIN_BIN = 8  # 256-byte class


def _size_class(nbytes: int) -> int:
    # ``(n - 1).bit_length()`` is ceil(log2(n)) for positive ints, exactly.
    return max(_MIN_BIN, (nbytes - 1).bit_length())


@dataclass
class _Chunk:
    """A contiguous byte range inside an arena-owned page run."""

    run: PageTableEntry
    offset: int
    nbytes: int
    tenant: Optional[int] = None  # tid currently resident

    @property
    def free(self) -> bool:
        return self.tenant is None


@dataclass
class CompactionReport:
    """What one bounded compaction pass accomplished."""

    moves: int = 0
    moved_bytes: int = 0
    merges: int = 0
    freed_runs: int = 0
    freed_bytes: int = 0
    finish: float = 0.0
    relocated: List[int] = field(default_factory=list)  # tids moved


class ArenaAllocator(Allocator):
    """Best-fit arena: pages persist, chunks are recycled across steps."""

    #: allocate fresh runs in slabs of this many pages to limit run count
    SLAB_PAGES = 16

    def __init__(self, machine: Machine, place) -> None:
        super().__init__(machine, place)
        self._bins: Dict[int, List[_Chunk]] = {}
        self._chunks_by_tid: Dict[int, List[_Chunk]] = {}
        #: every run the arena ever mapped (released only by release_all)
        self._owned_runs: List[PageTableEntry] = []
        #: largest single allocation seen — the request class external
        #: fragmentation is measured against
        self._largest_request = 0
        #: RAS-retired byte ranges per slab vpn: ``[(lo, hi), ...]``.  A
        #: BFC slab is never carved around a dead frame (chunk offsets are
        #: relative to the whole slab), so retirement quarantines the dead
        #: range instead — no future tenant may land on it.
        self._quarantined: Dict[int, List[tuple]] = {}

    # --------------------------------------------------------------- lookup

    def group_of(self, tensor: Tensor):  # pragma: no cover - not used
        raise NotImplementedError("the arena has its own placement logic")

    def _take_free_chunk(self, nbytes: int) -> Optional[_Chunk]:
        """Best-fit search: smallest free chunk that holds ``nbytes``."""
        for size_class in range(_size_class(nbytes), 64):
            bin_chunks = self._bins.get(size_class)
            if not bin_chunks:
                continue
            best_index = None
            for index, chunk in enumerate(bin_chunks):
                if chunk.nbytes >= nbytes and (
                    best_index is None
                    or chunk.nbytes < bin_chunks[best_index].nbytes
                ):
                    best_index = index
            if best_index is not None:
                return bin_chunks.pop(best_index)
        return None

    def _list_free(self, chunk: _Chunk) -> None:
        chunk.tenant = None
        spans = self._quarantined.get(chunk.run.vpn)
        if spans:
            # Clip the chunk against RAS-retired ranges: the remnants go
            # back on the free lists, the dead bytes never do.
            for lo, hi in spans:
                if chunk.offset < hi and chunk.offset + chunk.nbytes > lo:
                    if chunk.offset < lo:
                        self._list_free(
                            _Chunk(
                                run=chunk.run,
                                offset=chunk.offset,
                                nbytes=lo - chunk.offset,
                            )
                        )
                    if chunk.offset + chunk.nbytes > hi:
                        self._list_free(
                            _Chunk(
                                run=chunk.run,
                                offset=hi,
                                nbytes=chunk.offset + chunk.nbytes - hi,
                            )
                        )
                    return
        self._bins.setdefault(_size_class(chunk.nbytes), []).append(chunk)

    def _grow(self, nbytes: int, now: float, tensor: Tensor) -> _Chunk:
        """Map a fresh slab from the machine and carve the chunk from it."""
        page_size = self.machine.page_size
        npages = max(self.SLAB_PAGES, math.ceil(nbytes / page_size))
        run = self._map_run(tensor, npages, now)
        self._owned_runs.append(run)
        chunk = _Chunk(run=run, offset=0, nbytes=npages * page_size)
        return chunk

    # ------------------------------------------------------------ interface

    def alloc(self, tensor: Tensor, now: float) -> TensorMapping:
        if tensor.tid in self._mappings:
            from repro.dnn.alloc import AllocationError

            raise AllocationError(f"tensor {tensor.name!r} is already allocated")
        self._largest_request = max(self._largest_request, tensor.nbytes)
        chunk = self._take_free_chunk(tensor.nbytes)
        if chunk is None:
            chunk = self._grow(tensor.nbytes, now, tensor)
        # BFC split: keep what we need, re-list the remainder.
        if chunk.nbytes > tensor.nbytes:
            remainder = _Chunk(
                run=chunk.run,
                offset=chunk.offset + tensor.nbytes,
                nbytes=chunk.nbytes - tensor.nbytes,
            )
            self._list_free(remainder)
            chunk = _Chunk(run=chunk.run, offset=chunk.offset, nbytes=tensor.nbytes)
        chunk.tenant = tensor.tid
        self._chunks_by_tid.setdefault(tensor.tid, []).append(chunk)

        mapping = TensorMapping(
            tensor=tensor, shares=[RunShare(run=chunk.run, nbytes=tensor.nbytes)]
        )
        self._mappings[tensor.tid] = mapping
        self._run_users.setdefault(chunk.run.vpn, set()).add(tensor.tid)
        self.live_tensor_bytes += tensor.nbytes
        self.peak_tensor_bytes = max(self.peak_tensor_bytes, self.live_tensor_bytes)
        return mapping

    def free(self, tensor: Tensor, now: float) -> TensorMapping:
        from repro.dnn.alloc import AllocationError

        mapping = self._mappings.pop(tensor.tid, None)
        if mapping is None:
            raise AllocationError(f"tensor {tensor.name!r} is not allocated")
        for chunk in self._chunks_by_tid.pop(tensor.tid, ()):
            self._list_free(chunk)
        for share in mapping.shares:
            users = self._run_users.get(share.run.vpn)
            if users is not None:
                users.discard(tensor.tid)
        self.live_tensor_bytes -= tensor.nbytes
        # Pages stay with the arena — that is the point.
        return mapping

    def release_all(self, now: float) -> None:
        """Return every slab to the machine (arena teardown)."""
        page_size = self.machine.page_size
        for run in self._owned_runs:
            if run.vpn in self.machine.page_table:
                self.live_page_bytes -= run.npages * page_size
                self.machine.unmap_run(run, now)
        self._owned_runs.clear()
        self._bins.clear()
        self._chunks_by_tid.clear()
        self._run_users.clear()
        self._mappings.clear()
        self._quarantined.clear()
        self.live_tensor_bytes = 0
        self._largest_request = 0

    def retire_page(self, run: PageTableEntry, vpn: int, now: float) -> bool:
        """Quarantine the dead page instead of carving the slab.

        Chunk offsets are relative to the whole slab run, so splitting the
        run around a dead frame (the base-allocator strategy) would
        invalidate every chunk behind the split point.  A BFC arena
        instead keeps the slab intact and quarantines the struck byte
        range: free chunks overlapping it are clipped out of the bins now,
        tenant chunks are clipped when they free, and no future allocation
        is served from the range.  Returns False — the page stays mapped
        (the slab hole is unusable, not unmapped) and the RAS engine
        retires the frame by capacity accounting alone.
        """
        table = self.machine.page_table
        if run.vpn not in table or table.entry(run.vpn) is not run:
            return False
        if run.in_flight or not run.vpn <= vpn < run.vpn + run.npages:
            return False
        if all(owned is not run for owned in self._owned_runs):
            return False
        page_size = self.machine.page_size
        lo = (vpn - run.vpn) * page_size
        self._quarantined.setdefault(run.vpn, []).append((lo, lo + page_size))
        # Purge overlapping free chunks; _list_free re-lists the remnants
        # clipped against the freshly-quarantined range.
        struck: List[_Chunk] = []
        for chunks in self._bins.values():
            overlapping = [
                c
                for c in chunks
                if c.run is run
                and c.offset < lo + page_size
                and c.offset + c.nbytes > lo
            ]
            if overlapping:
                chunks[:] = [c for c in chunks if c not in overlapping]
                struck.extend(overlapping)
        for chunk in struck:
            self._list_free(chunk)
        return False

    # ---------------------------------------------------------------- stats

    @property
    def arena_bytes(self) -> int:
        """Bytes of pages the arena currently owns."""
        return sum(
            run.npages * self.machine.page_size for run in self._owned_runs
        )

    @property
    def free_bytes(self) -> int:
        """Bytes sitting on the free lists."""
        return sum(
            chunk.nbytes for chunks in self._bins.values() for chunk in chunks
        )

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by tenants."""
        return sum(
            chunk.nbytes
            for chunks in self._chunks_by_tid.values()
            for chunk in chunks
        )

    def chunk_count(self) -> int:
        return sum(len(chunks) for chunks in self._bins.values()) + sum(
            len(chunks) for chunks in self._chunks_by_tid.values()
        )

    def fragmentation_bytes(self, class_bytes: Optional[int] = None) -> int:
        """Free bytes unusable for a request of ``class_bytes``.

        Defaults to the largest allocation the arena has served — the
        request class that will hit the allocator's growth path first.
        """
        if class_bytes is None:
            class_bytes = self._largest_request
        if class_bytes <= 0:
            return 0
        return sum(
            chunk.nbytes
            for chunks in self._bins.values()
            for chunk in chunks
            if chunk.nbytes < class_bytes
        )

    def external_fragmentation(self, class_bytes: Optional[int] = None) -> float:
        """Fraction of free bytes unusable for the request class in [0, 1]."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return self.fragmentation_bytes(class_bytes) / free

    # ----------------------------------------------------------- compaction

    def coalesce(self) -> int:
        """Merge adjacent free chunks within each run; returns merge count.

        BFC coalescing proper: two free chunks whose byte ranges abut in
        the same run become one larger chunk, re-binned at its new size
        class.
        """
        by_run: Dict[int, List[_Chunk]] = {}
        for chunks in self._bins.values():
            for chunk in chunks:
                by_run.setdefault(chunk.run.vpn, []).append(chunk)
        merges = 0
        merged: List[_Chunk] = []
        for chunks in by_run.values():
            chunks.sort(key=lambda c: c.offset)
            current = chunks[0]
            for chunk in chunks[1:]:
                if current.offset + current.nbytes == chunk.offset:
                    current = _Chunk(
                        run=current.run,
                        offset=current.offset,
                        nbytes=current.nbytes + chunk.nbytes,
                    )
                    merges += 1
                else:
                    merged.append(current)
                    current = chunk
            merged.append(current)
        if merges:
            self._bins.clear()
            for chunk in merged:
                self._list_free(chunk)
        return merges

    def _take_target_chunk(
        self, nbytes: int, exclude_vpn: int, device
    ) -> Optional[_Chunk]:
        """Best-fit free chunk outside ``exclude_vpn`` on the same tier."""
        best: Optional[_Chunk] = None
        best_bin: Optional[List[_Chunk]] = None
        best_index = -1
        for size_class in range(_size_class(nbytes), 64):
            bin_chunks = self._bins.get(size_class)
            if not bin_chunks:
                continue
            for index, chunk in enumerate(bin_chunks):
                if (
                    chunk.nbytes >= nbytes
                    and chunk.run.vpn != exclude_vpn
                    and not chunk.run.in_flight
                    and chunk.run.device is device
                    and (best is None or chunk.nbytes < best.nbytes)
                ):
                    best, best_bin, best_index = chunk, bin_chunks, index
            if best is not None:
                break  # smallest adequate size class wins, BFC style
        if best is not None:
            best_bin.pop(best_index)
        return best

    def compact(self, now: float, max_moves: int = 8) -> CompactionReport:
        """One bounded compaction pass; returns what it accomplished.

        Coalesces free lists, then vacates mostly-empty slabs: each tenant
        chunk of a candidate slab is relocated into a free chunk of
        another same-tier slab through the migration engine (paying real
        demote-channel time), and the emptied slab is unmapped and its
        frames returned to the machine.  At most ``max_moves`` tenant
        relocations are performed — compaction must never stall a step for
        longer than a few transfers.
        """
        report = CompactionReport(finish=now)
        report.merges = self.coalesce()
        page_size = self.machine.page_size
        tenants_by_run: Dict[int, List[_Chunk]] = {}
        for chunks in self._chunks_by_tid.values():
            for chunk in chunks:
                tenants_by_run.setdefault(chunk.run.vpn, []).append(chunk)
        # Candidate slabs: fewest tenant bytes first — the cheapest to
        # vacate buy back whole runs for the fewest moves.
        candidates = sorted(
            (
                run
                for run in self._owned_runs
                if run.vpn in self.machine.page_table
                and not run.in_flight
                and not run.pinned
            ),
            key=lambda run: sum(
                c.nbytes for c in tenants_by_run.get(run.vpn, ())
            ),
        )
        budget = max_moves
        receivers: set = set()  # slabs that gained tenants this pass
        for run in candidates:
            if run.vpn in receivers:
                # The up-front tenant map no longer covers this slab;
                # vacating it could strand a tenant relocated into it.
                continue
            tenants = tenants_by_run.get(run.vpn, [])
            if len(tenants) > budget:
                continue
            if not self._vacate(run, tenants, now, report, receivers):
                continue
            budget -= len(tenants)
            self._release_slab(run, now, report)
            if budget <= 0:
                break
        self._record_compaction(now, report)
        return report

    def _vacate(
        self,
        run: PageTableEntry,
        tenants: List[_Chunk],
        now: float,
        report: CompactionReport,
        receivers: set,
    ) -> bool:
        """Move every tenant of ``run`` elsewhere; False if any has no home.

        Targets are claimed before any move is committed, so a failed
        placement rolls back cleanly by re-listing the claimed chunks.
        """
        claimed: List[tuple] = []  # (tenant, target)
        for tenant in tenants:
            target = self._take_target_chunk(
                tenant.nbytes, run.vpn, run.device
            )
            if target is None:
                for _, unused in claimed:
                    self._list_free(unused)
                return False
            claimed.append((tenant, target))
        for tenant, target in claimed:
            if target.nbytes > tenant.nbytes:
                remainder = _Chunk(
                    run=target.run,
                    offset=target.offset + tenant.nbytes,
                    nbytes=target.nbytes - tenant.nbytes,
                )
                self._list_free(remainder)
            old_vpn = tenant.run.vpn
            receivers.add(target.run.vpn)
            tenant.run = target.run
            tenant.offset = target.offset
            assert tenant.tenant is not None
            self._retarget_tenant(tenant.tenant, old_vpn, target.run)
            transfer = self.machine.migration.relocate(
                tenant.nbytes, now, tag="compact"
            )
            report.finish = max(report.finish, transfer.finish)
            report.moves += 1
            report.moved_bytes += tenant.nbytes
            report.relocated.append(tenant.tenant)
        return True

    def _retarget_tenant(
        self, tid: int, old_vpn: int, new_run: PageTableEntry
    ) -> None:
        """Point a moved tensor's mapping and run-user records at its new slab."""
        mapping = self._mappings.get(tid)
        if mapping is not None:
            for share in mapping.shares:
                if share.run.vpn == old_vpn:
                    share.run = new_run
        users = self._run_users.get(old_vpn)
        if users is not None:
            users.discard(tid)
        self._run_users.setdefault(new_run.vpn, set()).add(tid)

    def _release_slab(
        self, run: PageTableEntry, now: float, report: CompactionReport
    ) -> None:
        """Return a fully-vacated slab's frames to the machine."""
        for chunks in self._bins.values():
            chunks[:] = [c for c in chunks if c.run.vpn != run.vpn]
        self._run_users.pop(run.vpn, None)
        self._quarantined.pop(run.vpn, None)
        self._owned_runs.remove(run)
        nbytes = run.npages * self.machine.page_size
        self.live_page_bytes -= nbytes
        self.machine.unmap_run(run, now)
        report.freed_runs += 1
        report.freed_bytes += nbytes

    def _record_compaction(self, now: float, report: CompactionReport) -> None:
        if report.moves == 0 and report.freed_runs == 0:
            return
        stats = self.machine.stats
        stats.counter("pressure.compaction_passes").add(1)
        stats.counter("pressure.compaction_moves").add(report.moves)
        stats.counter("pressure.compaction_bytes").add(report.moved_bytes)
        stats.counter("pressure.compaction_freed_bytes").add(report.freed_bytes)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(
                "compaction",
                "pressure",
                ts=now,
                dur=max(0.0, report.finish - now),
                track="pressure",
                moves=report.moves,
                moved_bytes=report.moved_bytes,
                merges=report.merges,
                freed_runs=report.freed_runs,
                freed_bytes=report.freed_bytes,
            )
