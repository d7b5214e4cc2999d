"""OS page table with poisonable entries, managed as contiguous page runs.

Sentinel's profiler counts main-memory accesses by setting a reserved bit
(bit 51) in a page's PTE and flushing the TLB entry: the next access to the
page takes a protection fault, whose handler counts the access, re-poisons
the PTE, and flushes again.  This module models that machinery.

One deliberate abstraction: entries cover *runs* of contiguous pages rather
than single pages.  Tensors (and Sentinel's co-allocation groups) occupy
contiguous page ranges that are always placed and migrated as a unit, so a
multi-gigabyte tensor is one :class:`PageTableEntry` covering millions of
pages instead of millions of Python objects.  Per-page effects — one fault
per page per access pass, one TLB flush per page — are accounted
arithmetically via :attr:`PageTableEntry.npages`.  Runs can be split when a
policy genuinely needs to move part of a range (e.g. page-granularity FIFO
eviction in the IAL baseline).

Migration state lives on the entry: while a run is in flight the entry
records the destination tier and the completion time, so the executor can
decide whether to stall (GPU) or keep reading the still-valid source copy
(CPU) — mirroring ``move_pages()`` semantics, where the old frame stays
mapped until the kernel swaps the PTE.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import PageError
from repro.mem.devices import DeviceKind

#: Default OS page size (bytes).
PAGE_SIZE = 4096

#: The reserved PTE bit Sentinel poisons (informational; we store a bool).
POISON_BIT = 51


@dataclass
class PageTableEntry:
    """A run of contiguous pages sharing placement and profiling state.

    Attributes:
        vpn: virtual page number of the first page in the run (also the
            run's identity in the table).
        npages: number of contiguous pages covered.
        device: tier the frames currently reside on.
        poisoned: whether the reserved bit is set on the run's PTEs.
        reads / writes: access counts recorded by the fault handler
            (one count per page per access pass).
        migrating_to: destination tier if a migration is in flight.
        available_at: simulation time the in-flight copy completes.
        pinned: ``mlock``-style pin — a pinned run must not be migrated.
        initialized: whether the run has ever been written.  A fresh output
            buffer holds no data worth copying: residency platforms satisfy
            its first placement by allocating device frames directly
            (zero-copy materialize) rather than a PCIe transfer.
    """

    vpn: int
    npages: int
    device: DeviceKind
    poisoned: bool = False
    reads: int = 0
    writes: int = 0
    migrating_to: Optional[DeviceKind] = None
    available_at: float = 0.0
    pinned: bool = False
    initialized: bool = False

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def in_flight(self) -> bool:
        return self.migrating_to is not None

    def nbytes(self, page_size: int) -> int:
        return self.npages * page_size

    def begin_migration(self, target: DeviceKind, available_at: float) -> None:
        if self.pinned:
            raise PageError(f"run {self.vpn} is pinned and cannot migrate")
        if self.migrating_to is not None:
            raise PageError(f"run {self.vpn} is already migrating")
        if target is self.device:
            raise PageError(f"run {self.vpn} is already on {target.value}")
        self.migrating_to = target
        self.available_at = available_at

    def commit_migration(self) -> DeviceKind:
        """Finish the in-flight migration; returns the vacated source tier."""
        if self.migrating_to is None:
            raise PageError(f"run {self.vpn} has no migration to commit")
        source = self.device
        self.device = self.migrating_to
        self.migrating_to = None
        return source

    def effective_device(self, now: float) -> DeviceKind:
        """Tier whose copy a CPU access at time ``now`` would read.

        Before the copy completes the source frames are still the valid
        mapping; afterwards the destination is (even if the engine has not
        yet swept the entry through :meth:`commit_migration`).
        """
        if self.migrating_to is not None and now >= self.available_at:
            return self.migrating_to
        return self.device

    def reset_counts(self) -> None:
        self.reads = 0
        self.writes = 0


class PageTable:
    """Virtual-page-number space managed as runs of contiguous pages.

    Virtual page numbers are handed out sequentially and never reused within
    a simulation run, which keeps traces unambiguous (a vpn identifies one
    allocation for the whole run, like addresses in a real trace).
    """

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page size must be a positive power of two: {page_size}")
        self.page_size = page_size
        self._entries: Dict[int, PageTableEntry] = {}
        self._next_vpn = 0
        #: sorted run-start vpns — the interval index behind
        #: :meth:`run_containing`/:meth:`runs_in_range`, so point and range
        #: lookups bisect instead of walking every entry.
        self._starts: List[int] = []
        self._mapped_pages = 0

    def __len__(self) -> int:
        """Number of mapped runs (not pages)."""
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    def map_run(self, npages: int, device: DeviceKind) -> PageTableEntry:
        """Map a fresh run of ``npages`` contiguous pages on ``device``."""
        if npages <= 0:
            raise ValueError(f"must map at least one page, got {npages!r}")
        entry = PageTableEntry(vpn=self._next_vpn, npages=npages, device=device)
        self._next_vpn += npages
        self._entries[entry.vpn] = entry
        # Fresh vpns are handed out monotonically, so this append keeps
        # the interval index sorted without a bisect.
        self._starts.append(entry.vpn)
        self._mapped_pages += npages
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove the run starting at ``vpn``; returns it for accounting."""
        try:
            entry = self._entries.pop(vpn)
        except KeyError:
            raise PageError(f"no run starts at vpn {vpn}") from None
        index = bisect_right(self._starts, vpn) - 1
        del self._starts[index]
        self._mapped_pages -= entry.npages
        return entry

    def entry(self, vpn: int) -> PageTableEntry:
        try:
            return self._entries[vpn]
        except KeyError:
            raise PageError(f"no run starts at vpn {vpn}") from None

    def entries(self) -> Iterator[PageTableEntry]:
        return iter(self._entries.values())

    def entries_by_vpn(self) -> Iterator[PageTableEntry]:
        """Every run in ascending vpn order, read off the interval index.

        Equal to ``sorted(entries(), key=vpn)`` without the sort.  The
        table must not be mapped, unmapped or split while this iterates.
        """
        entries = self._entries
        return (entries[vpn] for vpn in self._starts)

    def split(self, vpn: int, npages_first: int) -> PageTableEntry:
        """Split a run in two; returns the new second run.

        The first run keeps ``npages_first`` pages and its identity; the
        remainder becomes a fresh entry inheriting placement and poison
        state.  Access counts stay with the first run (they are per-run
        aggregates and the profiler only splits before counting starts).
        In-flight runs cannot be split.
        """
        entry = self.entry(vpn)
        if entry.in_flight:
            raise PageError(f"cannot split in-flight run {vpn}")
        if not 0 < npages_first < entry.npages:
            raise PageError(
                f"split point {npages_first} outside run of {entry.npages} pages"
            )
        tail = PageTableEntry(
            vpn=entry.vpn + npages_first,
            npages=entry.npages - npages_first,
            device=entry.device,
            poisoned=entry.poisoned,
            pinned=entry.pinned,
            initialized=entry.initialized,
        )
        entry.npages = npages_first
        self._entries[tail.vpn] = tail
        insort(self._starts, tail.vpn)
        return tail

    def run_containing(self, vpn: int) -> Optional[PageTableEntry]:
        """The run covering page ``vpn``, or ``None`` if it is unmapped.

        A point lookup on the interval index: bisect to the last run
        starting at or before ``vpn``, then check coverage — O(log runs)
        against the O(runs) scan a naive table walk costs.
        """
        index = bisect_right(self._starts, vpn) - 1
        if index < 0:
            return None
        entry = self._entries[self._starts[index]]
        if vpn < entry.vpn + entry.npages:
            return entry
        return None

    def runs_in_range(self, vpn: int, npages: int) -> List[PageTableEntry]:
        """All runs overlapping ``[vpn, vpn + npages)``, in address order.

        The batch-lookup companion to :meth:`run_containing`: one bisect
        finds the first candidate and the sorted start index yields the
        rest contiguously, so a range query costs O(log runs + answers).
        """
        if npages < 0:
            raise ValueError(f"cannot query negative pages {npages!r}")
        end = vpn + npages
        starts = self._starts
        index = bisect_right(starts, vpn) - 1
        if index >= 0:
            entry = self._entries[starts[index]]
            if vpn >= entry.vpn + entry.npages:
                index += 1
        else:
            index = 0
        found: List[PageTableEntry] = []
        while index < len(starts) and starts[index] < end:
            found.append(self._entries[starts[index]])
            index += 1
        return found

    def runs_on(self, device: DeviceKind) -> List[PageTableEntry]:
        """Runs whose committed residency is ``device`` (in-flight excluded)."""
        return [
            e
            for e in self._entries.values()
            if e.device is device and e.migrating_to is None
        ]

    def poison_all(self) -> None:
        for entry in self._entries.values():
            entry.poisoned = True

    def unpoison_all(self) -> None:
        for entry in self._entries.values():
            entry.poisoned = False

    def bytes_on(self, device: DeviceKind) -> int:
        return sum(e.npages for e in self.runs_on(device)) * self.page_size
