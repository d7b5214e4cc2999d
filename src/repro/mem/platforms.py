"""Platform presets matching the paper's two evaluation machines (Table II).

The absolute numbers are published device characteristics, not measurements
of the authors' testbed; what the reproduction relies on is the *ratios*:

* Optane platform — DRAM is ~6x faster than Optane for reads and ~16x for
  writes; page migration sustains a few GB/s per helper thread.
* GPU platform — HBM2 is ~75x faster than the PCIe 3.0 x16 link over which
  tensors are staged from CPU memory, and GPU compute throughput is an order
  of magnitude above the CPU's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.mem.devices import DeviceSpec

GIB = 1024**3


@dataclass(frozen=True)
class Platform:
    """A heterogeneous-memory machine configuration.

    Attributes:
        name: platform label.
        fast: spec of the fast tier (DRAM or GPU HBM).
        slow: spec of the slow tier (Optane PMM or CPU DRAM).
        promote_bandwidth: slow-to-fast migration bandwidth, bytes/s
            (one helper thread / one CUDA copy stream).
        demote_bandwidth: fast-to-slow migration bandwidth, bytes/s.
        migration_latency: per-migration-call fixed cost in seconds
            (``move_pages()`` syscall / ``cudaMemPrefetchAsync`` launch).
        fault_cost: cost of one protection fault during profiling, seconds
            (trap + handler + PTE poison + TLB flush).
        compute_throughput: effective FLOP/s of the processor, used to turn
            an op's FLOP count into compute time.
        residency_required: True on GPU — a kernel cannot run until its
            operand pages are resident in fast memory; on CPU a page can
            always be accessed in place at the slow tier's speed.
        page_size: OS page size in bytes.
    """

    name: str
    fast: DeviceSpec
    slow: DeviceSpec
    promote_bandwidth: float
    demote_bandwidth: float
    migration_latency: float
    fault_cost: float
    compute_throughput: float
    residency_required: bool
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.promote_bandwidth <= 0 or self.demote_bandwidth <= 0:
            raise ValueError(f"migration bandwidths must be positive: {self.name}")
        if self.compute_throughput <= 0:
            raise ValueError(f"compute throughput must be positive: {self.name}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page size must be a positive power of two: {self.name}")

    def with_fast_capacity(self, capacity: int) -> "Platform":
        """This platform with the fast tier resized (sensitivity sweeps)."""
        if capacity <= 0:
            raise ValueError(f"fast capacity must be positive, got {capacity!r}")
        return replace(self, fast=self.fast.with_capacity(capacity))

    def with_slow_capacity(self, capacity: int) -> "Platform":
        """This platform with the slow tier resized."""
        if capacity <= 0:
            raise ValueError(f"slow capacity must be positive, got {capacity!r}")
        return replace(self, slow=self.slow.with_capacity(capacity))


#: DDR4 + Intel Optane DC PMM, App-Direct mode, two NUMA nodes (paper Table II).
OPTANE_HM = Platform(
    name="optane-hm",
    fast=DeviceSpec(
        name="DDR4",
        capacity=128 * GIB,
        # Effective bandwidth under training access patterns (mixed
        # read/write, many threads), not the sequential peak.
        read_bandwidth=40e9,
        write_bandwidth=30e9,
        latency=80e-9,
    ),
    slow=DeviceSpec(
        name="Optane-PMM",
        capacity=1024 * GIB,
        # Optane degrades far more than DRAM under mixed access: ~4 GB/s
        # effective reads, under 2 GB/s effective writes (vs 13/4.6
        # sequential) — the source of the 4-8x slow-only penalty.
        read_bandwidth=4.0e9,
        write_bandwidth=1.8e9,
        latency=300e-9,
    ),
    # The migration helper threads stream whole pages sequentially and so
    # see the devices' sequential bandwidth, unlike op-level accesses.
    promote_bandwidth=8.0e9,
    demote_bandwidth=4.6e9,
    migration_latency=4e-6,
    fault_cost=1.5e-6,
    compute_throughput=0.25e12,
    residency_required=False,
)

#: NVIDIA V100 (16 GB HBM2) + host DRAM over PCIe 3.0 x16 (paper Table II).
GPU_HM = Platform(
    name="gpu-hm",
    fast=DeviceSpec(
        name="HBM2",
        capacity=16 * GIB,
        read_bandwidth=700e9,
        write_bandwidth=700e9,
        latency=1e-6,
    ),
    slow=DeviceSpec(
        name="Host-DRAM",
        capacity=384 * GIB,
        read_bandwidth=40e9,
        write_bandwidth=30e9,
        latency=80e-9,
    ),
    promote_bandwidth=12e9,
    demote_bandwidth=12e9,
    migration_latency=10e-6,
    fault_cost=20e-6,
    compute_throughput=10e12,
    residency_required=True,
)


#: CXL-attached memory expander as the slow tier — the post-Optane
#: incarnation of capacity-tier heterogeneous memory.  Reads are faster
#: and writes far less asymmetric than Optane's, but latency is higher
#: than local DRAM; migration moves over the same CXL link.
CXL_HM = Platform(
    name="cxl-hm",
    fast=DeviceSpec(
        name="DDR5",
        capacity=128 * GIB,
        read_bandwidth=52e9,
        write_bandwidth=40e9,
        latency=90e-9,
    ),
    slow=DeviceSpec(
        name="CXL-DRAM",
        capacity=1024 * GIB,
        # Effective bandwidth through the CXL.mem protocol overhead.
        read_bandwidth=14e9,
        write_bandwidth=11e9,
        latency=350e-9,
    ),
    promote_bandwidth=20e9,
    demote_bandwidth=16e9,
    migration_latency=3e-6,
    fault_cost=1.5e-6,
    compute_throughput=0.25e12,
    residency_required=False,
)


#: A100-class GPU: more device memory, faster HBM, PCIe 4.0 link.
#: Used to check that the GPU results generalize beyond the paper's V100.
GPU_A100_HM = Platform(
    name="gpu-a100-hm",
    fast=DeviceSpec(
        name="HBM2e",
        capacity=40 * GIB,
        read_bandwidth=1200e9,
        write_bandwidth=1200e9,
        latency=1e-6,
    ),
    slow=DeviceSpec(
        name="Host-DRAM",
        capacity=1024 * GIB,
        read_bandwidth=40e9,
        write_bandwidth=30e9,
        latency=80e-9,
    ),
    promote_bandwidth=24e9,
    demote_bandwidth=24e9,
    migration_latency=10e-6,
    fault_cost=20e-6,
    compute_throughput=19e12,
    residency_required=True,
)
