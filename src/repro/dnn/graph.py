"""Dataflow graphs of training steps, and the builder model zoos use.

A :class:`Graph` is one training step: a list of :class:`Layer` objects
(forward layers followed by backward layers), each holding ops in execution
order.  The paper's management granularity is the DNN layer — lifetimes,
migration intervals, and the profiler's per-layer attribution all key off
layer indices — so layers are first-class here.

:class:`GraphBuilder` is the authoring API used by :mod:`repro.models`.  It
assigns tensor lifetimes automatically: a tensor is allocated in the layer
that creates it and freed at the end of the last layer that accesses it,
matching the framework-managed (de)allocation Sentinel observes in
TensorFlow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dnn.ops import Op, TensorAccess
from repro.dnn.tensor import PRE_STEP, Tensor, TensorKind


class GraphError(RuntimeError):
    """Raised on malformed graphs (use-before-create, empty layers...)."""


class Phase(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass
class Layer:
    """A group of ops; the granularity of Sentinel's tensor management."""

    index: int
    name: str
    phase: Phase
    ops: List[Op] = field(default_factory=list)

    @property
    def flops(self) -> float:
        return sum(op.flops for op in self.ops)

    def tensors(self) -> List[Tensor]:
        seen: Dict[int, Tensor] = {}
        for op in self.ops:
            for access in op.accesses:
                seen.setdefault(access.tensor.tid, access.tensor)
        return list(seen.values())


class Graph:
    """One training step's dataflow graph.

    A graph is read-only once :meth:`GraphBuilder.finish` returns it: its
    layers, ops, tensors and their lifetimes never change afterwards, and
    tensor ids are local to the graph (``0..N-1``).  That is what lets
    :class:`~repro.serve.server.Server` build one graph per job template
    and hand the same object to every job's executor.  Per-job state lives
    outside it — in the executor, the allocator's tensor mappings and the
    placement policy.  Anything cached on a graph (like the per-layer
    live-bytes table behind :meth:`live_bytes_at`, built once here) must be
    derived from it alone and be the same for every job that shares it.
    """

    def __init__(
        self,
        name: str,
        batch_size: int,
        layers: List[Layer],
        tensors: List[Tensor],
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.batch_size = batch_size
        self.layers = layers
        self.tensors = tensors
        self.metadata = dict(metadata or {})
        self._by_name = {t.name: t for t in tensors}
        self._resident_bytes, self._live_bytes = self._live_table()

    # ------------------------------------------------------------ structure

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def tensor(self, name: str) -> Tensor:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no tensor named {name!r} in graph {self.name!r}")

    def preallocated(self) -> List[Tensor]:
        return [t for t in self.tensors if t.preallocated]

    def step_tensors(self) -> List[Tensor]:
        """Tensors allocated and freed within each training step."""
        return [t for t in self.tensors if not t.preallocated]

    def signature(self) -> Tuple:
        """Structural fingerprint used to detect control-flow divergence.

        Two batches that execute the same dataflow produce equal signatures;
        a new signature triggers re-profiling (paper §IV-E).
        """
        return tuple(
            (layer.name, layer.phase.value, tuple(op.name for op in layer.ops))
            for layer in self.layers
        )

    # --------------------------------------------------------------- memory

    def _live_table(self) -> Tuple[int, List[int]]:
        """Preallocated bytes, and the live bytes of every layer.

        Each step tensor adds its size at ``alloc_layer`` and removes it
        after ``free_layer`` in a difference array; a running sum over it,
        on top of the preallocated bytes, gives every layer's total in one
        pass over the tensors.
        """
        delta = [0] * (self.num_layers + 1)
        resident = 0
        for tensor in self.tensors:
            if tensor.preallocated:
                resident += tensor.nbytes
            elif tensor.free_layer is not None:
                delta[tensor.alloc_layer] += tensor.nbytes
                delta[tensor.free_layer + 1] -= tensor.nbytes
        return resident, list(accumulate(delta[:-1], initial=resident))[1:]

    def live_bytes_at(self, layer_index: int) -> int:
        """Bytes of tensors alive during ``layer_index`` (packed lower bound).

        Outside the step's layers only the preallocated tensors are live.
        """
        if 0 <= layer_index < len(self._live_bytes):
            return self._live_bytes[layer_index]
        return self._resident_bytes

    def peak_memory_bytes(self) -> int:
        """Peak memory consumption over the step (packed lower bound).

        This is the figure the paper sizes fast memory against ("20% of the
        peak memory consumption of DNN models").
        """
        return max(self._live_bytes, default=self._resident_bytes)

    def total_flops(self) -> float:
        return sum(layer.flops for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, batch={self.batch_size}, "
            f"{self.num_layers} layers, {len(self.tensors)} tensors)"
        )


#: What `GraphBuilder.op` accepts for each read/write operand.
AccessSpec = Union[Tensor, Tuple[Tensor, int], Tuple[Tensor, int, int], TensorAccess]


class GraphBuilder:
    """Incremental construction of a training-step graph.

    Typical use (see :mod:`repro.models` for full examples)::

        b = GraphBuilder("toy", batch_size=8)
        w = b.weight("fc.w", 4096)
        x = b.input("x", 1024)
        with b.layer("fc", Phase.FORWARD):
            y = b.tensor("fc.out", 1024, TensorKind.ACTIVATION)
            b.op("matmul", flops=1e6, reads=[x, w], writes=[y])
        graph = b.finish()
    """

    def __init__(self, name: str, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size!r}")
        self.name = name
        self.batch_size = batch_size
        self._tensors: List[Tensor] = []
        self._layers: List[Layer] = []
        self._current: Optional[Layer] = None
        self._created_in: Dict[int, int] = {}  # tid -> creating layer index
        self.metadata: Dict[str, object] = {}

    # -------------------------------------------------------------- tensors

    def _new_tensor(
        self, name: str, nbytes: int, kind: TensorKind, preallocated: bool
    ) -> Tensor:
        tensor = Tensor(
            tid=len(self._tensors),
            name=name,
            nbytes=int(nbytes),
            kind=kind,
            preallocated=preallocated,
        )
        self._tensors.append(tensor)
        return tensor

    def weight(self, name: str, nbytes: int) -> Tensor:
        """A model weight: preallocated before the training loop."""
        return self._new_tensor(name, nbytes, TensorKind.WEIGHT, preallocated=True)

    def global_tensor(self, name: str, nbytes: int) -> Tensor:
        """A tiny runtime global (step counter, LR, loss scale): preallocated."""
        return self._new_tensor(name, nbytes, TensorKind.GLOBAL, preallocated=True)

    def input(self, name: str, nbytes: int) -> Tensor:
        """A training-input buffer: preallocated (the input pipeline owns it)."""
        return self._new_tensor(name, nbytes, TensorKind.INPUT, preallocated=True)

    def tensor(
        self, name: str, nbytes: int, kind: TensorKind = TensorKind.ACTIVATION
    ) -> Tensor:
        """A tensor created inside the current layer."""
        if self._current is None:
            raise GraphError(
                f"tensor {name!r} must be created inside a layer; use weight()/"
                "input()/global_tensor() for preallocated tensors"
            )
        tensor = self._new_tensor(name, nbytes, kind, preallocated=False)
        self._created_in[tensor.tid] = self._current.index
        return tensor

    def temp(self, name: str, nbytes: int) -> Tensor:
        """Shorthand for an intra-layer temporary."""
        return self.tensor(name, nbytes, TensorKind.TEMP)

    # --------------------------------------------------------------- layers

    def begin_layer(self, name: str, phase: Phase = Phase.FORWARD) -> Layer:
        if self._current is not None:
            raise GraphError(
                f"layer {self._current.name!r} is still open; end it first"
            )
        layer = Layer(index=len(self._layers), name=name, phase=phase)
        self._layers.append(layer)
        self._current = layer
        return layer

    def end_layer(self) -> None:
        if self._current is None:
            raise GraphError("no layer is open")
        if not self._current.ops:
            raise GraphError(f"layer {self._current.name!r} has no ops")
        self._current = None

    def layer(self, name: str, phase: Phase = Phase.FORWARD) -> "_LayerContext":
        """Context manager wrapping begin_layer/end_layer."""
        return _LayerContext(self, name, phase)

    # ------------------------------------------------------------------ ops

    @staticmethod
    def _coerce_access(spec: AccessSpec, is_write: bool) -> TensorAccess:
        if isinstance(spec, TensorAccess):
            return spec
        if isinstance(spec, Tensor):
            return TensorAccess(spec, spec.nbytes, is_write)
        if isinstance(spec, tuple):
            if len(spec) == 2:
                tensor, nbytes = spec
                return TensorAccess(tensor, int(nbytes), is_write)
            if len(spec) == 3:
                tensor, nbytes, passes = spec
                return TensorAccess(tensor, int(nbytes), is_write, passes=int(passes))
        raise GraphError(f"cannot interpret access spec {spec!r}")

    def op(
        self,
        name: str,
        flops: float,
        reads: Sequence[AccessSpec] = (),
        writes: Sequence[AccessSpec] = (),
    ) -> Op:
        """Append an op to the current layer."""
        if self._current is None:
            raise GraphError(f"op {name!r} must be added inside a layer")
        accesses = [self._coerce_access(s, is_write=False) for s in reads]
        accesses += [self._coerce_access(s, is_write=True) for s in writes]
        for access in accesses:
            created = self._created_in.get(access.tensor.tid)
            if not access.tensor.preallocated and created is None:
                raise GraphError(
                    f"op {name!r} references tensor {access.tensor.name!r} "
                    "which was never created"
                )
            if created is not None and created > self._current.index:
                raise GraphError(
                    f"op {name!r} in layer {self._current.index} uses tensor "
                    f"{access.tensor.name!r} created later (layer {created})"
                )
        operation = Op(
            name=name,
            flops=flops,
            accesses=accesses,
            layer_index=self._current.index,
        )
        self._current.ops.append(operation)
        return operation

    # --------------------------------------------------------------- finish

    def finish(self) -> Graph:
        """Seal the graph: compute lifetimes and validate."""
        if self._current is not None:
            raise GraphError(f"layer {self._current.name!r} is still open")
        if not self._layers:
            raise GraphError("graph has no layers")

        for tensor in self._tensors:
            tensor.layer_touches = {}
        for layer in self._layers:
            for op in layer.ops:
                for access in op.accesses:
                    touches = access.tensor.layer_touches
                    touches[layer.index] = touches.get(layer.index, 0) + access.passes

        referenced = 0
        for tensor in self._tensors:
            if tensor.preallocated:
                tensor.alloc_layer = PRE_STEP
                tensor.free_layer = None
            else:
                created = self._created_in[tensor.tid]
                if not tensor.layer_touches:
                    raise GraphError(
                        f"tensor {tensor.name!r} is created but never accessed"
                    )
                first = min(tensor.layer_touches)
                if first < created:
                    raise GraphError(
                        f"tensor {tensor.name!r} accessed in layer {first} "
                        f"before creation in layer {created}"
                    )
                tensor.alloc_layer = created
                tensor.free_layer = max(tensor.layer_touches)
            if tensor.layer_touches:
                referenced += 1
        if referenced == 0:
            raise GraphError("graph accesses no tensors")

        return Graph(
            name=self.name,
            batch_size=self.batch_size,
            layers=self._layers,
            tensors=self._tensors,
            metadata=self.metadata,
        )


class _LayerContext:
    def __init__(self, builder: GraphBuilder, name: str, phase: Phase) -> None:
        self._builder = builder
        self._name = name
        self._phase = phase

    def __enter__(self) -> Layer:
        return self._builder.begin_layer(self._name, self._phase)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._builder.end_layer()
        else:
            # Abandon the open layer so the builder error surfaces, not ours.
            self._builder._current = None
