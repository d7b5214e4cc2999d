"""Executor per-access hook: one record per access, traffic matches the step."""

import pytest

from repro.dnn import Executor, PlacementPolicy
from repro.dnn.tensor import TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model


class WeightsFast(PlacementPolicy):
    def place(self, tensor, now):
        if tensor.kind is TensorKind.WEIGHT:
            return DeviceKind.FAST
        return DeviceKind.SLOW


class Recorder:
    """Minimal per-access hook: keeps every call in order."""

    def __init__(self):
        self.calls = []

    def record(self, step, layer, op, access, charge, now):
        self.calls.append((step, layer.index, op.name, access.tensor.name, charge, now))


@pytest.fixture(scope="module")
def traced_run():
    graph = build_model("dcgan", batch_size=16)
    hook = Recorder()
    executor = Executor(graph, Machine(OPTANE_HM), WeightsFast(), tracer=hook)
    result = executor.run_step()
    return graph, hook, result


class TestRecording:
    def test_one_record_per_access(self, traced_run):
        graph, hook, _ = traced_run
        assert [call[1:4] for call in hook.calls] == [
            (layer.index, op.name, access.tensor.name)
            for layer in graph.layers
            for op in layer.ops
            for access in op.accesses
        ]
        assert all(call[0] == 0 for call in hook.calls)
        times = [call[5] for call in hook.calls]
        assert times == sorted(times)

    def test_trace_traffic_matches_step_result(self, traced_run):
        _, hook, result = traced_run
        assert sum(call[4].bytes_fast for call in hook.calls) == result.bytes_fast > 0
        assert sum(call[4].bytes_slow for call in hook.calls) == result.bytes_slow > 0
