"""The harness's one worker pool: ordering, validation, start methods.

Sweeps, tournaments and the figure experiments all fan out through
:func:`repro.harness.sweeps.pmap`, so its contract is pinned here
directly: input-order results whatever order workers finish in,
``workers < 1`` rejected, oversubscribed and empty inputs handled, and the
same results under the ``spawn`` start method as under the default.
"""

import multiprocessing
import os
import time

import pytest

from repro.harness.sweeps import pmap


def _sleep_then_echo(seconds):
    time.sleep(seconds)
    return seconds, os.getpid()


def _square(value):
    return value * value


class TestOrdering:
    def test_input_order_when_workers_finish_out_of_order(self):
        # The first item sleeps longest, so workers complete in reverse;
        # the result must still follow the input.
        delays = [0.4, 0.3, 0.2, 0.1, 0.0]
        results = pmap(_sleep_then_echo, delays, workers=len(delays))
        assert [seconds for seconds, _ in results] == delays
        assert len({pid for _, pid in results} - {os.getpid()}) > 1

    def test_pooled_equals_inline(self):
        items = list(range(7))
        assert pmap(_square, items, workers=3) == pmap(_square, items)


class TestValidation:
    @pytest.mark.parametrize("items", [[1, 2], [1], []])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_raise(self, workers, items):
        # Checked before the inline shortcut, so small inputs are no escape.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            pmap(_square, items, workers=workers)


class TestSizes:
    def test_more_workers_than_items(self):
        assert pmap(_square, [1, 2, 3], workers=16) == [1, 4, 9]

    def test_empty_input(self):
        assert pmap(_square, [], workers=4) == []

    def test_accepts_any_iterable(self):
        assert pmap(_square, iter(range(4)), workers=2) == [0, 1, 4, 9]

    def test_single_worker_runs_inline(self):
        results = pmap(_sleep_then_echo, [0.0, 0.0], workers=1)
        assert {pid for _, pid in results} == {os.getpid()}


class TestStartMethod:
    def test_spawned_workers_round_trip(self, monkeypatch):
        # A spawned worker starts from a fresh interpreter and must import
        # the function it runs by module path.
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda *_: spawn)
        assert pmap(_square, range(4), workers=2) == [0, 1, 4, 9]
