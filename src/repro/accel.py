"""The vectorized/scalar execution-path switch.

The simulator keeps two implementations of every accelerated hot path:

* the **scalar** path — the original, obviously-correct Python loops.  It
  is the differential reference: the equivalence suite pins the vectorized
  path against it byte for byte (per-step results, counters, golden trace
  digests);
* the **vectorized** path — numpy batch accounting and plan-derived caches
  (see DESIGN.md).  Every vectorized site computes *exactly* the same
  arithmetic in the same order as its scalar twin: integer quantities are
  order-free, and floating-point accumulations keep the scalar association
  order, so enabling vectorization never changes a simulated result.

The switch is process-global (the paths are semantically identical, so it
is a performance knob, not an experiment parameter).  The vectorized path
is the default; the differential suites and the wall-clock benchmark select
the scalar reference with :func:`set_scalar_path` or the :func:`scalar_path`
context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "vectorized_enabled",
    "scalar_enabled",
    "set_scalar_path",
    "scalar_path",
]

#: Process-global reference-path flag; ``True`` selects the scalar loops.
_SCALAR = False


def vectorized_enabled() -> bool:
    """Whether hot paths should take their vectorized implementation."""
    return not _SCALAR


def scalar_enabled() -> bool:
    """Whether the scalar differential-reference path is selected."""
    return _SCALAR


def set_scalar_path(enabled: bool) -> None:
    """Select (or deselect) the scalar reference path process-wide."""
    global _SCALAR
    _SCALAR = bool(enabled)


@contextmanager
def scalar_path(enabled: bool = True) -> Iterator[None]:
    """Temporarily select the scalar (or vectorized) path.

    The differential suite runs each workload once per path under this
    context manager and asserts byte-identical outcomes.
    """
    global _SCALAR
    previous = _SCALAR
    _SCALAR = bool(enabled)
    try:
        yield
    finally:
        _SCALAR = previous
