"""A fixed reference loop that measures how fast the machine runs now.

The machine the benchmark was tuned on (2 cores, shared with other
tenants) switches between a fast state and one about 1.6x slower, in
spells from under a second to minutes.  A run that meets a slow spell
reads up to 45 % slower without any change to the checker.  The
benchmark therefore times this loop next to the work it measures and
reports times at the reference speed (see :func:`factor`).

The loop does the kind of work the checker does (calls, recursion over
small frozen objects, isinstance dispatch, tuple and dict building) and
depends on nothing in the repository, so no change to the checker can
change it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# The loop's time (best of three) on the tuning machine in its fast state.
REFERENCE_S = 0.00085

# How strongly the checker's speed follows the loop's, as an exponent.
# Paired samples on the tuning machine gave 1 for the corpus's small ops
# and about 0.6 for the large list_id programs, whose working set is
# bigger; 0.8 splits the difference.
SENSITIVITY = 0.8


@dataclass(frozen=True)
class _Leaf:
    value: int


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _build(depth: int, seed: int):
    if depth == 0:
        return _Leaf(seed)
    return _Node(_build(depth - 1, seed * 2), _build(depth - 1, seed * 2 + 1))


def _walk(tree, seen: dict) -> int:
    if isinstance(tree, _Leaf):
        seen[tree.value % 17] = tree
        return tree.value
    return _walk(tree.left, seen) + _walk(tree.right, seen)


def _unit() -> int:
    seen: dict = {}
    return sum(_walk(_build(7, i), seen) for i in range(6))


def loop_seconds() -> float:
    """The reference loop's time now: the best of three back-to-back runs.

    The cyclic garbage collector is off meanwhile: the loop makes no
    cycles, and a collection of the measured program's heap would
    otherwise land in the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            _unit()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def factor(loop_s: float) -> float:
    """Multiplier that takes a time measured while the loop took `loop_s`
    to the reference speed."""
    return (REFERENCE_S / loop_s) ** SENSITIVITY
