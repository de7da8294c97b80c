"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same pure-Python work runs up to twice as slow in
some stretches as in others, and a stretch lasts from seconds to minutes,
so two runs of the same code can differ by more than any useful bound.
The benchmark therefore times this kernel between operations, every
``EVERY_OPS`` operations, and scales each operation's latency by how long
the kernel took in its window::

    ref_seconds = seconds * REF_KERNEL_MS / kernel_ms

A *reference millisecond* (``ref_ms``) is thus a millisecond at the speed
at which one kernel call takes exactly ``REF_KERNEL_MS`` ms.  The kernel is
independent of the program under test (it imports nothing from ``repro``),
so a change to the program moves the scaled figures exactly as it moves
the raw ones; only the machine's own drift cancels.

The kernel counts the label-preserving monomorphisms of a fixed 5-vertex
pattern into a fixed 24-vertex graph by backtracking, so it spends its time
on what the program spends its time on: set membership, list indexing and
Python calls.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import List, Set, Tuple

EVERY_OPS = 20      # operations per calibration window
REPEATS = 2         # kernel calls per calibration; their mean is used
REF_KERNEL_MS = 1.0

Graph = Tuple[List[int], List[Set[int]]]


def _graph(n: int, p: float, labels: int, seed: int) -> Graph:
    rng = random.Random(seed)
    label = [rng.randrange(labels) for _ in range(n)]
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return label, adj


_TARGET = _graph(24, 0.15, 3, 1)
_PATTERN = _graph(5, 0.5, 3, 2)


def _extend(i: int, assign: List[int], used: Set[int]) -> int:
    glabel, gadj = _TARGET
    plabel, padj = _PATTERN
    if i == len(plabel):
        return 1
    found = 0
    for v in range(len(glabel)):
        if v in used or glabel[v] != plabel[i]:
            continue
        for w in padj[i]:
            if assign[w] >= 0 and assign[w] not in gadj[v]:
                break
        else:
            assign[i] = v
            used.add(v)
            found += _extend(i + 1, assign, used)
            used.discard(v)
            assign[i] = -1
    return found


def kernel() -> int:
    """One kernel call: the number of embeddings (always the same)."""
    return _extend(0, [-1] * len(_PATTERN[0]), set())


EXPECTED = kernel()


def scale() -> float:
    """``REF_KERNEL_MS`` / the kernel's mean time now, in ms.

    The collector is held off while the kernel runs, so a collection of
    the program's heap is never charged to the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEATS):
            if kernel() != EXPECTED:
                raise RuntimeError("calibration kernel gave another count")
        kernel_ms = 1000.0 * (perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()
    return REF_KERNEL_MS / kernel_ms
