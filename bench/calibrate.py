"""Host-speed calibration of the benchmark's time metrics.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, and that drift moves every time a run measures. The benchmark
therefore times a fixed reference workload between the phases of its rounds
and reports each round's times in *reference seconds*: seconds measured,
scaled by `REFERENCE_S` / the median time of the reference workload during
that round. A host at reference speed reads the same in both; a program
change moves reference seconds exactly as it moves seconds, because the
reference workload uses the standard library only and never the program.

The reference workload resembles the planner's and the engine's work: it
grows a tree of small objects carrying `Fraction` probabilities, keys a dict
by frozensets of the path, then walks the leaves.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of `reference_workload()` on a 2-core shared Linux VM with
# Python 3.11; on that host one reference second is about one second.
REFERENCE_S = 0.0126
ITEMS = 6  # the tree holds every ordered prefix of up to DEPTH of ITEMS items
DEPTH = 5
SAMPLES = 3  # reference runs per poll
GAP_S = 0.4  # least time between two polls that sample


class _Node:
    __slots__ = ("path", "prob", "children")

    def __init__(self, path: tuple[int, ...], prob: Fraction) -> None:
        self.path = path
        self.prob = prob
        self.children: list[_Node] = []


def reference_workload() -> tuple[Fraction, int]:
    """(sum of leaf probabilities, distinct (item set, depth) keys)."""
    root = _Node((), Fraction(1))
    frontier = [root]
    states: dict[tuple[frozenset[int], int], Fraction] = {}
    leaves = Fraction(0)
    for depth in range(DEPTH):
        grown = []
        for node in frontier:
            for item in range(ITEMS):
                if item in node.path:
                    continue
                child = _Node(node.path + (item,), node.prob * Fraction(9 + item, 10 + depth))
                node.children.append(child)
                grown.append(child)
                key = (frozenset(child.path), len(child.path))
                states[key] = states.get(key, Fraction(0)) + child.prob
        frontier = grown
    for node in frontier:
        leaves += node.prob
    return leaves, len(states)


def sample(samples: int = SAMPLES) -> list[float]:
    """Seconds taken by `samples` runs of the reference workload.

    The collector is off while they run: the workload makes no cycles, and a
    collection would time the program's heap, not the host.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            start = perf_counter()
            reference_workload()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times


class Sampler:
    """Reference-workload samples taken at the phase boundaries of rounds."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = float("-inf")

    def poll(self, force: bool = False) -> None:
        """Sample, unless the last sample is less than `GAP_S` old."""
        if force or perf_counter() - self.last >= GAP_S:
            self.times.extend(sample())
            self.last = perf_counter()

    def scale(self) -> float:
        """Reference seconds per second over the samples since the last call.
        The last poll's samples also open the next round."""
        factor = REFERENCE_S / statistics.median(self.times)
        self.times = self.times[-SAMPLES:]
        return factor

    def restart(self) -> None:
        """Drop every sample and take a fresh one."""
        self.times = []
        self.poll(force=True)
