"""Host-speed calibration and the statistics helpers of the benchmark.

The host this benchmark runs on changes speed by up to ~1.8x within minutes
(see README.md). Every host-time metric is therefore divided by the time of
a fixed calibration kernel measured in this process next to the work, and
multiplied by :data:`C_REF_MS`: the result reads "at reference host speed".
The kernel lives only here, so a change to the program cannot touch it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: Reference kernel time in milliseconds. A metric ``t`` measured while the
#: kernel took ``c`` ms is reported as ``t * C_REF_MS / c``. Fixed for the
#: life of the benchmark: changing it rescales every recorded number.
C_REF_MS = 10.0

#: Kernel repetitions per calibration point; the fastest one is kept, which
#: drops a repetition hit by an interrupt but keeps the host's clock rate.
KERNEL_REPS = 3

_GRID = 14


def _grid_neighbours() -> Dict[int, List[int]]:
    adjacency: Dict[int, List[int]] = {}
    for row in range(_GRID):
        for col in range(_GRID):
            node = row * _GRID + col
            adjacency[node] = [
                r * _GRID + c
                for r, c in ((row - 1, col), (row + 1, col),
                             (row, col - 1), (row, col + 1))
                if 0 <= r < _GRID and 0 <= c < _GRID]
    return adjacency


def kernel() -> float:
    """A fixed ~10 ms mix of pure-Python graph work and small numpy.

    The mix mirrors the program's own: dict/list routing over a die grid
    (BFS, per-link load accounting, sorting) and small-array numpy. Returns
    a checksum so the work cannot be skipped.
    """
    adjacency = _grid_neighbours()
    loads: Dict[tuple, float] = {}
    for source in range(0, _GRID * _GRID, 9):
        parent = {source: source}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in adjacency[node]:
                    if neighbour not in parent:
                        parent[neighbour] = node
                        following.append(neighbour)
            frontier = following
        for node in parent:
            while node != source:
                link = (parent[node], node)
                loads[link] = loads.get(link, 0.0) + 1.0
                node = parent[node]
    ranked = sorted(loads.items(), key=lambda item: (-item[1], item[0]))
    checksum = sum(load for _, load in ranked[:64])
    matrix = (np.arange(48 * 48, dtype=np.float64).reshape(48, 48) % 7.0) + 1.0
    for _ in range(40):
        product = matrix @ matrix.T
        order = np.argmin(product, axis=1)
        matrix[order % 48, 0] += 1.0
        matrix /= matrix.max()
    return checksum + float(matrix.sum())


def calibrate() -> float:
    """Kernel time in milliseconds (fastest of :data:`KERNEL_REPS`)."""
    best = math.inf
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def scale(seconds: float, kernel_ms: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_ms``, at reference speed."""
    return seconds * C_REF_MS / kernel_ms


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def above(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for value in values if value > threshold)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values: Sequence[float]) -> float:
    """The true median: the mean of the two middle values of an even count,
    so two samples give their mean, not the faster one."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)
