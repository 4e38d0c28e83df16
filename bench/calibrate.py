"""Machine-speed calibration against a fixed pure-Python reference loop.

On a shared machine the speed of a core drifts, by up to 2x over seconds, as
other tenants load it; wall time and CPU time drift alike, so every time a run
takes drifts with it.  The benchmark therefore times this reference loop, which
does the same kind of interpreter work as the package (interning tuples in
dicts, union-find, breadth-first search) but shares no code with it, before and
after each window of about WINDOW_S seconds of work.  Times measured in the
window are scaled by NOMINAL_S over the mean of the two reference times: a
reported time is the time the work takes when the reference loop takes
NOMINAL_S.  A change to the package moves the work, never the reference.
"""

from __future__ import annotations

import gc
from collections import deque
from time import perf_counter

NOMINAL_S = 0.002
WINDOW_S = 0.05


def reference() -> int:
    """Fixed work: intern a term chain, merge classes, walk the result."""
    table: dict[tuple, int] = {}
    for i in range(500):
        for head in ("f", "g"):
            key = (head, i % 37, i // 3)
            table.setdefault(key, len(table))
    parent = list(range(len(table)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: dict[int, list[int]] = {v: [] for v in parent}
    for (head, a, b), v in sorted(table.items()):
        u = (a * 7 + b) % len(parent)
        if find(u) != find(v):
            parent[find(u)] = find(v)
            adjacency[u].append(v)
            adjacency[v].append(u)
    seen: set[int] = set()
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len({find(v) for v in parent})


def reference_s() -> float:
    """Seconds the reference takes now; collection is held off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Buffers raw samples and releases them scaled when their window closes."""

    def __init__(self) -> None:
        self.scales: list[float] = []
        self.spent = 0.0  # seconds spent timing the reference
        self._pending: list[tuple[object, float]] = []
        self._last = self._probe()
        self._opened = perf_counter()

    def _probe(self) -> float:
        start = perf_counter()
        ref = reference_s()
        self.spent += perf_counter() - start
        return ref

    def add(self, key, secs: float) -> None:
        self._pending.append((key, secs))

    def tick(self, force: bool = False) -> list[tuple[object, float]]:
        """Close the window if it is due (or forced); returns its scaled samples."""
        if not force and perf_counter() - self._opened < WINDOW_S:
            return []
        ref = self._probe()
        scale = NOMINAL_S / ((self._last + ref) / 2)
        self.scales.append(scale)
        self._last, self._opened = ref, perf_counter()
        out = [(key, secs * scale) for key, secs in self._pending]
        self._pending.clear()
        return out
