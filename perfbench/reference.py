"""Fixed reference kernels ("rulers") that measure how fast the host is.

The benchmark runs on a shared host whose speed drifts: other tenants'
load makes the same code up to twice as slow for tens of seconds to
minutes at a time.  That drift outlasts a run, so no statistic taken
inside a run removes it.  What does remove it is timing, right after each
op, a short kernel that never changes and does the same kinds of work as
the workload: rasterizing triangles of the workload's size into a frame
of its size (bound, expand to fragments, edge-test, scatter-min depth, as
``repro.render`` does) and popping a priority queue of events (as the
simulator does).  A ruler samples the host at the same moments as the
ops, so its median moves with theirs.

The end-to-end times of a run are scaled to a *reference host*, on which
one pass of the workload's ruler takes its ``nominal_s``: each op by the
median of the ticks around it.  A change to
the program moves the scaled times as it moves the raw ones, because a
ruler is the benchmark's own code and does not import the program; a
change of host speed moves the ruler with the program and cancels.

A ruler's inputs are fixed, not drawn from ``--seed``: it is a ruler, not
a workload.  Do not change one, or scaled figures stop being comparable
with earlier ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: ticks whose median sets one op's factor; wide enough to smooth a
#: single tick's noise, narrow enough to follow drift within a run
WINDOW = 11
#: dict lookups per event on a ruler with a heap
HOPS = 8


class Ruler:
    """One fixed kernel; :meth:`tick` times one pass."""

    def __init__(self, nominal_s: float, faces: int, width: int, height: int,
                 face_px: float, events: int, heap: int = 0) -> None:
        self.nominal_s = nominal_s
        rng = np.random.default_rng(20040601)
        centre = rng.random((faces, 1, 2)) * (width, height)
        self._tri = centre + rng.normal(0.0, face_px, (faces, 3, 2))
        self._z = rng.random(faces)
        self._size = (width, height)
        self._events = events
        # a random cycle through ``heap`` dict entries: each event hops
        # along it, touching memory as a large object graph does
        order = rng.permutation(heap).tolist()
        self._heap = dict(zip(order, order[1:] + order[:1]))

    def _raster(self) -> int:
        w, h = self._size
        tri = self._tri
        lo = np.clip(np.floor(tri.min(1)), 0, (w - 1, h - 1)).astype(np.int64)
        hi = np.clip(np.ceil(tri.max(1)), 0, (w - 1, h - 1)).astype(np.int64)
        span = hi - lo + 1
        area = span[:, 0] * span[:, 1]
        face = np.repeat(np.arange(len(tri)), area)
        k = np.arange(int(area.sum())) - np.repeat(np.cumsum(area) - area,
                                                   area)
        x = lo[face, 0] + k % span[face, 0]
        y = lo[face, 1] + k // span[face, 0]
        a, b, c = tri[face, 0], tri[face, 1], tri[face, 2]
        px, py = x + 0.5, y + 0.5

        def edge(p, q):
            return ((q[:, 0] - p[:, 0]) * (py - p[:, 1])
                    - (q[:, 1] - p[:, 1]) * (px - p[:, 0]))

        e0, e1, e2 = edge(a, b), edge(b, c), edge(c, a)
        inside = (((e0 >= 0) & (e1 >= 0) & (e2 >= 0))
                  | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0)))
        depth = np.full(w * h, np.inf)
        np.minimum.at(depth, (y * w + x)[inside], self._z[face[inside]])
        return int(np.isfinite(depth).sum())

    def _event_loop(self) -> int:
        queue: list[tuple[float, int, int]] = []
        totals: dict[int, float] = {}
        heap, node = self._heap, 0
        for i in range(self._events):
            for _ in range(HOPS if heap else 0):
                node = heap[node]
            heapq.heappush(queue, ((i * 7919) % 1000 / 7.0, i, node))
        while queue:
            t, i, _ = heapq.heappop(queue)
            totals[i % 101] = totals.get(i % 101, 0.0) + t
        return len(totals)

    def tick(self) -> float:
        """Seconds of one pass now."""
        t0 = time.perf_counter()
        self._raster()
        self._event_loop()
        return time.perf_counter() - t0

    def scales(self, ticks: list[float]) -> list[float]:
        """Per-tick factors from this host's times to the reference host's:
        nominal over the median of the :data:`WINDOW` ticks around each."""
        half = WINDOW // 2
        return [self.nominal_s / statistics.median(ticks[max(0, i - half):
                                                         i + half + 1])
                for i in range(len(ticks))]


def ruler(workload: str) -> Ruler:
    """The ruler for one workload: its frame size, face size and events."""
    return {
        # elle-50k at 200x200: mostly sub-pixel faces, few events
        "pda-orbit": lambda: Ruler(0.016, 10_000, 200, 200, 0.4, 200),
        # skeleton-120k at 256x256, composite and tiled: many small faces
        "distributed": lambda: Ruler(0.035, 20_000, 256, 256, 0.5, 500),
        # galleon-2000 at 160x120: few large faces, a busy event loop over
        # a large heap of services, leases and metrics
        "farm-crash": lambda: Ruler(0.01, 300, 160, 120, 5.0, 1500,
                                    heap=100_000),
        # control plane only: the event loop over a large heap
        "grid-churn": lambda: Ruler(0.0003, 0, 1, 1, 1.0, 50,
                                    heap=100_000),
    }[workload]()
