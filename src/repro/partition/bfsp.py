"""BFS region-growing partitioner.

Grows ``k`` balanced regions breadth-first from spread-out seed vertices.
Cheap, deterministic, and produces low cuts on large-diameter graphs (road
networks), though it is weaker than the multilevel partitioner on small-world
graphs.  The multilevel one seeds its coarsest level itself (``_initial_partition``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..graph.template import GraphTemplate

__all__ = ["BFSPartitioner"]


class BFSPartitioner:
    """Balanced multi-seed BFS partitioning.

    Parameters
    ----------
    seed:
        RNG seed for picking region seeds.
    imbalance:
        Maximum allowed partition size as a multiple of the ideal size
        (METIS's default load factor is 1.03; we use the same).
    """

    def __init__(self, *, seed: int = 0, imbalance: float = 1.03) -> None:
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1.0")
        self.seed = int(seed)
        self.imbalance = float(imbalance)

    def _pick_seeds(self, template: GraphTemplate, k: int, rng: np.random.Generator) -> list[int]:
        """Pick k seeds far apart: first random, then repeated farthest-point BFS."""
        n = template.num_vertices
        seeds = [int(rng.integers(n))]
        dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        for _ in range(k - 1):
            # BFS from the newest seed, keep min distance to any seed.
            q: deque[int] = deque([seeds[-1]])
            dist[seeds[-1]] = 0
            while q:
                u = q.popleft()
                for w in template.out_neighbors(u):
                    w = int(w)
                    if dist[w] > dist[u] + 1:
                        dist[w] = dist[u] + 1
                        q.append(w)
            # Farthest vertex (unreached = infinitely far) becomes next seed.
            far = int(np.argmax(np.where(dist == np.iinfo(np.int64).max, n + 1, dist)))
            if far in seeds:  # tiny / disconnected corner case
                remaining = np.setdiff1d(np.arange(n), np.asarray(seeds))
                far = int(rng.choice(remaining)) if len(remaining) else seeds[0]
            seeds.append(far)
        return seeds

    def assign(self, template: GraphTemplate, num_partitions: int) -> np.ndarray:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        n = template.num_vertices
        k = num_partitions
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if k == 1:
            return np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        cap = int(np.ceil(self.imbalance * n / k))
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)

        seeds = self._pick_seeds(template, k, rng)
        frontiers: list[deque[int]] = [deque() for _ in range(k)]
        for pid, s in enumerate(seeds):
            if assignment[s] == -1:
                assignment[s] = pid
                sizes[pid] += 1
            frontiers[pid].append(s)

        # Round-robin BFS expansion; smaller regions expand first each round,
        # which keeps sizes near-equal.
        active = True
        while active:
            active = False
            for pid in np.argsort(sizes, kind="stable"):
                pid = int(pid)
                q = frontiers[pid]
                grown = 0
                while q and grown < max(1, n // (8 * k)) and sizes[pid] < cap:
                    u = q.popleft()
                    for w in template.out_neighbors(u):
                        w = int(w)
                        if assignment[w] == -1 and sizes[pid] < cap:
                            assignment[w] = pid
                            sizes[pid] += 1
                            q.append(w)
                            grown += 1
                if grown:
                    active = True

        # Unreached vertices (disconnected graph / all regions at capacity):
        # place into the currently smallest partitions.
        for v in np.nonzero(assignment == -1)[0]:
            pid = int(np.argmin(sizes))
            assignment[v] = pid
            sizes[pid] += 1
        return assignment
