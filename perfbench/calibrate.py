"""A fixed piece of work that tells how fast the machine runs right now.

The host's speed drifts by up to 1.5x over seconds and minutes as other work
on it comes and goes, and a 40 s run cannot average that out: two runs a few
minutes apart differ by a third.  So every interval the benchmark reports is
timed next to this kernel and scaled by REF_S over the kernel's time, which
gives it in reference seconds: what it would take on this machine at the speed
at which the kernel takes REF_S.  The kernel does what the planner does (heap
driven Python loops, dict updates, small numpy arrays, a sparse LU solve) but
calls nothing of the planner, so no change to the planner can move it.
"""
from __future__ import annotations

import heapq
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# About the kernel's time on a quiet 2-core virtual machine, so that reference
# seconds read close to seconds there.
REF_S = 0.02


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 400
        self.M = (sp.random(n, n, density=0.01, random_state=1, format="csc")
                  + 4.0 * sp.identity(n, format="csc")).tocsc()
        self.b = rng.standard_normal(n)
        self.poses = rng.standard_normal((64, 3))
        for _ in range(3):   # first calls pay for lazy set-up in numpy and scipy
            self.time()

    def time(self) -> float:
        """Run the kernel once; return its duration in seconds."""
        t0 = time.perf_counter()
        heap = []
        for i in range(4000):
            heapq.heappush(heap, ((i * 7919) % 1000, i, (i, i + 1)))
        seen = {}
        while heap:
            k, i, v = heapq.heappop(heap)
            seen[(k, i & 7)] = v
        p = self.poses
        for _ in range(150):
            q = np.stack([p[:, 0] + np.cos(p[:, 2]), p[:, 1] + np.sin(p[:, 2])], axis=1)
            (np.abs(q[:, None, :] - q[None, :8, :]) < 0.5).any()
        for _ in range(4):
            splu(self.M).solve(self.b)
        return time.perf_counter() - t0

    @staticmethod
    def to_ref(seconds: float, kernel_s: float) -> float:
        """An interval in reference seconds, given the kernel's time beside it."""
        return seconds * REF_S / kernel_s
