"""Machine-speed reference that times are scaled by.

On a shared 2-core VM the machine's speed drifts by half over minutes while
the program stays the same: sweep-d2 passes ranged from 2.0 s to 3.4 s within
half an hour.  A fixed NumPy kernel that never calls blochlab is timed about
once a second, between operations and at stratified_grid calls.  A time
measured over an interval is reported as `raw * NOMINAL_S / reference`, where
`reference` is the median kernel time around that interval: seconds at the
speed where the kernel takes NOMINAL_S.  Kernel time is excluded from every
measured interval.  In one test, medians over eight sweep-d2 passes spread
16% raw and 2.3% scaled; ten single-pass lemmas-d3 runs spread 8.6% raw and
4.0% scaled (sampling every 2 s instead: 12.3% raw, 7.8% scaled).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.05
SAMPLE_INTERVAL_S = 1.0
_SEGMENTS = 3


class Reference:
    """Times the kernel and scales raw intervals by the nearby kernel times."""

    def __init__(self):
        rng = np.random.default_rng(20240601)
        self._z = np.sqrt(rng.random((40_000, 2))) * np.exp(2j * np.pi * rng.random((40_000, 2)))
        self._small = self._z[:48].copy()
        self._coeffs = rng.normal(size=15) + 1j * rng.normal(size=15)
        self._theta = 2.0 * np.pi * rng.random(self._z.shape)
        self.samples: list[tuple[float, float]] = []   # (time taken, kernel seconds)
        self.spent = 0.0

    def _segment(self) -> float:
        """One kernel run: dense polynomial values, weights and phases over 40k
        points, then many small-array calls.  Returns its wall time."""
        z, small = self._z, self._small
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(4):
            out = np.zeros(z.shape[0], dtype=complex)
            for j, c in enumerate(self._coeffs):
                out += c * z[:, 0] ** (j % 4) * z[:, 1] ** (j % 3)
            acc += float(np.max(np.abs(out) * (1.0 - np.abs(z[:, 0]) ** 2) ** 1.5))
            acc += float(np.sum((0.5 * np.exp(1j * self._theta)).real))
        for _ in range(800):
            acc += float(np.abs(small[:, 0] * small[:, 1] - 0.3).max())
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return time.perf_counter() - t0

    def sample(self):
        t0 = time.perf_counter()
        kernel = statistics.median(self._segment() for _ in range(_SEGMENTS))
        t1 = time.perf_counter()
        self.samples.append((t1, kernel))
        self.spent += t1 - t0

    def maybe_sample(self):
        """Sample when the last sample is older than SAMPLE_INTERVAL_S."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time of the samples taken within
        [start, end], the last one before it and the first one after it."""
        inside = [k for t, k in self.samples if start <= t <= end]
        before = [k for t, k in self.samples if t < start][-1:]
        after = [k for t, k in self.samples if t > end][:1]
        near = before + inside + after
        if not near:
            raise RuntimeError("no reference sample near the measured interval")
        return NOMINAL_S / statistics.median(near)
