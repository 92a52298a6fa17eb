"""Bounded Zipf and hot-spot address distributions.

Real block traces are rarely uniform: a small set of logical addresses absorbs
most of the traffic.  The synthetic trace generators in
:mod:`repro.workloads.traces` and the Filebench model use these helpers to give
their request streams controllable locality.

Both generators expose a scalar ``sample()`` and a batched ``sample_many()``.
The batched path is what the experiment harnesses use: drawing a whole stream
at once amortizes the NumPy call overhead that dominates per-draw sampling.
``ZipfGenerator.sample_many`` is bit-identical to repeated ``sample()`` calls
(same uniform stream, same search); ``HotspotGenerator.sample_many`` draws from
a dedicated NumPy stream, so it is deterministic per seed but statistically —
not bitwise — equivalent to the scalar path.
"""

from __future__ import annotations

import random

import numpy as np

from repro.nand.fields import NonNegativeFloat, OpenFraction, PositiveInt, check_value

__all__ = ["ZipfGenerator", "HotspotGenerator"]


class ZipfGenerator:
    """Draw integers in ``[0, n)`` with a Zipf(``theta``) popularity skew.

    The implementation precomputes the CDF once (O(n)) and then samples by
    binary search (O(log n) per draw), which is fast enough for the trace sizes
    used in the experiments and exactly reproducible from the seed.
    """

    def __init__(self, n: PositiveInt, theta: NonNegativeFloat = 0.99, *, seed: int = 1) -> None:
        check_value("n", n, PositiveInt, ValueError)
        check_value("theta", theta, NonNegativeFloat, ValueError)
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Popular ranks are shuffled over the address space so the hottest
        # addresses are not simply the lowest LPNs.
        permutation_rng = np.random.default_rng(seed)
        self._permutation = permutation_rng.permutation(n)

    def sample(self) -> int:
        """Draw one value."""
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u))
        return int(self._permutation[min(rank, self.n - 1)])

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` values (bit-identical to ``count`` ``sample()`` calls)."""
        if count <= 0:
            return []
        rng_random = self._rng.random
        u = np.fromiter((rng_random() for _ in range(count)), dtype=np.float64, count=count)
        ranks = np.searchsorted(self._cdf, u)
        np.minimum(ranks, self.n - 1, out=ranks)
        return self._permutation[ranks].tolist()


class HotspotGenerator:
    """Draw integers where ``hot_fraction`` of the space gets ``hot_probability`` of accesses.

    This is the classic 80/20 style generator ("20 % of the addresses receive
    80 % of the requests") used to model the strong locality of the WebSearch
    and Systor traces (Table II).
    """

    def __init__(
        self,
        n: PositiveInt,
        *,
        hot_fraction: OpenFraction = 0.2,
        hot_probability: OpenFraction = 0.8,
        seed: int = 1,
    ) -> None:
        check_value("n", n, PositiveInt, ValueError)
        check_value("hot_fraction", hot_fraction, OpenFraction, ValueError)
        check_value("hot_probability", hot_probability, OpenFraction, ValueError)
        self.n = n
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self._rng = random.Random(seed)
        self._batch_rng = np.random.default_rng(seed)
        self._hot_size = max(1, int(n * hot_fraction))
        # Place the hot region at a seed-dependent offset so different streams
        # do not collide on the same LPNs.
        self._hot_start = self._rng.randrange(0, max(1, n - self._hot_size))

    def sample(self) -> int:
        """Draw one value."""
        if self._rng.random() < self.hot_probability:
            return self._hot_start + self._rng.randrange(self._hot_size)
        return self._rng.randrange(self.n)

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` values in one vectorized batch (own NumPy stream)."""
        if count <= 0:
            return []
        rng = self._batch_rng
        hot = rng.random(count) < self.hot_probability
        values = np.empty(count, dtype=np.int64)
        num_hot = int(hot.sum())
        values[hot] = self._hot_start + rng.integers(0, self._hot_size, size=num_hot)
        values[~hot] = rng.integers(0, self.n, size=count - num_hot)
        return values.tolist()
