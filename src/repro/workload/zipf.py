"""Zipf-like popularity distribution with the paper's θ parameterisation.

Section 4.1 of the paper defines the probability that a new request is
for video ``i`` (1-indexed rank) as::

    p_i = c / i**(1 - theta),      c = 1 / sum_i 1 / i**(1 - theta)

so the *exponent* is ``1 − θ``:

* ``θ = 1``  → exponent 0 → **uniform** demand;
* ``θ = 0``  → exponent 1 → classic Zipf (highly skewed);
* ``θ < 0``  → exponent > 1 → even more skewed — the paper sweeps down
  to ``θ = −1.5`` to find where simple placement breaks.

Larger catalogs are *more* skewed at a fixed θ (the tail gets longer and
thinner), which the paper also notes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np


def popularity_ranks(n: int, theta: float) -> np.ndarray:
    """Normalised demand probabilities for ranks 1…n, in rank order.

    The single source of popularity truth: the catalog convention
    (video id = rank), the arrival process (:class:`ZipfPopularity`)
    and the prefix-cache strategies (:mod:`repro.prefix`) all derive
    their weights from this one function instead of recomputing
    ``c / i**(1 - theta)`` independently.

    Args:
        n: catalog size (>= 1).
        theta: the paper's skew parameter; exponent is ``1 - theta``.

    Returns:
        Length-``n`` float64 vector summing to 1; index 0 is rank 1
        (the most popular title).
    """
    if n < 1:
        raise ValueError(f"catalog size must be >= 1, got {n}")
    ranks = np.arange(1, int(n) + 1, dtype=np.float64)
    weights = ranks ** -(1.0 - float(theta))
    return weights / weights.sum()


class ZipfPopularity:
    """Zipf-like demand over ``n`` items, ranks 1 (hottest) … n (coldest).

    Args:
        n: catalog size (>= 1).
        theta: the paper's skew parameter; exponent is ``1 - theta``.

    Attributes:
        probabilities: length-``n`` numpy vector summing to 1, in rank
            order (index 0 = rank 1 = most popular).
    """

    def __init__(self, n: int, theta: float) -> None:
        if n < 1:
            raise ValueError(f"catalog size must be >= 1, got {n}")
        self.n = int(n)
        self.theta = float(theta)
        self.probabilities = popularity_ranks(self.n, self.theta)
        # Cumulative distribution for O(log n) inverse-CDF sampling; the
        # list copy serves scalar draws without numpy's array path.
        self._cdf = np.cumsum(self.probabilities)
        self._cdf[-1] = 1.0  # guard against rounding
        self._cdf_list = self._cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One video index (0-based, 0 = most popular) — the scalar twin
        of :meth:`sample`, drawing the same value from the same state."""
        return bisect_right(self._cdf_list, rng.random())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* video indices (0-based, 0 = most popular)."""
        u = rng.random(size)
        return self._cdf.searchsorted(u, side="right").astype(np.int64)

    def expected_value(self, values: Sequence[float]) -> float:
        """Popularity-weighted mean of per-video *values* (rank order).

        Used to calibrate the arrival rate: the expected size of a
        requested video is ``E_p[size_i]``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} values, got shape {values.shape}"
            )
        return float(np.dot(self.probabilities, values))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ZipfPopularity(n={self.n}, theta={self.theta})"
