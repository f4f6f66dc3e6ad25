"""EXT-PP — partial predictive placement (Section 4.4 / TR 01-47).

Shape checks: at strongly skewed demand, a mildly skewed allocation
(a few extra copies for the identified-hot titles) with DRM + staging
approaches the perfect predictive oracle and clearly beats even
allocation.
"""

import numpy as np

from repro.cluster.system import LARGE_SYSTEM
from repro.experiments.partial_predictive import run_partial_predictive

from conftest import BENCH_SCALE, emit

GRID = [-1.5, -1.0, -0.5, 0.0]


def test_partial_predictive_large_system():
    result = run_partial_predictive(
        system=LARGE_SYSTEM, theta_values=GRID, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="EXT-PP: placement sophistication (large system)"))
    even = np.array(result.means("even"))
    partial = np.array(result.means("partial predictive"))
    pred = np.array(result.means("predictive"))
    skewed = [GRID.index(-1.5), GRID.index(-1.0)]
    # Partial rescues most of the predictive gap over even placement.
    gap_even = pred[skewed].mean() - even[skewed].mean()
    gap_partial = pred[skewed].mean() - partial[skewed].mean()
    assert gap_even > 0.03
    assert gap_partial < 0.6 * gap_even
    # At θ = 0 everything is comparable.
    i0 = GRID.index(0.0)
    assert abs(partial[i0] - pred[i0]) < 0.05
