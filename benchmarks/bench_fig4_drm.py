"""FIG4 — the effect of dynamic request migration (Figure 4).

Regenerates both panels: utilization vs θ with and without DRM (large
panel additionally contrasts hops=1 vs unlimited hops).  Shape checks:
migration dominates no-migration on average; hops=1 ≈ unlimited.
"""

import numpy as np

from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM
from repro.experiments.fig4_drm import run_fig4

from conftest import BENCH_SCALE, BENCH_THETA_GRID, emit


def test_fig4_small_system():
    result = run_fig4(
        system=SMALL_SYSTEM, theta_values=BENCH_THETA_GRID,
        scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 4 (small system)"))
    no_migr = np.array(result.means("no migration"))
    migr = np.array(result.means("migration: chain length = 1"))
    # Migration helps on average across the θ range…
    assert migr.mean() > no_migr.mean()
    # …and never hurts by more than noise at any point.
    assert (migr >= no_migr - 0.02).all()


def test_fig4_large_system():
    result = run_fig4(
        system=LARGE_SYSTEM, theta_values=BENCH_THETA_GRID,
        scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 4 (large system)"))
    no_migr = np.array(result.means("no migration"))
    one_hop = np.array(result.means("hops per request = 1"))
    unlimited = np.array(result.means("unlimited hops"))
    assert one_hop.mean() >= no_migr.mean()
    # The paper's claim: one hop per request is almost as good as
    # unrestricted hops.
    assert np.abs(one_hop - unlimited).max() < 0.03
    # Even allocation sags under strongly skewed demand (θ = -1.5 vs 0.5).
    idx_skew = BENCH_THETA_GRID.index(-1.5)
    idx_mid = BENCH_THETA_GRID.index(0.5)
    assert one_hop[idx_skew] < one_hop[idx_mid]
