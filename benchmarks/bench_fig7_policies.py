"""FIG7 — comparing P1–P8 across θ on both systems (Figure 7).

Shape checks (Section 4.5): for θ ∈ [0, 1] policy P4 (even placement +
DRM + 20 % staging) is comparable to the clairvoyant P8 and beats the
mechanism-free policies; for θ < 0 the predictive policies dominate.
"""

import numpy as np

from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM
from repro.experiments.fig7_policies import run_fig7

from conftest import BENCH_SCALE, BENCH_THETA_GRID, emit


def _check_shapes(result, grid):
    nonneg = [i for i, th in enumerate(grid) if th >= 0.0]
    skewed = [i for i, th in enumerate(grid) if th <= -1.0]
    p1 = np.array(result.means("P1"))
    p4 = np.array(result.means("P4"))
    p5 = np.array(result.means("P5"))
    p8 = np.array(result.means("P8"))
    # θ >= 0: oblivious-with-mechanisms ≈ clairvoyant-with-mechanisms.
    assert np.abs(p4[nonneg] - p8[nonneg]).max() < 0.05
    assert p4[nonneg].mean() > p1[nonneg].mean()
    # θ <= -1: allocation dominates — predictive beats even.
    assert p8[skewed].mean() > p4[skewed].mean()
    assert p5[skewed].mean() > p1[skewed].mean()


def test_fig7_small_system():
    result = run_fig7(
        system=SMALL_SYSTEM, theta_values=BENCH_THETA_GRID,
        scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 7 (small system)"))
    _check_shapes(result, BENCH_THETA_GRID)


def test_fig7_large_system():
    grid = [-1.5, -1.0, 0.0, 0.5, 1.0]  # coarser: 8 policies × large system
    result = run_fig7(
        system=LARGE_SYSTEM, theta_values=grid, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 7 (large system)"))
    _check_shapes(result, grid)
