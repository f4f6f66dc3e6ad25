"""FIG5 — the effect of client staging (Figure 5).

Regenerates both panels: utilization vs θ for staging buffers of 0 %,
2 %, 20 % and 100 % of the mean video size (no migration, 30 Mb/s
client receive cap).  Shape checks: monotone benefit; 20 % captures
most of 100 %; the small system gains more.
"""

import numpy as np

from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM
from repro.experiments.fig5_staging import run_fig5

from conftest import BENCH_SCALE, BENCH_THETA_GRID, emit


def _gains(result):
    zero = np.array(result.means("0% buffer"))
    twenty = np.array(result.means("20% buffer"))
    full = np.array(result.means("100% buffer"))
    return zero, twenty, full


def test_fig5_small_system():
    result = run_fig5(
        system=SMALL_SYSTEM, theta_values=BENCH_THETA_GRID,
        scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 5 (small system)"))
    zero, twenty, full = _gains(result)
    assert twenty.mean() > zero.mean() + 0.01
    # "almost the maximum amount of benefit … with buffer space which is
    # only 20% of the entire video object":
    assert (twenty.mean() - zero.mean()) >= 0.75 * (full.mean() - zero.mean())


def test_fig5_large_system():
    result = run_fig5(
        system=LARGE_SYSTEM, theta_values=BENCH_THETA_GRID,
        scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="Figure 5 (large system)"))
    zero, twenty, full = _gains(result)
    assert twenty.mean() >= zero.mean()
    assert (full.mean() - twenty.mean()) < 0.05


def test_fig5_small_gains_more_than_large():
    """Cross-panel claim: 'The benefit from client staging is more
    pronounced for the smaller video server.'"""
    small = run_fig5(
        system=SMALL_SYSTEM, theta_values=[0.27],
        fractions=(0.0, 0.2), scale=BENCH_SCALE,
    )
    large = run_fig5(
        system=LARGE_SYSTEM, theta_values=[0.27],
        fractions=(0.0, 0.2), scale=BENCH_SCALE,
    )
    small_gain = small.means("20% buffer")[0] - small.means("0% buffer")[0]
    large_gain = large.means("20% buffer")[0] - large.means("0% buffer")[0]
    emit("")
    emit(
        f"Staging gain at theta=0.27: small={small_gain:+.4f} "
        f"large={large_gain:+.4f}"
    )
    assert small_gain > large_gain - 0.01
