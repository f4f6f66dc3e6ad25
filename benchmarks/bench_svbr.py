"""EXT-SVBR — utilization vs server-to-view bandwidth ratio, with the
Erlang-B analytic reference (Section 3.2 / TR 01-47).

Shape checks: utilization grows with SVBR, and the one-server
simulation tracks the analytic loss-model curve — the paper's own
validation of the simulator.
"""

import numpy as np

from repro.experiments.svbr import TITLE, run_svbr

from conftest import BENCH_SCALE, emit

SVBR_GRID = (5, 10, 20, 33, 50, 100)


def test_svbr_vs_erlang_b():
    result = run_svbr(
        svbr_values=SVBR_GRID,
        # One-server runs are cheap; stretch the duration for a tighter
        # match with the analytic steady state.
        scale=max(BENCH_SCALE, 0.02),
    )
    emit("")
    emit(result.render(title=TITLE))
    simulated = np.array(result.means("simulated"))
    analytic = np.array(result.means("erlang-B"))
    # Monotone in SVBR (both curves).
    assert (np.diff(analytic) > 0).all()
    assert simulated[-1] > simulated[0]
    # Simulation validates against Erlang B within a few points.
    assert np.abs(simulated - analytic).max() < 0.06
