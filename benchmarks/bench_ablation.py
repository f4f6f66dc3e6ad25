"""EXT-ABL — spare-bandwidth scheduler ablation (DESIGN.md callout).

Shape checks: EFTF ≥ proportional share ≥ idle-spare; the adversarial
LFTF direction loses part of EFTF's gain.  This is the empirical
counterpart of Theorem 1's optimality argument.
"""

import numpy as np

from repro.cluster.system import SMALL_SYSTEM
from repro.experiments.ablation import run_ablation

from conftest import BENCH_SCALE, emit

GRID = [-0.5, 0.0, 0.5, 1.0]


def test_scheduler_ablation():
    result = run_ablation(
        system=SMALL_SYSTEM, theta_values=GRID, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="EXT-ABL: spare-bandwidth scheduler ablation"))
    eftf = np.array(result.means("eftf"))
    prop = np.array(result.means("proportional"))
    lftf = np.array(result.means("lftf"))
    none = np.array(result.means("none"))
    assert eftf.mean() > none.mean() + 0.01      # workahead pays
    assert eftf.mean() >= prop.mean() - 0.005    # greedy direction ≥ fair split
    assert eftf.mean() >= lftf.mean() - 0.005    # and ≥ the anti-greedy
