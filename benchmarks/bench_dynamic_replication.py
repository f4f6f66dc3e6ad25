"""EXT-DR — dynamic replication vs static placement (Section 3.1's
"more resource intensive" alternative, from the related work).

Shape checks: the replicator recovers most of the oracle's advantage
over static even placement at strongly skewed demand, without a demand
oracle.
"""

import numpy as np

from repro.cluster.system import LARGE_SYSTEM
from repro.experiments.dynamic_replication import run_dynamic_replication

from conftest import BENCH_SCALE, emit

GRID = [-1.5, -1.0, -0.5, 0.0]


def test_dynamic_replication_large_system():
    result = run_dynamic_replication(
        system=LARGE_SYSTEM, theta_values=GRID, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(
        title="EXT-DR: dynamic replication vs static placement (large system)"
    ))
    static = np.array(result.means("even (static)"))
    dynamic = np.array(result.means("even + dynamic replication"))
    oracle = np.array(result.means("predictive (oracle)"))
    skewed = [GRID.index(-1.5), GRID.index(-1.0)]
    gap_static = oracle[skewed].mean() - static[skewed].mean()
    gap_dynamic = oracle[skewed].mean() - dynamic[skewed].mean()
    assert gap_static > 0.1          # static even placement collapses
    assert gap_dynamic < 0.4 * gap_static   # replication recovers most
    # At θ = 0 replication is unnecessary and harmless.
    i0 = GRID.index(0.0)
    assert abs(dynamic[i0] - static[i0]) < 0.05
