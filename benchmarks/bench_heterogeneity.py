"""EXT-HET — server resource heterogeneity (Section 4.6 / TR 01-47).

Shape checks: bandwidth heterogeneity costs more utilization than
storage heterogeneity, and heterogeneity effects shrink as the cluster
grows (variability spreads over more servers).
"""

import numpy as np

from repro.experiments.heterogeneity import TITLE, run_heterogeneity

from conftest import BENCH_SCALE, emit

COUNTS = (5, 10, 20)


def test_heterogeneity():
    result = run_heterogeneity(
        server_counts=COUNTS, spread=0.5, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title=TITLE))
    homo = np.array(result.means("homogeneous"))
    het_bw = np.array(result.means("het bandwidth"))
    het_disk = np.array(result.means("het storage"))
    # Bandwidth heterogeneity hurts more than storage heterogeneity
    # (averaged across system sizes; the paper notes storage effects are
    # statistically marginal).
    assert (homo - het_bw).mean() > (homo - het_disk).mean() - 0.01
    # Storage heterogeneity is nearly free.
    assert abs((homo - het_disk).mean()) < 0.05
    # The bandwidth-heterogeneity penalty shrinks with cluster size.
    penalty = homo - het_bw
    assert penalty[-1] < penalty[0] + 0.02
