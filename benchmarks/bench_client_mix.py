"""EXT-MIX — heterogeneous client capabilities (partial staging rollout).

Shape checks: utilization declines monotonically (within noise) as the
buffer-less fraction grows, and the curve interpolates the Figure 5
endpoints — partial deployment already pays.
"""

import numpy as np

from repro.cluster.system import SMALL_SYSTEM
from repro.experiments.client_mix import run_client_mix_series

from conftest import BENCH_SCALE, emit

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_client_mix():
    result = run_client_mix_series(
        system=SMALL_SYSTEM, legacy_fractions=FRACTIONS, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="EXT-MIX: partial deployment of client staging"))
    util = np.array(result.means("utilization"))
    # All-staged beats all-legacy clearly…
    assert util[0] > util[-1] + 0.02
    # …and the interpolation is monotone within noise.
    assert (np.diff(util) <= 0.01).all()
    # Half-deployment already captures a good share of the benefit.
    assert util[2] >= util[-1] + 0.3 * (util[0] - util[-1])
