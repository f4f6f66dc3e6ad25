"""EXT-VCR — viewer interactivity (pause/resume), relaxing Theorem 1's
no-pause assumption.

Shape checks: graceful, monotone-ish degradation with pause intensity;
staging softens the hit; zero underruns throughout (minimum flow plus
the paused-and-full idle exemption keep playback safe).
"""

import numpy as np

from repro.cluster.system import SMALL_SYSTEM
from repro.experiments.interactivity_vcr import run_interactivity

from conftest import BENCH_SCALE, emit

PAUSES = (0.0, 1.0, 2.0, 4.0)


def test_vcr_interactivity():
    result = run_interactivity(
        system=SMALL_SYSTEM, pauses_per_hour=PAUSES, scale=BENCH_SCALE,
    )
    emit("")
    emit(result.render(title="EXT-VCR: viewer pause/resume interactivity"))
    bare = np.array(result.means("no staging"))
    staged = np.array(result.means("20% staging"))
    # Pausing costs utilization (slots held while playback stalls)…
    assert bare[-1] < bare[0] - 0.02
    assert staged[-1] < staged[0] + 0.01
    # …staging keeps its advantage at every intensity…
    assert (staged >= bare - 0.01).all()
    # …and the decline is graceful, not a collapse.
    assert staged[-1] > 0.5
