"""Shared helpers for the paper-artifact suite.

Each ``bench_*`` file regenerates one paper artifact (table or figure),
prints the rows/series the paper reports and asserts the shape the
paper claims.  Every experiment runs once and is not timed: perf
numbers come from ``bench/run.py`` (see bench/README.md).

Scale: benches default to ``REPRO_BENCH_SCALE`` (default 0.003 →
1 trial × 4 measured hours per point).  Raise it to approach the
paper's fidelity; EXPERIMENTS.md records the scale used for the
committed reference output.
"""

from __future__ import annotations

import os
import pathlib

#: Bench fidelity (fraction of the paper's 5 trials × 1000 h).
BENCH_SCALE: float = float(os.environ.get("REPRO_BENCH_SCALE", "0.003"))

#: Coarse θ grid used by the figure benches (keeps each bench ≈ 1 min).
BENCH_THETA_GRID = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0]

#: Durable sink for the regenerated tables: pytest's fd-level capture
#: swallows stdout (even ``sys.__stdout__``), so every emitted artifact
#: is also appended to results/bench_results.txt.
RESULTS_FILE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "results"
    / "bench_results.txt"
)


def pytest_sessionstart(session):
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    with open(RESULTS_FILE, "w") as fh:
        fh.write(
            f"# Regenerated paper artifacts — "
            f"REPRO_BENCH_SCALE={BENCH_SCALE}\n"
            f"# (see DESIGN.md §3 for the experiment index)\n"
        )


def emit(text: str) -> None:
    """Record a regenerated table: to stdout (visible with ``-s`` or in
    the captured-output section) and to results/bench_results.txt."""
    print(text)
    with open(RESULTS_FILE, "a") as fh:
        fh.write(text + "\n")
