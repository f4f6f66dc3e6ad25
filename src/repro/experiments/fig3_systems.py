"""Figure 3 — the system-parameter table, printed from the presets
every other figure runs on (that they *build* as tabulated is pinned by
``tests/test_system.py``)."""

from repro.cluster.system import figure3_table
from repro.experiments.registry import register_table

register_table(
    "fig3",
    "print the system parameter table (Figure 3)",
    figure3_table,
    stem="fig3_systems",
    order=4,
)
