"""Experiment harness: one module per reproduced table/figure.

Every experiment exposes a ``run_*`` function returning a
:class:`~repro.experiments.base.SweepResult` (or a table structure) and
accepts a ``scale`` argument that shrinks simulated duration and trial
count relative to the paper's full fidelity (5 trials × 1000 simulated
hours per point — see DESIGN.md §5).  ``scale=1.0`` is full fidelity.

**Registration is automatic.**  Importing this package imports every
sibling module (the ``pkgutil`` walk below), and each module's
closing :func:`~repro.experiments.registry.register_figure` (or, for
a bespoke verb, :func:`~repro.experiments.registry.register`) call
publishes an :class:`~repro.experiments.registry.ExperimentSpec` into
:data:`~repro.experiments.registry.EXPERIMENTS`.  The CLI builds its
subcommands from that registry, so adding an experiment is
writing one module here — no import list or dispatch table to edit
anywhere (docs/ARCHITECTURE.md walks through it).

**The experiment index is not kept here**: ``repro list`` prints every
registered verb with its help line, and DESIGN.md §3 maps each
experiment ID to its module.
"""

import importlib
import pkgutil

from repro.experiments.base import (
    ExperimentScale,
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
    trial_seeds,
)

__all__ = [
    "ExperimentScale",
    "SweepResult",
    "Variant",
    "resolve_scale",
    "run_sweep",
    "trial_seeds",
]

# Auto-discovery: import every experiment module so its registration
# block runs.  Deterministic (pkgutil yields sorted names) and cheap —
# modules only define functions and register specs at import time.
for _module_info in pkgutil.iter_modules(__path__):
    importlib.import_module(f"{__name__}.{_module_info.name}")
del _module_info
