"""Experiment harness: one module per reproduced table/figure.

Every experiment exposes a ``run_*`` function returning a
:class:`~repro.experiments.base.SweepResult` (or a table structure) and
accepts a ``scale`` argument that shrinks simulated duration and trial
count relative to the paper's full fidelity (5 trials × 1000 simulated
hours per point — see DESIGN.md §5).  ``scale=1.0`` is full fidelity.

**Registration is automatic.**  Importing this package imports every
sibling module (the ``pkgutil`` walk below), and each module's
self-registration block publishes an
:class:`~repro.experiments.registry.ExperimentSpec` into
:data:`~repro.experiments.registry.EXPERIMENTS` (or
:data:`~repro.experiments.registry.CHAOS_EXPERIMENTS`).  The CLI builds
its subcommands from those registries, so adding an experiment is
writing one module here — no import list or dispatch table to edit
anywhere (docs/ARCHITECTURE.md walks through it).

Experiment index (DESIGN.md §3):

* :mod:`repro.experiments.fig4_drm` — effect of dynamic request
  migration (Figure 4).
* :mod:`repro.experiments.fig5_staging` — effect of client staging
  (Figure 5).
* :mod:`repro.experiments.fig7_policies` — the P1–P8 policy comparison
  (Figure 7, with the Figure 6 matrix).
* :mod:`repro.experiments.svbr` — utilization vs server-to-view
  bandwidth ratio with the Erlang-B analytic curve (EXT-SVBR).
* :mod:`repro.experiments.partial_predictive` — partial predictive
  placement (EXT-PP).
* :mod:`repro.experiments.heterogeneity` — bandwidth/storage
  heterogeneity (EXT-HET).
* :mod:`repro.experiments.ablation` — scheduler ablation (EFTF vs
  proportional vs LFTF) for the DESIGN.md design-choice callout.
* :mod:`repro.experiments.dynamic_replication` — EXT-DR: the related
  work's "resource intensive" alternative to DRM.
* :mod:`repro.experiments.intermittent_burst` — EXT-INT: the
  intermittent class the paper set aside (a supporting negative
  result).
* :mod:`repro.experiments.interactivity_vcr` — EXT-VCR: viewer
  pause/resume, relaxing Theorem 1's no-pause assumption.
* :mod:`repro.experiments.client_mix` — EXT-MIX: heterogeneous client
  capabilities (partial staging rollout).
* :mod:`repro.experiments.availability` — EXT-CHAOS: availability vs
  MTBF under deterministic fault injection, EFTF+DRM vs no-DRM
  (docs/ROBUSTNESS.md; ``repro-vod chaos availability``).
* :mod:`repro.experiments.soak` — EXT-SOAK: one invariant-checked
  chaos run (``repro-vod chaos soak``; the CI chaos gate).
* :mod:`repro.experiments.prefix` — EXT-PREFIX: the prefix-cache /
  stream-sharing tier's with/without-tier capacity figure and its
  cache-hit-rate-vs-θ and batching-window sweeps (``repro prefix``;
  docs/CACHING.md).
* :mod:`repro.experiments.verify` — the gate: one scenario through a
  virtual leg, a live leg when it can be served, and the checks its
  ``faults`` / ``elastic`` / ``prefix`` blocks select (``repro verify``;
  the CI ``verify`` matrix; docs/ROBUSTNESS.md).
"""

import importlib
import pkgutil

from repro.experiments.base import (
    ExperimentScale,
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
    run_trials,
    trial_seeds,
)

__all__ = [
    "ExperimentScale",
    "SweepResult",
    "Variant",
    "resolve_scale",
    "run_sweep",
    "run_trials",
    "trial_seeds",
]

# Auto-discovery: import every experiment module so its registration
# block runs.  Deterministic (pkgutil yields sorted names) and cheap —
# modules only define functions and register specs at import time.
for _module_info in pkgutil.iter_modules(__path__):
    importlib.import_module(f"{__name__}.{_module_info.name}")
del _module_info
