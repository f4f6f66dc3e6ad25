"""Environment-driven obs switches.

The CLI flags ``--trace-out`` / ``--profile`` set these variables
before dispatching, and :class:`repro.Simulation` reads them at build
time, so observability reaches *every* run a command performs — sweep
trials included — without threading options through each experiment
signature.  While either switch is active, :func:`obs_active` makes
the sweep executor in ``repro.experiments.base`` fall back from its
grid-level process pool to one in-process worker running tasks in
strict grid order, so traces append to one file and profiles fold into
one process-wide aggregate; sweep provenance records the effective
worker count either way (see docs/PERFORMANCE.md).

* ``REPRO_TRACE_OUT=<path>`` — each run appends its JSONL trace
  (prefixed with a ``run.meta`` provenance line) to *path*.
* ``REPRO_PROFILE=1`` — each run profiles its engine and folds the
  result into the process-wide aggregate
  (:func:`repro.obs.profiler.aggregate_report`).
"""

from __future__ import annotations

import os
from typing import Optional

TRACE_OUT_VAR = "REPRO_TRACE_OUT"
PROFILE_VAR = "REPRO_PROFILE"
INVARIANTS_VAR = "REPRO_INVARIANTS"

_FALSY = ("", "0", "false", "no", "off")


def env_trace_path() -> Optional[str]:
    """Path for JSONL trace appends, or None when tracing is off."""
    path = os.environ.get(TRACE_OUT_VAR)
    return path if path else None


def check_trace_path(path: str, flag: str = "--trace-out") -> str:
    """Fail fast — one actionable line — on an unusable trace path.

    Called before a run starts (CLI flag parsing, Simulation build) so
    a missing parent directory surfaces as ``SystemExit`` with a single
    sentence naming the path and the fix, not as a raw
    ``FileNotFoundError`` traceback after minutes of simulation.
    Returns *path* unchanged when it is writable.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise SystemExit(
            f"{flag} {path!r}: parent directory {parent!r} does not exist "
            f"— create it first or point {flag} at an existing directory"
        )
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise SystemExit(f"{flag} {path!r}: not writable ({exc})")
    return path


def env_profile_enabled() -> bool:
    """Whether event profiling is requested via the environment."""
    return os.environ.get(PROFILE_VAR, "").strip().lower() not in _FALSY


def env_invariants_enabled() -> bool:
    """Whether online invariant checking is forced via the environment.

    ``REPRO_INVARIANTS=1`` attaches a
    :class:`repro.faults.invariants.InvariantChecker` to every
    :class:`repro.Simulation` run — CI's `verify` job and local
    debugging both use this to turn any experiment into a checked run
    without touching its config.
    """
    return os.environ.get(INVARIANTS_VAR, "").strip().lower() not in _FALSY


def obs_active() -> bool:
    """True when any env-driven instrument is on (forces one worker)."""
    return env_profile_enabled() or env_trace_path() is not None
