"""Declarative scenarios: one full simulation setup as a JSON file.

A *scenario* is a named, human-editable :class:`SimulationConfig`::

    {
      "name": "p4-small-smoke",
      "description": "Policy P4 on the small system, 30 min smoke run",
      "config": {
        "system": {"preset": "small"},
        "theta": 0.0,
        "migration": {"enabled": true},
        ...
      }
    }

``repro run --scenario FILE`` executes one; the committed files under
``scenarios/`` double as documentation and as CI smoke inputs.  The
round trip is exact: :func:`save_scenario` output re-loads to an equal
config (byte-identity is pinned by a golden test), and partial configs
fall back to the dataclass defaults — see :mod:`repro.serialize` for
the contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.simulation import SimulationConfig

#: Top-level keys a scenario file may carry.
_KEYS = ("name", "description", "config")


@dataclass(frozen=True)
class Scenario:
    """A named, described simulation configuration."""

    name: str
    description: str
    config: SimulationConfig


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises:
        SystemExit-friendly :class:`ValueError` naming the file and the
        offending key for every malformed input (typos must not vanish
        silently).
    """
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read scenario {str(path)!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        # exc already carries "line L column C (char N)".
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not valid JSON: undecodable byte at offset "
            f"{exc.start} ({exc.reason})"
        ) from None
    if not isinstance(raw, dict):
        raise ValueError(
            f"{path}: a scenario must be a JSON object, "
            f"got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise ValueError(
            f"{path}: unknown scenario key(s) {keys}; "
            f"valid keys: {', '.join(_KEYS)}"
        )
    if "config" not in raw:
        raise ValueError(f"{path}: scenario is missing the 'config' object")
    try:
        config = SimulationConfig.from_dict(raw["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid config: {exc}") from None
    return Scenario(
        name=str(raw.get("name", path.stem)),
        description=str(raw.get("description", "")),
        config=config,
    )


def load_scenario_or_exit(path: Union[str, Path, None]) -> Scenario:
    """:func:`load_scenario` for CLI verbs: an absent argument or a
    missing, truncated or mistyped file ends the process with a
    one-line message (exit 1) instead of a traceback."""
    if path is None:
        raise SystemExit("a scenario FILE is required (see scenarios/)")
    try:
        return load_scenario(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    """Write *scenario* as deterministic JSON (golden-test stable).

    The output is byte-reproducible for equal inputs: fixed key order
    (insertion order of :meth:`SimulationConfig.to_dict`), two-space
    indent, trailing newline.
    """
    payload = {
        "name": scenario.name,
        "description": scenario.description,
        "config": scenario.config.to_dict(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
