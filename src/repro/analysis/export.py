"""Exporting experiment results for downstream tooling.

The ASCII renderers in :mod:`repro.analysis.report` are for terminals;
this module writes the same data as CSV so results can be re-plotted
(gnuplot/matplotlib/spreadsheets) without re-running the sweeps.
Columns carry the mean plus the confidence-interval bounds so error
bars survive the export.

Every exported result file is accompanied by run metadata: a
``<stem>.meta.json`` sidecar holding the sweep's provenance dict (seed,
scale, ``repro.__version__``, UTC timestamp, ``REPRO_*`` environment
overrides, config hash) so a CSV found on disk later is attributable to
the exact inputs that produced it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.obs.provenance import run_provenance

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.experiments.base import SweepResult


def metadata_path(path: Union[str, Path]) -> Path:
    """The sidecar path for a result file: ``fig5.csv`` → ``fig5.meta.json``."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_metadata(
    path: Union[str, Path], provenance: Optional[Dict[str, Any]] = None
) -> Path:
    """Write the ``.meta.json`` sidecar for the result file at *path*.

    Args:
        path: the result file the metadata describes.
        provenance: dict from
            :func:`repro.obs.provenance.run_provenance`; a fresh one
            (version/timestamp/env only) is generated when None.

    Returns:
        The sidecar path written.
    """
    side = metadata_path(path)
    meta = dict(provenance) if provenance is not None else run_provenance()
    meta["result_file"] = Path(path).name
    with open(side, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side


def sweep_to_csv(
    result: "SweepResult",
    path: Union[str, Path],
    metadata: bool = True,
) -> None:
    """Write a :class:`~repro.experiments.base.SweepResult` as CSV.

    Layout: one row per x value; per curve three columns
    ``<label>``, ``<label>_ci_low``, ``<label>_ci_high``.

    Unless *metadata* is False, the sweep's provenance is written to a
    ``.meta.json`` sidecar next to the CSV (see :func:`write_metadata`).
    """
    labels = list(result.curves)
    header = [result.x_label]
    for label in labels:
        header.extend([label, f"{label}_ci_low", f"{label}_ci_high"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, x in enumerate(result.x_values):
            row = [f"{x:.6g}"]
            for label in labels:
                stats = result.curves[label][i]
                row.extend(
                    [
                        f"{stats.mean:.6f}",
                        f"{stats.ci_low:.6f}",
                        f"{stats.ci_high:.6f}",
                    ]
                )
            writer.writerow(row)
    if metadata:
        write_metadata(path, getattr(result, "provenance", None))
