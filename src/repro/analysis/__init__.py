"""Measurement and analysis: metrics, statistics, analytic models, reports.

* :mod:`repro.analysis.metrics` — in-simulation counters (bytes moved,
  admissions, rejections, migrations) and the utilization definition
  from Section 4.1.
* :mod:`repro.analysis.stats` — across-trial aggregation (mean,
  standard error, Student-t confidence intervals).
* :mod:`repro.analysis.erlang` — the Erlang-B loss model used for the
  paper's analytical one-server utilization-vs-SVBR expression.
* :mod:`repro.analysis.report` — plain-text tables and series renderers
  for regenerating the paper's figures as ASCII.
"""

from repro.analysis.erlang import erlang_b, erlang_b_utilization
from repro.analysis.metrics import MetricsSink, SimulationMetrics
from repro.analysis.report import render_series, render_table
from repro.analysis.stats import SummaryStats, summarize

__all__ = [
    "MetricsSink",
    "SimulationMetrics",
    "SummaryStats",
    "erlang_b",
    "erlang_b_utilization",
    "render_series",
    "render_table",
    "summarize",
]
