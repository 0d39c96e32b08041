"""Analysis and reporting: the series/tables behind Figures 5–7."""

from .critical_path import critical_path_report, format_critical_path_report
from .elastic import ElasticOutcome, ElasticPolicy, activity_grid, simulate_elastic
from .export import (
    failure_provenance,
    result_summary,
    write_csv,
    write_result_json,
    write_series_csv,
)
from .report import render_bar_chart, render_series, render_table
from .timeline import frontier_matrix, frontier_totals, pipelined_makespan, timestep_times
from .utilization import UtilizationRow, utilization_rows

__all__ = [
    "critical_path_report",
    "format_critical_path_report",
    "ElasticOutcome",
    "ElasticPolicy",
    "activity_grid",
    "simulate_elastic",
    "failure_provenance",
    "result_summary",
    "write_csv",
    "write_result_json",
    "write_series_csv",
    "render_bar_chart",
    "render_series",
    "render_table",
    "frontier_matrix",
    "frontier_totals",
    "pipelined_makespan",
    "timestep_times",
    "UtilizationRow",
    "utilization_rows",
]
