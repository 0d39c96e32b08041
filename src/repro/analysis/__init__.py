"""Analysis and reporting: the series/tables behind Figures 5–7."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".critical_path": ("critical_path_report", "format_critical_path_report"),
    ".elastic": ("ElasticOutcome", "ElasticPolicy", "activity_grid", "simulate_elastic"),
    ".export": ("failure_provenance", "result_summary", "write_result_json"),
    ".report": ("render_bar_chart", "render_series", "render_table"),
    ".timeline": ("frontier_matrix", "frontier_totals"),
    ".utilization": ("UtilizationRow", "utilization_rows"),
})
