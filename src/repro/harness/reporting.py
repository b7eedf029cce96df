"""Human-readable reporting of experiment results.

Formats ASCII tables and CSV-like series that mirror the paper's tables and
figures: per-round convergence series (Figures 2, 4, 6, 8), total workload
time summaries (Figures 3, 5, 7), the time breakdown of Table I, the
database-size sweep of Table II, and the exploration-cost comparison of
Section V-B3.
"""

from __future__ import annotations

from .metrics import RunReport, speedup_percentage


def _format_row(cells: list[str], widths: list[int]) -> str:
    return " | ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """A minimal fixed-width ASCII table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    lines = [_format_row(headers, widths)]
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def convergence_series(reports: dict[str, RunReport]) -> str:
    """Per-round total time series, one column per tuner (Figures 2/4/6)."""
    names = list(reports)
    n_rounds = max((reports[name].n_rounds for name in names), default=0)
    headers = ["round"] + names
    rows = []
    for position in range(n_rounds):
        row = [str(position + 1)]
        for name in names:
            rounds = reports[name].rounds
            value = rounds[position].total_seconds if position < len(rounds) else float("nan")
            row.append(f"{value:.1f}")
        rows.append(row)
    return format_table(headers, rows)


def totals_summary(reports: dict[str, RunReport]) -> str:
    """Total end-to-end workload time per tuner (Figures 3/5/7)."""
    headers = ["tuner", "total_s", "recommendation_s", "creation_s", "execution_s"]
    rows = []
    for name, report in reports.items():
        rows.append([
            name,
            f"{report.total_seconds:.1f}",
            f"{report.total_recommendation_seconds:.1f}",
            f"{report.total_creation_seconds:.1f}",
            f"{report.total_execution_seconds:.1f}",
        ])
    return format_table(headers, rows)


def speedup_summary(reports: dict[str, RunReport], candidate: str = "MAB",
                    baseline: str = "PDTool") -> str:
    """The paper's headline metric: candidate speed-up over the baseline."""
    if candidate not in reports or baseline not in reports:
        return "speed-up unavailable (missing tuner runs)"
    value = speedup_percentage(
        reports[baseline].total_seconds, reports[candidate].total_seconds
    )
    return f"{candidate} speed-up over {baseline}: {value:.1f}%"


def table1_breakdown(
    breakdown: dict[str, dict[str, dict[str, RunReport]]]
) -> str:
    """Table I: total time breakdown (minutes) per workload regime and benchmark.

    ``breakdown[workload_type][benchmark][tuner]`` -> :class:`RunReport`.
    """
    headers = [
        "setting", "workload",
        "rec_PDTool", "rec_MAB",
        "cre_PDTool", "cre_MAB",
        "exec_PDTool", "exec_MAB",
        "total_PDTool", "total_MAB",
    ]
    rows = []
    for workload_type, benchmarks in breakdown.items():
        for benchmark, reports in benchmarks.items():
            pdtool = reports.get("PDTool")
            mab = reports.get("MAB")
            if pdtool is None or mab is None:
                continue
            pdtool_minutes = pdtool.breakdown_minutes()
            mab_minutes = mab.breakdown_minutes()
            rows.append([
                workload_type, benchmark,
                f"{pdtool_minutes['recommendation']:.2f}", f"{mab_minutes['recommendation']:.2f}",
                f"{pdtool_minutes['creation']:.2f}", f"{mab_minutes['creation']:.2f}",
                f"{pdtool_minutes['execution']:.2f}", f"{mab_minutes['execution']:.2f}",
                f"{pdtool_minutes['total']:.2f}", f"{mab_minutes['total']:.2f}",
            ])
    return format_table(headers, rows)


def table2_database_size(results: dict[float, dict[str, RunReport]]) -> str:
    """Table II: static workload totals (minutes) under different scale factors."""
    headers = ["scale_factor", "PDTool_min", "MAB_min"]
    rows = []
    for scale_factor in sorted(results):
        reports = results[scale_factor]
        pdtool = reports.get("PDTool")
        mab = reports.get("MAB")
        rows.append([
            f"{scale_factor:g}",
            f"{pdtool.total_minutes():.2f}" if pdtool else "n/a",
            f"{mab.total_minutes():.2f}" if mab else "n/a",
        ])
    return format_table(headers, rows)


def exploration_cost_summary(reports: dict[str, RunReport]) -> str:
    """Section V-B3: recommendation + creation time ("exploration cost") per tuner."""
    headers = ["tuner", "exploration_cost_s", "execution_s", "total_s"]
    rows = []
    for name, report in reports.items():
        rows.append([
            name,
            f"{report.exploration_cost_seconds:.1f}",
            f"{report.total_execution_seconds:.1f}",
            f"{report.total_seconds:.1f}",
        ])
    return format_table(headers, rows)
