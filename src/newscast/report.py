"""Plain-text and delimited rendering of regression and evaluation tables.

The text layouts follow the journal convention: one column per model,
coefficient estimates with significance stars and the standard error
parenthesized on the following line, then a diagnostics block, then the
star legend.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataError
from .evaluation import EvaluationReport
from .nowcast import DEPENDENT_LABEL, INTERCEPT_LABEL, REGRESSOR_LABELS
from .ols import RegressionResult, significance_stars

NOTE_LINE = "Note: *p<0.1; **p<0.05; ***p<0.01"

#: Canonical display order of coefficient rows across model columns.
COEFFICIENT_ORDER = (INTERCEPT_LABEL, *REGRESSOR_LABELS.values())

DIAGNOSTIC_ROWS = (
    ("Observations", lambda r: f"{r.n_obs:d}"),
    ("R2", lambda r: f"{r.r_squared:.3f}"),
    ("Adjusted R2", lambda r: f"{r.adjusted_r_squared:.3f}"),
    ("Residual Std. Error", lambda r: f"{r.residual_std_error:.3f}"),
    (
        "F Statistic",
        lambda r: f"{r.f_statistic:.3f}{significance_stars(r.f_p_value)}",
    ),
)


def _coefficient_rows(results: Sequence[RegressionResult]) -> list[str]:
    present = set()
    for result in results:
        present.update(result.names)
    rows = [name for name in COEFFICIENT_ORDER if name in present]
    # Anything outside the canonical set keeps first-seen order.
    for result in results:
        for name in result.names:
            if name not in rows:
                rows.append(name)
    return rows


def _column(result: RegressionResult, term: str) -> tuple[str, str]:
    """(estimate-with-stars, parenthesized se) or empty cells."""
    if term not in result.names:
        return "", ""
    i = result.names.index(term)
    est = f"{result.estimates[i]:.3f}{result.stars[i]}"
    se = f"({result.standard_errors[i]:.3f})"
    return est, se


def regression_table(
    results: Sequence[RegressionResult],
    model_names: Sequence[str],
    dependent: str = DEPENDENT_LABEL,
) -> str:
    """Multi-column text table of one or more fitted models."""
    if not results or len(results) != len(model_names):
        raise DataError("need one model name per regression result")
    terms = _coefficient_rows(results)

    # Assemble all cells first so column widths can be computed.
    body: list[tuple[str, list[str]]] = []
    for term in terms:
        cells = [_column(r, term) for r in results]
        body.append((term, [c[0] for c in cells]))
        body.append(("", [c[1] for c in cells]))
    diag: list[tuple[str, list[str]]] = [
        (label, [fmt(r) for r in results]) for label, fmt in DIAGNOSTIC_ROWS
    ]

    label_width = max(
        len(row[0]) for row in body + diag + [("", [])] + [(n, []) for n in model_names]
    )
    n_models = len(results)
    col_widths = []
    for j in range(n_models):
        cells = [model_names[j], f"({j + 1})"]
        cells += [row[1][j] for row in body + diag]
        col_widths.append(max(len(c) for c in cells) + 2)

    def line(label: str, cells: Sequence[str]) -> str:
        out = label.ljust(label_width)
        for j, cell in enumerate(cells):
            out += cell.rjust(col_widths[j])
        return out.rstrip()

    total = label_width + sum(col_widths)
    rule = "-" * total
    double_rule = "=" * total
    lines = [double_rule]
    lines.append(f"Dependent variable: {dependent}".center(total).rstrip())
    lines.append(line("", model_names))
    lines.append(line("", [f"({j + 1})" for j in range(n_models)]))
    lines.append(rule)
    for label, cells in body:
        lines.append(line(label, cells))
    lines.append(rule)
    for label, cells in diag:
        lines.append(line(label, cells))
    lines.append(double_rule)
    lines.append(NOTE_LINE)
    return "\n".join(lines) + "\n"


def regression_table_delimited(
    results: Sequence[RegressionResult],
    model_names: Sequence[str],
) -> tuple[list[str], list[list[str]]]:
    """CSV mirror of the table, as its header and rows:
    term,statistic,<model per column>."""
    if not results or len(results) != len(model_names):
        raise DataError("need one model name per regression result")

    def cells(term: str, pick) -> list[str]:
        return [
            pick(r, r.names.index(term)) if term in r.names else "" for r in results
        ]

    statistics = (
        ("estimate", lambda r, i: repr(float(r.estimates[i]))),
        ("std_error", lambda r, i: repr(float(r.standard_errors[i]))),
        ("p_value", lambda r, i: repr(float(r.p_values[i]))),
        ("stars", lambda r, i: r.stars[i]),
    )
    rows = [
        [term, statistic, *cells(term, pick)]
        for term in _coefficient_rows(results)
        for statistic, pick in statistics
    ]
    rows += [
        ["Observations", "value", *[str(r.n_obs) for r in results]],
        ["R2", "value", *[repr(r.r_squared) for r in results]],
        ["Adjusted R2", "value", *[repr(r.adjusted_r_squared) for r in results]],
        ["Residual Std. Error", "value",
         *[repr(r.residual_std_error) for r in results]],
        ["F Statistic", "value", *[repr(r.f_statistic) for r in results]],
        ["F p-value", "value", *[repr(r.f_p_value) for r in results]],
    ]
    return ["term", "statistic", *model_names], rows


def evaluation_table(report: EvaluationReport) -> str:
    """Text table of per-model RMSE with GW p-values in parentheses."""
    label_width = max(len(e.model) for e in report.entries) + 2
    value_cells = []
    for entry in report.entries:
        stars = significance_stars(entry.gw.p_value) if entry.gw else ""
        value_cells.append(f"{entry.rmse:.4f}{stars}")
    value_width = max(len("RMSE"), *(len(c) for c in value_cells)) + 2
    total = label_width + value_width
    lines = ["=" * total]
    lines.append("RMSE".rjust(total))
    lines.append("-" * total)
    for entry, cell in zip(report.entries, value_cells):
        lines.append(entry.model.upper().ljust(label_width) + cell.rjust(value_width))
        p = "(--)" if entry.gw is None else f"({entry.gw.p_value:.2f})"
        lines.append(" " * label_width + p.rjust(value_width))
    lines.append("=" * total)
    lines.append(NOTE_LINE)
    return "\n".join(lines) + "\n"


def evaluation_table_delimited(
    report: EvaluationReport,
) -> tuple[list[str], list[list[str]]]:
    """CSV mirror of the evaluation table, as its header and rows."""
    header = [
        "model", "rmse", "gw_statistic", "gw_df", "gw_p_value", "gw_variant",
        "stars",
    ]
    rows = []
    for entry in report.entries:
        gw = entry.gw
        tests = [""] * 5 if gw is None else [
            repr(gw.statistic), str(gw.df), repr(gw.p_value), gw.variant,
            significance_stars(gw.p_value),
        ]
        rows.append([entry.model, repr(entry.rmse), *tests])
    return header, rows
