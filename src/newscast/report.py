"""Plain-text and delimited rendering of regression and evaluation tables.

The one owner of presentation: star tiers, legend, labels and layouts.
Text layouts follow the journal convention: one column per model,
coefficient estimates with significance stars and the standard error
parenthesized on the following line, then a diagnostics block, then the
star legend. Both forms of a table render from one row declaration.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataError
from .evaluation import ModelEvaluation
from .nowcast import INTERCEPT_LABEL, REGRESSOR_LABELS
from .ols import RegressionResult

#: Strictest first: a p-value strictly below a threshold earns its stars.
STAR_THRESHOLDS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))
NOTE_LINE = "Note: " + "; ".join(f"{s}p<{t}" for t, s in reversed(STAR_THRESHOLDS))
DEPENDENT_LABEL = "CPI"
EVALUATION_HEADER = [
    "model", "rmse", "gw_statistic", "gw_df", "gw_p_value", "gw_variant", "stars"
]

#: Canonical display order of coefficient rows across model columns.
COEFFICIENT_ORDER = (INTERCEPT_LABEL, *REGRESSOR_LABELS.values())

#: Each regression diagnostic: its label, its RegressionResult field and
#: its text cell as a format of the value and of {stars}, the F test's
#: tier. The CSV mirror writes every value's repr; None keeps a row out
#: of the text table.
DIAGNOSTICS = (
    ("Observations", "n_obs", "{:d}"),
    ("R2", "r_squared", "{:.3f}"),
    ("Adjusted R2", "adjusted_r_squared", "{:.3f}"),
    ("Residual Std. Error", "residual_std_error", "{:.3f}"),
    ("F Statistic", "f_statistic", "{:.3f}{stars}"),
    ("F p-value", "f_p_value", None),
)


def significance_stars(p_value: float) -> str:
    """Star tier of a p-value under STAR_THRESHOLDS; none for NaN."""
    return next((s for t, s in STAR_THRESHOLDS if p_value < t), "")


def _terms(
    results: Sequence[RegressionResult], model_names: Sequence[str]
) -> list[tuple[str, list[int | None]]]:
    """Each coefficient term, COEFFICIENT_ORDER first and then any other
    in first-seen order, with its index in each result (None if absent)."""
    if not results or len(results) != len(model_names):
        raise DataError("need one model name per regression result")
    seen = dict.fromkeys(name for r in results for name in r.names)
    terms = [t for t in COEFFICIENT_ORDER if t in seen]
    terms += [t for t in seen if t not in COEFFICIENT_ORDER]
    return [(t, [r.names.index(t) if t in r.names else None for r in results])
            for t in terms]


Row = tuple[str, Sequence[str]]


def _text_table(
    label_width: int, head: Sequence[Row], sections: Sequence[Sequence[Row]],
    title: str = "",
) -> str:
    """The text layout of both tables: between double rules, the title
    centered, the head rows, and each section of rows under a rule; then
    the star legend. Labels are left-aligned in label_width; each column
    of cells is right-aligned, two wider than its widest cell."""
    rows = [*head, *(row for section in sections for row in section)]
    columns = zip(*(cells for _, cells in rows))
    cell_widths = [2 + max(map(len, column)) for column in columns]
    total = label_width + sum(cell_widths)

    def line(label: str, cells: Sequence[str]) -> str:
        cells = "".join(c.rjust(w) for c, w in zip(cells, cell_widths))
        return (label.ljust(label_width) + cells).rstrip()

    lines = ["=" * total]
    if title:
        lines.append(title.center(total).rstrip())
    lines += [line(*row) for row in head]
    for section in sections:
        lines.append("-" * total)
        lines += [line(*row) for row in section]
    lines += ["=" * total, NOTE_LINE]
    return "\n".join(lines) + "\n"


def regression_table(
    results: Sequence[RegressionResult], model_names: Sequence[str]
) -> str:
    """Multi-column text table of one or more fitted models."""
    # Assemble all cells first so column widths can be computed.
    body: list[Row] = []
    for term, columns in _terms(results, model_names):
        at = list(zip(results, columns))
        body.append((term, [
            "" if i is None
            else f"{r.estimates[i]:.3f}{significance_stars(r.p_values[i])}"
            for r, i in at
        ]))
        body.append(("", [
            "" if i is None else f"({r.standard_errors[i]:.3f})" for r, i in at
        ]))
    diag = [
        (label, [fmt.format(getattr(r, name), stars=significance_stars(r.f_p_value))
                 for r in results])
        for label, name, fmt in DIAGNOSTICS if fmt
    ]

    label_width = max(map(len, [*model_names, *(label for label, _ in body + diag)]))
    head = [("", model_names), ("", [f"({j + 1})" for j in range(len(results))])]
    title = f"Dependent variable: {DEPENDENT_LABEL}"
    return _text_table(label_width, head, [body, diag], title)


def regression_table_delimited(
    results: Sequence[RegressionResult],
    model_names: Sequence[str],
) -> tuple[list[str], list[list[str]]]:
    """CSV mirror of the table, as its header and rows:
    term,statistic,<model per column>."""
    statistics = (
        ("estimate", lambda r, i: repr(float(r.estimates[i]))),
        ("std_error", lambda r, i: repr(float(r.standard_errors[i]))),
        ("p_value", lambda r, i: repr(float(r.p_values[i]))),
        ("stars", lambda r, i: significance_stars(r.p_values[i])),
    )
    rows = [
        [term, statistic, *("" if i is None else pick(r, i)
                            for r, i in zip(results, columns))]
        for term, columns in _terms(results, model_names)
        for statistic, pick in statistics
    ]
    rows += [
        [label, "value", *(repr(getattr(r, name)) for r in results)]
        for label, name, _ in DIAGNOSTICS
    ]
    return ["term", "statistic", *model_names], rows


def evaluation_table(evaluations: Sequence[ModelEvaluation]) -> str:
    """Text table of per-model RMSE with GW p-values in parentheses."""
    label_width = max(len(e.model) for e in evaluations) + 2
    rows = []
    for entry in evaluations:
        stars = significance_stars(entry.gw.p_value) if entry.gw else ""
        p = "(--)" if entry.gw is None else f"({entry.gw.p_value:.2f})"
        rows += [(entry.model.upper(), [f"{entry.rmse:.4f}{stars}"]), ("", [p])]
    return _text_table(label_width, [("", ["RMSE"])], [rows])


def evaluation_table_delimited(
    evaluations: Sequence[ModelEvaluation],
) -> tuple[list[str], list[list[str]]]:
    """CSV mirror of the evaluation table, as its header and rows."""
    rows = []
    for entry in evaluations:
        gw = entry.gw
        tests = [""] * 5 if gw is None else [
            repr(gw.statistic), str(gw.df), repr(gw.p_value), gw.variant,
            significance_stars(gw.p_value),
        ]
        rows.append([entry.model, repr(entry.rmse), *tests])
    return EVALUATION_HEADER, rows
