"""Ordinary least squares with classical inference diagnostics.

Built directly on a column-pivoted QR factorization so rank problems
fail loudly with the names of the offending columns instead of
producing a silently unstable solve.

The work is split in two steps. solve_ols is the core: the finiteness
and rank checks and the coefficients. fit_ols adds the inference step
on top of it (covariance, t and F tail probabilities, R-squared).
The fit command and regression.csv use both steps; the walk-forward
backtest needs only coefficients and calls solve_ols alone, once per
rolling window.

The core calls the LAPACK routines geqp3, orgqr and trtrs directly,
exactly as scipy.linalg.qr(mode="economic", pivoting=True) and
solve_triangular call them: the same workspace sizes, the pivots made
0-based, and the triangular solve done as the transposed system on
R.T. So the coefficients, R and the pivot are bit for bit those of the
public scipy functions, without their per-call argument validation,
array conversion and workspace queries. The routines are looked up
once, and each workspace size once per design shape.

They come from scipy's LAPACK extension, scipy.linalg._flapack, loaded
from its file on first use: the scipy.linalg package would add ≈0.2 s
and ≈300 modules (its array-API layer). So importing this module, or a
command that fits nothing, loads no scipy module.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib.machinery import PathFinder
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError, SingularDesignError

# Relative pivot-magnitude tolerance below which a column counts as
# linearly dependent on the ones before it.
RANK_TOLERANCE = 1e-10

STAR_THRESHOLDS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


def significance_stars(p_value: float) -> str:
    """Star tier for a p-value: * p<0.1, ** p<0.05, *** p<0.01."""
    if np.isnan(p_value):
        return ""
    for threshold, stars in STAR_THRESHOLDS:
        if p_value < threshold:
            return stars
    return ""


@dataclass(frozen=True)
class RegressionResult:
    """Coefficients with full inferential diagnostics.

    Arrays are aligned with names. F statistic tests all non-intercept
    coefficients jointly and is NaN for an intercept-only design.
    """

    names: tuple[str, ...]
    estimates: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adjusted_r_squared: float
    residual_std_error: float
    f_statistic: float
    f_p_value: float
    n_obs: int
    df_residual: int
    robust: bool
    residuals: np.ndarray = field(repr=False)

    @property
    def stars(self) -> tuple[str, ...]:
        return tuple(significance_stars(p) for p in self.p_values)

    def coefficient(self, name: str) -> float:
        try:
            return float(self.estimates[self.names.index(name)])
        except ValueError:
            raise DataError(f"no coefficient named {name!r}; have {self.names}")


class Solution(NamedTuple):
    """Least-squares coefficients with the pivoted R factor behind them
    (X[:, pivot] = Q R)."""

    beta: np.ndarray
    r: np.ndarray
    pivot: np.ndarray


@cache
def _routines():
    """The float64 LAPACK routines geqp3, orgqr and trtrs."""
    name, scipy = "scipy.linalg._flapack", importlib.util.find_spec("scipy")
    directory = str(Path(scipy.origin).with_name("linalg"))
    spec = PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"no module {name} in {directory}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgeqp3, flapack.dorgqr, flapack.dtrtrs


@lru_cache(maxsize=64)
def _workspace(n: int, k: int) -> tuple[int, int, np.ndarray]:
    """Optimal geqp3 and orgqr workspace sizes for an n x k design, as
    scipy queries them (they depend on the shape alone), and the mask
    of the entries below the diagonal of a k x k matrix."""
    geqp3, orgqr, _ = _routines()
    probe = np.zeros((n, k), order="F")
    geqp3_lwork = int(geqp3(probe, lwork=-1)[-2][0])
    orgqr_lwork = int(orgqr(probe, np.zeros(k), lwork=-1)[-2][0])
    below = np.tri(k, k, -1, dtype=bool)
    below.flags.writeable = False
    return geqp3_lwork, orgqr_lwork, below


def _check(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal {routine}"
        )


def solve_ols(y: np.ndarray, X: np.ndarray, names: Sequence[str]) -> Solution:
    """Coefficients of the least-squares fit of y on the columns of X.

    y and X are float64 arrays of matching, already validated shapes
    with more rows than columns; names label the columns. Raises
    DataError for non-finite values and SingularDesignError, naming the
    dependent columns, when a column is (numerically) a linear
    combination of the others.
    """
    if not np.isfinite(y).all() or not np.isfinite(X).all():
        raise DataError("design and response must be finite")
    geqp3, orgqr, trtrs = _routines()
    n, k = X.shape
    geqp3_lwork, orgqr_lwork, below = _workspace(n, k)
    qr, jpvt, tau, _, info = geqp3(X, lwork=geqp3_lwork)
    _check("geqp3", info)
    pivot = jpvt - 1  # LAPACK pivots are 1-based
    # np.triu(qr[:k]) as a C-ordered copy; orgqr overwrites qr with Q.
    R = np.where(below, 0.0, qr[:k])
    diag = np.abs(R.diagonal())
    if diag[0] == 0.0:
        raise SingularDesignError("design matrix is zero", list(names))
    rank = np.count_nonzero(diag > RANK_TOLERANCE * diag[0])
    if rank < k:
        dependent = sorted(names[j] for j in pivot[rank:])
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} of {k}); dependent columns",
            dependent,
        )
    Q, _, info = orgqr(qr, tau, lwork=orgqr_lwork, overwrite_a=1)
    _check("orgqr", info)
    # R x = Q'y solved as solve_triangular solves it for a C-ordered R:
    # the transposed system on the Fortran-ordered R.T. Every diagonal
    # entry is nonzero after the rank check, so info is never positive.
    x, info = trtrs(R.T, Q.T @ y, lower=1, trans=1, overwrite_b=1)
    _check("trtrs", info)
    beta = np.empty(k)
    beta[pivot] = x
    return Solution(beta, R, pivot)


def fit_ols(
    y: Sequence[float] | np.ndarray,
    X: Sequence[Sequence[float]] | np.ndarray,
    names: Sequence[str] | None = None,
    *,
    robust: bool = False,
) -> RegressionResult:
    """Least-squares fit of y on the columns of X.

    X must already contain its intercept column; R-squared and the F
    statistic assume one is present. Standard errors are classical
    homoskedastic by default; robust=True switches to the HC1
    heteroskedasticity-consistent estimator.

    Raises SingularDesignError when a column is (numerically) a linear
    combination of the others, DataError when observations do not
    exceed coefficients, and NumericError, naming the coefficients,
    when an HC1 variance rounds below zero.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1:
        raise DataError(f"y must be 1-dimensional, got shape {y.shape}")
    if X.ndim != 2:
        raise DataError(f"X must be 2-dimensional, got shape {X.shape}")
    n, k = X.shape
    if n != y.shape[0]:
        raise DataError(f"X has {n} rows but y has {y.shape[0]}")
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    else:
        names = tuple(names)
        if len(names) != k:
            raise DataError(f"{len(names)} names for {k} columns")
    if n <= k:
        raise DataError(
            f"need more observations than coefficients, got n={n}, k={k}"
        )
    return _inference(y, X, names, solve_ols(y, X, names), robust)


def _inference(
    y: np.ndarray,
    X: np.ndarray,
    names: tuple[str, ...],
    solution: Solution,
    robust: bool,
) -> RegressionResult:
    """fit_ols's diagnostics around a solved fit."""
    from scipy import special

    beta, R, pivot = solution
    n, k = X.shape
    residuals = y - X @ beta
    df_residual = n - k
    ssr = float(residuals @ residuals)
    sigma2 = ssr / df_residual

    # (X'X)^{-1} from the QR factors, undoing the column pivot. R^{-1} is
    # solved as solve_triangular solves it for a C-ordered R (solve_ols).
    *_, trtrs = _routines()
    r_inv = trtrs(R.T, np.eye(k), lower=1, trans=1)[0]
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(pivot, pivot)] = r_inv @ r_inv.T

    if robust:
        # HC1: small-sample scaled sandwich estimator.
        meat = (X * residuals[:, None] ** 2).T @ X
        cov = xtx_inv @ meat @ xtx_inv * (n / df_residual)
    else:
        cov = sigma2 * xtx_inv
    # Only HC1 of a nearly dependent design can round a variance below 0.
    negative = [names[j] for j in np.flatnonzero(np.diag(cov) < 0.0)]
    if negative:
        raise NumericError(f"HC1 variance rounds below zero: {', '.join(negative)}")
    std_errors = np.sqrt(np.diag(cov))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = beta / std_errors
    p_values = 2.0 * special.stdtr(df_residual, -np.abs(t_stats))

    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / df_residual
    residual_std_error = float(np.sqrt(sigma2))

    if k > 1 and r_squared < 1.0:
        f_stat = (r_squared / (k - 1)) / ((1.0 - r_squared) / df_residual)
        f_p = float(special.fdtrc(k - 1, df_residual, f_stat))
    elif k > 1:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat, f_p = float("nan"), float("nan")

    return RegressionResult(
        names=names,
        estimates=beta,
        standard_errors=std_errors,
        t_statistics=t_stats,
        p_values=p_values,
        r_squared=float(r_squared),
        adjusted_r_squared=float(adjusted),
        residual_std_error=residual_std_error,
        f_statistic=float(f_stat),
        f_p_value=f_p,
        n_obs=n,
        df_residual=df_residual,
        robust=robust,
        residuals=residuals,
    )
