"""Ordinary least squares with classical inference diagnostics.

This module computes numbers only; report turns them into tables.

Built directly on a column-pivoted QR factorization so rank problems
fail loudly with the names of the offending columns instead of
producing a silently unstable solve.

The work is split in two steps. solve_windows is the core: the
finiteness and rank checks and the coefficients, for one or more
windows of rows of one design. fit_ols adds the inference step on top
of solve_ols, the core's one-window case (covariance, t and F tail
probabilities, R-squared). The fit command and regression.csv use both
steps; the walk-forward backtest needs only coefficients and calls the
core once per model, for all its rolling windows.

The core calls the LAPACK routines geqp3, orgqr and trtrs directly,
exactly as scipy.linalg.qr(mode="economic", pivoting=True) and
solve_triangular call them: the same workspace sizes, the pivots made
0-based, and the triangular solve done as the transposed system on
R.T. So the coefficients, R and the pivot are bit for bit those of the
public scipy functions, without their per-call argument validation,
array conversion and workspace queries. The routines are looked up
once; the finiteness check, the workspace sizes and the mask below the
diagonal of R are done once per design, and only the three routines
run per window.

They and the t, F and chi-square tails come from scipy.linalg._flapack
and scipy.special._ufuncs, loaded from their files on first use, as
either package adds 0.2–0.3 s and ≈300 modules. So import, score and
build-index load no scipy, backtest _flapack, evaluate the tails, and
fit and nowcast both. While an extension loads, path-only stand-ins
take the place of the scipy, scipy._lib and scipy.linalg or
scipy.special packages that are not loaded, so no scipy package code
runs: the tails' sibling extensions import scipy._cyutility and
scipy._lib._ccallback, and the real scipy/__init__ would import
subprocess and sysconfig, about 17 ms of the tails' first load. A
thread that imports scipy while they are in place would keep a stand-in
for it, so a program that uses newscast from several threads calls
fit_ols once, which loads both extensions, before it starts them.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import PathFinder
from pathlib import Path
from types import ModuleType
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, SingularDesignError

# Relative pivot-magnitude tolerance below which a column counts as
# linearly dependent on the ones before it.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RegressionResult:
    """A fit's coefficients with their inferential diagnostics, as
    numbers: report renders them.

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


class Solution(NamedTuple):
    """Least-squares coefficients with the pivoted R factor behind them
    (X[:, pivot] = Q R)."""

    beta: np.ndarray
    r: np.ndarray
    pivot: np.ndarray


def _from_file(package: str, module: str, *attributes: str) -> tuple:
    """The attributes of scipy.<package>.<module>, imported from its file
    unless loaded already. Meanwhile a stand-in that holds only its
    directory replaces each of scipy, scipy._lib and scipy.<package>
    that is not loaded, so the import finds the module, and the module
    its siblings, without running the packages. This relies on scipy's
    private file layout: a ConfigError names the module and the scipy
    version when the file is not there or does not load, and names
    scipy when there is none. The stand-ins are in sys.modules only
    while the module loads, so the first call must not run while
    another thread imports scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ConfigError(
            f"cannot load scipy.{package}.{module}: no scipy package found"
        )
    root = Path(spec.origin).parent
    name, directory = f"scipy.{package}.{module}", root / package
    if PathFinder.find_spec(name, [str(directory)]) is None:
        raise _versioned(
            f"unsupported scipy install: no module {name} in {directory}"
        )
    standins = {}
    for parent, path in (
        ("scipy", root), ("scipy._lib", root / "_lib"), (f"scipy.{package}", directory)
    ):
        if parent not in sys.modules:
            standins[parent] = sys.modules[parent] = ModuleType(parent)
            standins[parent].__path__ = [str(path)]
    try:
        loaded = importlib.import_module(name)
        return tuple(getattr(loaded, a) for a in attributes)
    except (ImportError, AttributeError) as error:
        raise _versioned(f"{name} in {directory} does not load: {error}") from None
    finally:
        for parent, standin in standins.items():
            if sys.modules.get(parent) is standin:
                del sys.modules[parent]


def _versioned(problem: str) -> ConfigError:
    from importlib.metadata import version

    return ConfigError(f"{problem} (scipy {version('scipy')})")


@cache
def _routines():
    """The float64 LAPACK routines geqp3, orgqr and trtrs."""
    return _from_file("linalg", "_flapack", "dgeqp3", "dorgqr", "dtrtrs")


@cache
def tail_ufuncs():
    """The t, F and chi-square tail ufuncs stdtr, fdtrc and chdtrc."""
    return _from_file("special", "_ufuncs", "stdtr", "fdtrc", "chdtrc")


def _check(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal {routine}"
        )


def solve_windows(
    y: np.ndarray, X: np.ndarray, names: Sequence[str], n: int, starts: Iterable[int]
) -> list[Solution]:
    """The least-squares fit of y on the columns of X over rows i to
    i + n - 1, for each i of starts.

    y and X are float64 arrays of matching, already validated shapes,
    and each window holds n rows, more than X has columns; names label
    the columns. Raises DataError when y or X holds a non-finite value
    anywhere, and SingularDesignError, naming the dependent columns, at
    the first window where a column is (numerically) a linear
    combination of the others.
    """
    if not np.isfinite(y).all() or not np.isfinite(X).all():
        raise DataError("design and response must be finite")
    geqp3, orgqr, trtrs = _routines()
    k = X.shape[1]
    # The optimal workspace sizes, queried as scipy queries them (they
    # depend on the shape alone), and the mask below R's diagonal.
    probe = np.zeros((n, k), order="F")
    geqp3_lwork = int(geqp3(probe, lwork=-1)[-2][0])
    orgqr_lwork = int(orgqr(probe, np.zeros(k), lwork=-1)[-2][0])
    below = np.tri(k, k, -1, dtype=bool)
    solutions = []
    for i in starts:
        qr, jpvt, tau, _, info = geqp3(X[i : i + n], lwork=geqp3_lwork)
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
        # R x = Q'y solved as solve_triangular solves it for a C-ordered
        # R: the transposed system on the Fortran-ordered R.T. Every
        # diagonal entry is nonzero after the rank check, so info is
        # never positive.
        x, info = trtrs(R.T, Q.T @ y[i : i + n], lower=1, trans=1, overwrite_b=1)
        _check("trtrs", info)
        beta = np.empty(k)
        beta[pivot] = x
        solutions.append(Solution(beta, R, pivot))
    return solutions


def solve_ols(y: np.ndarray, X: np.ndarray, names: Sequence[str]) -> Solution:
    """Coefficients of the least-squares fit of y on the columns of X:
    solve_windows of the one window of all rows."""
    return solve_windows(y, X, names, len(y), [0])[0]


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
    beta, R, pivot = solution
    n, k = X.shape
    residuals = y - X @ beta
    df_residual = n - k
    ssr = float(residuals @ residuals)
    sigma2 = ssr / df_residual

    # (X'X)^{-1} from the QR factors, undoing the column pivot. R^{-1} is
    # solved as solve_triangular solves it for a C-ordered R (solve_windows).
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
    stdtr, fdtrc, _ = tail_ufuncs()
    p_values = 2.0 * stdtr(df_residual, -np.abs(t_stats))

    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / df_residual
    residual_std_error = float(np.sqrt(sigma2))

    if k > 1 and r_squared < 1.0:
        f_stat = (r_squared / (k - 1)) / ((1.0 - r_squared) / df_residual)
        f_p = float(fdtrc(k - 1, df_residual, f_stat))
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
