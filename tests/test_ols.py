"""Least-squares fitting against a high-precision normal-equations oracle."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

import newscast

from newscast import (
    DataError,
    NewscastError,
    NumericError,
    SingularDesignError,
    fit_ols,
    significance_stars,
)
from newscast.ols import RANK_TOLERANCE, solve_ols

# Fixed 10x3 fixture (intercept, x1, x2); every value is dyadic so the
# float64 design is exact. Expected values were computed independently
# by solving the normal equations in 50-digit arithmetic, with p-values
# from the regularized incomplete beta function.
X1 = [0.5, 1.25, -0.75, 2.0, 0.25, -1.5, 1.0, 0.75, -0.25, 1.75]
X2 = [2.0, -1.0, 0.5, 1.5, -0.5, 0.25, -2.0, 1.0, 0.75, -1.25]
Y = [1.0, 2.5, -0.5, 3.25, 0.75, -2.0, 1.5, 2.25, 0.25, 1.0]

ORACLE = {
    "beta": (0.3247223411489158, 1.2953509456770846, 0.2208174881003350),
    "se": (0.2478531058135555, 0.2148416330567119, 0.1842796999650010),
    "t": (1.3101402949260772, 6.0293292656882283, 1.1982735382262577),
    "p": (0.2315003925826960, 0.0005266549714714225, 0.2698015688082678),
    "r2": 0.8385524037982987,
    "adj_r2": 0.7924245191692412,
    "rse": 0.6959474036197734,
    "f": 18.178861019567898,
    "f_p": 0.0016908712549039394,
    "hc1": (0.1833813367925585, 0.1935386203354088, 0.1714839185228499),
}


def fixture_design():
    X = np.column_stack([np.ones(10), X1, X2])
    return np.asarray(Y), X, ("const", "x1", "x2")


class TestAgainstOracle:
    def test_estimates_and_classical_inference(self):
        y, X, names = fixture_design()
        res = fit_ols(y, X, names)
        assert res.names == names
        np.testing.assert_allclose(res.estimates, ORACLE["beta"], rtol=1e-12)
        np.testing.assert_allclose(res.standard_errors, ORACLE["se"], rtol=1e-12)
        np.testing.assert_allclose(res.t_statistics, ORACLE["t"], rtol=1e-12)
        np.testing.assert_allclose(res.p_values, ORACLE["p"], rtol=1e-9)
        assert res.r_squared == pytest.approx(ORACLE["r2"], rel=1e-13)
        assert res.adjusted_r_squared == pytest.approx(ORACLE["adj_r2"], rel=1e-13)
        assert res.residual_std_error == pytest.approx(ORACLE["rse"], rel=1e-13)
        assert res.f_statistic == pytest.approx(ORACLE["f"], rel=1e-12)
        assert res.f_p_value == pytest.approx(ORACLE["f_p"], rel=1e-9)
        assert res.n_obs == 10
        assert res.df_residual == 7
        assert res.robust is False

    def test_hc1_standard_errors(self):
        y, X, names = fixture_design()
        res = fit_ols(y, X, names, robust=True)
        np.testing.assert_allclose(res.standard_errors, ORACLE["hc1"], rtol=1e-12)
        assert res.robust is True
        # Point estimates do not depend on the covariance estimator.
        plain = fit_ols(y, X, names)
        np.testing.assert_array_equal(res.estimates, plain.estimates)
        assert res.r_squared == plain.r_squared

    def test_hc1_of_nearly_dependent_designs_is_finite_or_refused(self):
        # [1, x, x + 1e-8 noise] passes the rank test, and its HC1
        # sandwich often rounds a variance below zero.
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.normal(size=40)
            X = np.column_stack([np.ones(40), x, x + 1e-8 * rng.normal(size=40)])
            try:
                res = fit_ols(rng.normal(size=40), X, robust=True)
            except NumericError:
                continue
            assert np.isfinite(res.standard_errors).all()

    def test_oracle_stars(self):
        y, X, names = fixture_design()
        res = fit_ols(y, X, names)
        assert tuple(map(significance_stars, res.p_values)) == ("", "***", "")


class TestExactFit:
    def test_noiseless_recovery(self):
        x = np.arange(12, dtype=float)
        X = np.column_stack([np.ones(12), x])
        y = 2.0 + 3.0 * x
        res = fit_ols(y, X)
        np.testing.assert_allclose(res.estimates, [2.0, 3.0], atol=1e-12)
        assert res.r_squared == pytest.approx(1.0)
        assert math.isinf(res.f_statistic)
        assert res.f_p_value == 0.0

    def test_constant_response(self):
        # The total sum of squares is 0: R-squared is 1, not 0/0. The
        # residuals are exactly 0, and a zero variance is no error.
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        res = fit_ols(np.full(6, 3.0), X)
        assert (res.r_squared, res.adjusted_r_squared) == (1.0, 1.0)
        assert math.isinf(res.f_statistic) and res.f_p_value == 0.0
        assert res.standard_errors.tolist() == [0.0, 0.0]

    def test_residual_orthogonality(self, rng):
        n = 40
        X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
        y = rng.normal(size=n)
        res = fit_ols(y, X)
        np.testing.assert_allclose(X.T @ res.residuals, np.zeros(3), atol=1e-10)
        # With an intercept, residuals sum to nothing and fitted + resid = y.
        np.testing.assert_allclose(X @ res.estimates + res.residuals, y, atol=1e-12)


class TestInvariances:
    def test_r_squared_under_regressor_rescaling(self, rng):
        n = 30
        x = rng.normal(size=n)
        y = 1.0 + 2.0 * x + rng.normal(scale=0.5, size=n)
        a = fit_ols(y, np.column_stack([np.ones(n), x]))
        b = fit_ols(y, np.column_stack([np.ones(n), 1000.0 * x]))
        assert b.r_squared == pytest.approx(a.r_squared, rel=1e-12)
        assert b.estimates[1] == pytest.approx(a.estimates[1] / 1000.0, rel=1e-10)
        assert b.t_statistics[1] == pytest.approx(a.t_statistics[1], rel=1e-10)

    def test_t_stats_under_y_rescaling(self, rng):
        n = 30
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        a = fit_ols(y, X)
        b = fit_ols(7.0 * y, X)
        np.testing.assert_allclose(b.t_statistics, a.t_statistics, rtol=1e-10)
        np.testing.assert_allclose(b.p_values, a.p_values, rtol=1e-10)
        assert b.r_squared == pytest.approx(a.r_squared, rel=1e-12)


class TestRankDeficiency:
    def test_duplicate_column_named(self):
        n = 15
        x = np.linspace(0.0, 1.0, n)
        X = np.column_stack([np.ones(n), x, x])
        with pytest.raises(SingularDesignError) as err:
            fit_ols(np.ones(n), X, ("const", "a", "b"))
        assert len(err.value.columns) == 1
        assert set(err.value.columns) <= {"a", "b"}
        assert err.value.columns[0] in str(err.value)

    def test_linear_combination_detected(self, rng):
        n = 20
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        X = np.column_stack([np.ones(n), a, b, 0.5 * a - 2.0 * b])
        with pytest.raises(SingularDesignError):
            fit_ols(rng.normal(size=n), X, ("const", "a", "b", "combo"))

    def test_all_zero_design(self):
        with pytest.raises(SingularDesignError):
            fit_ols(np.ones(5), np.zeros((5, 2)), ("const", "x"))

    def test_pivot_ratio_between_tolerances_solves(self, monkeypatch):
        # The smallest |R_jj|/|R_00| of this design is 1.08e-8: it solves
        # at RANK_TOLERANCE (1e-10), and a tolerance of 1e-6 refuses it.
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal((2, 40))
        X = np.column_stack([np.ones(40), x, x + 1e-8 * z])
        y = rng.standard_normal(40)
        names = ("const", "x", "x + 1e-8 z")
        diag = np.abs(solve_ols(y, X, names).r.diagonal())
        assert 1e-10 < diag.min() / diag[0] < 1e-6
        monkeypatch.setattr("newscast.ols.RANK_TOLERANCE", 1e-6)
        with pytest.raises(SingularDesignError, match="rank 2 of 3"):
            solve_ols(y, X, names)

    def test_pivot_ratio_at_the_tolerance_is_dependent(self):
        # Axis-aligned columns factor exactly, so |R_11|/|R_00| is
        # RANK_TOLERANCE itself here, and one ulp above it there.
        X = np.zeros((4, 2))
        X[0, 0], X[1, 1] = 1.0, RANK_TOLERANCE
        with pytest.raises(SingularDesignError, match="rank 1 of 2.*columns: b$"):
            solve_ols(np.ones(4), X, ("a", "b"))
        X[1, 1] = np.nextafter(RANK_TOLERANCE, 1.0)
        assert solve_ols(np.ones(4), X, ("a", "b")).beta[1] == 1.0 / X[1, 1]

    def test_nearly_collinear_but_full_rank_passes(self, rng):
        n = 50
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x, x + 1e-4 * rng.normal(size=n)])
        res = fit_ols(rng.normal(size=n), X)
        assert np.all(np.isfinite(res.estimates))


class TestSolveCore:
    """solve_ols is fit_ols without the inference step."""

    def test_beta_is_fit_ols_estimates(self, rng):
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        y = X @ [0.1, 0.5, -0.2, 0.0] + rng.normal(size=40)
        beta = solve_ols(y, X, ("const", "a", "b", "c")).beta
        for robust in (False, True):
            assert beta.tobytes() == fit_ols(y, X, robust=robust).estimates.tobytes()

    @pytest.mark.parametrize("X", [
        np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0)]),
        np.zeros((6, 3)),
        np.column_stack([np.ones(6), np.arange(6.0), [0, 1, 0, 1, np.inf, 1]]),
    ])
    def test_same_errors_as_fit_ols(self, X):
        names = ("const", "a", "b")
        with pytest.raises(NewscastError) as solved:
            solve_ols(np.ones(6), X, names)
        with pytest.raises(NewscastError) as fitted:
            fit_ols(np.ones(6), X, names)
        assert type(solved.value) is type(fitted.value)
        assert str(solved.value) == str(fitted.value)


def scipy_solve(y, X, names):
    """The solve core written on the public scipy functions: the oracle
    for solve_ols, which calls their LAPACK routines directly."""
    if not np.isfinite(y).all() or not np.isfinite(X).all():
        raise DataError("design and response must be finite")
    k = X.shape[1]
    Q, R, pivot = linalg.qr(X, mode="economic", pivoting=True, check_finite=False)
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
    beta = np.empty(k)
    beta[pivot] = linalg.solve_triangular(R, Q.T @ y)
    return beta, R, pivot


def solved(solve, y, X, names):
    """beta, R and the pivot as bytes with R's layout and the pivot's
    dtype, or the error's type and text."""
    try:
        beta, R, pivot = solve(y, X, names)
    except NewscastError as exc:
        return type(exc), str(exc)
    return (
        beta.tobytes(), R.tobytes(), R.flags.c_contiguous,
        pivot.tobytes(), pivot.dtype,
    )


@st.composite
def designs(draw):
    """y and an n x k design with n in k+1..200, laid out C-ordered,
    Fortran-ordered or as a row slice of a taller array. Columns may be
    small integers (exact dependence is common), copies or near copies
    of an earlier column, zero, or hold a non-finite value."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.integers(0, 5))
    full = rng.normal(size=(n + offset, k)) * 10.0 ** draw(st.integers(-3, 3))
    y = rng.normal(size=n + offset)
    for j in range(k):
        kind = draw(st.sampled_from(
            ["normal"] * 5 + ["integers", "ones", "copy", "near", "near", "zero"]
        ))
        if kind == "integers":
            full[:, j] = rng.integers(-2, 3, size=n + offset)
        elif kind == "ones":
            full[:, j] = 1.0
        elif kind == "zero":
            full[:, j] = 0.0
        elif kind in ("copy", "near") and j > 0:
            source = draw(st.integers(0, j - 1))
            scale = draw(st.sampled_from([1.0, -2.5, 1e-3]))
            full[:, j] = scale * full[:, source]
            if kind == "near":
                eps = draw(st.sampled_from([1e-15, 1e-12, 1e-10, 1e-8, 1e-4]))
                full[:, j] += eps * rng.normal(size=n + offset)
    if draw(st.integers(0, 19)) == 0:
        full[draw(st.integers(0, n + offset - 1)), draw(st.integers(0, k - 1))] = (
            draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        )
    layout = draw(st.sampled_from(["C", "F", "rows"]))
    if layout == "rows":
        X, y = full[offset : offset + n], y[offset : offset + n]
    else:
        X, y = np.array(full[:n], order=layout), y[:n]
    return y, X, tuple(f"x{j}" for j in range(k))


@settings(max_examples=400, deadline=None)
@given(designs())
def test_solve_matches_scipy_bitwise(case):
    y, X, names = case
    assert solved(solve_ols, y, X, names) == solved(scipy_solve, y, X, names)


@settings(max_examples=300, deadline=None)
@given(designs(), st.booleans())
def test_standard_errors_match_scipy_bitwise(case, robust):
    # (X'X)^{-1} from the public solve_triangular, undoing the pivot.
    y, X, names = case
    try:
        beta, R, pivot = solve_ols(y, X, names)
    except NewscastError:
        return
    n, k = X.shape
    r_inv = linalg.solve_triangular(R, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(pivot, pivot)] = r_inv @ r_inv.T
    residuals = y - X @ beta
    if robust:
        meat = (X * residuals[:, None] ** 2).T @ X
        cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
    else:
        cov = float(residuals @ residuals) / (n - k) * xtx_inv
    # HC1 variances of a nearly dependent design can round below zero.
    negative = [names[j] for j in np.flatnonzero(np.diag(cov) < 0.0)]
    if negative:
        with pytest.raises(NumericError, match=f"below zero: {', '.join(negative)}$"):
            fit_ols(y, X, names, robust=robust)
        return
    fit = fit_ols(y, X, names, robust=robust)
    assert fit.standard_errors.tobytes() == np.sqrt(np.diag(cov)).tobytes()


class TestEdgesAndValidation:
    def test_intercept_only_f_is_nan(self):
        res = fit_ols([1.0, 2.0, 3.0, 4.0], np.ones((4, 1)), ("const",))
        assert res.estimates[0] == pytest.approx(2.5)
        assert math.isnan(res.f_statistic)
        assert math.isnan(res.f_p_value)

    def test_needs_more_rows_than_columns(self):
        X = np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2])
        with pytest.raises(DataError):
            fit_ols(np.ones(3), X)

    def test_shape_mismatches(self):
        with pytest.raises(DataError):
            fit_ols(np.ones(4), np.ones((5, 2)))
        with pytest.raises(DataError):
            fit_ols(np.ones((4, 1)), np.ones((4, 2)))
        with pytest.raises(DataError):
            fit_ols(np.ones(4), np.ones(4))

    def test_non_finite_rejected(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(DataError):
            fit_ols(y, X)
        X[2, 1] = np.inf
        with pytest.raises(DataError):
            fit_ols(np.ones(5), X)

    def test_names_length_checked(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DataError):
            fit_ols(np.ones(5), X, ("const",))


class TestSignificanceStars:
    # The tiers of report.significance_stars, as newscast exports it.
    # Thresholds are strict: a p-value exactly at a cut does not earn
    # the tighter tier.
    CASES = [
        (0.0, "***"),
        (0.009, "***"),
        (0.01, "**"),
        (0.049, "**"),
        (0.05, "*"),
        (0.099, "*"),
        (0.1, ""),
        (0.5, ""),
        (1.0, ""),
        (float("nan"), ""),
    ]

    @pytest.mark.parametrize("p,expected", CASES)
    def test_boundaries(self, p, expected):
        assert significance_stars(p) == expected


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(newscast.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


#: The toy commands, in an order that gives each the files it reads;
#: "" stands for importing newscast.cli alone.
COMMANDS = ("", "score", "build-index", "backtest", "fit", "nowcast", "evaluate")


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """For each of COMMANDS, the modules a fresh interpreter has loaded
    after importing newscast.cli and running it on the toy config, and
    the names of the files then in the output directory."""
    out = tmp_path_factory.mktemp("commands") / "out"
    code = (
        "import contextlib, io, json, sys\n"
        "from newscast.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['--config', 'toy', '--out', sys.argv[1], c])\n"
        "             for c in sys.argv[2:]]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    found = {}
    for command in COMMANDS:
        commands = [command] if command else []
        result = subprocess.run(
            [sys.executable, "-c", code, str(out), *commands], env=package_env(),
            capture_output=True, text=True, check=True,
        )
        codes, modules = json.loads(result.stdout)
        assert codes == [0] * len(commands), command
        found[command] = modules, sorted(p.name for p in out.glob("*"))
    return found


def scipy_modules(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


class TestLapackLoader:
    @pytest.mark.parametrize("first", ["loader", "scipy.linalg"])
    def test_routines_are_the_ones_scipy_linalg_returns(self, first):
        code = (
            "import sys, numpy as np\n"
            "from newscast.ols import _routines\n"
            "loaded = _routines() if sys.argv[1] == 'loader' else None\n"
            "from scipy.linalg import lapack\n"
            "loaded = loaded or _routines()\n"
            "expected = lapack.get_lapack_funcs(('geqp3', 'orgqr', 'trtrs'),\n"
            "                                   (np.empty(0),))\n"
            "print([a is b for a, b in zip(loaded, expected, strict=True)])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, first], env=package_env(),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[True, True, True]"


#: The scipy.special modules the tails load: the ufunc extension and the
#: sibling extensions it imports, and not the package.
TAIL_MODULES = [
    "scipy.special._ellip_harm_2",
    "scipy.special._gufuncs",
    "scipy.special._special_ufuncs",
    "scipy.special._ufuncs",
    "scipy.special._ufuncs_cxx",
]

#: A fresh interpreter's tails before and after importing scipy.special,
#: on a grid of degrees of freedom and arguments, as raw bytes.
TAILS_BEFORE_AND_AFTER_SCIPY_SPECIAL = """
import json, sys
import numpy as np
from newscast.ols import tail_ufuncs

def values(stdtr, fdtrc, chdtrc):
    x = np.r_[np.linspace(-40.0, 40.0, 321), 0.0, np.inf, -np.inf, np.nan]
    df = np.arange(1.0, 501.0)[:, None]
    return [
        stdtr(df, x).tobytes().hex(),
        # fdtrc(k - 1, df_residual, F): the fitted models have 1 to 4
        # non-intercept coefficients; chdtrc(1 or 2, GW statistic).
        fdtrc(np.arange(1.0, 5.0)[:, None, None], df, x).tobytes().hex(),
        chdtrc(np.array([1.0, 2.0])[:, None], x).tobytes().hex(),
    ]

before = "scipy.special" in sys.modules
loaded = tail_ufuncs()
standin = "scipy.special" in sys.modules
tails = values(*loaded)
import scipy.special
print(json.dumps({
    "package loaded before": before,
    "package left loaded": standin,
    "same objects": [a is b for a, b in zip(
        loaded, (scipy.special.stdtr, scipy.special.fdtrc, scipy.special.chdtrc)
    )],
    "same bytes": values(scipy.special.stdtr, scipy.special.fdtrc,
                         scipy.special.chdtrc) == tails,
}))
"""


class TestTailLoader:
    """tail_ufuncs loads scipy.special's ufunc extension from its file.
    In process scipy.special is usually imported already, so the file
    path runs only in a fresh interpreter."""

    def test_fresh_interpreter_tails_are_scipy_specials(self):
        result = subprocess.run(
            [sys.executable, "-c", TAILS_BEFORE_AND_AFTER_SCIPY_SPECIAL],
            env=package_env(), capture_output=True, text=True, check=True,
        )
        assert json.loads(result.stdout) == {
            "package loaded before": False,
            "package left loaded": False,
            "same objects": [True, True, True],
            "same bytes": True,
        }

    def test_failed_load_leaves_no_stand_in(self):
        code = (
            "import importlib, sys\n"
            "from newscast.errors import ConfigError\n"
            "from newscast.ols import tail_ufuncs\n"
            "def refuse(name): raise ImportError(name)\n"
            "importlib.import_module = refuse\n"
            "try:\n"
            "    tail_ufuncs()\n"
            "except ConfigError as error:\n"
            "    print(error)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=package_env(),
            capture_output=True, text=True, check=True,
        )
        root = Path(importlib.util.find_spec("scipy").origin).parent
        assert result.stdout == (
            f"cannot load scipy.special._ufuncs (scipy {version('scipy')} in {root}): "
            "scipy.special._ufuncs\n[]\n"
        )


class TestTailProbabilities:
    def test_scipy_is_loaded_only_by_the_commands_that_call_it(self, loaded_modules):
        assert scipy_modules(loaded_modules[""][0]) == []  # newscast.cli alone
        assert scipy_modules(loaded_modules["score"][0]) == []
        assert scipy_modules(loaded_modules["build-index"][0]) == []
        # backtest solves through scipy's LAPACK extension and tests nothing.
        modules, files = loaded_modules["backtest"]
        assert scipy_modules(modules) == ["scipy.linalg._flapack"]
        assert not [f for f in files if f.startswith("evaluation.")]
        # The tails come from scipy.special's ufunc extension and the
        # sibling extensions it imports, never from the scipy.special or
        # scipy.linalg packages.
        for command, linalg_modules in (
            ("fit", ["scipy.linalg._flapack"]),
            ("nowcast", ["scipy.linalg._flapack"]),
            ("evaluate", []),
        ):
            loaded = scipy_modules(loaded_modules[command][0])
            assert [m for m in loaded if m.startswith("scipy.linalg")] == (
                linalg_modules
            ), command
            assert [m for m in loaded if m.startswith("scipy.special")] == (
                TAIL_MODULES
            ), command

    def test_commands_load_neither_openssl_nor_a_scipy_package(self, loaded_modules):
        # The config digest hashes with CPython's own SHA-256, so no
        # command loads OpenSSL; the extensions load under stand-ins, so
        # no scipy package, nor the subprocess its __init__ imports, runs.
        for command, (modules, _) in loaded_modules.items():
            assert "_hashlib" not in modules, command
            if command in ("", "score", "build-index"):
                assert scipy_modules(modules) == [], command
            else:
                assert not {"scipy", "scipy._lib", "subprocess"} & {*modules}, command

    def test_p_values_match_scipy_stats_bitwise(self, rng):
        for robust in (False, True):
            X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
            y = X @ [0.1, 0.5, -0.2, 0.0] + rng.normal(size=30)
            fit = fit_ols(y, X, robust=robust)
            expected = 2.0 * stats.t.sf(np.abs(fit.t_statistics), fit.df_residual)
            assert fit.p_values.tolist() == expected.tolist()
            assert fit.f_p_value == stats.f.sf(fit.f_statistic, 3, fit.df_residual)
