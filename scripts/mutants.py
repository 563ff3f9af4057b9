"""Mutation score of the tier-1 tests: how many of a fixed list of
faults, put into the source one at a time, make the tests fail.

Each mutant is a file, an exact old string and the new string that
replaces it. The list has three parts:

- guards(): every `if ...: raise` in src/newscast with its condition
  set to False, generated from the source, so a new guard joins on its
  own;
- RECORDED: faults that earlier changes checked by hand (CHANGES.md);
- NUMERIC: one mutant per comparison, constant and off-by-one in the
  ols, evaluation, index, timeseries and nowcast modules.

What tier-1 reads (COPIED) is copied to a temporary directory; the
checkout is never written. The copy's tests must pass unmutated. Then
each mutant is applied in turn, and pytest runs one process at a time
with -x, -p no:cacheprovider and PYTHONDONTWRITEBYTECODE=1: first the
test files that import the mutated module, and only if those pass, the
other tier-1 files. A failing run, or one that times out, kills the
mutant.

The script prints each mutant's outcome and the killed/total score. It
exits 1 if a mutant survives that EQUIVALENT does not list, or if one
that EQUIVALENT lists is killed. Run from anywhere, with no options:

    python3 scripts/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/newscast"
#: What tier-1 reads: the package, the tests, the toy data generator,
#: the tracer, the benchmark helpers' tests (whose definitions the
#: dead-definition check reads), the pytest settings, and the README
#: whose examples the tests run.
COPIED = ("src", "tests", "scripts", "benchmarks/bench_trace.py",
          "benchmarks/test_bench_helpers.py", "pyproject.toml", "README.md")
#: The check of this list against the source; every mutant fails it, so
#: it is not copied.
LIST_TEST = "test_mutants.py"
#: Seconds one pytest process may take; a mutant that makes a run hang
#: is killed by the timeout.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


# ----------------------------------------------------------------- guards


def _guard(
    file: str, data: bytes, starts: list[int], node: ast.If, name: str
) -> Mutant:
    """The guard's condition set to False. The old string runs from the
    start of the `if` line through as many body statements as make it
    occur once in the file. ast offsets count bytes, so data is bytes."""

    def at(line: int, col: int) -> int:
        return starts[line - 1] + col

    first = at(node.lineno, 0)
    test = at(node.test.lineno, node.test.col_offset)
    test_end = at(node.test.end_lineno, node.test.end_col_offset)
    for statement in node.body:
        end = at(statement.end_lineno, statement.end_col_offset)
        if data.count(data[first:end]) == 1:
            break
    old = data[first:end].decode()
    new = (data[first:test] + b"False" + data[test_end:end]).decode()
    return Mutant(name, file, old, new)


def guards() -> Iterator[Mutant]:
    """One mutant per `if ...: raise` (an if whose body ends in raise),
    named by module, enclosing definition and condition."""
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        data = path.read_bytes()
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        file = path.relative_to(ROOT).as_posix()

        def visit(node: ast.AST, scope: str) -> Iterator[Mutant]:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, ast.If) and isinstance(child.body[-1], ast.Raise):
                    condition = " ".join(ast.unparse(child.test).split())
                    name = f"guard {scope}: {condition}"
                    yield _guard(file, data, starts, child, name)
                yield from visit(child, inner)

        yield from visit(ast.parse(data), path.stem)


# --------------------------------------------------------------- recorded

TS, IDX, OLS, EV, NOW = (
    f"{PACKAGE}/{m}.py" for m in ("timeseries", "index", "ols", "evaluation", "nowcast")
)
IO, SENT, CLI, CFG = (f"{PACKAGE}/{m}.py" for m in ("io", "sentiment", "cli", "config"))

RECORDED = (
    Mutant("pct_change without errstate", TS,
           '    with np.errstate(over="ignore"):\n        return percent_series(series',
           "    if True:\n        return percent_series(series"),
    Mutant("news_pi level-diff without errstate", IDX,
           '        with np.errstate(over="ignore"):\n            return percent_series',
           "        if True:\n            return percent_series"),
    Mutant("news_pi sign product restored", IDX,
           "np.sign(now) * np.sign(then) < 0.0", "now * then < 0.0"),
    Mutant("main returns 1 for every error", CLI,
           "        return exc.exit_code", "        return 1"),
    Mutant("R^-1 scaled by one ulp", OLS,
           "r_inv = trtrs(R.T, np.eye(k), lower=1, trans=1)[0]",
           "r_inv = trtrs(R.T, np.eye(k), lower=1, trans=1)[0] * (1 + 2**-52)"),
    Mutant("RANK_TOLERANCE 1e-6", OLS,
           "RANK_TOLERANCE = 1e-10", "RANK_TOLERANCE = 1e-6"),
    Mutant("solve on a Fortran copy of R without trans", OLS,
           "x, info = trtrs(R.T, Q.T @ y[i : i + n], lower=1, trans=1, overwrite_b=1)",
           "x, info = trtrs(np.asfortranarray(R), Q.T @ y[i : i + n], overwrite_b=1)"),
    Mutant("stand-in left in sys.modules", OLS,
           "                del sys.modules[parent]", "                pass"),
    Mutant("no stand-in package", OLS,
           "standins[parent] = sys.modules[parent] = ModuleType(parent)",
           "standins[parent] = ModuleType(parent)"),
    Mutant("no stand-ins for scipy and scipy._lib", OLS,
           '("scipy", root), ("scipy._lib", root / "_lib"),', ""),
    Mutant("stand-ins without a scipy package", OLS,
           "    if root is not None:\n        for parent", "    if True:\n        for parent"),
    Mutant("a namespace scipy counts as found", OLS,
           "if spec and spec.origin else None", "if spec else None"),
    Mutant("scipy's version read from the whole path", OLS,
           'distributions(name="scipy", path=[str(root.parent)])',
           'distributions(name="scipy")'),
    Mutant("an extension's ImportError escapes", OLS,
           "except (ImportError, AttributeError) as error:",
           "except AttributeError as error:"),
    Mutant("an extension's AttributeError escapes", OLS,
           "except (ImportError, AttributeError) as error:",
           "except ImportError as error:"),
    Mutant("fdtr in place of fdtrc", OLS,
           '"stdtr", "fdtrc", "chdtrc"', '"stdtr", "fdtr", "chdtrc"'),
    Mutant("unknown spec without where it was given", CFG,
           'raise ConfigError(f"{where}: {error}") from None',
           'raise ConfigError(f"{error}") from None'),
    Mutant("unused import in cli", CLI,
           "import argparse\nimport os\n", "import argparse\nimport json\nimport os\n"),
    Mutant("writer: minimal quoting always", IO,
           'quoting = csv.QUOTE_ALL if "\\r" in held else csv.QUOTE_MINIMAL',
           "quoting = csv.QUOTE_MINIMAL"),
    Mutant("writer: only the first block written", IO,
           "        for b in blocks:\n", "        for b in blocks[:1]:\n"),
    Mutant("writer: only the first block scanned", IO,
           "texts = (c[b] for b in blocks for",
           "texts = (c[b] for b in blocks[:1] for"),
    Mutant("writer: header not scanned", IO,
           "itertools.chain([header], texts)", "itertools.chain(texts)"),
    Mutant("writer: CR not scanned", IO,
           "for c in ',\"\\n\\r' if c in text", "for c in ',\"\\n' if c in text"),
    Mutant("writer: comma not scanned", IO,
           "for c in ',\"\\n\\r' if c in text", "for c in '\"\\n\\r' if c in text"),
    Mutant("reader: CR dropped from _CSV_ONLY", IO,
           "_CSV_ONLY = ('\"', \"\\r\", \"\\0\")", "_CSV_ONLY = ('\"', \"\\0\")"),
    Mutant("reader: no reading on past the block", IO,
           "reader = csv.reader(itertools.chain(block, handle))",
           "reader = csv.reader(block)"),
    Mutant("reader: line numbers of csv rows shifted", IO,
           "ends.append(line + reader.line_num)",
           "ends.append(line + reader.line_num - 1)"),
    Mutant("reader: line numbers of plain rows shifted", IO,
           "np.arange(line + 1, line + 1 + count)", "np.arange(line, line + count)"),
    Mutant("reader: refused float index shifted", IO,
           "refused[len(values)] = True", "refused[len(values) - 1] = True"),
    Mutant("reader: no carry of a model's last month between blocks", IO,
           "previous[at] = [latest.get(name, _NAT), *", "previous[at] = [_NAT, *"),
    Mutant("reader: a repeated month passes the order check", IO,
           'lambda c: c["keys"] == c["previous"]', 'lambda c: c["keys"] != c["keys"]'),
    Mutant("reader: finite check reads the first value column", IO,
           '~np.isfinite(c["values"][:, at - first])',
           '~np.isfinite(c["values"][:, 0])'),
    Mutant("reader: id checked before the date in probability files", IO,
           '"probs": (PROBS_HEADER, [\n        _DATE,',
           '"probs": (PROBS_HEADER, [\n        _ID,\n        _DATE,'),
    Mutant("reader: score converted before the id", IO,
           "        _DATE,\n        _ID,\n        _NUMBER,",
           "        _DATE,\n        _NUMBER,\n        _ID,"),
    Mutant("sum check dropped from the column rule", SENT,
           "return ~in_range | (np.abs(total - 1.0) > PROB_SUM_TOL)",
           "return ~in_range"),
    Mutant("PROB_SUM_TOL 1e-5", SENT, "PROB_SUM_TOL = 1e-6", "PROB_SUM_TOL = 1e-5"),
    Mutant("argmax: an up/down tie goes up", SENT,
           "[(up > down) & (up > neutral),", "[(up >= down) & (up > neutral),"),
    Mutant("baseline: counts not capped", SENT,
           "return np.minimum(counts, min(cap, len(phrases)))", "return counts"),
    Mutant("lexicon phrases not whitespace-normalized", SENT,
           "dict.fromkeys(normalize_whitespace(p).lower() for p in lexicon)",
           "dict.fromkeys(p.lower() for p in lexicon)"),
    Mutant("day cutoff exclusive", IDX,
           "kept = days <= day_cutoff", "kept = days < day_cutoff"),
)

# ---------------------------------------------------------------- numeric

NUMERIC = (
    # ols
    Mutant("ols: pivots left 1-based", OLS, "pivot = jpvt - 1", "pivot = jpvt"),
    Mutant("ols: window response one row late", OLS,
           "Q.T @ y[i : i + n]", "Q.T @ y[i + 1 : i + n + 1]"),
    Mutant("ols: solve_ols drops the last row", OLS,
           "solve_windows(y, X, names, len(y), [0])",
           "solve_windows(y, X, names, len(y) - 1, [0])"),
    Mutant("ols: pivot at the tolerance counts", OLS,
           "diag > RANK_TOLERANCE * diag[0]", "diag >= RANK_TOLERANCE * diag[0]"),
    Mutant("ols: rank one short passes", OLS, "if rank < k:", "if rank < k - 1:"),
    Mutant("ols: n == k fitted", OLS, "    if n <= k:", "    if n < k:"),
    Mutant("ols: residual df off by one", OLS,
           "df_residual = n - k\n", "df_residual = n - k + 1\n"),
    Mutant("ols: one-sided t p-values", OLS,
           "p_values = 2.0 * stdtr(", "p_values = 1.0 * stdtr("),
    Mutant("ols: zero total sum of squares divided", OLS,
           "if sst > 0.0 else 1.0", "if sst >= 0.0 else 1.0"),
    Mutant("ols: adjusted R-squared with n", OLS,
           "* (n - 1) / df_residual", "* n / df_residual"),
    Mutant("ols: F statistic at R-squared 1", OLS,
           "if k > 1 and r_squared < 1.0:", "if k > 1 and r_squared <= 1.0:"),
    Mutant("ols: perfect fit's F for k == 2 only", OLS,
           "    elif k > 1:\n", "    elif k > 2:\n"),
    Mutant("ols: F numerator df k", OLS,
           "(r_squared / (k - 1))", "(r_squared / k)"),
    Mutant("ols: HC1 scale (n - 1) / df", OLS,
           "* (n / df_residual)", "* ((n - 1) / df_residual)"),
    Mutant("ols: zero HC1 variance refused", OLS,
           "np.diag(cov) < 0.0", "np.diag(cov) <= 0.0"),
    # evaluation
    Mutant("evaluation: unconditional minimum 7", EV,
           'minimum = 8 if variant == "unconditional" else 9',
           'minimum = 7 if variant == "unconditional" else 9'),
    Mutant("evaluation: conditional minimum 8", EV,
           'minimum = 8 if variant == "unconditional" else 9',
           'minimum = 8 if variant == "unconditional" else 8'),
    Mutant("evaluation: truncation lag n allowed", EV,
           "truncation_lag >= n", "truncation_lag > n"),
    Mutant("evaluation: truncation lag -1 allowed", EV,
           "truncation_lag < 0 or", "truncation_lag < -1 or"),
    Mutant("evaluation: identical errors give p 0", EV,
           "1.0, variant, n, 0.0)", "0.0, variant, n, 0.0)"),
    Mutant("evaluation: Bartlett sum one lag short", EV,
           "range(1, truncation_lag + 1)", "range(1, truncation_lag)"),
    Mutant("evaluation: Bartlett weight denominator lag", EV,
           "(1.0 - j / (truncation_lag + 1))", "(1.0 - j / truncation_lag)"),
    Mutant("evaluation: autocovariances counted once", EV,
           "variance += 2.0 *", "variance += 1.0 *"),
    Mutant("evaluation: variance divided by n - 1", EV,
           "gamma0 = float(centered @ centered) / n",
           "gamma0 = float(centered @ centered) / (n - 1)"),
    Mutant("evaluation: zero long-run variance divided", EV,
           "if variance <= 0.0:", "if variance < 0.0:"),
    Mutant("evaluation: unconditional statistic with n - 1", EV,
           "statistic = n * dbar**2 / variance",
           "statistic = (n - 1) * dbar**2 / variance"),
    Mutant("evaluation: conditional statistic with n", EV,
           "statistic = (n - 1) * r2_uncentered", "statistic = n * r2_uncentered"),
    Mutant("evaluation: zero conditional total sum divided", EV,
           "if tss > 0.0 else 0.0", "if tss >= 0.0 else 0.0"),
    Mutant("evaluation: unconditional df 2", EV,
           "        df = 1\n", "        df = 2\n"),
    Mutant("evaluation: conditional response not lagged", EV,
           "response = d[1:]", "response = d[:-1]"),
    Mutant("evaluation: fraction unit 0.1", EV,
           '{"fraction": 0.01,', '{"fraction": 0.1,'),
    # index
    Mutant("index: day cutoff 31 refused", IDX,
           "1 <= day_cutoff <= 31", "1 <= day_cutoff <= 30"),
    Mutant("index: day cutoff 0 allowed", IDX,
           "1 <= day_cutoff <= 31", "0 <= day_cutoff <= 31"),
    Mutant("index: first month not a group start", IDX,
           "prepend=months[0] - 1", "prepend=months[0]"),
    Mutant("index: repeated monthly means pass", IDX,
           "np.diff(offsets) <= 0", "np.diff(offsets) < 0"),
    Mutant("index: zero article count allowed", IDX,
           "self.article_count < 1", "self.article_count < 0"),
    Mutant("index: mean score -1 refused", IDX,
           "-1.0 <= self.mean_score <= 1.0", "-1.0 < self.mean_score <= 1.0"),
    Mutant("index: mean divided by count + 1", IDX,
           "/ len(group),", "/ (len(group) + 1),"),
    Mutant("index: mean summed in article order", IDX,
           "math.fsum(group.tolist())", "sum(group.tolist())"),
    Mutant("index: zero denominator under an absent month", IDX,
           "months_where(start, (then == 0.0) & ~np.isnan(now))",
           "months_where(start, then == 0.0)"),
    Mutant("index: zero over zero counted as a sign crossing", IDX,
           "np.sign(now) * np.sign(then) < 0.0", "np.sign(now) * np.sign(then) <= 0.0"),
    Mutant("index: default window 11", IDX,
           "    window: int = 12,\n    *,", "    window: int = 11,\n    *,"),
    # timeseries
    Mutant("timeseries: ordinal off by one", TS,
           "self.year * 12 + (self.month - 1)", "self.year * 12 + self.month"),
    Mutant("timeseries: from_ordinal month off by one", TS,
           "cls(year, month0 + 1)", "cls(year, month0)"),
    Mutant("timeseries: month 13 allowed", TS,
           "not 1 <= month <= 12", "not 1 <= month <= 13"),
    Mutant("timeseries: month 0 allowed", TS,
           "not 1 <= month <= 12", "not 0 <= month <= 12"),
    Mutant("timeseries: month text of 8 characters read", TS,
           "len(s) == 7 and", "len(s) >= 7 and"),
    Mutant("timeseries: month text separator unchecked", TS,
           'len(s) == 7 and s[4] == "-" and', "len(s) == 7 and"),
    Mutant("timeseries: month text of other digits read", TS,
           "digits.isascii() and digits.isdigit()", "digits.isdigit()"),
    Mutant("timeseries: month text of year 1 refused", TS,
           "if year == 0:", "if year <= 1:"),
    Mutant("timeseries: month text ordinal off by one", TS,
           "year * 12 + _checked_month(int(s[5:])) - 1",
           "year * 12 + _checked_month(int(s[5:]))"),
    Mutant("timeseries: last month trimmed", TS,
           "int(where[-1]) + 1)", "int(where[-1]))"),
    Mutant("timeseries: absent month kept past the last", TS,
           "int(where[-1]) + 1)", "int(where[-1]) + 2)"),
    Mutant("timeseries: -inf value passes", TS,
           "infinite = np.flatnonzero(np.isinf(values))",
           "infinite = np.flatnonzero(np.isposinf(values))"),
    Mutant("timeseries: infinite value named a month late", TS,
           "MonthKey.from_ordinal(start + i)}",
           "MonthKey.from_ordinal(start + i + 1)}"),
    Mutant("timeseries: first month not contained", TS,
           "0 <= i < len(self._values)", "0 < i < len(self._values)"),
    Mutant("timeseries: window end exclusive", TS,
           "hi = end.ordinal - self._start + 1", "hi = end.ordinal - self._start"),
    Mutant("timeseries: window from the first month refused", TS,
           "if 0 <= lo and hi", "if 0 < lo and hi"),
    Mutant("timeseries: lag 0 allowed", TS, "lag < 1:", "lag < 0:"),
    Mutant("timeseries: percent change plus one", TS,
           "100.0 * (now / then - 1.0)", "100.0 * (now / then + 1.0)"),
    Mutant("timeseries: zero denominator under an absent month", TS,
           "zero = (then == 0.0) & ~np.isnan(now)", "zero = then == 0.0"),
    Mutant("timeseries: annualize to the 11th power", TS,
           "growth**12", "growth**11"),
    Mutant("timeseries: annualize -100 allowed", TS,
           "if growth <= 0.0:\n        raise DomainError(f\"cannot annualize",
           "if growth < 0.0:\n        raise DomainError(f\"cannot annualize"),
    Mutant("timeseries: deannualize to the 1/11th power", TS,
           "(1.0 / 12.0)", "(1.0 / 11.0)"),
    Mutant("timeseries: deannualize -100 allowed", TS,
           "if growth <= 0.0:\n        raise DomainError(f\"cannot deannualize",
           "if growth < 0.0:\n        raise DomainError(f\"cannot deannualize"),
    Mutant("timeseries: LAGS 11", TS, "LAGS = 12", "LAGS = 11"),
    Mutant("timeseries: moving average reads one month early", TS,
           "start.shift(-LAGS)", "start.shift(-LAGS - 1)"),
    Mutant("timeseries: last moving average dropped", TS,
           "range(len(values) - LAGS + 1)", "range(len(values) - LAGS)"),
    Mutant("timeseries: moving average over LAGS - 1", TS,
           "/ LAGS for i", "/ (LAGS - 1) for i"),
    # nowcast
    Mutant("nowcast: window length one short", NOW,
           "n = end.ordinal - start.ordinal + 1", "n = end.ordinal - start.ordinal"),
    Mutant("nowcast: window one month shorter allowed", NOW,
           "if n < len(MODEL_SPECS[model]) + 2:",
           "if n < len(MODEL_SPECS[model]) + 1:"),
    Mutant("nowcast: one-month window reversed", NOW,
           "if end < start:", "if end <= start:"),
    Mutant("nowcast: regressors shifted onto the intercept", NOW,
           "enumerate(columns, 1)", "enumerate(columns, 0)"),
    Mutant("nowcast: training may end at the evaluation start", NOW,
           "if train_end >= eval_start:", "if train_end > eval_start:"),
    Mutant("nowcast: rolling design starts a month early", NOW,
           "eval_start.shift(-n), eval_end.shift(-1)",
           "eval_start.shift(-n - 1), eval_end.shift(-1)"),
    Mutant("nowcast: rolling windows one row short", NOW,
           "solve_windows(y, X, names, n, starts)",
           "solve_windows(y, X, names, n - 1, starts)"),
    Mutant("nowcast: a gap of one month passes", NOW,
           "self.months[-1] - self.months[0] >= len(self)",
           "self.months[-1] - self.months[0] > len(self)"),
    Mutant("nowcast: repeated forecast months pass", NOW,
           "(np.diff(self.months) <= 0).any()", "(np.diff(self.months) < 0).any()"),
    Mutant("nowcast: annualizing error names the next month", NOW,
           "month = start.shift(len(out))", "month = start.shift(len(out) + 1)"),
)

MUTANTS = (*guards(), *RECORDED, *NUMERIC)

#: Mutants that no input can tell from the source, each with the reason.
EQUIVALENT = {
    "guard ols._check: info < 0": (
        "LAPACK returns a negative info only for an illegal argument, and "
        "solve_ols passes validated shapes with the workspace sizes it queried"
    ),
}


# ---------------------------------------------------------------- running


def _importers(tests: Path, package: Path) -> dict[str, list[str]]:
    """For each module of the package, the test files that import it: by
    `import newscast.m`, `from newscast.m import ...`, `from newscast
    import m`, or a name that the package's __init__ imports from m."""
    origin = {}
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            origin.update((alias.name, node.module) for alias in node.names)
    modules = {path.stem for path in package.glob("*.py")}
    found: dict[str, set[str]] = {m: set() for m in modules}
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[1] for a in node.names
                         if a.name.startswith("newscast.")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "newscast":
                    names = [a.name if a.name in modules else origin.get(a.name)
                             for a in node.names]
                elif node.module.startswith("newscast."):
                    names = [node.module.split(".")[1]]
            for module in names:
                if module in found:
                    found[module].add(path.name)
    return {m: sorted(files) for m, files in found.items()}


def _pytest(copy: Path, files: list[str]) -> str | None:
    """pytest -x on these test files of the copy: None if they pass,
    else the end of its report ("timeout" if it hung). Only a failure
    counts: a usage error stops the script."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{f}" for f in files)]
    process = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        report, _ = process.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return "timeout"
    if process.returncode not in (0, 1, 2):  # 2: a collection error, say
        raise SystemExit(f"pytest exited {process.returncode} on {files}:\n{report}")
    if process.returncode == 0:
        return None
    return "\n".join(report.splitlines()[-20:]) or "failed"


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="newscast-mutants-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            source, target = ROOT / item, copy / item
            target.parent.mkdir(parents=True, exist_ok=True)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache", LIST_TEST))
            else:
                shutil.copy2(source, target)
        tier1 = sorted(p.name for p in (copy / "tests").glob("test_*.py"))
        importers = _importers(copy / "tests", copy / PACKAGE)
        failure = _pytest(copy, tier1)
        if failure:
            print(f"the unmutated copy fails its tests; no score\n{failure}",
                  file=sys.stderr)
            return 2
        survivors, wrongly_equivalent, killed = [], [], 0
        for number, mutant in enumerate(MUTANTS, 1):
            path = copy / mutant.file
            original = path.read_text()
            if original.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old string not once in {mutant.file}")
            module = Path(mutant.file).stem
            # The module's own test file first, where a kill is likeliest.
            first = sorted(importers[module], key=lambda f: f != f"test_{module}.py")
            path.write_text(original.replace(mutant.old, mutant.new))
            begun = time.monotonic()
            try:
                rest = [f for f in tier1 if f not in first]
                if _pytest(copy, first):
                    outcome = "killed by the importing files"
                elif rest and _pytest(copy, rest):
                    outcome = "killed by the rest of tier-1"
                else:
                    outcome = "survived"
            finally:
                path.write_text(original)
            if outcome == "survived":
                if mutant.name in EQUIVALENT:
                    outcome = "survived (equivalent)"
                else:
                    survivors.append(mutant.name)
            else:
                killed += 1
                if mutant.name in EQUIVALENT:
                    wrongly_equivalent.append(mutant.name)
            print(f"[{number:3d}/{len(MUTANTS)}] {time.monotonic() - begun:6.1f}s "
                  f"{outcome}: {mutant.name}", flush=True)
    print(f"\nkilled {killed}/{len(MUTANTS)} in {time.monotonic() - started:.0f} s; "
          f"{len(MUTANTS) - killed - len(survivors)} listed as equivalent")
    for name in survivors:
        print(f"SURVIVED, not listed in EQUIVALENT: {name}")
    for name in wrongly_equivalent:
        print(f"KILLED, but listed in EQUIVALENT: {name}")
    return 1 if survivors or wrongly_equivalent else 0


if __name__ == "__main__":
    sys.exit(main())
