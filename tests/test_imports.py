"""Import hygiene: no module imports a name at top level it never uses,
every top-level name the package defines is read or exported, and every
helper, constant, strategy and fixture the tests define is read."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import newscast

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "newscast").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])
TESTS = sorted(
    [*(ROOT / "tests").glob("*.py"), ROOT / "benchmarks" / "test_bench_helpers.py"]
)

#: Imported only so benchmarks/bench_trace.py can wrap them by name.
EXEMPT = {
    ("src/newscast/cli.py", "lexicon_filter"),
    ("src/newscast/nowcast.py", "moving_average_predictor"),
}
BENCH_TRACE = ROOT / "benchmarks" / "bench_trace.py"


def wrapped_names() -> list[tuple[str, str]]:
    """The (module, attribute) pairs benchmarks/bench_trace.py replaces
    in newscast.<module> when it traces a run, read from its _WRAPPED
    table without importing it."""
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_WRAPPED" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{BENCH_TRACE} has no _WRAPPED table")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing reads; a name listed
    in __all__ counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_no_unused_top_level_imports(path):
    relative = str(path.relative_to(ROOT))
    unused = [
        name
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (relative, name) not in EXEMPT
    ]
    assert unused == [], f"{relative} imports unused names {unused}"


def test_checker_sees_aliases_dotted_modules_and_all():
    source = (
        "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "__all__ = ['b']\nx = os.sep\n"
    )
    assert unused_imports(source) == ["d", "np"]


def test_exemptions_are_still_imports():
    for relative, name in EXEMPT:
        source = (ROOT / relative).read_text(encoding="utf-8")
        assert any(
            isinstance(node, ast.ImportFrom)
            and name in (alias.name for alias in node.names)
            for node in ast.parse(source).body
        ), f"{relative} no longer imports {name}; drop its exemption"
        assert name in unused_imports(source), (
            f"{relative} now uses {name}; drop its exemption"
        )


@pytest.mark.parametrize("module, attr", wrapped_names(), ids="{}".format)
def test_traced_names_resolve(module, attr):
    # A renamed or dropped name would make `benchmarks/run.py --trace 1`
    # fail with an AttributeError.
    found = getattr(importlib.import_module(f"newscast.{module}"), attr, None)
    assert callable(found), f"newscast.{module} has no function {attr}"


def test_traced_toy_chain_runs(tmp_path, capsys, monkeypatch):
    # The trace's recorders read what the wrapped functions take and
    # return (gap months, article counts, a positional output path), so
    # a changed type fails here, not only under `run.py --trace 1`.
    monkeypatch.syspath_prepend(str(BENCH_TRACE.parent))
    bench_trace = importlib.import_module("bench_trace")
    main = importlib.import_module("newscast.cli").main
    chain = (
        ["--set", "news_probs=", "score"], ["score"], ["build-index"],
        ["backtest", "all"], ["evaluate"],
    )
    tracer = bench_trace.Tracer()
    with bench_trace.instrumented(tracer):
        codes = [main(["--config", "toy", "--out", str(tmp_path), *a]) for a in chain]
    assert codes == [0] * len(chain), capsys.readouterr().err
    metrics = bench_trace.layer_metrics(tracer.spans)
    assert (metrics["index.months"], metrics["index.gap_months"]) == (132, 0)
    # The trace times scoring through cli.SentimentScorer: one span per
    # score command, or sentiment.score_s reads 0.
    assert [s.name for s in tracer.spans].count("sentiment.score") == 2


def test_import_loads_only_the_standard_library_numpy_and_newscast():
    # Every command, and the benchmark's setup_s, pays for a fresh
    # `import newscast`; a third-party import there would be paid by all.
    code = (
        "import sys; before = set(sys.modules); import newscast; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    ).stdout.split()
    allowed = {*sys.stdlib_module_names, "numpy", "newscast"}
    assert "newscast.io" in loaded
    assert [m for m in loaded if m.partition(".")[0] not in allowed] == []


#: Packages whose import costs a command ≈0.2 s (scipy.linalg's array-API
#: layer), ≈0.3 s (scipy.special's namespace) or ≈1 s (scipy.stats) for
#: functions the package loads from their extension files or does without.
HEAVY = ("scipy.linalg", "scipy.special", "scipy.stats")


def imported_modules(source: str) -> set[str]:
    """Every module an import statement anywhere in source names,
    "from a import b" counting as both a and a.b."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def heavy_imports(source: str) -> list[str]:
    return sorted(
        m for m in imported_modules(source)
        if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_no_module_imports_scipy_linalg_or_stats(path):
    assert heavy_imports(path.read_text(encoding="utf-8")) == []


def test_heavy_import_checker_sees_every_form():
    source = (
        "import scipy.stats as st\nfrom scipy import linalg\n"
        "def f():\n    from scipy.linalg.lapack import dgeqp3\n"
        "    from scipy.special import chdtrc\n"
        "from scipy import special\nimport scipy.linalgx\n"
    )
    assert heavy_imports(source) == [
        "scipy.linalg", "scipy.linalg.lapack", "scipy.linalg.lapack.dgeqp3",
        "scipy.special", "scipy.special.chdtrc", "scipy.stats",
    ]


#: Prefixes of the names pytest collects or calls by convention.
COLLECTED = ("test_", "Test", "pytest_")


def definitions(tree: ast.Module) -> list[str]:
    """Names a module's top-level def, class and assignment statements
    bind, dunders and the names pytest collects excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [
        n for n in names
        if not (n.startswith("__") and n.endswith("__") or n.startswith(COLLECTED))
    ]


def is_fixture(decorator: ast.expr) -> bool:
    """@pytest.fixture or @fixture, with arguments or without."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (getattr(decorator, "attr", None) or getattr(decorator, "id", None)) == "fixture"


def reads(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as an attribute, or imports by name,
    and the fixtures its tests and fixtures take as parameters or name in
    usefixtures."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.FunctionDef) and (
            node.name.startswith("test_") or any(map(is_fixture, node.decorator_list))
        ):
            found.update(arg.arg for arg in node.args.args)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "usefixtures":
            found.update(arg.value for arg in node.args)
    return found


def dead_definitions(sources: dict[str, str], exported) -> list[str]:
    """module.name for each top-level definition that no module reads
    and that is not exported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(reads, trees.values()), exported)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name not in read
    )


def test_every_definition_is_read_in_the_package_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    dead = dead_definitions(sources, newscast.__all__)
    assert dead == [], f"defined but never read or exported: {dead}"


def test_dead_definition_checker_follows_reads_imports_and_exports():
    # A fixture is read when a test or a fixture takes it as a parameter,
    # or a usefixtures mark names it; a helper's parameter reads nothing.
    sources = {
        "a": "X = 1\nY: int = 2\ndef f(): return g\ndef g(): pass\n"
        "class C: pass\n__all__ = []\n",
        "b": "from a import C\nimport a\nZ = a.Y\n",
        "conftest": "import pytest\n@pytest.fixture\ndef taken(): pass\n"
        "@pytest.fixture(scope='class')\ndef marked(chained): pass\n"
        "@pytest.fixture\ndef chained(): pass\n@pytest.fixture\ndef unused(): pass\n"
        "def helper(unused): pass\ndef pytest_configure(config): pass\n",
        "test_a": "import pytest\n@pytest.mark.usefixtures('marked')\nclass TestA:\n"
        "    def test_x(self, taken): pass\ndef test_y(): pass\nLIMIT = 1\n",
    }
    assert dead_definitions(sources, ["X"]) == [
        "a.f", "b.Z", "conftest.helper", "conftest.unused", "test_a.LIMIT"
    ]


def test_every_test_helper_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    dead = dead_definitions(sources, ())
    assert dead == [], f"defined in the tests but never read: {dead}"
