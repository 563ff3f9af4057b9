"""Import hygiene: no module imports a name at top level it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "newscast").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)

#: Imported only so benchmarks/bench_trace.py can wrap them by name.
EXEMPT = {
    ("src/newscast/cli.py", "baseline_classify"),
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
        tree = ast.parse((ROOT / relative).read_text(encoding="utf-8"))
        assert any(
            isinstance(node, ast.ImportFrom)
            and name in (alias.name for alias in node.names)
            for node in tree.body
        ), f"{relative} no longer imports {name}; drop its exemption"


@pytest.mark.parametrize("module, attr", wrapped_names(), ids="{}".format)
def test_traced_names_resolve(module, attr):
    # A renamed or dropped name would make `benchmarks/run.py --trace 1`
    # fail with an AttributeError.
    found = getattr(importlib.import_module(f"newscast.{module}"), attr, None)
    assert callable(found), f"newscast.{module} has no function {attr}"
