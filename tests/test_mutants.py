"""The mutant list of scripts/mutants.py still applies to the source: a
refactor that moves an old string or a guard fails here, not silently
in the mutation run."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py"
)
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_each_written_mutant_applies_once():
    for mutant in (*mutants.RECORDED, *mutants.NUMERIC):
        assert mutant.old != mutant.new, mutant.name
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.name


def test_one_guard_mutant_per_if_raise():
    want = Counter()
    for path in (ROOT / "src" / "newscast").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If) and isinstance(node.body[-1], ast.Raise):
                want[path.relative_to(ROOT).as_posix()] += 1
    guards = list(mutants.guards())
    assert Counter(g.file for g in guards) == want
    for guard in guards:
        assert (ROOT / guard.file).read_text().count(guard.old) == 1, guard.name
        assert guard.new.startswith(guard.old[: guard.old.index("if ") + 3] + "False")


def test_names_are_unique_and_equivalents_are_listed():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EQUIVALENT) <= set(names)
