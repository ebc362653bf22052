"""The entries of `scripts/mutants.py`, checked without running them: a
mutant whose line moved, or whose recorded test was renamed, would
show only as a STALE row of the next mutation run."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_names_one_line_and_a_test_that_exists():
    mutants = _mutants()
    names = [name for name, *_ in mutants]
    assert len(set(names)) == len(names)
    for name, path, old, new, test in mutants:
        assert old != new, name
        lines = (ROOT / path).read_text(encoding="utf-8").split("\n")
        assert lines.count(old) == 1, (name, lines.count(old))
        if test is None:  # a new mutant, whose first run names its test
            continue
        file, function = re.fullmatch(r"(test_\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
        source = (ROOT / "tests" / file).read_text(encoding="utf-8")
        assert re.search(rf"^def {function}\(", source, re.M), (name, test)
