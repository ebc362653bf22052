import ast
import subprocess
import sys
from pathlib import Path

import ordfa


def test_runtime_imports_only_the_standard_library():
    names = set()
    for path in Path(ordfa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert names, "no absolute import found; is the package where it should be?"
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names


def test_every_exported_name_resolves():
    missing = [name for name in ordfa.__all__ if not hasattr(ordfa, name)]
    assert not missing, missing


def test_the_command_line_tool_starts_without_dataclasses_or_the_oracle():
    # Every command pays for what `ordfa.cli` imports.  `dataclasses`
    # pulls in `inspect`, `ast` and `dis`, and only `fuzz` needs the
    # oracle.  With -S, nothing that site imports hides a miss.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ordfa.cli; "
        "print([n for n in ('dataclasses', 'ordfa.oracle') if n in sys.modules])"
    )
    src = str(Path(ordfa.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
