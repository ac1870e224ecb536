"""Every name a package module imports is used in that module, and the CLI
loads only the modules its commands run.

No linter ships with the project, so this reads each module's syntax tree
with :mod:`ast`. A name counts as used when the module reads it (``np`` in
``np.array`` too) or lists it in ``__all__``; ``from __future__`` imports
are directives, not names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outagebn"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                           key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Callable, Mapping\n"
              "from .citest import CiCallable\n"
              "__all__ = ['CiCallable']\n"
              "def f(x: Callable) -> None:\n"
              "    return np.asarray(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Mapping"]


def test_cli_import_loads_only_shared_modules():
    # each command imports its own module (citest for learn, evalmetrics for
    # eval, synthgen for gen, floattext for a write of floats); the
    # package's names load on first use
    probe = ("import sys\n"
             "import outagebn.cli\n"
             "print(sorted(m for m in ('outagebn.citest', 'outagebn.synthgen',\n"
             "                         'outagebn.evalmetrics', 'outagebn.floattext')\n"
             "             if m in sys.modules))\n"
             "from outagebn import ScenarioSpec, EvalReport, LearnedDag\n"
             "print(ScenarioSpec.__module__, EvalReport.__module__, LearnedDag.__module__)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "outagebn.synthgen outagebn.evalmetrics outagebn.pcalg"]


def test_package_names_resolve_lazily():
    import outagebn
    for name in outagebn.__all__:
        assert getattr(outagebn, name) is not None
        assert name in dir(outagebn)
    with pytest.raises(AttributeError, match="no attribute 'citest_result'"):
        outagebn.citest_result
