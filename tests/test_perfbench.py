"""The benchmark's traced run can wrap every function it names.

``perfbench/run.py`` lists ``(module, attr, span)`` triples and swaps each
``outagebn.<module>.<attr>`` for a wrapper; a name the package no longer
has makes every traced run fail before it starts. The script is loaded
from its file, unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    assert run.TRACED
    missing = [f"{module}.{attr}" for module, attr, _ in run.TRACED
               if not callable(getattr(importlib.import_module(f"outagebn.{module}"),
                                       attr, None))]
    assert missing == []
