"""The public surface: what ``floorgw`` exports, and the names that the
benchmark's tracer (``floorbench/tracer.py``) wraps.  ``Tracer.install``
reads each wrapped name with ``getattr``, so a removed one makes every traced
benchmark run fail; this pins them in tier-1.  Also the one memo class and the
one frozen base that every per-call table and every value type share."""

import inspect
import subprocess
import sys
from pathlib import Path

import floorgw
from floorgw import algebra, cli, diagrams, gw, oracle

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    assert len(floorgw.__all__) == len(set(floorgw.__all__))
    assert [name for name in floorgw.__all__ if not hasattr(floorgw, name)] == []


def test_every_traced_name_resolves_on_a_fresh_cli_import():
    """The tracer, loaded by path in a process of its own, finds every
    function and method it wraps once ``floorgw.cli`` is imported, and
    installs."""
    code = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import floorgw.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
missing = [f"{layer}.{name}" for layer, names in tracer.FUNCTIONS.items() for name in names
           if not hasattr(sys.modules[f"floorgw.{layer}"], name)]
algebra = sys.modules["floorgw.algebra"]
missing += [f"{cls}.{attr}" for cls, _, attrs in tracer.METHODS for attr in attrs
            if not hasattr(getattr(algebra, cls, None), attr)]
print(missing)
tracer.Tracer().install()
"""
    run = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "floorbench" / "tracer.py")],
        capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_one_class_defines_each_table_and_immutability_hook():
    """``__missing__`` is defined only by ``algebra._Memo``, the one per-call
    table, and ``__setattr__`` only by ``algebra._Frozen``, the one immutable
    base: a hand-written table or immutability refusal fails here."""
    classes = [cls for module in (algebra, diagrams, gw, cli, oracle)
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    assert {hook: [cls.__qualname__ for cls in classes if hook in vars(cls)]
            for hook in ("__missing__", "__setattr__")} == {
        "__missing__": ["_Memo"], "__setattr__": ["_Frozen"]}
