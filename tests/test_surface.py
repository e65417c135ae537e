"""The public surface: what ``floorgw`` exports, and the names that the
benchmark's tracer (``floorbench/tracer.py``) wraps.  ``Tracer.install``
reads each wrapped name with ``getattr``, so a removed one makes every traced
benchmark run fail; this pins them in tier-1.  Also the one memo class and the
one frozen base that every per-call table and every value type share, and the
one writer of a value's fields."""

import ast
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


def test_one_writer_of_every_value_field():
    """``object.__setattr__`` is called only by ``_Frozen._fill``, which writes
    every value type's slots at construction, and by ``USeries._texts``, which
    writes the text cache: read from the source, so a constructor that writes
    its own fields fails here."""
    callers = []
    for path in sorted((ROOT / "src" / "floorgw").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}  # each node's enclosing class or function, by qualified name
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                name = scopes.get(parent, "")
                if isinstance(parent, (ast.ClassDef, ast.FunctionDef)):
                    name = f"{name}.{parent.name}" if name else parent.name
                scopes[child] = name
        callers += [f"{path.stem}.{scopes[node]}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert sorted(callers) == ["algebra.USeries._texts", "algebra._Frozen._fill"]
