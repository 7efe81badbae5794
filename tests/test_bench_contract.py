"""The names the benchmark under bench/ calls must exist in the package.

A missing name stops `bench/run.py` only when someone runs it; these tests
read the benchmark's files and fail as soon as the package drops a name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import recolorwalk

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_spanned_functions_resolve():
    # spans.py imports only the standard library, so it loads by path.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANNED
    missing = [f"{spans.PACKAGE}.{short}.{name}"
               for short, names in spans.SPANNED.items() for name in names
               if not callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{short}"),
                                       name, None))]
    assert missing == []


def test_run_attributes_resolve():
    # Every `rw.<name>` and `recolorwalk.<name>` that run.py reads.
    tree = ast.parse((BENCH / "run.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("rw", "recolorwalk")}
    assert "recolor_between" in used
    assert sorted(name for name in used if not hasattr(recolorwalk, name)) == []
