"""Names that the package exports and that the benchmark reaches must exist.

The benchmark under `perfbench/` wraps and imports `lcodr` functions by
name, so deleting one breaks it without failing any other test. Its files
are parsed, not imported, so that no bytecode cache is written beside them.
"""

import ast
import importlib
from pathlib import Path

import lcodr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_names():
    """(module, name) pairs: every entry of tracer.TRACED, and every name
    that a perfbench file imports from an lcodr module."""
    pairs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lcodr"):
                pairs += [(node.module, alias.name) for alias in node.names]
            if (path.name == "tracer.py" and isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]):
                traced = ast.literal_eval(node.value)
                pairs += [(f"lcodr.{layer}", name)
                          for layer, names in traced.items() for name in names]
    return pairs


def test_exported_and_benchmarked_names_resolve():
    missing = [name for name in lcodr.__all__ if not hasattr(lcodr, name)]
    assert not missing, f"lcodr.__all__ lists missing names: {missing}"

    pairs = _benchmark_names()
    assert ("lcodr.costing", "evaluate_pairing") in pairs   # TRACED was found
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"perfbench reaches missing names: {missing}"
