"""Names that the package exports and that the benchmark reaches must exist,
and the benchmark's calls into them must bind.

The benchmark under `perfbench/` wraps, imports and calls `lcodr` functions
by name, so deleting one, or a parameter that it passes, breaks it without
failing any other test. Its files are parsed, not imported, so that no
bytecode cache is written beside them.
"""

import ast
import importlib
import inspect
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


def _lcodr_object(path: str):
    """The object at a dotted path that starts with an lcodr module."""
    parts = path.split(".")
    for end in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for attr in parts[end:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _dotted(node):
    """The dotted name of a Name or of a chain of attributes on one, else None."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _calls(tree, where: str):
    """(where, dotted lcodr path, positional count, keyword names) of each call
    in tree whose callee is a name imported from lcodr or an attribute of an
    imported lcodr module; calls with *args or **kwargs are left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lcodr"):
            bound.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                          for alias in node.names})
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]:
                          alias.name if alias.asname else alias.name.split(".")[0]
                          for alias in node.names if alias.name.startswith("lcodr")})
    calls = []
    for node in ast.walk(tree):
        name = isinstance(node, ast.Call) and _dotted(node.func)
        if not name or name.split(".")[0] not in bound:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        head, _, rest = name.partition(".")
        path = bound[head] + (f".{rest}" if rest else "")
        calls.append((where, path, len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


def _benchmark_calls():
    """_calls of every perfbench file and of each string of code in one (the
    `python -c` programs it starts)."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += _calls(tree, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and "lcodr." in str(node.value):
                try:
                    calls += _calls(ast.parse(node.value), f"{path.name}: {node.value!r}")
                except SyntaxError:
                    pass   # prose, not code
    return calls


def test_benchmark_calls_bind_to_the_signatures_they_call():
    calls = _benchmark_calls()
    found = {(path, n, keywords) for _, path, n, keywords in calls}
    assert ("lcodr.valuefactor.vf_subsample_mc", 5, ()) in found
    assert ("lcodr.data.synthetic_v2g_profiles", 0, ("days", "seed")) in found
    assert any(where.startswith("run.py: ") and path == "lcodr.model.load_config"
               for where, path, _, _ in calls)   # in a `python -c` string
    unbound = []
    for where, path, n, keywords in calls:
        try:
            inspect.signature(_lcodr_object(path)).bind(*[None] * n, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {path}({n} positional, {', '.join(keywords)}): {exc}")
    assert not unbound, "perfbench calls that no longer bind:\n" + "\n".join(unbound)
