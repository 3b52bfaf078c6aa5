"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import heightlab
from heightlab.corpus import scenario_documents
from heightlab.numberfield import _make_field_cached, eval_poly, make_field
from heightlab.polynomials import real_root_count
from heightlab.roots import DEFAULT_PRECISION_BITS


def test_library_has_no_assert():
    # python -O drops assert statements, so every check in the library
    # raises an exception of its own instead
    paths = sorted(Path(heightlab.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(paths) > 10 and found == []


def test_library_never_imports_sympy():
    # sympy is a test oracle only; the runtime is Python integers and mpmath
    paths = sorted(Path(heightlab.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "sympy"]
    assert len(paths) > 10 and found == []


_WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
import heightlab.cli
from heightlab.cli import main
from heightlab.corpus import scenario_documents

codes = []
for doc in scenario_documents():
    name, el = doc["name"], next(iter(doc["elements"]))
    ks = list(doc["subfields"])
    base = ["--scenario", name, "--json"]
    codes.append(main(["places"] + base))
    for cmd in ("height", "torsion", "fvector"):
        codes.append(main([cmd, "--element", el] + base))
    for cmd in ("orbit", "delta", "width", "vk-bounds"):
        codes.append(main([cmd, "--element", el, "--K", ks[-1]] + base))
    for op in ("s", "t"):
        codes.append(main(["project", "--element", el, "--K", ks[-1], "--op", op,
                           "--scale", "1/2"] + base))
    for cmd in ("member", "decompose"):
        codes.append(main([cmd, "--element", el, "--D", ks[0], "--E", ks[-1]] + base))
    codes.append(main(["commutes", "--field-list", ",".join(ks + ["Q"]), "--count", "2"]
                      + base))
    codes.append(main(["verify", "--scenario", name, "--json"]))
codes.append(main(["verify", "all", "--json"]))
print(codes, file=sys.stderr)
sys.exit(any(codes) or sys.modules["sympy"] is not None)
"""


def test_runtime_needs_no_sympy():
    # import heightlab.cli, every CLI command on every bundled scenario and
    # `verify all`, in a process where importing sympy fails
    src = str(Path(heightlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SYMPY], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    # one report for each of 14 runs per scenario, and one for verify all
    assert result.stdout.count('"command"') == 14 * len(scenario_documents()) + 1


def _benchmark_tracer():
    """perfbench/tracer.py, loaded from the checkout; it imports only the
    standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # the benchmark's tracer rebinds these names, and its field-build checks
    # call eval_poly and real_root_count on the defining polynomial: a
    # rename would break `perfbench/run.py --trace 1` and the checks
    tracer = _benchmark_tracer()
    for name, owner, attr in tracer.INSTRUMENTED:
        if isinstance(owner, tuple):
            home = getattr(importlib.import_module(owner[0]), owner[1])
        else:
            home = importlib.import_module(owner)
        assert callable(vars(home).get(attr)), name
    field = make_field([1, -3, 0, 5, 0, -3, 1])
    for sigma in field.automorphisms:
        assert eval_poly(field.defining_poly, sigma.theta_image).is_zero()
    assert real_root_count(field.defining_poly) == sum(r.is_real for r in field.embeddings)
    # make_field reaches is_irreducible and resultant (through discriminant)
    # by the names the tracer rebinds
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.active = True
        _make_field_cached.__wrapped__((5, 0, 1), DEFAULT_PRECISION_BITS)
        spans.active = False
    finally:
        spans.restore()
    calls = {name: m["value"] for name, m in spans.layer_metrics().items()
             if name.endswith(".calls")}
    assert calls["polynomials.is_irreducible.calls"] == 1
    assert calls["polynomials.resultant.calls"] >= 1
