"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import heightlab
from heightlab.corpus import scenario_documents


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
