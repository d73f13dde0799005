"""Source-structure guards: package modules import each other only at module
level, so an import cycle fails at import time instead of hiding inside a
function body, only ``errors.py`` opens an input file for reading (numpy's
file readers count), no module raises powers with numpy, and no module
changes the process-wide warning filters."""

import ast
import subprocess
import sys
from pathlib import Path

import senseclust

PACKAGE = Path(senseclust.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_no_relative_import_inside_a_function():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            offenders += [f"{path.name}:{node.lineno} in {func.name}()"
                          for node in ast.walk(func)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert offenders == []


def test_each_module_imports_on_its_own():
    # A stub package stands in for senseclust/__init__.py, whose fixed import
    # order would otherwise mask a cycle reachable from one submodule.
    script = f"""
import importlib, sys, types
failed = []
for name in {MODULES!r}:
    for key in [k for k in sys.modules if k.split(".")[0] == "senseclust"]:
        del sys.modules[key]
    stub = types.ModuleType("senseclust")
    stub.__path__ = [{str(PACKAGE)!r}]
    sys.modules["senseclust"] = stub
    try:
        importlib.import_module("senseclust." + name)
    except Exception as exc:
        failed.append(f"{{name}}: {{exc!r}}")
print("\\n".join(failed))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
    assert len(MODULES) >= 11


# numpy functions that open and read a file when given its name.
NUMPY_READERS = ("loadtxt", "fromfile", "genfromtxt", "memmap")


def _file_read(call: ast.Call) -> str | None:
    """The called name if the call reads a file: ``open``/``x.open`` without a
    write mode, ``x.read_text``, ``x.read_bytes`` or a numpy reader."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("read_text", "read_bytes") + NUMPY_READERS:
        return name
    if name != "open":
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    writes = isinstance(mode, ast.Constant) and set("wax") & set(mode.value)
    return None if writes else name


def test_only_the_line_reader_opens_input_files():
    # The binary embedding format is not line-based; its loader reads the
    # whole file with read_bytes. The text loader feeds loadtxt from
    # read_lines, so decoding, line ends and line numbers stay in errors.py.
    allowed = {("errors.py", "open"), ("embeddings.py", "read_bytes"),
               ("embeddings.py", "loadtxt")}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}()"
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and (name := _file_read(node))
                      and (path.name, name) not in allowed]
    assert offenders == []


def _numpy_power(node: ast.AST) -> bool:
    """``np.power``/``numpy.power``, any ``float_power``, or importing either
    name from numpy."""
    if isinstance(node, ast.Attribute):
        return node.attr == "float_power" or (
            node.attr == "power" and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom) and node.module == "numpy":
        return any(a.name in ("power", "float_power") for a in node.names)
    return isinstance(node, ast.Name) and node.id == "float_power"


def test_no_numpy_power():
    # Powers go through ``weighting.power`` (Python's ``**``): on some hosts
    # ``np.power`` differs from it in the last bit.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _numpy_power(node)]
    assert offenders == []


WARNING_FILTER_CALLS = ("catch_warnings", "simplefilter", "filterwarnings",
                        "resetwarnings")


def test_no_module_changes_the_warning_filters():
    # The filters are process-wide: a library call that swaps them races with
    # every other thread, and run facts travel in the returned values instead.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}()"
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and (name := getattr(node.func, "id", None)
                           or getattr(node.func, "attr", None)) in WARNING_FILTER_CALLS]
    assert offenders == []
