"""Source-structure guards: package modules import each other only at module
level, so an import cycle fails at import time instead of hiding inside a
function body, and only ``errors.py`` opens an input file for reading."""

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


def _file_read(call: ast.Call) -> str | None:
    """The called name if the call reads a file: ``open``/``x.open`` without a
    write mode, ``x.read_text`` or ``x.read_bytes``."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return name
    if name != "open":
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    writes = isinstance(mode, ast.Constant) and set("wax") & set(mode.value)
    return None if writes else name


def test_only_the_line_reader_opens_input_files():
    # The binary embedding format is not line-based; its loader reads the
    # whole file with read_bytes.
    allowed = {("errors.py", "open"), ("embeddings.py", "read_bytes")}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}()"
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and (name := _file_read(node))
                      and (path.name, name) not in allowed]
    assert offenders == []
