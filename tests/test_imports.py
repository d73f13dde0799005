"""Source-structure guards: package modules import each other only at module
level, so an import cycle fails at import time instead of hiding inside a
function body, only ``errors.py`` opens a text file, to read or to write
(numpy's file functions count), one ``np.loadtxt`` call parses text
vectors, only ``cluster.py`` calls the clustering kernels, only
``dataset.py`` reads a dataset file's layout, only ``text.py`` interns
strings, no module raises powers with numpy, and no module warns or changes
the process-wide warning filters, the BLAS thread count or the environment."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import senseclust
import senseclust.cluster as cluster_module
import senseclust.evaluate as evaluate_module
import senseclust.vectorize as vectorize_module

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


# numpy functions that open a file when given its name, and ``Path`` methods
# that open the file they name.
NUMPY_FILE_CALLS = ("loadtxt", "fromfile", "genfromtxt", "memmap", "savetxt", "tofile")
PATH_FILE_METHODS = ("read_text", "read_bytes", "write_text", "write_bytes")


def _called_name(call: ast.Call) -> str | None:
    """``f`` for a call of ``f(...)`` or ``x.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _file_opening(call: ast.Call) -> str | None:
    """How the call opens a file, or None: ``open(<mode>)`` for ``open`` and
    ``x.open``, else the name of a ``Path`` method or numpy file function.
    ``errors.write_text``, called by its plain name, is not a ``Path`` method."""
    name = _called_name(call)
    if name in NUMPY_FILE_CALLS or (name in PATH_FILE_METHODS
                                    and isinstance(call.func, ast.Attribute)):
        return name
    if name != "open":
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return f"open({ast.unparse(mode) if mode else ''})"


def test_only_the_errors_module_opens_text_files():
    # errors.py opens every input file, text through read_lines and binary
    # through read_blocks, and every text output file through write_text, so
    # encoding, line ends and line numbers are stated once. The text
    # embedding loader feeds loadtxt from read_lines; the binary embedding
    # writer is the one other open, as only embeddings.py knows that format.
    allowed = {("embeddings.py", "open('wb')"), ("embeddings.py", "loadtxt")}
    opened, offenders = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (how := _file_opening(node)):
                if path.name == "errors.py":
                    opened.add(how)
                elif (path.name, how) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} {how}")
    assert offenders == []
    assert opened == {"open('rb')", "open('w')"}  # it reads and writes


def test_text_vectors_are_parsed_in_one_place():
    # ``embeddings._load_text`` feeds every block of a text embedding file to
    # one loadtxt call that pulls its lines from read_lines, so read_lines
    # names the line of every error. A second loadtxt call would be a second
    # parse path for text vectors, with its own rules and its own lines.
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            calls += [(path.name, getattr(top, "name", "<module>")) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and _called_name(node) == "loadtxt"]
    assert calls == [("embeddings.py", "_load_text")]


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


WARNING_CALLS = ("warn", "catch_warnings", "simplefilter", "filterwarnings",
                 "resetwarnings")


def test_no_module_warns_or_changes_the_warning_filters():
    # Run facts travel in the returned values, and the CLI prints them as
    # ``warning:`` lines; a warning would reach a CLI user as a raw Python
    # warning that points into the library. The filters are process-wide: a
    # library call that swaps them races with every other thread.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}()"
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and (name := _called_name(node)) in WARNING_CALLS]
    assert offenders == []


# What ``cluster.cluster_points`` runs a clustering with.
CLUSTERING_KERNELS = ("gram_matrix", "gram_distances", "merge_sequence",
                      "merge_sequences", "_merges", "cut_sequences", "propagate")


def test_only_the_cluster_module_calls_the_clustering_kernels():
    # ``cluster_points`` is the one dispatch on the algorithm. With
    # ``_merges`` it states each clustering rule once: ward on squared
    # euclidean distances, the merge loop chosen by chunk depth, AP on their
    # negatives, k clamped to the point count. A kernel called elsewhere
    # would state them a second time. A name the module no longer defines
    # would guard nothing.
    tree = ast.parse((PACKAGE / "cluster.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [name for name in CLUSTERING_KERNELS if name not in defined] == []
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cluster.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}()"
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and (name := _called_name(node)) in CLUSTERING_KERNELS]
    assert offenders == []


# The ``Dataset`` fields that hold the file's header and unparsed rows.
DATASET_LAYOUT = ("header", "raw_rows")


def test_only_the_dataset_module_reads_the_file_layout():
    # ``parse_dataset`` reads each column into a ``ContextInstance`` field,
    # and ``write_predictions`` re-emits the rows with predictions filled.
    # A module that indexed the header or the raw rows would state the
    # column layout a second time.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "dataset.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in DATASET_LAYOUT]
    assert offenders == []


def test_only_the_text_module_interns():
    # ``normalize_token`` interns every word it returns, so each table keys a
    # word by one object. An intern call elsewhere would be a second
    # normalization point; the text module must keep its own, or the guard
    # would guard nothing.
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls[path.name] = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                            if isinstance(node, ast.Call) and _called_name(node) == "intern"]
    assert calls.pop("text.py") != []
    assert [c for found in calls.values() for c in found] == []


def test_the_cluster_submodule_is_not_shadowed():
    # The package exports no name of a submodule, so ``import ... as`` and
    # ``monkeypatch.setattr`` reach the module.
    assert inspect.ismodule(cluster_module)


def test_the_evaluate_submodule_is_not_shadowed(monkeypatch):
    assert inspect.ismodule(evaluate_module)
    marker = object()
    monkeypatch.setattr("senseclust.evaluate.ari_rows", marker)
    assert evaluate_module.ari_rows is marker


def test_the_vectorize_submodule_is_not_shadowed(monkeypatch):
    assert inspect.ismodule(vectorize_module)
    marker = object()
    monkeypatch.setattr("senseclust.vectorize.weighted_unit_average", marker)
    assert vectorize_module.weighted_unit_average is marker


# Modules that reach into a BLAS library, and ``os`` names for the environment.
THREAD_CONTROL_MODULES = ("ctypes", "threadpoolctl")
ENVIRONMENT_NAMES = ("environ", "environb", "putenv", "unsetenv")


def _process_setting(node: ast.AST) -> str | None:
    """What the node reaches of a process-wide setting: an import of
    ``ctypes`` or ``threadpoolctl``, or ``os``'s environment."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".")[0] for a in node.names]
        return next((n for n in names if n in THREAD_CONTROL_MODULES), None)
    if isinstance(node, ast.ImportFrom) and node.module:
        root = node.module.split(".")[0]
        if root in THREAD_CONTROL_MODULES:
            return root
        if root == "os":
            return next((a.name for a in node.names if a.name in ENVIRONMENT_NAMES), None)
    if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "os"):
        return node.attr
    return None


def test_no_module_sets_blas_threads_or_the_environment():
    # A BLAS thread count or an environment variable set by the library would
    # hold for the whole process and every worker it starts; what a run costs
    # is settled by how the library calls numpy, as for the warning filters.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                      if (name := _process_setting(node))]
    assert offenders == []
