"""Spans recorded from outside the package, by wrapping module attributes.

Each wrapped name is replaced at the point where callers look it up (for
example ``senseclust.search.dendrogram``), so the package itself is not
edited. A span records its name, the module it was looked up in, start,
end, its parent and the operation's id. The parent is the innermost open
span on the same thread; a span opened on a worker thread with nothing
open takes the innermost open span of the main thread, which is the
``grid_search`` span while the search's thread pool runs.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Span:
    id: int
    name: str
    module: str
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``install`` wraps module attributes, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, module: str = "perfbench"):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        sp = Span(next(self._ids), name, module, parent, self.op,
                  threading.get_ident(), time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, module, name: str, after: Callable | None = None,
             cpu: bool = False) -> None:
        """Replace ``module.name`` by a spanning wrapper.

        A name the module no longer has is skipped, so a refactor that
        removes it shows up as 0 calls rather than a crash. ``after`` gets
        (span, args, kwargs, result) once the span has closed, to record
        counts; ``cpu`` records the process CPU seconds spent inside the span.
        """
        fn = getattr(module, name, None)
        if fn is None:
            return
        module_name = module.__name__.rpartition(".")[2]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, module_name) as sp:
                c0 = cpu_seconds() if cpu else 0.0
                result = fn(*args, **kwargs)
                if cpu:
                    sp.attrs["cpu_s"] = cpu_seconds() - c0
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        setattr(module, name, wrapper)
        self._patched.append((module, name, fn))

    def restore(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "module": sp.module,
                    "parent": sp.parent, "op": sp.op, "thread": sp.thread,
                    "start": sp.start - self._t0, "end": sp.end - self._t0,
                    "attrs": {k: v for k, v in sp.attrs.items()
                              if isinstance(v, (int, float, str, bool))},
                }) + "\n")


@contextmanager
def timed_names(module, names: tuple[str, ...], totals: dict[str, float]):
    """Thin timers on ``module.<name>`` that add each call's seconds to totals."""
    originals = {}
    for name in names:
        fn = getattr(module, name, None)
        if fn is None:
            continue
        originals[name] = fn

        def timer(*args, _fn=fn, _name=name, **kwargs):
            t = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[_name] = totals.get(_name, 0.0) + time.perf_counter() - t

        setattr(module, name, functools.wraps(fn)(timer))
    try:
        yield totals
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


# --- counts recorded when a wrapped call returns ------------------------------

def _record_model(sp: Span, args, kwargs, model) -> None:
    sp.attrs["vectors"] = len(model)
    sp.attrs["bytes"] = Path(args[0]).stat().st_size


def _record_dataset(sp: Span, args, kwargs, dataset) -> None:
    sp.attrs["contexts"] = len(dataset.instances)
    sp.attrs["tokens"] = sum(len(inst.tokens) for inst in dataset.instances)


def _record_chi2(sp: Span, args, kwargs, table) -> None:
    sp.attrs["pairs"] = len(table.values)


def _record_vectors(sp: Span, args, kwargs, by_word) -> None:
    ids, zero = [], []
    for word_ids, X in by_word.values():
        ids.extend(word_ids)
        zero.extend(cid for cid, row in zip(word_ids, X) if not row.any())
    sp.attrs["contexts"] = len(ids)
    sp.attrs["ids"] = ids
    sp.attrs["zero_ids"] = zero


def _record_distance_input(metric: str | None) -> Callable:
    def record(sp: Span, args, kwargs, result) -> None:
        # Keep the input array; it is hashed after the operation, outside
        # every span, so that hashing does not count as any layer's time.
        sp.attrs["points"] = args[0]
        sp.attrs["metric"] = metric or (args[1] if len(args) > 1 else kwargs["metric"])
    return record


def _record_ap(sp: Span, args, kwargs, result) -> None:
    sp.attrs["nonconverged"] = getattr(result, "converged", True) is False
    sp.attrs["jitter"] = bool(getattr(result, "jitter_applied", False))


def _record_report(sp: Span, args, kwargs, report) -> None:
    sp.attrs["contexts"] = sum(n for _, n in report.per_word.values())


def install(tracer: Tracer) -> None:
    """Wrap the public names where the benchmark, the search and the CLI look them up."""
    import senseclust
    from senseclust import cli, search, weighting

    # ``senseclust.cluster`` is the package's ``cluster()`` function, which
    # shadows the submodule of the same name.
    cluster = importlib.import_module("senseclust.cluster")

    # Library set-up and the search itself, as the benchmark calls them.
    tracer.wrap(senseclust, "load_embeddings", _record_model)
    tracer.wrap(senseclust, "parse_dataset", _record_dataset)
    tracer.wrap(weighting, "read_idf_tsv")
    tracer.wrap(senseclust, "build_chi2", _record_chi2)
    tracer.wrap(senseclust, "grid_search", cpu=True)
    # Names the search calls.
    tracer.wrap(search, "vectorize_dataset", _record_vectors)
    tracer.wrap(search, "dendrogram")
    tracer.wrap(search, "cut_merges")
    tracer.wrap(search, "affinity_propagation", _record_ap)
    tracer.wrap(search, "evaluate", _record_report)
    # Inside the cluster module: distances, and the dendrogram and cut that
    # ``agglomerative`` reaches on the CLI path.
    tracer.wrap(cluster, "pairwise_distances", _record_distance_input(None))
    tracer.wrap(cluster, "_squared_euclidean", _record_distance_input("euclidean"))
    tracer.wrap(cluster, "dendrogram")
    tracer.wrap(cluster, "cut_merges")
    # The CLI entry point and the names its commands call.
    tracer.wrap(cli, "main")
    tracer.wrap(cli, "load_embeddings", _record_model)
    tracer.wrap(cli, "parse_dataset", _record_dataset)
    tracer.wrap(cli, "read_idf_tsv")
    tracer.wrap(cli, "build_chi2", _record_chi2)
    tracer.wrap(cli, "vectorize_dataset", _record_vectors)
    tracer.wrap(cli, "agglomerative")
    tracer.wrap(cli, "affinity_propagation", _record_ap)
    tracer.wrap(cli, "evaluate", _record_report)
    tracer.wrap(cli, "write_predictions")


# --- per-layer metrics from one operation's spans -----------------------------

def self_time(sp: Span, children: list[Span]) -> float:
    """Duration minus the union of the children's intervals inside it."""
    intervals = sorted((max(c.start, sp.start), min(c.end, sp.end))
                       for c in children)
    covered, cur_start, cur_end = 0.0, None, None
    for s, e in intervals:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return sp.duration - covered


def _input_key(sp: Span) -> tuple[bytes, str]:
    points = np.ascontiguousarray(sp.attrs["points"], dtype=np.float64)
    return hashlib.blake2b(points.tobytes(), digest_size=16).digest(), sp.attrs["metric"]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation; absent spans read as 0."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
        if sp.parent is not None:
            children[sp.parent].append(sp)

    def total(name: str) -> float:
        return sum(sp.duration for sp in by_name[name])

    def self_total(name: str) -> float:
        return sum(self_time(sp, children[sp.id]) for sp in by_name[name])

    def count(name: str, attr: str) -> int:
        return sum(sp.attrs.get(attr, 0) for sp in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    vec = by_name["vectorize_dataset"]
    vec_ids = {cid for sp in vec for cid in sp.attrs["ids"]}
    zero_ids = {cid for sp in vec for cid in sp.attrs["zero_ids"]}
    dist = by_name["pairwise_distances"] + by_name["_squared_euclidean"]
    dist_inputs = {_input_key(sp) for sp in dist}
    searches = by_name["grid_search"]
    search_wall = sum(sp.duration for sp in searches)
    search_cpu = sum(sp.attrs.get("cpu_s", 0.0) for sp in searches)

    return {
        "embeddings.load_s": total("load_embeddings"),
        "embeddings.vectors": count("load_embeddings", "vectors"),
        "embeddings.file_mb": count("load_embeddings", "bytes") / 1e6,
        "dataset.parse_s": total("parse_dataset"),
        "dataset.contexts": count("parse_dataset", "contexts"),
        "dataset.tokens": count("parse_dataset", "tokens"),
        "weighting.idf_read_s": total("read_idf_tsv"),
        "weighting.chi2_build_s": total("build_chi2"),
        "weighting.chi2_pairs": count("build_chi2", "pairs"),
        "vectorize.s": total("vectorize_dataset"),
        "vectorize.calls": len(vec),
        "vectorize.contexts": count("vectorize_dataset", "contexts"),
        "vectorize.recompute_ratio": ratio(count("vectorize_dataset", "contexts"),
                                           len(vec_ids)),
        "vectorize.zero_vectors": len(zero_ids),
        "cluster.distance_s": sum(sp.duration for sp in dist),
        "cluster.distance_calls": len(dist),
        "cluster.distance_reuse_ratio": ratio(len(dist), len(dist_inputs)),
        "cluster.dendrogram_self_s": self_total("dendrogram"),
        "cluster.dendrogram_calls": len(by_name["dendrogram"]),
        "cluster.cut_s": total("cut_merges"),
        "cluster.cut_calls": len(by_name["cut_merges"]),
        "cluster.ap_s": self_total("affinity_propagation"),
        "cluster.ap_calls": len(by_name["affinity_propagation"]),
        "cluster.ap_nonconverged": count("affinity_propagation", "nonconverged"),
        "cluster.ap_jitter": count("affinity_propagation", "jitter"),
        "evaluate.s": total("evaluate"),
        "evaluate.calls": len(by_name["evaluate"]),
        "evaluate.contexts": count("evaluate", "contexts"),
        "search.self_s": self_total("grid_search"),
        "search.cpu_per_wall": ratio(search_cpu, search_wall),
        "cli.self_s": self_total("main"),
        "cli.calls": len(by_name["main"]),
        "trace.spans": len(spans),
    }

