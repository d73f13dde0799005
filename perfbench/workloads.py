"""The benchmark's workloads: one pass of each, with its output checks.

Import this module only after worker.import_package() has put the
checkout's ``src`` first on the path.

Every workload is a closed loop: the caller starts a pass only after the
previous one has returned. A pass drives senseclust only through the
package's public functions and ``senseclust.cli.main``.

- ``search``: library set-up from binary embeddings, then ``grid_search``
  over the default 1,548-config space with one job.
- ``induce``: four tuned configs applied through the CLI, each a
  ``cluster`` call with text embeddings and CLI defaults, then an
  ``evaluate`` call.
- ``large-n``: library set-up, then ``grid_search`` with two jobs over a
  narrow 93-config space on words with 500 contexts each.
"""

from __future__ import annotations

import hashlib
import io
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import senseclust
from senseclust import (ClusteringConfig, SearchSpace, WeightingConfig, cli,
                        serialize_config, weighting)
from senseclust.cluster import dendrogram, pairwise_distances
from senseclust.search import ranked_csv
from spans import cpu_seconds, timed_names

LARGE_N_SPACE = dict(
    power_grid=(1.0,),
    k_grid=tuple(range(2, 15)),
    linkages=("ward", "average", "complete"),
    metrics=("euclidean", "manhattan", "cosine"),
    damping_grid=(0.5, 0.9),
)

INDUCE_CONFIGS = (
    ("ward-k2", ["--algo", "agglomerative", "--linkage", "ward", "--k", "2"]),
    ("average-cosine", ["--algo", "agglomerative", "--linkage", "average",
                        "--metric", "cosine", "--k", "3"]),
    ("complete-manhattan", ["--algo", "agglomerative", "--linkage", "complete",
                            "--metric", "manhattan", "--k", "3"]),
    ("ap-auto", ["--algo", "affinity_propagation", "--preference", "auto"]),
)

# Set-up time is the time spent in these names, as the CLI looks them up.
SETUP_NAMES = ("load_embeddings", "parse_dataset", "read_idf_tsv", "build_chi2")


@dataclass
class Pass:
    """Timings, score and check results of one pass of a workload."""

    run_s: float = 0.0
    setup_s: float = 0.0
    configs: int = 0
    configs_s: float = 0.0
    cpu_s: float = 0.0
    ari: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # name -> sha256

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


def search_space(workload: str):
    if workload == "search":
        return SearchSpace()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "ward is euclidean-only" notice
        return SearchSpace(**LARGE_N_SPACE)


def search_pass(files: dict, space, jobs: int) -> Pass:
    """Library set-up, then one grid search."""
    p = Pass(attempted=1)
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        model = senseclust.load_embeddings(files["embeddings"], fmt=files["format"])
        dataset = senseclust.parse_dataset(files["dataset"], report_to=io.StringIO())
        idf = weighting.read_idf_tsv(files["idf"])
        chi2 = senseclust.build_chi2(dataset)
        t1 = time.perf_counter()
        result = senseclust.grid_search(dataset, model, idf, chi2, space, jobs=jobs)
    except Exception as exc:  # a failed operation, counted and reported
        p.problems.append(f"grid search raised {exc!r}")
        return p
    finally:
        p.run_s = time.perf_counter() - t0
        p.cpu_s = cpu_seconds() - c0
    p.setup_s = t1 - t0
    p.configs = space.size()
    p.configs_s = p.run_s - p.setup_s
    p.ari = result.best.train_ari
    p.problems += check_ranked(result, space, p.outputs)
    return p


def expected_configs(space) -> set[str]:
    """Serialized form of every configuration the space defines."""
    out = set()
    for pt in space.power_grid:
        for pc in space.power_grid:
            w = WeightingConfig(p_tfidf=pt, p_chi2=pc)
            if "agglomerative" in space.algorithms:
                for linkage in space.linkages:
                    for metric in space.metrics:
                        if linkage == "ward" and metric != "euclidean":
                            continue
                        for k in space.k_grid:
                            c = ClusteringConfig(n_clusters=k, linkage=linkage,
                                                 metric=metric)
                            out.add(serialize_config(c, w))
            if "affinity_propagation" in space.algorithms:
                for damping in space.damping_grid:
                    for pref in space.preference_grid:
                        c = ClusteringConfig(
                            algorithm="affinity_propagation", damping=damping,
                            preference=None if pref == "auto" else float(pref))
                        out.add(serialize_config(c, w))
    return out


def check_ranked(result, space, outputs: dict[str, str]) -> list[str]:
    """Problems with the ranked CSV of a search; records its sha256."""
    text = ranked_csv(result)
    outputs["ranked.csv"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    lines = text.splitlines()
    if not lines or lines[0] != "config,train_ari":
        return ["ranked.csv: missing 'config,train_ari' header"]
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    configs = [row[0] for row in rows]
    problems = []
    if len(configs) != space.size() or set(configs) != expected_configs(space):
        problems.append(f"ranked.csv: {len(set(configs))} unique configs, "
                        f"expected the space's {space.size()}")
    aris = [float(row[1]) for row in rows]
    if any(not -1.0 <= a <= 1.0 for a in aris):
        problems.append("ranked.csv: an ARI outside [-1, 1]")
    # The CSV rounds ARI to 6 decimals, so order is checked on the exact
    # values of the result the CSV was written from.
    keys = [(-e.train_ari, serialize_config(e.clustering, e.weighting))
            for e in result.ranked]
    if keys != sorted(keys) or [k[1] for k in keys] != configs:
        problems.append("ranked.csv: not sorted by (-ARI, config)")
    return problems


def induce_pass(files: dict, work: Path, context_ids: list[str]) -> Pass:
    """Each tuned config through ``senseclust cluster`` then ``evaluate``."""
    p = Pass(attempted=len(INDUCE_CONFIGS))
    calls = []
    totals: dict[str, float] = {}
    t0, c0 = time.perf_counter(), cpu_seconds()
    with timed_names(cli, SETUP_NAMES, totals):
        for name, flags in INDUCE_CONFIGS:
            pred = work / f"pred-{name}.tsv"
            report = io.StringIO()
            try:
                with redirect_stdout(report), redirect_stderr(io.StringIO()):
                    rc = cli.main(["cluster", "--embeddings", files["embeddings"],
                                   "--dataset", files["dataset"],
                                   "--idf", files["idf"], *flags,
                                   "--out", str(pred)])
                    rc_eval = (cli.main(["evaluate", "--gold", files["dataset"],
                                         "--pred", str(pred)]) if rc == 0 else None)
            except Exception as exc:  # a failed operation, counted and reported
                calls.append((name, pred, None, None, repr(exc)))
                continue
            calls.append((name, pred, rc, rc_eval, report.getvalue()))
    p.run_s = time.perf_counter() - t0
    p.cpu_s = cpu_seconds() - c0
    p.setup_s = sum(totals.values())
    p.configs = len(INDUCE_CONFIGS)
    p.configs_s = p.run_s

    scores = []
    digest = hashlib.sha256()
    for name, pred, rc, rc_eval, out in calls:
        if rc is None:
            p.problems.append(f"{name}: raised {out}")
            continue
        if rc != 0 or rc_eval != 0:
            p.problems.append(f"{name}: cluster exit {rc}, evaluate exit {rc_eval}")
            continue
        data = pred.read_bytes()
        digest.update(data)
        problem = check_predictions(data.decode("utf-8"), context_ids)
        score = aggregate_weighted(out)
        if problem is None and score is None:
            problem = "evaluate printed no aggregate_weighted line"
        elif problem is None and not -1.0 <= score <= 1.0:
            problem = f"aggregate ARI {score} outside [-1, 1]"
        if problem is not None:
            p.problems.append(f"{name}: {problem}")
        else:
            scores.append(score)
    p.outputs["predictions"] = digest.hexdigest()
    p.ari = sum(scores) / len(scores) if scores else 0.0
    return p


def check_predictions(text: str, context_ids: list[str]) -> str | None:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    if "context_id" not in header or "predict_sense_id" not in header:
        return "predictions lack the context_id or predict_sense_id column"
    id_col, pred_col = header.index("context_id"), header.index("predict_sense_id")
    rows = [line.split("\t") for line in lines[1:]]
    labeled = [row[id_col] for row in rows if len(row) == len(header) and row[pred_col]]
    if labeled != context_ids:
        missing = len(set(context_ids) - set(labeled))
        return f"predictions miss {missing} of {len(context_ids)} contexts"
    return None


def aggregate_weighted(report: str) -> float | None:
    for line in report.splitlines():
        if line.startswith("aggregate_weighted\t"):
            return float(line.rsplit("\t", 1)[1])
    return None


def dataset_ids(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        col = header.index("context_id")
        return [line.split("\t")[col] for line in fh if line.strip()]


def speed_references(files: dict) -> tuple[dict[str, float], dict]:
    """senseclust's distances and dendrograms beside scipy's, on the same inputs.

    The inputs are the workload's context vectors at powers (1, 1). scipy
    is a reference only; without it the scipy times read 0.
    """
    model = senseclust.load_embeddings(files["embeddings"], fmt=files["format"])
    dataset = senseclust.parse_dataset(files["dataset"], report_to=io.StringIO())
    idf = weighting.read_idf_tsv(files["idf"])
    chi2 = senseclust.build_chi2(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        by_word = senseclust.vectorize_dataset(dataset, model, idf, chi2,
                                               senseclust.WeightingConfig())
    del model
    try:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import cdist
    except ImportError:
        linkage = cdist = None

    times = dict.fromkeys(("ref.own_distance_s", "ref.scipy_cdist_s",
                           "ref.own_dendrogram_s", "ref.scipy_linkage_s"), 0.0)
    max_diff = 0.0
    for _, X in by_word.values():
        X = X[X.any(axis=1)]  # scipy's cosine is undefined for zero vectors
        for metric, scipy_metric in (("euclidean", "euclidean"),
                                     ("manhattan", "cityblock"),
                                     ("cosine", "cosine")):
            t = time.perf_counter()
            own = pairwise_distances(X, metric)
            times["ref.own_distance_s"] += time.perf_counter() - t
            if cdist is not None:
                t = time.perf_counter()
                ref = cdist(X, X, scipy_metric)
                times["ref.scipy_cdist_s"] += time.perf_counter() - t
                max_diff = max(max_diff, float(np.abs(own - ref).max()))
        for method in ("ward", "average", "complete"):
            t = time.perf_counter()
            dendrogram(X, method, "euclidean")
            times["ref.own_dendrogram_s"] += time.perf_counter() - t
            if linkage is not None:
                t = time.perf_counter()
                linkage(X, method=method, metric="euclidean")
                times["ref.scipy_linkage_s"] += time.perf_counter() - t
    info = {"scipy": cdist is not None, "max_abs_distance_diff": max_diff,
            "words": len(by_word)}
    return times, info
