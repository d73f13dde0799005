"""Deterministic joint grid search over weighting powers and clustering
hyperparameters, with heatmap and linkage-sweep exports.

The search runs one task per word with gold senses; words without them are
never clustered. A task builds each context's power-independent terms
(embedding rows, tf-idf and chi-square values) once, and its power step
gives the context's vectors under every power pair as stacked matmuls. One
``cluster.cluster_points`` call, as in a ``cluster`` command's task, takes that
stack of point sets, one per power pair, and their Gram products as one
batched product. The power pairs' dendrograms of one (linkage, metric)
pair then run as one stacked merge loop with cached row minima (a chunk
below ``cluster._STACK_FLOOR`` point sets runs the per-set loop), and one
pass over all their merges cuts every k, whichever loop ran. It yields each
power pair's labelings under every clustering config, which are scored
against the gold senses with one contingency table and then dropped. A config's
train ARI combines the per-word scores in gold word order, so it is the
same float for any worker count. Results are ranked by train ARI
descending with ties broken by ascending config serialization.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cluster import LINKAGES, ClusteringConfig, cluster_points
from .dataset import Dataset
from .embeddings import EmbeddingModel
from .errors import DataError, read_lines
from .evaluate import ari_rows, gold_codes, weighted_ari
from .vectorize import vectorize_word
from .weighting import POWER_GRID, Chi2Table, IdfTable, WeightingConfig

AUTO_PREFERENCE = "auto"
GRID_FIELDS = {"k_grid": "n_clusters", "linkages": "linkage", "metrics": "metric",
               "damping_grid": "damping", "preference_grid": "preference",
               "algorithms": "algorithm"}


def parse_preference(value) -> float | None:
    """``"auto"`` (the median similarity) as None, anything else as a number."""
    if value == AUTO_PREFERENCE:
        return None
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"preference must be a number or 'auto', got {value!r}") from None


def parallel_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """``[fn(x) for x in items]``, run on at most ``jobs`` threads, in input order."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class SearchSpace:
    """Grids defining the Cartesian search space, per algorithm."""

    power_grid: tuple[float, ...] = POWER_GRID
    k_grid: tuple[int, ...] = tuple(range(1, 15))
    linkages: tuple[str, ...] = LINKAGES
    metrics: tuple[str, ...] = ("euclidean",)
    damping_grid: tuple[float, ...] = (0.5,)
    preference_grid: tuple = (AUTO_PREFERENCE,)
    algorithms: tuple[str, ...] = ("agglomerative", "affinity_propagation")

    def __post_init__(self):
        for f in fields(self):
            self.check_grid(f.name, getattr(self, f.name))
        if not self.power_grid or not self.algorithms:
            raise ValueError("power_grid and algorithms must be non-empty")
        if "agglomerative" in self.algorithms:
            if not (self.k_grid and self.linkages and self.metrics):
                raise ValueError("agglomerative grids must be non-empty")
        if "affinity_propagation" in self.algorithms and not (
                self.damping_grid and self.preference_grid):
            raise ValueError("affinity propagation grids must be non-empty")

    @staticmethod
    def check_grid(name: str, values: Sequence) -> None:
        """Raise ValueError unless every value makes a valid config and none repeats."""
        keys = [parse_preference(v) if name == "preference_grid" else v for v in values]
        for key in keys:
            if name == "power_grid":
                WeightingConfig(p_tfidf=key)
            else:  # the ClusteringConfig field the grid sets; average takes any metric
                ClusteringConfig(**{"linkage": "average", GRID_FIELDS[name]: key})
        repeated = [v for v, key in zip(values, keys) if keys.count(key) > 1]
        if repeated:
            raise ValueError(f"{name} repeats {repeated[0]!r}")

    def weightings(self) -> list[WeightingConfig]:
        """Every power pair of the space, p_tfidf major."""
        return [WeightingConfig(p_tfidf=pt, p_chi2=pc)
                for pt in self.power_grid for pc in self.power_grid]

    def clusterings(self) -> list[ClusteringConfig]:
        """The clustering configs searched under each power pair, agglomerative
        first, by linkage, then metric (ward with euclidean only), then k."""
        clusterings = []
        if "agglomerative" in self.algorithms:
            clusterings += [ClusteringConfig(linkage=lk, metric=m, n_clusters=k)
                            for lk in self.linkages for m in self.metrics
                            if lk != "ward" or m == "euclidean" for k in self.k_grid]
        if "affinity_propagation" in self.algorithms:
            clusterings += [ClusteringConfig(algorithm="affinity_propagation", damping=d,
                                             preference=parse_preference(p))
                            for d in self.damping_grid for p in self.preference_grid]
        return clusterings

    def configs(self) -> list[tuple[ClusteringConfig, WeightingConfig]]:
        """Every configuration, power pair major, then clustering config."""
        return [(c, w) for w in self.weightings() for c in self.clusterings()]

    def size(self) -> int:
        """Number of valid configurations (per-algorithm spaces summed)."""
        return len(self.configs())


class SearchEntry(NamedTuple):
    clustering: ClusteringConfig
    weighting: WeightingConfig
    train_ari: float


@dataclass
class SearchResult:
    ranked: list[SearchEntry] = field(default_factory=list)

    @property
    def best(self) -> SearchEntry:
        return self.ranked[0]


def serialize_config(clustering: ClusteringConfig, weighting: WeightingConfig) -> str:
    """Canonical single-line form; also the deterministic tie-break key."""
    fields = {"algorithm": clustering.algorithm, "p_chi2": repr(weighting.p_chi2),
              "p_tfidf": repr(weighting.p_tfidf)}
    if clustering.algorithm == "agglomerative":
        fields.update(k=str(clustering.n_clusters), linkage=clustering.linkage,
                      metric=clustering.metric)
    else:
        fields.update(damping=repr(clustering.damping),
                      preference=(AUTO_PREFERENCE if clustering.preference is None
                                  else repr(clustering.preference)))
    return " ".join(f"{k}={v}" for k, v in sorted(fields.items()))


def grid_search(dataset: Dataset, model: EmbeddingModel, idf: IdfTable,
                chi2: Chi2Table, space: SearchSpace, jobs: int = 1) -> SearchResult:
    """Exhaustively score every configuration in the space on train ARI."""
    gold = gold_codes(dataset)
    weightings, clusterings = space.weightings(), space.clusterings()

    def score_word(word: str) -> list[float]:
        """The word's ARI under every config, in ``space.configs()`` order."""
        keep, codes = gold[word]
        scores: list[float] = []
        stack = vectorize_word(dataset, word, model, idf, chi2, weightings)
        for results in cluster_points(stack, clusterings):
            labels = np.stack([r.labels for r in results])
            scores += ari_rows(codes, labels[:, keep])
        return scores

    sizes = [len(codes) for _, codes in gold.values()]
    # Every train ARI sums its per-word scores in gold word order.
    per_word = parallel_map(score_word, list(gold), jobs)
    # A word with more or fewer scores than there are configs stops the search.
    per_config = zip(*per_word, strict=True)
    ranked = [SearchEntry(ccfg, wcfg, weighted_ari(zip(scores, sizes)))
              for (ccfg, wcfg), scores in zip(space.configs(), per_config, strict=True)]
    ranked.sort(key=lambda e: (-e.train_ari,
                               serialize_config(e.clustering, e.weighting)))
    return SearchResult(ranked=ranked)


def _best_ari_rows(entries, key: Callable[[SearchEntry], tuple], what: str) -> list[tuple]:
    """``(*key(entry), highest train ARI)`` rows, in key order; ValueError if none."""
    best: dict[tuple, float] = {}
    for entry in entries:
        k = key(entry)
        if k not in best or entry.train_ari > best[k]:
            best[k] = entry.train_ari
    if not best:
        raise ValueError(f"no {what} in the search result")
    return [(*k, ari) for k, ari in sorted(best.items())]


def export_power_heatmap(result: SearchResult,
                         fixed_clustering: ClusteringConfig | None = None
                         ) -> list[tuple[float, float, float]]:
    """(p_tfidf, p_chi2, ari) rows, one per power combination.

    By default the ARI is maximized over all other grid dimensions; passing
    ``fixed_clustering`` restricts the rows to that config, which must be in the result.
    """
    return _best_ari_rows(
        (e for e in result.ranked
         if fixed_clustering is None or e.clustering == fixed_clustering),
        lambda e: (e.weighting.p_tfidf, e.weighting.p_chi2),
        f"configuration {fixed_clustering}")


def export_k_linkage_sweep(result: SearchResult) -> list[tuple[int, str, float]]:
    """(n_clusters, linkage, ari) rows maximized over the other dimensions."""
    return _best_ari_rows(
        (e for e in result.ranked if e.clustering.algorithm == "agglomerative"),
        lambda e: (e.clustering.n_clusters, e.clustering.linkage),
        "agglomerative configurations")


def heatmap_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    lines = ["p_tfidf,p_chi2,ari"]
    lines += [f"{pt!r},{pc!r},{a:.6f}" for pt, pc, a in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[tuple[int, str, float]]) -> str:
    lines = ["n_clusters,linkage,ari"]
    lines += [f"{k},{lk},{a:.6f}" for k, lk, a in rows]
    return "\n".join(lines) + "\n"


def ranked_csv(result: SearchResult) -> str:
    lines = ["config,train_ari"]
    for entry in result.ranked:
        lines.append(f"{serialize_config(entry.clustering, entry.weighting)},"
                     f"{entry.train_ari:.6f}")
    return "\n".join(lines) + "\n"


def parse_space_file(path: str | Path) -> SearchSpace:
    """Read a SearchSpace from ``key = value`` lines.

    Lists are comma-separated; ``k_grid`` also accepts ``lo..hi`` ranges;
    ``preference_grid`` accepts numbers and the word ``auto``. Blank lines
    and ``#`` comments are ignored. Unset keys keep their defaults.
    """
    kwargs: dict = {}
    with read_lines(path) as lines:
        for _, line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("expected 'key = value'")
            key = key.strip()
            if key not in {f.name for f in fields(SearchSpace)}:
                raise ValueError(f"unknown key {key!r}")
            if key in kwargs:
                raise ValueError(f"repeated key {key!r}")
            items = [v.strip() for v in value.split(",") if v.strip()]
            try:
                if key in ("power_grid", "damping_grid"):
                    kwargs[key] = tuple(float(v) for v in items)
                elif key == "k_grid":
                    ks: list[int] = []
                    for v in items:
                        if ".." in v:
                            lo, hi = (int(end) for end in v.split(".."))
                            for end in (lo, hi):  # before expanding the range
                                ClusteringConfig(n_clusters=end)
                            if lo > hi:
                                raise ValueError("reversed range")
                            ks.extend(range(lo, hi + 1))
                        else:
                            ks.append(int(v))
                    kwargs[key] = tuple(ks)
                elif key in ("linkages", "metrics", "algorithms"):
                    kwargs[key] = tuple(items)
                else:  # preference_grid
                    kwargs[key] = tuple(v if v == AUTO_PREFERENCE else float(v)
                                        for v in items)
            except ValueError:
                raise ValueError(f"bad {key} value {value.strip()!r}") from None
            SearchSpace.check_grid(key, kwargs[key])
    try:
        return SearchSpace(**kwargs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
