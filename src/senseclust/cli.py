"""Command-line pipeline: weight building, clustering, evaluation, search,
diagnostics, and translation-based labeling.

Exit codes: 0 success, 1 usage error (bad flags or constraint violations),
2 data error (missing or malformed input files). All outputs are
deterministic functions of the flags and the input files, whatever --jobs is.
"""

from __future__ import annotations

import argparse
import sys
from itertools import compress
from pathlib import Path

from . import search as search_mod
from .cluster import ALGORITHMS, LINKAGES, METRICS, ClusteringConfig, cluster
from .dataset import Dataset, parse_dataset, write_predictions
from .embeddings import (FORMATS, load_embeddings, load_frequency_table,
                         norm_frequency_report, norm_report_tsv)
from .errors import DataError, read_lines
from .evaluate import Labeling, confusion_csv, confusion_matrix, evaluate
from .mt_label import (STEMMER_ALGORITHMS, Stemmer, label_by_translation,
                       read_translations)
from .search import (SearchSpace, grid_search, parallel_map, parse_preference,
                     parse_space_file, serialize_config)
from .text import tokenize
from .vectorize import dump_vectors, vectorize_dataset
from .weighting import (Chi2Table, IdfTable, WeightingConfig, build_chi2,
                        build_idf, read_chi2_tsv, read_idf_tsv, write_chi2_tsv,
                        write_idf_tsv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default would sys.exit(2)
        raise UsageError(f"{self.prog}: {message}")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-tfidf", type=float, default=1.0,
                   help="tf-idf power exponent (default: 1.0)")
    p.add_argument("--p-chi2", type=float, default=1.0,
                   help="chi-square power exponent (default: 1.0)")
    p.add_argument("--idf", type=Path, default=None,
                   help="idf cache TSV from build-idf (required unless --p-tfidf 0)")
    p.add_argument("--chi2", type=Path, default=None,
                   help="chi2 cache TSV from build-chi2 (default: computed from the dataset)")


def _jobs(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel workers across words/configurations (default: 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="senseclust",
                     description="Word sense induction toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("build-idf", help="build an idf table from a background corpus")
    p.add_argument("--corpus", type=Path, nargs="+", required=True,
                   help="text file(s), one document per line")
    p.add_argument("--out", type=Path, required=True, help="output idf TSV")
    p.set_defaults(func=cmd_build_idf)

    p = sub.add_parser("build-chi2", help="build a chi2 table from a dataset")
    p.add_argument("--dataset", type=Path, required=True, help="dataset TSV")
    p.add_argument("--out", type=Path, required=True, help="output chi2 TSV")
    p.set_defaults(func=cmd_build_chi2)

    p = sub.add_parser("cluster", help="cluster contexts and write predictions")
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="text",
                   help="embedding file format (default: text)")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="agglomerative",
                   help="clustering algorithm (default: agglomerative)")
    p.add_argument("--k", type=int, default=2,
                   help="number of clusters, 1..14 (default: 2)")
    p.add_argument("--linkage", choices=LINKAGES, default="ward",
                   help="linkage criterion (default: ward)")
    p.add_argument("--metric", choices=METRICS, default="euclidean",
                   help="point distance; ward requires euclidean (default: euclidean)")
    p.add_argument("--damping", type=float, default=0.5,
                   help="affinity propagation damping in [0.5, 1) (default: 0.5)")
    p.add_argument("--preference", default="auto",
                   help="affinity propagation preference in [-20, 5], or "
                        "'auto' for the median similarity (default: auto)")
    p.add_argument("--max-iter", type=int, default=200,
                   help="affinity propagation iteration cap (default: 200)")
    p.add_argument("--convergence-window", type=int, default=15,
                   help="iterations of stable exemplars to declare convergence "
                        "(default: 15)")
    _add_weight_flags(p)
    p.add_argument("--out", type=Path, required=True, help="predictions TSV")
    p.add_argument("--dump-vectors", type=Path, default=None,
                   help="optional TSV dump of the context vectors")
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score predictions against gold senses")
    p.add_argument("--gold", type=Path, required=True, help="gold dataset TSV")
    p.add_argument("--pred", type=Path, required=True,
                   help="dataset TSV with predict_sense_id filled")
    p.add_argument("--confusion-dir", type=Path, default=None,
                   help="optional directory for per-word confusion CSVs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-search", help="exhaustive hyperparameter search")
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="text",
                   help="embedding file format (default: text)")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--idf", type=Path, required=True, help="idf cache TSV")
    p.add_argument("--chi2", type=Path, default=None,
                   help="chi2 cache TSV (default: computed from the dataset)")
    p.add_argument("--space", type=Path, default=None,
                   help="key=value search space file (default: full default grids)")
    p.add_argument("--out-ranked", type=Path, required=True,
                   help="CSV of all configurations ranked by train ARI")
    p.add_argument("--out-heatmap", type=Path, default=None,
                   help="optional CSV (p_tfidf, p_chi2, ari)")
    p.add_argument("--out-sweep", type=Path, default=None,
                   help="optional CSV (n_clusters, linkage, ari)")
    p.add_argument("--heatmap-view", choices=("max", "default"), default="max",
                   help="heatmap cell = max over other dimensions, or the "
                        "default clustering config only (default: max)")
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("norm-report",
                       help="norm-vs-frequency diagnostic sample of the vocabulary")
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="text",
                   help="embedding file format (default: text)")
    p.add_argument("--freqs", type=Path, required=True,
                   help="word<TAB>count frequency TSV")
    p.add_argument("--sample-size", type=int, default=1000,
                   help="words to sample (default: 1000)")
    p.add_argument("--out", type=Path, default=None,
                   help="output TSV (default: standard output)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.set_defaults(func=cmd_norm_report)

    p = sub.add_parser("mt-label", help="label contexts by majority translation")
    p.add_argument("--translations", type=Path, required=True,
                   help="context_id<TAB>translation[,translation...] TSV")
    p.add_argument("--stemmer", choices=STEMMER_ALGORITHMS, default="identity",
                   help="translation normalizer (default: identity)")
    p.add_argument("--dataset", type=Path, default=None,
                   help="when given, write a predictions TSV for this dataset")
    p.add_argument("--out", type=Path, default=None,
                   help="output file (default: standard output)")
    p.set_defaults(func=cmd_mt_label)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _clustering_config(args) -> ClusteringConfig:
    try:
        return ClusteringConfig(
            algorithm=args.algo, n_clusters=args.k, linkage=args.linkage,
            metric=args.metric, damping=args.damping,
            preference=parse_preference(args.preference),
            max_iter=args.max_iter, convergence_window=args.convergence_window,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_build_idf(args) -> int:
    docs = (tokenize(line) for path in args.corpus
            for _, line in read_lines(path) if not line.isspace())
    write_idf_tsv(build_idf(docs), args.out)
    return 0


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _read_dataset(path: Path) -> Dataset:
    dataset = parse_dataset(path)
    for message in dataset.warnings:  # flagged target spans
        _warn(message)
    return dataset


def _chi2_table(path: Path | None, dataset) -> Chi2Table:
    table = read_chi2_tsv(path) if path is not None else build_chi2(dataset)
    if table.single_target:
        _warn("single-target dataset, chi2 table is all-zero")
    return table


def cmd_build_chi2(args) -> int:
    write_chi2_tsv(_chi2_table(None, _read_dataset(args.dataset)), args.out)
    return 0


def cmd_cluster(args) -> int:
    ccfg = _clustering_config(args)
    try:
        wcfg = WeightingConfig(p_tfidf=args.p_tfidf, p_chi2=args.p_chi2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.idf is None and args.p_tfidf != 0.0:
        raise UsageError("--idf is required when --p-tfidf is nonzero")
    model = load_embeddings(args.embeddings, fmt=args.format)
    dataset = _read_dataset(args.dataset)
    idf = read_idf_tsv(args.idf) if args.idf is not None else IdfTable(n_docs=1, df={})
    chi2 = _chi2_table(args.chi2, dataset)

    by_word = vectorize_dataset(dataset, model, idf, chi2, wcfg)
    results = parallel_map(lambda X: cluster(X, ccfg),
                           [X for _, X in by_word.values()], args.jobs)
    assignments = {}
    for (word, (ids, X)), result in zip(by_word.items(), results):
        for cid in compress(ids, ~X.any(axis=1)):
            _warn(f"context {cid!r}: no contributing tokens, zero vector")
        if ccfg.algorithm == "agglomerative" and result.k < ccfg.n_clusters:
            _warn(f"word {word!r}: {len(ids)} context(s), k clamped to {result.k}")
        if result.converged is False:
            _warn(f"word {word!r}: affinity propagation did not converge")
        assignments.update((cid, str(int(lab))) for cid, lab in zip(ids, result.labels))
    write_predictions(dataset, Labeling(assignments), args.out)
    if args.dump_vectors is not None:
        vec_of = {cid: X[i] for ids, X in by_word.values()
                  for i, cid in enumerate(ids)}
        dump_vectors(((inst.context_id, vec_of[inst.context_id])
                      for inst in dataset.instances), args.dump_vectors)
    return 0


def cmd_evaluate(args) -> int:
    gold = _read_dataset(args.gold)
    if args.confusion_dir is not None:
        for word in gold.by_target:  # each word names a file in the directory
            if "/" in word or "\\" in word:
                raise DataError(f"{args.gold}: target word {word!r} contains a "
                                "path separator and cannot name a confusion file")
    pred = _read_dataset(args.pred)
    pred_col = pred.header.index("predict_sense_id")
    id_col = pred.header.index("context_id")
    assignments = {row[id_col]: row[pred_col]
                   for row in pred.raw_rows if row[pred_col] != ""}
    report = evaluate(gold, Labeling(assignments))
    if args.confusion_dir is not None:
        args.confusion_dir.mkdir(parents=True, exist_ok=True)
        for word, idxs in gold.by_target.items():
            pairs = [(gold.instances[i].gold_sense,
                      assignments[gold.instances[i].context_id])
                     for i in idxs if gold.instances[i].gold_sense is not None]
            if not pairs:
                continue
            rows, cols, counts = confusion_matrix([g for g, _ in pairs],
                                                  [p for _, p in pairs])
            try:  # open() raises ValueError on an embedded null byte
                _emit(confusion_csv(rows, cols, counts), args.confusion_dir / f"{word}.csv")
            except (OSError, ValueError) as exc:
                raise DataError(f"{args.gold}: cannot write the confusion file of "
                                f"target word {word!r}: {exc}") from None
    sys.stdout.write(report.to_tsv())
    return 0


def cmd_grid_search(args) -> int:
    model = load_embeddings(args.embeddings, fmt=args.format)
    dataset = _read_dataset(args.dataset)
    idf = read_idf_tsv(args.idf)
    chi2 = _chi2_table(args.chi2, dataset)
    space = parse_space_file(args.space) if args.space else SearchSpace()
    result = grid_search(dataset, model, idf, chi2, space, jobs=args.jobs)
    _emit(search_mod.ranked_csv(result), args.out_ranked)
    if args.out_heatmap is not None:
        fixed = None
        if args.heatmap_view == "default":
            fixed = (ClusteringConfig() if "agglomerative" in space.algorithms
                     else ClusteringConfig(algorithm="affinity_propagation"))
        rows = search_mod.export_power_heatmap(result, fixed_clustering=fixed)
        _emit(search_mod.heatmap_csv(rows), args.out_heatmap)
    if args.out_sweep is not None:
        rows = search_mod.export_k_linkage_sweep(result)
        _emit(search_mod.sweep_csv(rows), args.out_sweep)
    best = result.best
    print(f"best {serialize_config(best.clustering, best.weighting)} "
          f"train_ari={best.train_ari:.6f}")
    return 0


def cmd_norm_report(args) -> int:
    model = load_embeddings(args.embeddings, fmt=args.format)
    freqs = load_frequency_table(args.freqs)
    rows = norm_frequency_report(model, freqs, sample_size=args.sample_size,
                                 seed=args.seed)
    _emit(norm_report_tsv(rows), args.out)
    return 0


def cmd_mt_label(args) -> int:
    if args.dataset is not None and args.out is None:
        raise UsageError("--out is required together with --dataset")
    records = read_translations(args.translations)
    labeling = label_by_translation(records, Stemmer(algorithm=args.stemmer))
    if args.dataset is not None:
        write_predictions(_read_dataset(args.dataset), labeling, args.out)
    else:
        text = "".join(f"{cid}\t{label}\n"
                       for cid, label in sorted(labeling.assignments.items()))
        _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
