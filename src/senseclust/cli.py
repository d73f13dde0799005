"""Command-line pipeline: weight building, clustering, evaluation, search,
diagnostics, and translation-based labeling.

Exit codes: 0 success, 1 usage error (bad flags or constraint violations),
2 data error (missing or malformed input files). Each task of ``grid-search``
vectorizes and clusters one word. ``cluster`` vectorizes every word on the
calling thread with ``vectorize_dataset``, then clusters the words on up to
--jobs threads, so that OpenBLAS's helper thread, woken by each Gram product,
does not spin through the vectorizing. All outputs are deterministic
functions of the flags and the input files, whatever --jobs is.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from itertools import compress
from pathlib import Path

from . import search as search_mod
from .cluster import ALGORITHMS, LINKAGES, METRICS, ClusteringConfig, cluster_points
from .dataset import Dataset, parse_dataset, write_predictions
from .embeddings import (FORMATS, EmbeddingModel, load_embeddings,
                         load_frequency_table, norm_frequency_report, norm_report_tsv)
from .errors import DataError, MissingLabel, read_lines, write_text
from .evaluate import Labeling, confusion_csv, confusion_matrix, evaluate, gold_codes
from .mt_label import (STEMMER_ALGORITHMS, Stemmer, label_by_translation,
                       read_translations)
from .search import (AUTO_PREFERENCE, SearchSpace, grid_search, parallel_map,
                     parse_preference, parse_space_file, serialize_config)
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


def _at_least(low: int):
    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {number}")
        return number
    return integer


def build_parser() -> _Parser:
    parser = _Parser(prog="senseclust",
                     description="Word sense induction toolkit")
    # The flags that several commands share, each declared once.
    embeddings = argparse.ArgumentParser(add_help=False)
    embeddings.add_argument("--embeddings", type=Path, required=True)
    embeddings.add_argument("--format", choices=FORMATS, default="text",
                            help="embedding file format (default: text)")
    inputs = argparse.ArgumentParser(add_help=False, parents=[embeddings])
    inputs.add_argument("--dataset", type=Path, required=True)
    inputs.add_argument("--chi2", type=Path, default=None,
                        help="chi2 cache TSV from build-chi2 "
                             "(default: computed from the dataset)")
    inputs.add_argument("--jobs", type=_at_least(1), default=1,
                        help="parallel threads, one task per target word (default: 1)")
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

    p = sub.add_parser("cluster", parents=[inputs],
                       help="cluster contexts and write predictions")
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
    p.add_argument("--preference", default=AUTO_PREFERENCE,
                   help="affinity propagation preference in [-20, 5], or "
                        "'auto' for the median similarity (default: auto)")
    p.add_argument("--max-iter", type=int, default=200,
                   help="affinity propagation iteration cap (default: 200)")
    p.add_argument("--convergence-window", type=int, default=15,
                   help="iterations of stable exemplars to declare convergence "
                        "(default: 15)")
    p.add_argument("--p-tfidf", type=float, default=1.0,
                   help="tf-idf power exponent (default: 1.0)")
    p.add_argument("--p-chi2", type=float, default=1.0,
                   help="chi-square power exponent (default: 1.0)")
    p.add_argument("--idf", type=Path, default=None,
                   help="idf cache TSV from build-idf (required unless --p-tfidf 0)")
    p.add_argument("--out", type=Path, required=True, help="predictions TSV")
    p.add_argument("--dump-vectors", type=Path, default=None,
                   help="optional TSV dump of the context vectors")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score predictions against gold senses")
    p.add_argument("--gold", type=Path, required=True, help="gold dataset TSV")
    p.add_argument("--pred", type=Path, required=True,
                   help="dataset TSV with predict_sense_id filled")
    p.add_argument("--confusion-dir", type=Path, default=None,
                   help="optional directory for per-word confusion CSVs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-search", parents=[inputs],
                       help="exhaustive hyperparameter search")
    p.add_argument("--idf", type=Path, required=True, help="idf cache TSV")
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
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("norm-report", parents=[embeddings],
                       help="norm-vs-frequency diagnostic sample of the vocabulary")
    p.add_argument("--freqs", type=Path, required=True,
                   help="word<TAB>count frequency TSV")
    p.add_argument("--sample-size", type=_at_least(1), default=1000,
                   help="words to sample (default: 1000)")
    p.add_argument("--out", type=Path, default=None,
                   help="output TSV (default: standard output)")
    p.add_argument("--seed", type=_at_least(0), default=0, help="random seed (default: 0)")
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


@contextmanager
def _blaming(path, error: type[Exception] = ValueError):
    """Report an ``error`` raised inside as a DataError about the file ``path``."""
    try:
        yield
    except error as exc:
        raise DataError(f"{path}: {exc}") from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, [text])


def cmd_build_idf(args) -> int:
    docs = (tokenize(line) for path in args.corpus
            for _, line in read_lines(path) if not line.isspace())
    with _blaming(", ".join(map(str, args.corpus))):  # only blank lines
        idf = build_idf(docs)
    write_idf_tsv(idf, args.out)
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


def _tables(args, dataset: Dataset) -> tuple[EmbeddingModel, IdfTable]:
    """The embedding and idf rows of the dataset's kept tokens, from files
    whose every row is checked; no idf file gives every word the same idf."""
    vocabulary = {tok for inst in dataset.instances for tok in inst.kept}
    model = load_embeddings(args.embeddings, fmt=args.format, vocabulary=vocabulary)
    if args.idf is None:
        return model, IdfTable(n_docs=1, df={})
    return model, read_idf_tsv(args.idf, vocabulary=vocabulary)


def cmd_build_chi2(args) -> int:
    write_chi2_tsv(_chi2_table(None, _read_dataset(args.dataset)), args.out)
    return 0


def cmd_cluster(args) -> int:
    try:
        ccfg = ClusteringConfig(
            algorithm=args.algo, n_clusters=args.k, linkage=args.linkage,
            metric=args.metric, damping=args.damping,
            preference=parse_preference(args.preference),
            max_iter=args.max_iter, convergence_window=args.convergence_window)
        wcfg = WeightingConfig(p_tfidf=args.p_tfidf, p_chi2=args.p_chi2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.idf is None and args.p_tfidf != 0.0:
        raise UsageError("--idf is required when --p-tfidf is nonzero")
    dataset = _read_dataset(args.dataset)
    model, idf = _tables(args, dataset)
    chi2 = _chi2_table(args.chi2, dataset)

    # Vectorize every word, then cluster each: see the module docstring.
    by_word = vectorize_dataset(dataset, model, idf, chi2, wcfg)
    results = parallel_map(lambda X: next(cluster_points(X[None], [ccfg]))[0],
                           [X for _, X in by_word.values()], args.jobs)
    assignments, vectors = {}, {}
    for (word, (ids, X)), result in zip(by_word.items(), results):
        for cid in compress(ids, ~X.any(axis=1)):
            _warn(f"context {cid!r}: no contributing tokens, zero vector")
        if ccfg.algorithm == "agglomerative" and result.k < ccfg.n_clusters:
            _warn(f"word {word!r}: {len(ids)} context(s), k clamped to {result.k}")
        if result.converged is False:
            _warn(f"word {word!r}: affinity propagation did not converge")
        assignments.update((cid, str(int(lab))) for cid, lab in zip(ids, result.labels))
        if args.dump_vectors is not None:
            vectors.update(zip(ids, X))
    write_predictions(dataset, Labeling(assignments), args.out)
    if args.dump_vectors is not None:
        dump_vectors(((inst.context_id, vectors[inst.context_id])
                      for inst in dataset.instances), args.dump_vectors)
    return 0


def cmd_evaluate(args) -> int:
    gold = _read_dataset(args.gold)
    if args.confusion_dir is not None:
        with _blaming(args.gold):
            graded_words = gold_codes(gold)
        for word in graded_words:  # each word with a graded context names a file
            if "/" in word or "\\" in word:
                raise DataError(f"{args.gold}: target word {word!r} contains a "
                                "path separator and cannot name a confusion file")
    assignments = {inst.context_id: inst.predicted_sense
                   for inst in _read_dataset(args.pred).instances
                   if inst.predicted_sense is not None}
    with _blaming(args.gold), _blaming(args.pred, MissingLabel):
        report = evaluate(gold, Labeling(assignments))
    if args.confusion_dir is not None:
        args.confusion_dir.mkdir(parents=True, exist_ok=True)
        for word, (keep, _) in graded_words.items():
            graded = [gold.instances[gold.by_target[word][j]] for j in keep]
            rows, cols, counts = confusion_matrix(
                [inst.gold_sense for inst in graded],
                [assignments[inst.context_id] for inst in graded])
            try:  # open() raises ValueError on an embedded null byte
                _emit(confusion_csv(rows, cols, counts), args.confusion_dir / f"{word}.csv")
            except (OSError, ValueError) as exc:
                raise DataError(f"{args.gold}: cannot write the confusion file of "
                                f"target word {word!r}: {exc}") from None
    sys.stdout.write(report.to_tsv())
    return 0


def cmd_grid_search(args) -> int:
    # What can stop the search is checked before the set-up loads anything.
    dataset = _read_dataset(args.dataset)
    with _blaming(args.dataset):
        gold_codes(dataset)
    space = parse_space_file(args.space) if args.space else SearchSpace()
    if "agglomerative" in space.algorithms:  # the pairs that clusterings() leaves out
        searched = {(c.linkage, c.metric) for c in space.clusterings()}
        for linkage in space.linkages:
            if dropped := [m for m in space.metrics if (linkage, m) not in searched]:
                _warn(f"{args.space}: excluding {linkage} with {', '.join(dropped)}")
    fixed = None
    if args.out_heatmap is not None and args.heatmap_view == "default":
        fixed = (ClusteringConfig() if "agglomerative" in space.algorithms
                 else ClusteringConfig(algorithm="affinity_propagation"))
        if fixed not in space.clusterings():
            raise DataError(f"{args.space}: --heatmap-view default needs the default "
                            f"{fixed.algorithm} config")
    if args.out_sweep is not None and "agglomerative" not in space.algorithms:
        raise DataError(f"{args.space}: --out-sweep needs agglomerative configs")
    model, idf = _tables(args, dataset)
    result = grid_search(dataset, model, idf, _chi2_table(args.chi2, dataset), space,
                         jobs=args.jobs)
    _emit(search_mod.ranked_csv(result), args.out_ranked)
    if args.out_heatmap is not None:
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
        dataset = _read_dataset(args.dataset)
        with _blaming(args.translations, MissingLabel):
            write_predictions(dataset, labeling, args.out)
    else:
        text = "".join(f"{cid}\t{label}\n"
                       for cid, label in sorted(labeling.assignments.items()))
        _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
