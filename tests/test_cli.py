import importlib
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from senseclust import cli
from senseclust.cli import main
from senseclust.cluster import ClusteringConfig, cluster
from senseclust.dataset import parse_dataset, write_predictions
from senseclust.embeddings import load_embeddings, write_embeddings
from senseclust.evaluate import Labeling
from senseclust.search import grid_search, parse_preference, parse_space_file, ranked_csv
from senseclust.vectorize import vectorize_dataset
from senseclust.weighting import WeightingConfig, build_chi2, read_idf_tsv, write_idf_tsv

import synthetic


@pytest.fixture()
def workspace(tmp_path):
    model = synthetic.build_model(seed=0)
    write_embeddings(model, tmp_path / "emb.txt", fmt="text")
    write_embeddings(model, tmp_path / "emb.bin", fmt="binary")
    synthetic.write_dataset(tmp_path / "train.tsv", contexts_per_sense=10, seed=0)
    vocab = sorted(model.index)
    corpus_lines = []
    for i in range(0, len(vocab) - 10, 7):
        corpus_lines.append(" ".join(vocab[i:i + 10]))
    (tmp_path / "corpus.txt").write_text("\n".join(corpus_lines) + "\n",
                                         encoding="utf-8")
    (tmp_path / "freqs.tsv").write_text(
        "".join(f"{w}\t{i + 1}\n" for i, w in enumerate(vocab)), encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_build_idf_and_chi2(workspace):
    assert run_cli("build-idf", "--corpus", workspace / "corpus.txt",
                   "--out", workspace / "idf.tsv") == 0
    assert (workspace / "idf.tsv").read_text().startswith("# n_docs=")
    assert run_cli("build-chi2", "--dataset", workspace / "train.tsv",
                   "--out", workspace / "chi2.tsv") == 0
    assert "\t" in (workspace / "chi2.tsv").read_text()


def test_cluster_pipeline_and_determinism(workspace):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    args = ("cluster", "--embeddings", workspace / "emb.txt",
            "--dataset", workspace / "train.tsv",
            "--algo", "agglomerative", "--k", "2", "--linkage", "ward",
            "--p-tfidf", "1.5", "--p-chi2", "0.5",
            "--idf", workspace / "idf.tsv")
    assert run_cli(*args, "--out", workspace / "pred.tsv") == 0
    first = (workspace / "pred.tsv").read_bytes()
    header, row = first.decode().split("\n")[:2]
    assert header.split("\t").index("predict_sense_id") == 3
    assert row.split("\t")[3] in ("0", "1")
    assert run_cli(*args, "--out", workspace / "pred2.tsv") == 0
    assert (workspace / "pred2.tsv").read_bytes() == first


def test_cluster_affinity_propagation(workspace):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    code = run_cli("cluster", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--algo", "affinity_propagation", "--damping", "0.5",
                   "--preference", "auto", "--idf", workspace / "idf.tsv",
                   "--out", workspace / "ap.tsv",
                   "--dump-vectors", workspace / "vecs.tsv")
    assert code == 0
    pred = (workspace / "ap.tsv").read_text().splitlines()
    assert all(line.split("\t")[3] != "" for line in pred[1:])
    vecs = (workspace / "vecs.tsv").read_text().splitlines()
    assert len(vecs) == len(pred) - 1
    cid, comps = vecs[0].split("\t")
    assert cid == pred[1].split("\t")[0]
    assert len(comps.split(" ")) == 8


def test_affinity_propagation_ignores_the_agglomerative_flags(workspace):
    # AP has no linkage, so the default --linkage ward does not hold its
    # --metric to euclidean, and no agglomerative flag changes its labels.
    base = ("cluster", "--embeddings", workspace / "emb.txt",
            "--dataset", workspace / "train.tsv", "--algo", "affinity_propagation",
            "--p-tfidf", "0")
    outputs = []
    for i, flags in enumerate([(), ("--metric", "cosine"),
                               ("--linkage", "complete", "--metric", "manhattan"),
                               ("--k", "5")]):
        assert run_cli(*base, *flags, "--out", workspace / f"ap{i}.tsv") == 0
        outputs.append((workspace / f"ap{i}.tsv").read_bytes())
    assert outputs[1:] == outputs[:1] * 3


def test_cluster_flag_defaults_are_the_config_defaults():
    # ``--heatmap-view default`` names ClusteringConfig() the default config,
    # so a plain ``cluster`` call must run that config.
    args = cli.build_parser().parse_args(
        ["cluster", "--embeddings", "e", "--dataset", "d", "--out", "o"])
    assert asdict(ClusteringConfig()) == {
        "algorithm": args.algo, "n_clusters": args.k, "linkage": args.linkage,
        "metric": args.metric, "damping": args.damping,
        "preference": parse_preference(args.preference), "max_iter": args.max_iter,
        "convergence_window": args.convergence_window}
    assert asdict(WeightingConfig()) == {"p_tfidf": args.p_tfidf, "p_chi2": args.p_chi2}


def test_cluster_bad_preference_is_usage_error(workspace):
    assert run_cli("cluster", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--algo", "affinity_propagation", "--preference", "huge",
                   "--p-tfidf", "0", "--p-chi2", "0",
                   "--out", workspace / "x.tsv") == 1
    assert run_cli("cluster", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--algo", "affinity_propagation", "--preference", "-30",
                   "--p-tfidf", "0", "--p-chi2", "0",
                   "--out", workspace / "x.tsv") == 1


def test_cluster_binary_embeddings_equivalent(workspace):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    common = ("--dataset", workspace / "train.tsv", "--k", "2",
              "--p-tfidf", "0", "--p-chi2", "0")
    run_cli("cluster", "--embeddings", workspace / "emb.txt", *common,
            "--out", workspace / "pt.tsv")
    run_cli("cluster", "--embeddings", workspace / "emb.bin",
            "--format", "binary", *common, "--out", workspace / "pb.tsv")
    assert (workspace / "pt.tsv").read_text() == (workspace / "pb.tsv").read_text()


def test_cluster_jobs_do_not_change_predictions(workspace, capsys):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    # A zero vector in a graded word, and a one-context word whose k is clamped.
    train = workspace / "train.tsv"
    train.write_text(train.read_text(encoding="utf-8")
                     + "z0\talphaword\t\t\t0-9\talphaword qqq\n"
                     + "z1\tgammaword\t\t\t0-9\tgammaword rrr sss\n", encoding="utf-8")
    for algo in ("agglomerative", "affinity_propagation"):
        outputs = []
        for jobs in ("1", "2", "3"):
            out, dump = (workspace / f"{kind}-{algo}-{jobs}.tsv" for kind in ("pred", "vecs"))
            assert run_cli("cluster", "--embeddings", workspace / "emb.txt",
                           "--dataset", train, "--algo", algo, "--max-iter", "5",
                           "--idf", workspace / "idf.tsv", "--jobs", jobs,
                           "--out", out, "--dump-vectors", dump) == 0
            captured = capsys.readouterr()
            outputs.append((out.read_bytes(), dump.read_bytes(), captured.out, captured.err))
        assert outputs[0] == outputs[1] == outputs[2]
        err = outputs[0][3]
        assert "context 'z0': no contributing tokens, zero vector" in err
        assert ("word 'gammaword': 1 context(s), k clamped to 1" in err) == (
            algo == "agglomerative")
        assert ("did not converge" in err) == (algo == "affinity_propagation")


def test_cluster_vectorizes_every_word_then_clusters_each(workspace, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls.append((name, args, result))
            return result
        return wrapper

    for name in ("vectorize_dataset", "cluster_points"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    # The CLI has no other name to reach either.
    assert not hasattr(cli, "vectorize_word") and not hasattr(cli, "cluster")
    for jobs in ("1", "2"):
        calls.clear()
        assert run_cli("cluster", "--embeddings", workspace / "emb.txt",
                       "--dataset", workspace / "train.tsv", "--p-tfidf", "0",
                       "--p-chi2", "2", "--jobs", jobs, "--out", workspace / "pred.tsv") == 0
        # One vectorize_dataset call, on every word before any clustering.
        assert [name for name, _, _ in calls] == ["vectorize_dataset"] + ["cluster_points"] * 2
        by_word = calls[0][2]
        assert sorted(by_word) == ["alphaword", "betaword"]
        stacks = [args for _, args, _ in calls[1:]]
        for ids, X in by_word.values():  # one (1, 20, d) stack and config per word
            assert len(ids) == 20
            assert sum(stack.shape == (1, 20, X.shape[1]) and (stack[0] == X).all()
                       and len(cfgs) == 1 for stack, cfgs in stacks) == 1


def test_jobs_below_one_and_seed_are_usage_errors(workspace):
    cluster = ("cluster", "--embeddings", workspace / "emb.txt",
               "--dataset", workspace / "train.tsv", "--p-tfidf", "0",
               "--p-chi2", "0", "--out", workspace / "x.tsv")
    search = ("grid-search", "--embeddings", workspace / "emb.txt",
              "--dataset", workspace / "train.tsv", "--idf", workspace / "none.tsv",
              "--out-ranked", workspace / "ranked.csv")
    assert run_cli(*cluster) == 0
    assert run_cli(*search) == 2  # the missing idf file is only read after parsing
    for argv in (cluster, search):
        assert run_cli(*argv, "--jobs", "0") == 1
        assert run_cli(*argv, "--jobs", "-2") == 1
        assert run_cli(*argv, "--seed", "3") == 1


def test_evaluate_reports_ari(workspace, capsys):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    run_cli("cluster", "--embeddings", workspace / "emb.txt",
            "--dataset", workspace / "train.tsv", "--k", "2",
            "--p-tfidf", "1", "--p-chi2", "1", "--idf", workspace / "idf.tsv",
            "--out", workspace / "pred.tsv")
    capsys.readouterr()
    assert run_cli("evaluate", "--gold", workspace / "train.tsv",
                   "--pred", workspace / "pred.tsv",
                   "--confusion-dir", workspace / "conf") == 0
    out = capsys.readouterr().out
    assert out.startswith("word\tn\tari")
    assert "aggregate_weighted" in out and "aggregate_macro" in out
    assert (workspace / "conf" / "alphaword.csv").exists()


def test_evaluate_tokenizes_nothing(workspace, capsys, monkeypatch):
    run_cli("cluster", "--embeddings", workspace / "emb.txt",
            "--dataset", workspace / "train.tsv", "--k", "2",
            "--p-tfidf", "0", "--p-chi2", "1", "--out", workspace / "pred.tsv")
    args = ("evaluate", "--gold", workspace / "train.tsv", "--pred", workspace / "pred.tsv")
    capsys.readouterr()
    assert run_cli(*args) == 0
    expected = capsys.readouterr()

    def refuse(text):
        raise AssertionError("tokenize called")

    monkeypatch.setattr("senseclust.text.tokenize", refuse)
    monkeypatch.setattr("senseclust.dataset.tokenize", refuse)
    assert run_cli(*args) == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith("word\tn\tari")


def test_span_flags_are_warnings(workspace, capsys):
    ws = workspace
    write_contexts(ws / "flagged.tsv", [(f"{word}{i}", word, "AB"[i % 2], f"aw0{i} nz0{i}")
                                        for word in ("alphaword", "betaword")
                                        for i in range(4)])
    text = (ws / "flagged.tsv").read_text(encoding="utf-8")
    (ws / "flagged.tsv").write_text(text.replace("0-9\talphaword aw00", "0-4\tzzzz aw00"),
                                    encoding="utf-8")

    def flag(path):
        return (f"warning: {path}: line 2: span 0-4 text 'zzzz' does not look like "
                "a form of target 'alphaword'")

    assert run_cli("cluster", "--embeddings", ws / "emb.txt", "--dataset", ws / "flagged.tsv",
                   "--k", "2", "--p-tfidf", "0", "--p-chi2", "0",
                   "--out", ws / "pred.tsv") == 0
    assert capsys.readouterr().err.splitlines() == [flag(ws / "flagged.tsv")]
    assert run_cli("evaluate", "--gold", ws / "flagged.tsv", "--pred", ws / "pred.tsv") == 0
    assert capsys.readouterr().err.splitlines() == [flag(ws / "flagged.tsv"),
                                                    flag(ws / "pred.tsv")]


@pytest.mark.parametrize("word", ["../x", "a/b", "a\\b", "a\x00b",
                                  pytest.param("x" * 300, id="300-chars")])
def test_evaluate_rejects_a_word_that_is_no_confusion_file_name(tmp_path, capsys,
                                                                word):
    header = "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext"
    rows = [f"c{i}\t{word}\t{i % 2}\t{pred}\t0-{len(word)}\t{word} tail"
            for i, pred in enumerate("0011")]
    gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
    gold.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    pred.write_text(gold.read_text(encoding="utf-8"), encoding="utf-8")
    conf = tmp_path / "out" / "conf"
    assert run_cli("evaluate", "--gold", gold, "--pred", pred,
                   "--confusion-dir", conf) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(word) in captured.err and str(gold) in captured.err
    if "/" in word or "\\" in word:  # refused before the directory is made
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "pred.tsv"]
    # Without --confusion-dir the word is only a label.
    assert run_cli("evaluate", "--gold", gold, "--pred", pred) == 0
    assert capsys.readouterr().out.startswith("word\tn\tari")


def write_contexts(path, rows):
    """Dataset TSV from (context_id, target, gold sense or "", the context
    after the target) rows."""
    lines = [synthetic.HEADER]
    lines += [f"{cid}\t{word}\t{sense}\t\t0-{len(word)}\t{word} {rest}"
              for cid, word, sense, rest in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_cluster_reports_zero_vectors_clamped_k_and_nonconvergence(workspace, capsys):
    write_contexts(workspace / "odd.tsv", [
        ("a1", "alphaword", "", "aw00 aw01 nz00"), ("a2", "alphaword", "", "oov1 oov2"),
        ("a3", "alphaword", "", "bw00 bw01"), ("a4", "alphaword", "", "aw02 nz01"),
        ("b1", "betaword", "", "cw00 dw00"),
        ("g1", "gammaword", "", "gammawords"), ("g2", "gammaword", "", "cw01 nz02")])
    zero = ["warning: context 'a2': no contributing tokens, zero vector",
            "warning: context 'g1': no contributing tokens, zero vector"]
    expected = {
        ("agglomerative", "--k", "3"): [
            zero[0], "warning: word 'betaword': 1 context(s), k clamped to 1",
            zero[1], "warning: word 'gammaword': 2 context(s), k clamped to 2"],
        ("affinity_propagation", "--max-iter", "1"): [
            zero[0], "warning: word 'alphaword': affinity propagation did not converge",
            zero[1], "warning: word 'gammaword': affinity propagation did not converge"]}
    for (algo, *flags), lines in expected.items():
        runs = []
        for jobs in ("1", "2"):
            out = workspace / f"odd-{algo}-{jobs}.tsv"
            assert run_cli("cluster", "--embeddings", workspace / "emb.txt",
                           "--dataset", workspace / "odd.tsv", "--algo", algo, *flags,
                           "--p-tfidf", "0", "--p-chi2", "0", "--jobs", jobs,
                           "--out", out) == 0
            captured = capsys.readouterr()
            runs.append((captured.out, captured.err, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1].splitlines() == lines


def test_single_target_notice_from_every_command_that_uses_chi2(workspace, capsys):
    ws = workspace
    write_contexts(ws / "one.tsv", [(f"c{i}", "alphaword", "AB"[i % 2], f"aw0{i} nz0{i}")
                                    for i in range(4)])
    run_cli("build-idf", "--corpus", ws / "corpus.txt", "--out", ws / "idf.tsv")
    (ws / "space.cfg").write_text("power_grid = 0, 1\nk_grid = 2\nlinkages = average\n"
                                  "algorithms = agglomerative\n", encoding="utf-8")
    notice = "warning: single-target dataset, chi2 table is all-zero"
    assert run_cli("build-chi2", "--dataset", ws / "one.tsv",
                   "--out", ws / "chi2.tsv") == 0
    assert capsys.readouterr().err.splitlines() == [notice]
    for chi2 in ([], ["--chi2", ws / "chi2.tsv"]):  # built, then read back
        # The default --p-chi2 1 makes every context of a one-word dataset zero.
        assert run_cli("cluster", "--embeddings", ws / "emb.txt", "--dataset",
                       ws / "one.tsv", "--idf", ws / "idf.tsv", *chi2,
                       "--out", ws / "pred.tsv") == 0
        assert capsys.readouterr().err.splitlines() == [notice] + [
            f"warning: context 'c{i}': no contributing tokens, zero vector"
            for i in range(4)]
        assert run_cli("grid-search", "--embeddings", ws / "emb.txt", "--dataset",
                       ws / "one.tsv", "--idf", ws / "idf.tsv", *chi2, "--space",
                       ws / "space.cfg", "--out-ranked", ws / "ranked.csv") == 0
        assert capsys.readouterr().err.splitlines() == [notice]


def test_ward_cosine_is_usage_error(workspace, capsys):
    code = run_cli("cluster", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--linkage", "ward", "--metric", "cosine",
                   "--out", workspace / "x.tsv")
    assert code == 1
    err = capsys.readouterr().err
    assert "ward" in err and "euclidean" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli("cluster", "--no-such-flag") == 1


def test_missing_file_is_data_error(workspace, capsys):
    code = run_cli("cluster", "--embeddings", workspace / "nope.txt",
                   "--dataset", workspace / "train.tsv",
                   "--p-tfidf", "0", "--p-chi2", "0",
                   "--out", workspace / "x.tsv")
    assert code == 2


def test_idf_required_for_positive_tfidf_power(workspace):
    code = run_cli("cluster", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--out", workspace / "x.tsv")
    assert code == 1


def test_flag_rules_are_checked_before_any_input_is_read(workspace, capsys):
    bad = workspace / "bad.txt"
    bad.write_text("not a header\n", encoding="utf-8")
    assert run_cli("cluster", "--embeddings", bad, "--dataset", bad,
                   "--out", workspace / "x.tsv") == 1
    assert "--idf is required" in capsys.readouterr().err
    assert run_cli("mt-label", "--translations", bad, "--dataset", bad) == 1
    assert "--out is required" in capsys.readouterr().err
    for flag, value, rule in (("--sample-size", "0", "at least 1, got 0"),
                              ("--seed", "-1", "at least 0, got -1")):
        assert run_cli("norm-report", "--embeddings", bad, "--freqs", bad,
                       flag, value) == 1
        assert f"argument {flag}: must be {rule}" in capsys.readouterr().err


def test_help_lists_defaults(capsys):
    assert run_cli("cluster", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    for needle in ("default: 2", "default: ward", "default: euclidean",
                   "default: 0.5", "default: auto", "default: 200",
                   "default: 15", "default: agglomerative"):
        assert needle in text
    chi2 = "chi2 cache TSV from build-chi2 (default: computed from the dataset)"
    for command in ("cluster", "grid-search"):  # the flags they share
        assert run_cli(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert chi2 in text
        assert "parallel workers across words/configurations (default: 1)" in text
    assert run_cli("norm-report", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default: 1000" in text and "default: 0" in text
    assert "embedding file format (default: text)" in text


def test_norm_report(workspace):
    args = ("norm-report", "--embeddings", workspace / "emb.txt",
            "--freqs", workspace / "freqs.tsv", "--sample-size", "20",
            "--seed", "3")
    assert run_cli(*args, "--out", workspace / "r1.tsv") == 0
    assert run_cli(*args, "--out", workspace / "r2.tsv") == 0
    r1 = (workspace / "r1.tsv").read_bytes()
    assert r1 == (workspace / "r2.tsv").read_bytes()
    assert r1.decode().splitlines()[0] == "word\tfrequency\tnorm"
    assert len(r1.decode().strip().splitlines()) == 21


@pytest.fixture()
def padded(workspace):
    """The workspace plus an embedding file, an idf table and a frequency
    table that hold 40 words no context of ``train.tsv`` holds."""
    model = synthetic.build_model(seed=0)
    rng = np.random.default_rng(1)
    entries = {word: model.vectors[row] for word, row in model.index.items()}
    extra = [f"zz{i}" for i in range(40)]
    entries.update((word, rng.standard_normal(model.dim).astype(np.float32)) for word in extra)
    write_embeddings(synthetic.model_from_entries(entries), workspace / "whole.txt")
    idf = synthetic.build_background_idf()
    idf.df.update((word, 7) for word in extra)
    write_idf_tsv(idf, workspace / "whole-idf.tsv")
    (workspace / "whole-freqs.tsv").write_text(
        "".join(f"{w}\t{i + 1}\n" for i, w in enumerate(entries)), encoding="utf-8")
    return workspace


def test_cluster_and_grid_search_hold_only_the_dataset_rows(padded, monkeypatch):
    """Each command keeps only the rows of its dataset's kept tokens, and its
    outputs are byte-identical to a library run with the whole model."""
    ws, held = padded, []

    def spy(load):
        def wrapper(*args, **kwargs):
            table = load(*args, **kwargs)
            held.append(len(getattr(table, "df", table)))
            return table
        return wrapper

    monkeypatch.setattr(cli, "load_embeddings", spy(load_embeddings))
    monkeypatch.setattr(cli, "read_idf_tsv", spy(read_idf_tsv))
    dataset = parse_dataset(ws / "train.tsv")
    model, idf = load_embeddings(ws / "whole.txt"), read_idf_tsv(ws / "whole-idf.tsv")
    chi2 = build_chi2(dataset)
    vocabulary = {tok for inst in dataset.instances for tok in inst.kept}
    inputs = ("--embeddings", ws / "whole.txt", "--dataset", ws / "train.tsv",
              "--idf", ws / "whole-idf.tsv")

    wcfg = WeightingConfig(p_tfidf=1.5, p_chi2=0.5)
    for flags, ccfg in ((("--k", "2"), ClusteringConfig(n_clusters=2)),
                        (("--algo", "affinity_propagation"),
                         ClusteringConfig(algorithm="affinity_propagation"))):
        assert run_cli("cluster", *inputs, *flags, "--p-tfidf", "1.5", "--p-chi2", "0.5",
                       "--out", ws / "cli.tsv") == 0
        labels = {}
        for ids, X in vectorize_dataset(dataset, model, idf, chi2, wcfg).values():
            labels.update(zip(ids, map(str, cluster(X, ccfg).labels)))
        write_predictions(dataset, Labeling(labels), ws / "library.tsv")
        assert (ws / "cli.tsv").read_bytes() == (ws / "library.tsv").read_bytes()

    (ws / "space.cfg").write_text("power_grid = 0, 1\nk_grid = 2, 3\nlinkages = ward\n"
                                  "damping_grid = 0.5\n", encoding="utf-8")
    assert run_cli("grid-search", *inputs, "--space", ws / "space.cfg",
                   "--out-ranked", ws / "ranked.csv") == 0
    result = grid_search(dataset, model, idf, chi2, parse_space_file(ws / "space.cfg"))
    assert (ws / "ranked.csv").read_text(encoding="utf-8") == ranked_csv(result)

    rows = (len(vocabulary & set(model.index)), len(vocabulary & set(idf.df)))
    assert rows[0] < len(model) and rows[1] < len(idf.df)
    assert held == list(rows) * 3


def test_norm_report_samples_the_whole_model(padded):
    ws = padded
    assert run_cli("norm-report", "--embeddings", ws / "whole.txt",
                   "--freqs", ws / "whole-freqs.tsv", "--sample-size", "10000",
                   "--out", ws / "report.tsv") == 0
    words = {line.split("\t")[0] for line in
             (ws / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]}
    assert words == set(load_embeddings(ws / "whole.txt").index)
    assert {f"zz{i}" for i in range(40)} <= words


def test_cluster_blames_a_bad_dataset_before_a_missing_embeddings_file(workspace, capsys):
    bad = workspace / "bad.tsv"
    bad.write_text("context_id\tword\n", encoding="utf-8")
    assert run_cli("cluster", "--embeddings", workspace / "missing.txt", "--dataset", bad,
                   "--p-tfidf", "0", "--out", workspace / "x.tsv") == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_grid_search_cli(workspace, capsys):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    (workspace / "space.cfg").write_text(
        "power_grid = 0, 1\nk_grid = 1..3\nlinkages = ward, average\n"
        "metrics = euclidean\nalgorithms = agglomerative\n", encoding="utf-8")
    code = run_cli("grid-search", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--idf", workspace / "idf.tsv",
                   "--space", workspace / "space.cfg",
                   "--out-ranked", workspace / "ranked.csv",
                   "--out-heatmap", workspace / "heat.csv",
                   "--out-sweep", workspace / "sweep.csv", "--jobs", "2")
    assert code == 0
    assert capsys.readouterr().out.startswith("best ")
    ranked = (workspace / "ranked.csv").read_text().strip().splitlines()
    assert ranked[0] == "config,train_ari"
    assert len(ranked) - 1 == 4 * 3 * 2
    heat = (workspace / "heat.csv").read_text().strip().splitlines()
    assert heat[0] == "p_tfidf,p_chi2,ari" and len(heat) - 1 == 4
    sweep = (workspace / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "n_clusters,linkage,ari" and len(sweep) - 1 == 6

    # fixed-config heatmap view: k=2 ward is the default clustering config
    code = run_cli("grid-search", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv",
                   "--idf", workspace / "idf.tsv",
                   "--space", workspace / "space.cfg",
                   "--out-ranked", workspace / "ranked2.csv",
                   "--out-heatmap", workspace / "heat_fixed.csv",
                   "--heatmap-view", "default")
    assert code == 0
    fixed = (workspace / "heat_fixed.csv").read_text().strip().splitlines()
    assert fixed[0] == "p_tfidf,p_chi2,ari" and len(fixed) - 1 == 4
    maxed = {tuple(line.split(",")[:2]): float(line.split(",")[2])
             for line in heat[1:]}
    for line in fixed[1:]:
        pt, pc, a = line.split(",")
        assert float(a) <= maxed[(pt, pc)] + 1e-9


@pytest.mark.parametrize("space, flag, argv", [
    ("linkages = average\nk_grid = 3..4\n", "--heatmap-view default",
     ("--out-heatmap", "heat.csv", "--heatmap-view", "default")),
    ("algorithms = affinity_propagation\ndamping_grid = 0.9\n", "--heatmap-view default",
     ("--out-heatmap", "heat.csv", "--heatmap-view", "default")),
    ("algorithms = affinity_propagation\n", "--out-sweep", ("--out-sweep", "sweep.csv")),
], ids=["average-k3-4", "ap-damping-0.9", "ap-sweep"])
def test_grid_search_output_the_space_cannot_fill_fails_before_the_search(
        workspace, capsys, space, flag, argv):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    (workspace / "space.cfg").write_text("power_grid = 1\n" + space, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("grid-search", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv", "--idf", workspace / "idf.tsv",
                   "--space", workspace / "space.cfg",
                   "--out-ranked", workspace / "ranked.csv",
                   *(workspace / a if a.endswith(".csv") else a for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workspace / 'space.cfg'}: {flag} ")
    assert not any((workspace / name).exists()
                   for name in ("ranked.csv", "heat.csv", "sweep.csv"))


def test_grid_search_jobs_do_not_change_outputs(workspace, capsys):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    (workspace / "space.cfg").write_text(
        "power_grid = 0, 1\nk_grid = 1..4\nlinkages = ward, average, complete\n"
        "metrics = euclidean, manhattan, cosine\ndamping_grid = 0.5, 0.9\n",
        encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for jobs in ("1", "2", "3"):
        names = [workspace / f"{kind}-{jobs}.csv" for kind in ("ranked", "heat", "sweep")]
        assert run_cli("grid-search", "--embeddings", workspace / "emb.txt",
                       "--dataset", workspace / "train.tsv",
                       "--idf", workspace / "idf.tsv",
                       "--space", workspace / "space.cfg",
                       "--out-ranked", names[0], "--out-heatmap", names[1],
                       "--out-sweep", names[2], "--jobs", jobs) == 0
        captured = capsys.readouterr()
        outputs.append([path.read_bytes() for path in names]
                       + [captured.out, captured.err])
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0][0].splitlines()) == 1 + 4 * (4 * 7) + 4 * 2
    # The space's left-out ward pairs are one line, as every other run fact.
    assert outputs[0][-1] == (f"warning: {workspace / 'space.cfg'}: "
                              "excluding ward with manhattan, cosine\n")


@pytest.mark.parametrize("space", [
    "linkages = ward, average\nmetrics = euclidean\n",
    "linkages = average, complete\nmetrics = euclidean, manhattan, cosine\n",
    "linkages = ward\nmetrics = euclidean, cosine\nalgorithms = affinity_propagation\n",
], ids=["ward-euclidean", "no-ward", "ap-only"])
def test_grid_search_space_without_left_out_pairs_prints_no_warning(
        workspace, capsys, space):
    run_cli("build-idf", "--corpus", workspace / "corpus.txt",
            "--out", workspace / "idf.tsv")
    (workspace / "space.cfg").write_text("power_grid = 1\nk_grid = 2\n" + space,
                                         encoding="utf-8")
    capsys.readouterr()
    assert run_cli("grid-search", "--embeddings", workspace / "emb.txt",
                   "--dataset", workspace / "train.tsv", "--idf", workspace / "idf.tsv",
                   "--space", workspace / "space.cfg",
                   "--out-ranked", workspace / "ranked.csv") == 0
    assert capsys.readouterr().err == ""


# perfbench/workloads.py times the set-up as the time spent in these names,
# looked up on senseclust.cli; a call made from anywhere else would silently
# drop out of the benchmark's setup_s.
SETUP_NAMES = ("load_embeddings", "parse_dataset", "read_idf_tsv", "build_chi2")


def test_each_command_calls_each_set_up_name_once_through_the_cli(
        workspace, monkeypatch):
    ws = workspace
    run_cli("build-idf", "--corpus", ws / "corpus.txt", "--out", ws / "idf.tsv")
    (ws / "space.cfg").write_text("power_grid = 1\nk_grid = 2\n", encoding="utf-8")
    calls: dict[str, int] = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for name in SETUP_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    files = ("--embeddings", ws / "emb.txt", "--dataset", ws / "train.tsv",
             "--idf", ws / "idf.tsv")
    for argv in (("cluster", *files, "--out", ws / "pred.tsv"),
                 ("grid-search", *files, "--space", ws / "space.cfg",
                  "--out-ranked", ws / "ranked.csv")):
        calls.clear()
        assert run_cli(*argv) == 0
        assert calls == dict.fromkeys(SETUP_NAMES, 1), argv[0]


TEXT_INPUTS = ("--embeddings", "--dataset", "--gold", "--pred", "--idf", "--chi2",
               "--space", "--translations", "--freqs", "--corpus")
NOT_UTF8 = b"\xff"


@pytest.fixture()
def inputs(workspace):
    """flag -> (argv of a command that reads the flag's file, a valid file for
    it); the command's other inputs are valid and it writes ``out.txt``."""
    ws = workspace
    emb, train, idf, out = ws / "emb.txt", ws / "train.tsv", ws / "idf.tsv", ws / "out.txt"
    assert run_cli("build-idf", "--corpus", ws / "corpus.txt", "--out", idf) == 0
    assert run_cli("build-chi2", "--dataset", train, "--out", ws / "chi2.tsv") == 0
    (ws / "space.cfg").write_text("power_grid = 1\nk_grid = 2, 3\nlinkages = ward\n"
                                  "algorithms = agglomerative\n", encoding="utf-8")
    ids = [line.split("\t")[0] for line in train.read_text(encoding="utf-8").splitlines()[1:]]
    (ws / "tr.tsv").write_text("".join(f"{cid}\t{'jar' if i % 3 else 'banks, bank'}\n"
                                       for i, cid in enumerate(ids)), encoding="utf-8")
    cluster = ["cluster", "--embeddings", emb, "--dataset", train, "--idf", idf,
               "--chi2", ws / "chi2.tsv", "--out", out]
    assert run_cli(*cluster[:-1], ws / "pred.tsv") == 0
    evaluate = ["evaluate", "--gold", train, "--pred", ws / "pred.tsv"]
    return {
        "--embeddings": (cluster, emb),
        "--dataset": (cluster, train),
        "--idf": (cluster, idf),
        "--chi2": (cluster, ws / "chi2.tsv"),
        "--gold": (evaluate, train),
        "--pred": (evaluate, ws / "pred.tsv"),
        "--space": (["grid-search", "--embeddings", emb, "--dataset", train, "--idf", idf,
                     "--out-ranked", out], ws / "space.cfg"),
        "--translations": (["mt-label", "--out", out], ws / "tr.tsv"),
        "--freqs": (["norm-report", "--embeddings", emb, "--out", out], ws / "freqs.tsv"),
        "--corpus": (["build-idf", "--out", out], ws / "corpus.txt"),
    }


@pytest.mark.parametrize("flag, text, lineno", [
    ("--embeddings", None, 3),  # the workspace embeddings plus a whitespace-only line
    ("--idf", "# n_docs=10\nfoo\t2.5\n", 2),
    ("--idf", "# n_docs=ten\n", 1),
    ("--idf", "# n_docs=10\n\nfoo\t11\n", 3),
    ("--chi2", "t\tw\t1.0\nt\tv\tnan\n", 2),
    ("--chi2", "t\tw\t-3\n", 1),
    ("--chi2", "t\tw\tlots\n", 1),
    ("--translations", "c1\tjar\nc2\tjar\n\nc1\tbank\n", 4),
    ("--gold", "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\t"
               "context\tgold_sense_id\nc1\tbank\t1\t\t0-4\tbank here\t\n", 1),
] + [(flag, NOT_UTF8, 3) for flag in TEXT_INPUTS])  # the valid file, a bad byte on line 3
def test_malformed_input_names_file_and_line(inputs, capsys, flag, text, lineno):
    argv, valid = inputs[flag]
    path = valid.parent / "bad.txt"
    if text is None:
        lines = valid.read_text(encoding="utf-8").splitlines(True)
        text = "".join(lines[:2] + [" \t \n"] + lines[2:])
    if text is NOT_UTF8:
        lines = valid.read_bytes().splitlines(True)
        path.write_bytes(b"".join(lines[:2] + [NOT_UTF8 + lines[2]] + lines[3:]))
    else:
        path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*argv, flag, path) == 2  # the last --flag given wins
    err = capsys.readouterr().err
    assert f"{path}: line {lineno}: " in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--pred", "--translations", "--corpus", "--dataset",
                                  "--embeddings"])
def test_missing_label_or_empty_corpus_names_the_file(inputs, capsys, flag):
    ws = inputs[flag][1].parent
    train, bad = ws / "train.tsv", ws / "bad.txt"
    rows = inputs["--pred"][1].read_text(encoding="utf-8").splitlines(True)
    cid = rows[1].split("\t")[0]
    if flag == "--pred":  # the first context's prediction left empty
        rows[1] = "\t".join(f if i != 3 else "" for i, f in enumerate(rows[1].split("\t")))
        bad.write_text("".join(rows), encoding="utf-8")
        argv = ("evaluate", "--gold", train, "--pred", bad)
        message = f"{bad}: gold-labeled context {cid!r} has no prediction"
    elif flag == "--translations":  # no row for the first context
        lines = inputs[flag][1].read_text(encoding="utf-8").splitlines(True)
        bad.write_text("".join(lines[1:]), encoding="utf-8")
        argv = ("mt-label", "--translations", bad, "--dataset", train, "--out", ws / "out.txt")
        message = f"{bad}: no label for context_id {cid!r}"
    elif flag in ("--dataset", "--embeddings"):  # four contexts, none with a gold sense
        rows = [rows[0]] + ["\t".join(f if i != 2 else "" for i, f in enumerate(r.split("\t")))
                            for r in rows[1:5]]
        bad.write_text("".join(rows), encoding="utf-8")
        # The check comes before the set-up: no chi2 warning, and with
        # "--embeddings" no set-up file exists at all.
        emb, idf = ((ws / "emb.txt", ws / "idf.tsv") if flag == "--dataset"
                    else (ws / "missing.txt", ws / "missing.tsv"))
        argv = ("grid-search", "--embeddings", emb, "--dataset", bad, "--idf", idf,
                "--out-ranked", ws / "out.txt")
        message = f"{bad}: no context has a gold sense"
    else:  # blank lines only, in every corpus file
        bad.write_text("\n \t \n\n", encoding="utf-8")
        argv = ("build-idf", "--corpus", bad, bad, "--out", ws / "out.txt")
        message = f"{bad}, {bad}: document stream is empty"
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out.txt").exists()


def test_byte_order_mark_is_dropped_from_text_inputs(inputs, capsys):
    ws = inputs["--dataset"][1].parent
    outputs = []
    for name in ("plain", "marked"):
        paths = {}
        for flag in ("--embeddings", "--dataset", "--idf"):
            valid = inputs[flag][1]
            paths[flag] = ws / f"{name}-{valid.name}"
            paths[flag].write_bytes((b"\xef\xbb\xbf" if name == "marked" else b"")
                                    + valid.read_bytes())
        out = ws / f"{name}-pred.tsv"
        assert run_cli("cluster", *(a for flag in paths for a in (flag, paths[flag])),
                       "--out", out) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", TEXT_INPUTS)
def test_crlf_input_reads_like_lf(inputs, capsys, flag):
    argv, valid = inputs[flag]
    crlf = valid.parent / "crlf.txt"
    crlf.write_bytes(valid.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    outputs = []
    out = valid.parent / "out.txt"
    for path in (valid, crlf):
        out.unlink(missing_ok=True)
        assert run_cli(*argv, flag, path) == 0
        outputs.append((out.read_bytes() if out.exists() else None,
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


def test_build_idf_skips_whitespace_only_lines(workspace):
    corpus = workspace / "corpus.txt"
    spaced = workspace / "spaced.txt"
    spaced.write_text(" \t \n" + corpus.read_text(encoding="utf-8").replace("\n", "\n\u00a0\n"),
                      encoding="utf-8")
    for path, out in ((corpus, "a.tsv"), (spaced, "b.tsv")):
        assert run_cli("build-idf", "--corpus", path, "--out", workspace / out) == 0
    assert (workspace / "a.tsv").read_bytes() == (workspace / "b.tsv").read_bytes()


def test_mt_label_cli(workspace, capsys, tmp_path):
    tr = tmp_path / "tr.tsv"
    ids = [f"c{i:04d}" for i in range(40)]
    lines = [f"{cid}\tbanks\n" if i % 2 else f"{cid}\tjar\n"
             for i, cid in enumerate(ids)]
    tr.write_text("".join(lines), encoding="utf-8")
    assert run_cli("mt-label", "--translations", tr, "--stemmer", "porter",
                   "--out", tmp_path / "labels.tsv") == 0
    text = (tmp_path / "labels.tsv").read_text()
    assert "c0001\tbank" in text and "c0000\tjar" in text

    ds_path = workspace / "train.tsv"
    all_ids = [line.split("\t")[0]
               for line in ds_path.read_text().splitlines()[1:]]
    tr_full = tmp_path / "tr_full.tsv"
    tr_full.write_text("".join(f"{cid}\tjar\n" for cid in all_ids),
                       encoding="utf-8")
    assert run_cli("mt-label", "--translations", tr_full,
                   "--dataset", ds_path, "--out", tmp_path / "pred.tsv") == 0
    assert "\tjar\t" in (tmp_path / "pred.tsv").read_text().splitlines()[1]

    # translations not covering the dataset -> data error
    tr_short = tmp_path / "tr_short.tsv"
    tr_short.write_text("".join(f"{cid}\tjar\n" for cid in all_ids[:3]),
                        encoding="utf-8")
    assert run_cli("mt-label", "--translations", tr_short,
                   "--dataset", ds_path, "--out", tmp_path / "x.tsv") == 2
    # --dataset without --out -> usage error
    assert run_cli("mt-label", "--translations", tr_full,
                   "--dataset", ds_path) == 1


def test_console_entry_point(workspace):
    # The subprocesses import the package from where this process did.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "senseclust.cli", "evaluate",
         "--gold", str(workspace / "train.tsv"),
         "--pred", str(workspace / "missing.tsv")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "senseclust.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for sub in ("build-idf", "build-chi2", "cluster", "evaluate",
                "grid-search", "norm-report", "mt-label"):
        assert sub in proc.stdout
