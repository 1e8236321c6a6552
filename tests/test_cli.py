import json

import numpy as np
import pytest

from vsrlab import cli, eigenlips, experiment, features, hmm, lingware, scoring


def _run(argv):
    return cli.main(argv)


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            _run([])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            _run(["frobnicate"])
        assert err.value.code == 2

    def test_bad_option_value_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            _run(["train-pca", "--components", "many", "a", "b"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            _run(["--version"])
        assert err.value.code == 0

    def test_pipeline_error_exits_one(self, tmp_path, capsys):
        rc = _run(["score", str(tmp_path / "no_ref.tsv"),
                   str(tmp_path / "no_hyp.tsv")])
        assert rc == 1
        assert "score" in capsys.readouterr().err

    def test_missing_feature_dir_exits_one(self, tmp_path, capsys):
        rc = _run(["train-pca", str(tmp_path), str(tmp_path / "out.eig")])
        assert rc == 1
        assert "train-pca" in capsys.readouterr().err

    def test_negative_utterance_count_exits_one(self, tmp_path, capsys):
        rc = _run(["synth-corpus", "--utterances", "-5", str(tmp_path / "corpus")])
        assert rc == 1
        assert "vsrlab synth-corpus: n_utterances must be at least 1, got -5" \
            in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_bad_autoencoder_value_exits_one(self, tmp_path, capsys):
        rc = _run(["train-ae", "--bottleneck", "0", str(tmp_path), str(tmp_path / "out.cae")])
        assert rc == 1
        assert "vsrlab train-ae: ae_bottleneck must be at least 1" in capsys.readouterr().err


def test_unset_flags_hash_like_the_config_file(tmp_path):
    # train-ae without --lr hashes ae_lr by its default text, as run-grid does
    roi = tmp_path / "roi"
    roi.mkdir()
    rng = np.random.default_rng(0)
    for utt in ("u1", "u2"):
        features.save_features(roi / f"{utt}.vfa", features.FeatureSequence(
            rng.uniform(size=(2, eigenlips.ROI_DIM)), utt, "s1", "roi"))
    out = tmp_path / "autoenc.cae"
    assert _run(["train-ae", str(roi), str(out)]) == 0
    assert (experiment.read_stamp(out)["config_hash"]
            == experiment.ExperimentConfig.from_mapping({}).semantic_hash())

@pytest.fixture(scope="module")
def work(tiny_corpus, tmp_path_factory):
    corpus_dir, records = tiny_corpus
    root = tmp_path_factory.mktemp("cli_work")
    return {"corpus": corpus_dir, "records": records, "root": root}


def _stage_argv(work):
    """Every stage subcommand of the chain, with the arguments it runs with."""
    c = str(work["corpus"])
    r = work["root"]
    argv = {
        "extract-roi": [c, r / "roi"],
        "feat-geo": [c, r / "geo"],
        "train-pca": ["--components", "8", "--max-frames", "120", r / "roi",
                      r / "pca.eig"],
        "feat-eig": [r / "pca.eig", r / "roi", r / "eig"],
        "train-ae": ["--epochs", "1", "--max-frames", "96", "--channels",
                     "4,8,8", "--bottleneck", "8", r / "roi",
                     r / "autoenc.cae"],
        "feat-dnn": [r / "autoenc.cae", r / "roi", r / "dnn"],
        "post": ["--norm", "utterance", "--context", "1", r / "post",
                 r / "geo", r / "eig"],
        "train-hmm": ["--schedule", "1:2", c, r / "geo", r / "model.opt"],
        "align": [r / "model.opt", c, r / "geo", r / "align.tsv"],
        "decode": ["--beam", "none", r / "model.opt", r / "lm.alm",
                   f"{c}/lexicon.txt", r / "geo", r / "hyp.tsv"],
    }
    return {cmd: [cmd] + [str(a) for a in args] for cmd, args in argv.items()}


class TestPipeline:
    """One end-to-end pass over every stage subcommand on a tiny corpus."""

    def test_stage_chain(self, work, capsys):
        root = work["root"]
        records = work["records"]
        n = len(records)
        argv = _stage_argv(work)

        roi = root / "roi"
        assert _run(argv["extract-roi"]) == 0
        assert len(list(roi.glob("*.vfa"))) == n

        geo = root / "geo"
        assert _run(argv["feat-geo"]) == 0
        first = features.load_features(
            geo / f"{records[0].utterance_id}.vfa")
        assert first.frames.shape[1] == 18
        assert first.stream_tag == "geo"

        pca = root / "pca.eig"
        assert _run(argv["train-pca"]) == 0
        stamp = experiment.read_stamp(pca)
        assert stamp and stamp["stage"] == "pca"

        eig = root / "eig"
        assert _run(argv["feat-eig"]) == 0
        assert features.load_features(
            eig / f"{records[0].utterance_id}.vfa").frames.shape[1] == 8

        assert _run(argv["train-ae"]) == 0

        dnn = root / "dnn"
        assert _run(argv["feat-dnn"]) == 0
        assert features.load_features(
            dnn / f"{records[0].utterance_id}.vfa").frames.shape[1] == 8

        post = root / "post"
        assert _run(argv["post"]) == 0
        combined = features.load_features(
            post / f"{records[0].utterance_id}.vfa")
        assert combined.frames.shape[1] == (18 + 8) * 3
        assert combined.normalization_tag == "utterance"

        model_path = root / "model.opt"
        assert _run(argv["train-hmm"]) == 0
        model = hmm.load_model(model_path)
        assert model.dim == 18

        align_path = root / "align.tsv"
        assert _run(argv["align"]) == 0
        rows = [line.split("\t") for line in
                align_path.read_text(encoding="utf-8").strip().split("\n")]
        by_utt = {}
        for utt, phone, start, end in rows:
            by_utt.setdefault(utt, []).append((phone, int(start), int(end)))
        assert set(by_utt) == {r.utterance_id for r in records}
        spans = by_utt[records[0].utterance_id]
        assert spans[0][1] == 0
        for (_, _, prev_end), (_, start, _) in zip(spans, spans[1:]):
            assert start == prev_end

        lexicon = lingware.load_lexicon(work["corpus"] / "lexicon.txt")
        lm = lingware.fit_bigram([r.transcript for r in records],
                                 vocabulary=lexicon.words)
        lingware.save_lm(root / "lm.alm", lm)
        hyp = root / "hyp.tsv"
        assert _run(argv["decode"]) == 0
        hyps = scoring.load_transcripts(hyp)
        assert set(hyps) == {r.utterance_id for r in records}

        ref = root / "ref.tsv"
        scoring.save_transcripts(ref, {r.utterance_id: r.transcript
                                       for r in records})
        report_path = root / "score.json"
        assert _run(["score", "--bootstrap", "200", "--json-out",
                     str(report_path), str(ref), str(hyp)]) == 0
        out = capsys.readouterr().out
        assert "WER" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["n_utterances"] == n

    def test_decode_on_another_streams_features_exits_one(self, work, tmp_path, capsys):
        # the model scores the geo stream's 18 features; eig has 8
        r = work["root"]
        argv = _stage_argv(work)["decode"]
        argv[argv.index(str(r / "geo"))] = str(r / "eig")
        argv[-1] = str(tmp_path / "hyp.tsv")
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert "vsrlab decode: utterance 0: frames of shape (" in err
        assert ", 8), but the model scores (frames, 18)" in err
        assert not (tmp_path / "hyp.tsv").exists()

    def test_rerun_uses_cache(self, work, capsys):
        def mtimes():
            return {p: p.stat().st_mtime_ns
                    for p in work["root"].rglob("*") if p.is_file()}

        before = mtimes()
        for command, argv in _stage_argv(work).items():
            assert _run(argv) == 0
            assert mtimes() == before, f"{command} rewrote current outputs"

    def test_retrained_basis_rebuilds_eig(self, work, tmp_path):
        roi = work["root"] / "roi"
        pca = tmp_path / "pca.eig"
        first = tmp_path / "eig" / f"{work['records'][0].utterance_id}.vfa"
        keys = []
        for components in ("8", "6"):
            assert _run(["train-pca", "--components", components,
                         "--max-frames", "120", str(roi), str(pca)]) == 0
            assert _run(["feat-eig", str(pca), str(roi),
                         str(tmp_path / "eig")]) == 0
            keys.append(experiment.read_stamp(first)["key"])
        assert keys[0] != keys[1]
        assert features.load_features(first).frames.shape[1] == 6

    def test_feature_outputs_match_the_grid(self, work, tmp_path):
        cfg = experiment.ExperimentConfig.from_mapping({
            "corpus_dir": str(work["corpus"]), "out_dir": str(tmp_path),
            "test_speakers": "spk01", "streams": "geo,eig", "contexts": "0",
            "norms": "utterance", "schedule": "1:2", "pca_components": "8",
            "pca_max_frames": "120", "beam": "none", "bootstrap": "200"})
        experiment.run_grid(cfg)
        for stage in ("roi", "geo"):
            cli_files = sorted((work["root"] / stage).glob("*.vfa"))
            assert [p.name for p in cli_files] == sorted(
                p.name for p in (tmp_path / stage).glob("*.vfa"))
            for path in cli_files:
                grid_path = tmp_path / stage / path.name
                assert path.read_bytes() == grid_path.read_bytes()
                assert (experiment.read_stamp(path)["key"]
                        == experiment.read_stamp(grid_path)["key"])


class TestRunGrid:
    def test_run_grid_command(self, tiny_corpus, tmp_path, capsys):
        corpus_dir, _ = tiny_corpus
        out_dir = tmp_path / "grid"
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(
            f"corpus_dir={corpus_dir}\n"
            f"out_dir={out_dir}\n"
            "test_speakers=spk01\n"
            "streams=geo\n"
            "contexts=0\n"
            "norms=utterance\n"
            "schedule=1:2\n"
            "bootstrap=200\n"
            "beam=none\n", encoding="utf-8")
        assert _run(["run-grid", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "| stream |" in out
        assert (out_dir / "results.tsv").exists()

    def test_score_defaults_reproduce_a_grid_cell(self, tiny_corpus, tmp_path):
        # ``score`` takes every default from the same table as the grid
        corpus_dir, _ = tiny_corpus
        cfg = experiment.ExperimentConfig.from_mapping({
            "corpus_dir": str(corpus_dir), "out_dir": str(tmp_path / "grid"),
            "test_speakers": "spk01", "streams": "geo", "contexts": "0",
            "norms": "utterance", "schedule": "1:2", "beam": "none"})
        experiment.run_grid(cfg)
        cell = cfg.out_dir / "cells" / experiment.cell_name("geo", 0, "utterance")
        report = tmp_path / "score.json"
        assert _run(["score", "--json-out", str(report), str(cfg.out_dir / "ref.tsv"),
                     str(cell / "hyp.tsv")]) == 0
        assert report.read_bytes() == (cell / "score.json").read_bytes()

    def test_missing_out_dir_rejected(self, tiny_corpus, tmp_path, capsys):
        corpus_dir, _ = tiny_corpus
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(f"corpus_dir={corpus_dir}\ntest_speakers=spk01\n",
                            encoding="utf-8")
        assert _run(["run-grid", str(cfg_path)]) == 1
        assert "out_dir" in capsys.readouterr().err
