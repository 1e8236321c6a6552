import json
import logging
import shutil

import numpy as np
import pytest

from vsrlab import autoencoder, corpus, eigenlips, experiment, features, lingware
from vsrlab.errors import DegenerateGeometryError, FormatError


def _write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigFile:
    def test_parse_basic(self, tmp_path):
        cfg = _write_config(tmp_path / "a.cfg", """
# comment
seed = 3
streams=geo
  contexts = 0,2
""")
        mapping = experiment.read_config_file(cfg)
        assert mapping == {"seed": "3", "streams": "geo", "contexts": "0,2"}

    def test_include_and_override(self, tmp_path):
        _write_config(tmp_path / "base.cfg", "seed=1\nlm_scale=5\n")
        child = _write_config(tmp_path / "child.cfg",
                              "include base.cfg\nseed=2\n")
        mapping = experiment.read_config_file(child)
        assert mapping == {"seed": "2", "lm_scale": "5"}

    def test_include_cycle_rejected(self, tmp_path):
        _write_config(tmp_path / "a.cfg", "include b.cfg\n")
        _write_config(tmp_path / "b.cfg", "include a.cfg\n")
        with pytest.raises(FormatError, match="cycle"):
            experiment.read_config_file(tmp_path / "a.cfg")

    def test_repeated_include_is_not_a_cycle(self, tmp_path):
        # a diamond: top includes a and b, and both include common
        _write_config(tmp_path / "common.cfg", "seed=1\nlm_scale=5\n")
        _write_config(tmp_path / "a.cfg", "include common.cfg\nseed=2\n")
        _write_config(tmp_path / "b.cfg", "include common.cfg\nbeam=50\n")
        top = _write_config(tmp_path / "top.cfg",
                            "include a.cfg\ninclude b.cfg\nlm_scale=7\n")
        # common's seed=1, included again through b, overrides a's seed=2
        assert experiment.read_config_file(top) == {
            "seed": "1", "lm_scale": "7", "beam": "50"}
        twice = _write_config(tmp_path / "twice.cfg",
                              "include common.cfg\nseed=3\ninclude common.cfg\n")
        assert experiment.read_config_file(twice) == {"seed": "1", "lm_scale": "5"}
        own = _write_config(tmp_path / "own.cfg", "include own.cfg\n")
        with pytest.raises(FormatError, match="cycle"):
            experiment.read_config_file(own)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = _write_config(tmp_path / "a.cfg", "just words\n")
        with pytest.raises(FormatError, match="key=value"):
            experiment.read_config_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            experiment.read_config_file(tmp_path / "absent.cfg")


class TestConfig:
    def test_defaults(self):
        cfg = experiment.ExperimentConfig.from_mapping({})
        assert cfg.streams == list(experiment.GRID_STREAMS)
        assert cfg.contexts == [0, 1, 2, 3]
        assert cfg.norms == ["speaker", "utterance"]
        assert cfg.schedule == [(1, 4), (2, 4), (4, 4), (8, 4)]
        assert cfg.beam == 200.0
        assert cfg.lm_scale == 10.0
        assert cfg.pca_components == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            experiment.ExperimentConfig.from_mapping({"tyop": "1"})

    def test_bad_values_rejected(self):
        for overrides, pattern in [
            ({"streams": "geo+bogus"}, "bad stream"),
            ({"streams": "geo+geo"}, "bad stream"),
            ({"contexts": "5"}, "contexts"),
            ({"norms": "global"}, "norms"),
            ({"topology": "ergodic"}, "topology"),
            ({"schedule": "4:4,2:4"}, "non-decreasing"),
            ({"lm_scale": "0"}, "lm_scale"),
            ({"beam": "-1"}, "beam"),
            ({"ae_bottleneck": "0"}, "ae_bottleneck"),
            ({"ae_batch": "0"}, "ae_batch"),
            ({"ae_channels": "0,4"}, "ae_channels"),
            ({"ae_channels": "4,4,4,4,4"}, "ae_channels"),
            ({"ae_channels": ""}, "ae_channels"),
            ({"ae_max_frames": "0"}, "ae_max_frames"),
            ({"ae_epochs": "0"}, "ae_epochs"),
            ({"ae_lr": "nan"}, "ae_lr"),
            ({"ae_lr": "-1"}, "ae_lr"),
            ({"ae_lr": "inf"}, "ae_lr"),
            ({"seed": "-1"}, "seed"),
            # values that do not parse name their key too
            ({"pca_components": "abc"}, "^pca_components: invalid literal"),
            ({"schedule": "1:x"}, "^schedule: invalid literal"),
            ({"contexts": "0,two"}, "^contexts: invalid literal"),
            ({"ae_channels": "8,1.5"}, "^ae_channels: invalid literal"),
            ({"beam": "wide"}, "^beam: could not convert"),
            ({"confidence": "high"}, "^confidence: could not convert"),
        ]:
            with pytest.raises(ValueError, match=pattern):
                experiment.ExperimentConfig.from_mapping(overrides)

    def test_non_finite_decode_values_rejected(self):
        for key, value in [("lm_scale", "nan"), ("lm_scale", "inf"),
                           ("beam", "nan"), ("word_insertion_penalty", "inf"),
                           ("word_insertion_penalty", "-inf"),
                           ("word_insertion_penalty", "nan")]:
            with pytest.raises(ValueError, match=key):
                experiment.ExperimentConfig.from_mapping({key: value})

    def test_beam_none_spellings(self):
        for spelling in ("none", "None", "inf", ""):
            cfg = experiment.ExperimentConfig.from_mapping({"beam": spelling})
            assert cfg.beam is None

    def test_semantic_hash_ignores_paths(self):
        a = experiment.ExperimentConfig.from_mapping(
            {"corpus_dir": "/x", "out_dir": "/y"})
        b = experiment.ExperimentConfig.from_mapping(
            {"corpus_dir": "/other", "out_dir": "/elsewhere"})
        c = experiment.ExperimentConfig.from_mapping({"lm_scale": "7"})
        assert a.semantic_hash() == b.semantic_hash()
        assert a.semantic_hash() != c.semantic_hash()

    def test_repeated_list_entries_rejected(self):
        # a repeated stream or context would give results.tsv a repeated row
        # or column for one report
        for key, value, entry in [("streams", "geo,eig,geo", "'geo'"),
                                  ("contexts", "0,2,0", "0"),
                                  ("norms", "speaker,speaker", "'speaker'"),
                                  ("test_speakers", "spk01,spk02,spk01", "'spk01'")]:
            with pytest.raises(ValueError, match=f"^{key}: {entry} is listed twice$"):
                experiment.ExperimentConfig.from_mapping({key: value})

    def test_default_semantic_hash_is_pinned(self):
        # every stamp carries this hash: a changed default text or key name
        # would re-stamp every existing tree
        assert (experiment.ExperimentConfig.from_mapping({}).semantic_hash()
                == "c3c273fa263d2a49ca7622a3613866d9835fca099abf0bd411e557d4ca1e7371")

    def test_base_streams_needed(self):
        cfg = experiment.ExperimentConfig.from_mapping({"streams": "geo,geo+eig"})
        assert cfg.base_streams_needed() == ["geo", "eig"]


class TestStamps:
    def test_round_trip(self, tmp_path):
        artifact = tmp_path / "thing.bin"
        artifact.write_bytes(b"payload")
        experiment.write_stamp(artifact, "stage", "k" * 8, "c" * 8)
        stamp = experiment.read_stamp(artifact)
        assert stamp["stage"] == "stage"
        assert stamp["key"] == "k" * 8
        assert stamp["config_hash"] == "c" * 8
        assert "tool_version" in stamp

    def test_missing_or_corrupt_stamp(self, tmp_path):
        artifact = tmp_path / "thing.bin"
        assert experiment.read_stamp(artifact) is None
        experiment.stamp_path(artifact).write_text("{not json", encoding="utf-8")
        assert experiment.read_stamp(artifact) is None


class TestRunner:
    def _runner(self):
        return experiment.Runner("cfg-hash")

    def test_caches_when_outputs_current(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hello", encoding="utf-8")
        out = tmp_path / "out.txt"
        calls = []

        def build():
            calls.append(1)
            out.write_text("built", encoding="utf-8")

        runner = self._runner()
        assert runner.stage("s", [src], {"p": 1}, [out], build) is True
        assert experiment.Runner("cfg-hash").stage(
            "s", [src], {"p": 1}, [out], build) is False
        assert len(calls) == 1

    def test_param_change_rebuilds(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hello", encoding="utf-8")
        out = tmp_path / "out.txt"
        calls = []

        def build():
            calls.append(1)
            out.write_text("built", encoding="utf-8")

        experiment.Runner("h").stage("s", [src], {"p": 1}, [out], build)
        experiment.Runner("h").stage("s", [src], {"p": 2}, [out], build)
        assert len(calls) == 2

    def test_input_change_rebuilds(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hello", encoding="utf-8")
        out = tmp_path / "out.txt"
        calls = []

        def build():
            calls.append(1)
            out.write_text("built", encoding="utf-8")

        experiment.Runner("h").stage("s", [src], {}, [out], build)
        src.write_text("changed", encoding="utf-8")
        experiment.Runner("h").stage("s", [src], {}, [out], build)
        assert len(calls) == 2

    def test_deleted_output_rebuilds(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hello", encoding="utf-8")
        out = tmp_path / "out.txt"
        calls = []

        def build():
            calls.append(1)
            out.write_text("built", encoding="utf-8")

        experiment.Runner("h").stage("s", [src], {}, [out], build)
        out.unlink()
        experiment.Runner("h").stage("s", [src], {}, [out], build)
        assert len(calls) == 2

    def test_missing_output_is_an_error(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hello", encoding="utf-8")
        with pytest.raises(FormatError, match="did not produce"):
            experiment.Runner("h").stage("s", [src], {},
                                         [tmp_path / "never.txt"], lambda: None)


class TestStageErrors:
    @pytest.mark.parametrize("stage", ["roi", "geo"])
    def test_degenerate_frame_names_stage_and_utterance(self, tmp_path, stage):
        spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(n_words=4, seed=0),
                                n_speakers=2, n_utterances=2, seed=3,
                                image_size=(64, 64))
        records = corpus.synthesize_corpus(spec, tmp_path / "corpus")
        bad = records[1]
        points = corpus.read_landmarks(bad.landmark_path)
        points[2, 54] = points[2, 48]      # finite, but the corners coincide
        corpus.write_landmarks(bad.landmark_path, points)
        runner = experiment.Runner("h")
        out_dir = tmp_path / stage
        with pytest.raises(DegenerateGeometryError) as err:
            if stage == "roi":
                cfg = experiment.ExperimentConfig.from_mapping({})
                experiment.stage_roi(runner, cfg, records, out_dir)
            else:
                experiment.stage_geo(runner, records, out_dir)
        assert str(err.value).startswith(
            f"stage {stage}, utterance {bad.utterance_id}: frame 2: mouth corners coincide")
        # the good utterance before it was built; the bad one left nothing
        assert (out_dir / f"{records[0].utterance_id}.vfa").exists()
        assert not (out_dir / f"{bad.utterance_id}.vfa").exists()


class TestZeroFrames:
    def test_zero_frame_roi_gives_empty_dnn_and_eig_features(self, tmp_path):
        roi = tmp_path / "u0.vfa"
        features.save_features(roi, features.FeatureSequence(
            frames=np.zeros((0, 16 * 32)), utterance_id="u0", speaker_id="s0",
            stream_tag="roi"))
        ae_path = tmp_path / "autoenc.cae"
        autoencoder.save_autoencoder(ae_path, autoencoder.ConvAutoencoder(seed=0))
        pca_path = tmp_path / "eigenlips.pca"
        eigenlips.save_pca(pca_path, eigenlips.PcaModel(
            mean=np.zeros(16 * 32), components=np.eye(16 * 32)[:5],
            eigenvalues=np.ones(5)))
        runner = experiment.Runner("h")
        dnn = experiment.stage_dnn(runner, {"u0": roi}, ae_path, tmp_path / "dnn")
        eig = experiment.stage_eig(runner, {"u0": roi}, pca_path, tmp_path / "eig")
        assert features.load_features(dnn["u0"]).frames.shape == (0, 32)
        assert features.load_features(eig["u0"]).frames.shape == (0, 5)


class TestAssemble:
    def _seqs(self, stream, dim, rng):
        out = []
        for i, spk in enumerate(("s0", "s0", "s1")):
            out.append(features.FeatureSequence(
                frames=rng.normal(size=(6 + i, dim)),
                utterance_id=f"u{i}", speaker_id=spk, stream_tag=stream))
        return out

    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(0)
        base = {"geo": self._seqs("geo", 3, rng),
                "eig": self._seqs("eig", 2, rng)}
        got = experiment.assemble_features(base, "geo+eig", 2, "utterance")

        manual = []
        for part in ("geo", "eig"):
            seqs = features.zscore_normalize(base[part], "utterance")
            manual.append([features.add_deltas(s, 2) for s in seqs])
        for i in range(3):
            expect = np.hstack([manual[0][i].frames, manual[1][i].frames])
            assert np.array_equal(got[i].frames, expect)
            assert got[i].utterance_id == f"u{i}"

    def test_context_zero_keeps_statics(self):
        rng = np.random.default_rng(1)
        base = {"geo": self._seqs("geo", 3, rng)}
        got = experiment.assemble_features(base, "geo", 0, "speaker")
        assert got[0].frames.shape[1] == 3
        assert got[0].delta_context == 0


@pytest.fixture(scope="module")
def grid_out(tiny_corpus, tmp_path_factory):
    corpus_dir, _ = tiny_corpus
    out_dir = tmp_path_factory.mktemp("grid")
    cfg = experiment.ExperimentConfig.from_mapping({
        "corpus_dir": str(corpus_dir), "out_dir": str(out_dir),
        "test_speakers": "spk01", "streams": "geo", "contexts": "0,1",
        "norms": "utterance", "schedule": "1:2", "bootstrap": "200",
        "beam": "none",
    })
    reports = experiment.run_grid(cfg)
    return cfg, reports


class TestGrid:
    def test_reports_and_tables(self, grid_out):
        cfg, reports = grid_out
        assert set(reports) == {("geo", 0, "utterance"), ("geo", 1, "utterance")}
        for report in reports.values():
            assert 0.0 <= report["wer"]
            assert report["ci_low"] <= report["wer"] <= report["ci_high"]

        tsv = (cfg.out_dir / "results.tsv").read_text(encoding="utf-8")
        lines = tsv.strip().split("\n")
        assert lines[0].split("\t") == ["stream", "utterance:raw",
                                        "utterance:dd1"]
        assert lines[1].split("\t")[0] == "geo"
        assert "±" in lines[1]

        tree = json.loads((cfg.out_dir / "results.json").read_text())
        assert tree["geo"]["utterance"]["raw"]["wer"] == \
            reports[("geo", 0, "utterance")]["wer"]

        md = (cfg.out_dir / "results.md").read_text(encoding="utf-8")
        assert md.startswith("| stream | utterance:raw | utterance:dd1 |")

    def test_artifacts_stamped(self, grid_out):
        cfg, _ = grid_out
        cell = cfg.out_dir / "cells" / "geo_raw_utterance"
        for name in ("model.opt", "hyp.tsv", "score.json"):
            stamp = experiment.read_stamp(cell / name)
            assert stamp is not None
            assert stamp["config_hash"] == cfg.semantic_hash()

    def test_ref_matches_test_speaker(self, grid_out, tiny_corpus):
        cfg, _ = grid_out
        _, records = tiny_corpus
        refs = (cfg.out_dir / "ref.tsv").read_text(encoding="utf-8")
        ids = [line.split("\t")[0] for line in refs.strip().split("\n")]
        expect = [r.utterance_id for r in records if r.speaker_id == "spk01"]
        assert ids == expect

    def test_deleting_decode_outputs_skips_training(self, grid_out, caplog):
        cfg, first = grid_out
        for cell_dir in (cfg.out_dir / "cells").iterdir():
            for name in ("hyp.tsv", "score.json"):
                (cell_dir / name).unlink()
                experiment.stamp_path(cell_dir / name).unlink()
        with caplog.at_level(logging.INFO, logger="vsrlab.experiment"):
            second = experiment.run_grid(cfg)
        built = [r.message for r in caplog.records if "built" in r.message]
        assert any(m.startswith("stage decode:") for m in built)
        assert not any(m.startswith("stage train:") for m in built)
        for cell in first:
            assert second[cell] == first[cell]

    def test_deleted_train_log_is_rebuilt(self, grid_out):
        cfg, _ = grid_out
        log_path = cfg.out_dir / "cells" / "geo_raw_utterance" / "loglik.tsv"
        before = log_path.read_bytes()
        assert experiment.read_stamp(log_path)["stage"] == "train:geo_raw_utterance"
        log_path.unlink()
        experiment.run_grid(cfg)
        assert log_path.read_bytes() == before

    def _copied_geo_grid(self, tiny_corpus, tmp_path):
        """A one-cell geo grid built on a copy of the tiny corpus."""
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(tiny_corpus[0], corpus_dir)
        cfg = experiment.ExperimentConfig.from_mapping({
            "corpus_dir": str(corpus_dir), "out_dir": str(tmp_path / "grid"),
            "test_speakers": "spk01", "streams": "geo", "contexts": "0",
            "norms": "utterance", "schedule": "1:2", "bootstrap": "200",
            "beam": "none"})
        experiment.run_grid(cfg)
        return cfg

    def test_lexicon_change_refits_the_lm(self, tiny_corpus, tmp_path, caplog):
        cfg = self._copied_geo_grid(tiny_corpus, tmp_path)
        corpus_dir = cfg.corpus_dir
        n_words = len(lingware.load_lm(cfg.out_dir / "lm.alm").vocab)
        with open(corpus_dir / "lexicon.txt", "a", encoding="utf-8") as fh:
            fh.write("zzword b a\n")
        with caplog.at_level(logging.INFO, logger="vsrlab.experiment"):
            experiment.run_grid(cfg)
        assert "stage lm: built" in caplog.messages
        lm = lingware.load_lm(cfg.out_dir / "lm.alm")
        assert len(lm.vocab) == n_words + 1 and "zzword" in lm.vocab

    def test_test_speaker_change_keeps_training_cached(self, tiny_corpus, tmp_path,
                                                      caplog):
        cfg = self._copied_geo_grid(tiny_corpus, tmp_path)
        record = next(r for r in corpus.load_manifest(cfg.corpus_dir / "manifest.tsv")
                      if r.speaker_id == "spk01")
        points = corpus.read_landmarks(record.landmark_path)
        points[:, 51, 1] -= 1.0   # raise the midpoint of the upper lip
        corpus.write_landmarks(record.landmark_path, points)
        geo_path = cfg.out_dir / "geo" / f"{record.utterance_id}.vfa"
        before = geo_path.read_bytes()
        with caplog.at_level(logging.INFO, logger="vsrlab.experiment"):
            experiment.run_grid(cfg)
        assert geo_path.read_bytes() != before
        assert "stage train:geo_raw_utterance: cached" in caplog.messages
        assert "stage decode:geo_raw_utterance: built" in caplog.messages

    def test_unknown_test_speaker_rejected(self, tiny_corpus, tmp_path):
        corpus_dir, _ = tiny_corpus
        cfg = experiment.ExperimentConfig.from_mapping({
            "corpus_dir": str(corpus_dir), "out_dir": str(tmp_path),
            "test_speakers": "spk99", "streams": "geo"})
        with pytest.raises(Exception, match="spk99"):
            experiment.run_grid(cfg)
