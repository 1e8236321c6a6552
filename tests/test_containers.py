"""Every binary container rejects each strict prefix of a valid file, and a
valid file with bytes appended, with a ``FormatError`` that names the file.
A file with any one byte changed either is rejected in the same way or
loads into an object that saves back to those very bytes, and no load of
it warns.

Each writer below saves a small container to ``path`` and returns its loader
and its saver."""

import numpy as np
import pytest

from vsrlab import autoencoder, corpus, eigenlips, features, hmm, lingware
from vsrlab.errors import FormatError


def _vfa1(path):
    seq = features.FeatureSequence(np.arange(6.0).reshape(3, 2), "u1", "s1", "geo",
                                   normalization_tag="speaker", delta_context=1)
    features.save_features(path, seq)
    return features.load_features, features.save_features


def _opt1(path):
    frames = np.random.default_rng(3).normal(size=(8, 2))
    model = hmm.flat_start([frames], ["a"], topology_kind="classic3", use_sil=True)
    hmm.grow_mixtures(model, 2)
    hmm.save_model(path, model)
    return hmm.load_model, hmm.save_model


def _cae1(path):
    autoencoder.save_autoencoder(path, autoencoder.ConvAutoencoder(channels=(1,), bottleneck=1))
    return autoencoder.load_autoencoder, autoencoder.save_autoencoder


def _eig1(path):
    frames = np.random.default_rng(4).uniform(size=(3, eigenlips.ROI_DIM))
    eigenlips.save_pca(path, eigenlips.fit_pca(frames, 1))
    return eigenlips.load_pca, eigenlips.save_pca


def _alm1(path):
    lingware.save_lm(path, lingware.fit_bigram([["a", "b"], ["b"]]))
    return lingware.load_lm, lingware.save_lm


def _lmk1(path):
    corpus.write_landmarks(path, np.ones((2, corpus.N_LANDMARKS, 2)))
    return corpus.read_landmarks, corpus.write_landmarks


def _frm1(path):
    corpus.write_frames(path, np.ones((2, 3, 4), dtype=np.uint8))
    return corpus.read_frames, corpus.write_frames


WRITERS = pytest.mark.parametrize(
    "write", [_vfa1, _opt1, _cae1, _eig1, _alm1, _lmk1, _frm1],
    ids=["VFA1", "OPT1", "CAE1", "EIG1", "ALM1", "LMK1", "FRM1"])


@WRITERS
def test_every_strict_prefix_is_a_format_error(tmp_path, write):
    path = tmp_path / "container.bin"
    load, _ = write(path)
    blob = path.read_bytes()
    load(path)
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(FormatError, match=str(path)):
            load(path)


@WRITERS
@pytest.mark.parametrize("extra", [b"\x00", b"\x01\x02\x03\x04"], ids=["1_byte", "4_bytes"])
def test_bytes_after_the_last_field_are_a_format_error(tmp_path, write, extra):
    path = tmp_path / "container.bin"
    load, save = write(path)
    blob = path.read_bytes()
    resaved = tmp_path / "resaved.bin"
    save(resaved, load(path))
    assert resaved.read_bytes() == blob
    path.write_bytes(blob + extra)
    with pytest.raises(FormatError, match=f"{path}: trailing bytes after the last field"):
        load(path)


# each single-byte mutation: the new value of byte b
MUTATIONS = {"set 0x00": lambda b: 0x00, "set 0xFF": lambda b: 0xFF,
             "flip bit 0": lambda b: b ^ 0x01, "flip bit 7": lambda b: b ^ 0x80}


@WRITERS
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_single_byte_mutation_is_rejected_or_saves_back(tmp_path, write):
    path = tmp_path / "container.bin"
    load, save = write(path)
    blob = path.read_bytes()
    resaved = tmp_path / "resaved.bin"
    differ = []
    for i in range(len(blob)):
        for name, mutate in MUTATIONS.items():
            if mutate(blob[i]) == blob[i]:
                continue
            mutated = blob[:i] + bytes([mutate(blob[i])]) + blob[i + 1:]
            path.write_bytes(mutated)
            try:
                loaded = load(path)
            except FormatError as exc:
                assert str(path) in str(exc)
                continue
            save(resaved, loaded)
            if resaved.read_bytes() != mutated:
                differ.append((i, name))
    assert differ == []
