import math

import numpy as np
import pytest

from vsrlab import lingware
from vsrlab.errors import FormatError, LexiconError, OovError
from vsrlab.lingware import SENTENCE_END, SENTENCE_START


def test_witten_bell_hand_case_repeated_pair():
    # corpus "a b" twice: every seen context has c=2, T=1 -> lambda 2/3;
    # unigram: N=6 events over 3 types -> lambda_u 2/3, p_uni = 1/3 for all;
    # so every seen transition scores 2/3 + (1/3)(1/3) = 7/9
    lm = lingware.fit_bigram([["a", "b"], ["a", "b"]])
    assert abs(lm.prob("a", SENTENCE_START) - 7 / 9) < 1e-12
    assert abs(lm.prob("b", "a") - 7 / 9) < 1e-12
    assert abs(lm.prob(SENTENCE_END, "b") - 7 / 9) < 1e-12
    # unseen transition backs off to the unigram
    assert abs(lm.prob("a", "a") - (1 / 3) * (1 / 3)) < 1e-12
    assert abs(lm.score(["a", "b"]) - 3 * math.log(7 / 9)) < 1e-12


def test_witten_bell_hand_case_single_word():
    # corpus "a": p(a|<s>) = 1/2 * 1 + 1/2 * p_uni(a), p_uni(a) = 1/2
    lm = lingware.fit_bigram([["a"]])
    assert abs(lm.prob("a", SENTENCE_START) - 0.75) < 1e-12


def test_bigram_rows_sum_to_one():
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(12)]
    transcripts = [[vocab[int(i)] for i in rng.integers(0, 12, int(rng.integers(1, 7)))]
                   for _ in range(40)]
    lm = lingware.fit_bigram(transcripts)
    alphabet = lm.vocab + [SENTENCE_END]
    for context in [SENTENCE_START] + lm.vocab:
        total = sum(lm.prob(w, context) for w in alphabet)
        assert abs(total - 1.0) < 1e-10, context
    assert all(lm.prob(w, v) > 0.0 for v in [SENTENCE_START] + lm.vocab for w in alphabet)


def test_closed_vocabulary_rejects_strays():
    with pytest.raises(OovError):
        lingware.fit_bigram([["a", "b"]], vocabulary=["a"])
    lm = lingware.fit_bigram([["a", "b"]], vocabulary=["a", "b", "c"])
    assert "c" in lm.vocab
    assert lm.prob("c", "a") > 0.0
    with pytest.raises(OovError):
        lm.score(["a", "zzz"])


@pytest.mark.parametrize("transcripts, vocabulary, marker", [
    ([["ba"], [SENTENCE_END, "ba"], [SENTENCE_START]], None, SENTENCE_END),
    ([["ba"], ["ba", SENTENCE_START]], None, SENTENCE_START),
    ([["ba"]], ["ba", SENTENCE_START], SENTENCE_START),
    ([["ba", SENTENCE_END]], ["ba", SENTENCE_END], SENTENCE_END),
])
def test_sentence_marker_as_word_is_rejected_when_fitting(transcripts, vocabulary, marker):
    # as a word, "</s>" collides with the sentence end and the unigram no longer sums to 1
    with pytest.raises(ValueError, match=f"the sentence marker '{marker}' cannot be a word"):
        lingware.fit_bigram(transcripts, vocabulary=vocabulary)


def test_arpa_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(8)]
    transcripts = [[vocab[int(i)] for i in rng.integers(0, 8, 4)] for _ in range(25)]
    lm = lingware.fit_bigram(transcripts)
    path = tmp_path / "model.arpa"
    lingware.write_arpa(path, lm)
    text = path.read_text()
    assert "\\data\\" in text and "\\1-grams:" in text and "\\2-grams:" in text
    assert f"ngram 2={len(lm.bigram)}" in text
    loaded = lingware.read_arpa(path)
    for sent in transcripts[:10]:
        assert abs(loaded.score(sent) - lm.score(sent)) < 1e-8
    # unseen transitions go through the backoff weight and must match too
    assert abs(loaded.prob("w0", "w1") - lm.prob("w0", "w1")) < 1e-10


def test_binary_lm_round_trip(tmp_path):
    lm = lingware.fit_bigram([["a", "b", "a"], ["b", "b"], ["a"]])
    path = tmp_path / "model.alm"
    lingware.save_lm(path, lm)
    assert path.read_bytes()[:4] == b"ALM1"
    loaded = lingware.load_lm(path)
    assert loaded.vocab == lm.vocab
    for v in [SENTENCE_START, "a", "b"]:
        for w in ["a", "b", SENTENCE_END]:
            assert loaded.prob(w, v) == lm.prob(w, v)
    bad = tmp_path / "bad.alm"
    bad.write_bytes(b"WRNG" + b"\x00" * 16)
    with pytest.raises(FormatError):
        lingware.load_lm(bad)


@pytest.mark.parametrize("table, key, value", [
    ("unigram", "a", np.nan),
    ("unigram", "a", 0.0),
    ("unigram", SENTENCE_END, -0.25),
    ("unigram", "b", 1.5),
    ("bigram", ("a", "b"), np.inf),
    ("bigram", (SENTENCE_START, "a"), 0.0),
    ("bigram", ("b", SENTENCE_END), 1.25),
    ("lam", "a", np.nan),
    ("lam", SENTENCE_START, 1.0),
    ("lam", "b", -0.5),
])
def test_bad_values_are_a_format_error(tmp_path, table, key, value):
    lm = lingware.fit_bigram([["a", "b"], ["b"]])
    assert key in getattr(lm, table)
    getattr(lm, table)[key] = value
    path = tmp_path / "model.alm"
    lingware.save_lm(path, lm)
    message = {"unigram": "unigram and bigram probabilities must lie in",
               "bigram": "unigram and bigram probabilities must lie in",
               "lam": "Witten-Bell weights must lie in"}[table]
    with pytest.raises(FormatError, match=f"{path}: {message}"):
        lingware.load_lm(path)


def test_repeated_word_is_a_format_error(tmp_path):
    path = tmp_path / "model.alm"
    lingware.save_lm(path, lingware.fit_bigram([["a", "b"]]))
    raw = bytearray(path.read_bytes())
    # the two vocabulary words follow the magic and the word count
    assert raw[8:12] == b"\x01a\x01b"
    raw[11] = ord("a")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"{path}: word 'a' is listed twice"):
        lingware.load_lm(path)


@pytest.mark.parametrize("marker", [SENTENCE_START, SENTENCE_END])
def test_sentence_marker_as_word_is_a_format_error(tmp_path, marker):
    path = tmp_path / "model.alm"
    lingware.save_lm(path, lingware.fit_bigram([["a", "b"]]))
    raw = path.read_bytes()
    # the two vocabulary words follow the magic and the word count
    assert raw[8:12] == b"\x01a\x01b"
    path.write_bytes(raw[:10] + bytes([len(marker)]) + marker.encode() + raw[12:])
    with pytest.raises(FormatError,
                       match=f"{path}: the sentence marker '{marker}' is listed as a word"):
        lingware.load_lm(path)


@pytest.mark.parametrize("edit, problem", [
    (lambda records: [records[0], records[0]] + records[2:], "listed twice"),
    (lambda records: [records[1], records[0]] + records[2:], "out of order"),
], ids=["record_0_over_record_1", "records_0_and_1_swapped"])
def test_bigram_records_out_of_save_order_are_a_format_error(tmp_path, edit, problem):
    path = tmp_path / "model.alm"
    lm = lingware.fit_bigram([["a", "b"], ["b"]])
    lingware.save_lm(path, lm)
    raw = path.read_bytes()
    # the 16-byte bigram records end the file, after their u32 count
    n = len(lm.bigram)
    head, body = raw[:-16 * n], raw[-16 * n:]
    assert n == 4 and head[-4:] == n.to_bytes(4, "little")
    records = [body[16 * i:16 * (i + 1)] for i in range(n)]
    path.write_bytes(head + b"".join(edit(records)))
    with pytest.raises(FormatError, match=f"{path}: bigram .* is {problem}"):
        lingware.load_lm(path)


def test_non_utf8_word_is_a_format_error(tmp_path):
    path = tmp_path / "model.alm"
    lingware.save_lm(path, lingware.fit_bigram([["a", "b"]]))
    raw = bytearray(path.read_bytes())
    # the first vocabulary word follows the magic and the word count
    assert raw[8:10] == b"\x01a"
    raw[9] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"{path}: string .* is not UTF-8"):
        lingware.load_lm(path)


def test_lexicon_load_and_variants(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("casa k a s a\nperro p e rr o\ncasa k a z a\n")
    lex = lingware.load_lexicon(path, inventory=["k", "a", "s", "z", "p", "e", "rr", "o"])
    assert lex.words == ["casa", "perro"]
    assert lex.pronunciations("casa") == [["k", "a", "s", "a"], ["k", "a", "z", "a"]]
    assert lex.canonical("casa") == ["k", "a", "s", "a"]
    assert lex.phone_set() == {"k", "a", "s", "z", "p", "e", "rr", "o"}
    with pytest.raises(OovError):
        lex.pronunciations("gato")

    out = tmp_path / "copy.txt"
    lingware.save_lexicon(out, lex)
    assert lingware.load_lexicon(out).entries == lex.entries


def test_lexicon_errors(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("casa k q q\n")
    with pytest.raises(LexiconError, match="casa"):
        lingware.load_lexicon(path, inventory=["k", "a"])
    path.write_text("sole\n")
    with pytest.raises(LexiconError):
        lingware.load_lexicon(path)
    path.write_text("")
    with pytest.raises(LexiconError):
        lingware.load_lexicon(path)


@pytest.mark.parametrize("marker", [SENTENCE_START, SENTENCE_END])
def test_sentence_marker_in_lexicon_is_rejected(tmp_path, marker):
    # as a word, "</s>" would collide with the sentence end in the bigram
    path = tmp_path / "lex.txt"
    path.write_text(f"casa k a s a\n{marker} t\n")
    with pytest.raises(LexiconError,
                       match=f"{path}:2: the sentence marker '{marker}' cannot be a word"):
        lingware.load_lexicon(path)
