import json

import numpy as np
import pytest

from vsrlab import scoring
from vsrlab.errors import FormatError, UndefinedWerError


def test_hand_alignment():
    # a->a, b->x substitution, c->c, d inserted
    assert scoring.align_wer(["a", "b", "c"], ["a", "x", "c", "d"]) == (1, 1, 0)


def test_identity_and_empty_hypothesis():
    assert scoring.align_wer(["a", "b"], ["a", "b"]) == (0, 0, 0)
    assert scoring.align_wer(["a", "b", "c"], []) == (0, 0, 3)
    assert scoring.align_wer(["a"], ["x", "y", "z"]) == (1, 2, 0)


def test_empty_reference_rejected():
    with pytest.raises(UndefinedWerError):
        scoring.align_wer([], ["a"])


def _levenshtein(a, b):
    """Independent one-row distance computation (no counts, no backtrace)."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), cur[-1] + 1, prev[j] + 1))
        prev = cur
    return prev[-1]


def test_counts_sum_to_edit_distance():
    rng = np.random.default_rng(31)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = [alphabet[int(i)] for i in rng.integers(0, 4, int(rng.integers(1, 7)))]
        hyp = [alphabet[int(i)] for i in rng.integers(0, 4, int(rng.integers(0, 7)))]
        s, i_, d = scoring.align_wer(ref, hyp)
        assert s + i_ + d == _levenshtein(ref, hyp), (ref, hyp)
        assert len(ref) - d + i_ == len(hyp)  # alignment bookkeeping identity


def test_pooled_wer():
    counts = {"u1": (1, 1, 0, 3), "u2": (0, 0, 0, 5)}
    assert abs(scoring.pooled_wer(counts) - 100.0 * 2 / 8) < 1e-12


def test_utterance_counts_missing_hypothesis(caplog):
    refs = {"u1": ["a", "b"], "u2": ["c"]}
    hyps = {"u1": ["a", "b"], "stray": ["x"]}
    with caplog.at_level("WARNING", logger="vsrlab.scoring"):
        counts = scoring.utterance_counts(refs, hyps)
    assert counts["u2"] == (0, 0, 1, 1)  # scored against empty hypothesis
    assert counts["u1"] == (0, 0, 0, 2)
    assert any("u2" in m for m in caplog.messages)
    assert any("stray" in m for m in caplog.messages)


def test_bootstrap_deterministic_and_prefix_stable(defaults):
    counts = {f"u{i}": (i % 2, 0, 0, 4) for i in range(10)}
    a = scoring.bootstrap_ci(counts, n_resamples=300, seed=7,
                             confidence=defaults.confidence)
    b = scoring.bootstrap_ci(counts, n_resamples=300, seed=7,
                             confidence=defaults.confidence)
    assert a == b
    # per-resample seeding: a shorter run is a prefix of a longer one
    long = scoring.resample_wers(counts, 200, seed=7)
    short = scoring.resample_wers(counts, 80, seed=7)
    assert np.array_equal(long[:80], short)
    assert not np.array_equal(scoring.resample_wers(counts, 80, seed=8), short)


def _resample_wers_per_draw(counts, n_resamples, seed):
    """The bootstrap as one loop over resamples, a generator each."""
    rows = np.array(list(counts.values()), dtype=float)
    n = rows.shape[0]
    errors = rows[:, :3].sum(axis=1)
    refs = rows[:, 3]
    wers = np.empty(n_resamples)
    for k in range(n_resamples):
        idx = np.random.default_rng(seed + k).integers(0, n, n)
        wers[k] = 100.0 * errors[idx].sum() / refs[idx].sum()
    return wers


def test_resample_wers_match_per_draw_loop():
    rng = np.random.default_rng(5)
    for n, seed in [(1, 0), (2, 3), (7, 11), (40, 7), (240, 1)]:
        counts = {f"u{i}": tuple(int(c) for c in rng.integers(0, 4, 3))
                  + (int(rng.integers(1, 9)),) for i in range(n)}
        for n_resamples in (100, 357):
            got = scoring.resample_wers(counts, n_resamples, seed)
            assert np.array_equal(got, _resample_wers_per_draw(counts, n_resamples, seed))
        # prefix property across a cached and a fresh index matrix
        assert np.array_equal(scoring.resample_wers(counts, 357, seed)[:100],
                              scoring.resample_wers(counts, 100, seed))
    # the cached indices cannot be changed through a caller's hands
    idx = scoring._resample_indices(5, 100, 0)
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_bootstrap_single_utterance_collapses(defaults):
    counts = {"u1": (1, 0, 0, 4)}
    lo, hi = scoring.bootstrap_ci(counts, n_resamples=200, seed=0,
                                  confidence=defaults.confidence)
    assert lo == hi == 25.0


def test_bootstrap_two_utterance_support(defaults):
    # resamples of {0% over 1 word, 100% over 1 word} can only hit 0, 50, 100
    counts = {"u1": (0, 0, 0, 1), "u2": (1, 0, 0, 1)}
    lo, hi = scoring.bootstrap_ci(counts, n_resamples=1000, seed=3,
                                  confidence=defaults.confidence)
    assert lo in (0.0, 50.0, 100.0) and hi in (0.0, 50.0, 100.0)
    # each corner has probability 1/4 per resample; 1000 draws surely hit both
    assert lo == 0.0 and hi == 100.0


def test_evaluate_report_and_formats(defaults):
    refs = {"u1": ["a", "b", "c"], "u2": ["d", "e"]}
    hyps = {"u1": ["a", "x", "c"], "u2": ["d", "e"]}
    report = scoring.evaluate(refs, hyps, n_resamples=200, seed=1,
                              confidence=defaults.confidence)
    assert report.substitutions == 1
    assert report.reference_words == 5
    assert abs(report.wer - 20.0) < 1e-12
    assert report.ci_low <= report.wer <= report.ci_high
    line = report.format_line()
    assert line.startswith("WER 20.0 ± ")
    payload = json.loads(report.to_json())
    assert payload["n_utterances"] == 2
    assert list(payload) == sorted(payload)


def test_transcript_file_round_trip(tmp_path):
    data = {"u2": ["hola", "mundo"], "u1": ["adios"]}
    path = tmp_path / "ref.tsv"
    scoring.save_transcripts(path, data)
    text = path.read_text()
    assert text.splitlines()[0] == "u1\tadios"  # sorted on write
    assert scoring.load_transcripts(path) == data
    bad = tmp_path / "bad.tsv"
    bad.write_text("no_tab_here\n")
    with pytest.raises(FormatError, match=f"{bad}:1: expected"):
        scoring.load_transcripts(bad)
    bad.write_text("u1\ta b\n\nu2\tc\nu1\td\n")
    with pytest.raises(FormatError, match=f"{bad}:4: utterance 'u1' listed twice"):
        scoring.load_transcripts(bad)
