"""Acceptance gate.

Each criterion runs as one test and contributes exactly one [PASS]/[FAIL]
line to the terminal summary (see conftest). The oracles here are the same
independent references used by the unit suites: exhaustive enumeration for
decoding, a memoized recursion for edit-distance counts, numpy.linalg.eigh
for PCA, and central finite differences for the autoencoder gradients.
"""

import dataclasses
import itertools
import json
import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import test_autoencoder
import test_decoder
import test_eigenlips

from vsrlab import autoencoder, corpus, decoder, eigenlips, experiment, \
    features, geometric, hmm, lingware, scoring
from vsrlab.errors import EmptyBeamError


def _gate(report, ok, name, detail):
    line = f"{'[PASS]' if ok else '[FAIL]'} {name}: {detail}"
    report.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence

def _wer_oracle(ref, hyp):
    """All (substitutions, insertions, deletions) triples of minimal total."""
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref) and j == len(hyp):
            return frozenset({(0, 0, 0)})
        cands = set()
        if i < len(ref) and j < len(hyp):
            for s, ins, d in go(i + 1, j + 1):
                cands.add((s + (ref[i] != hyp[j]), ins, d))
        if j < len(hyp):
            for s, ins, d in go(i, j + 1):
                cands.add((s, ins + 1, d))
        if i < len(ref):
            for s, ins, d in go(i + 1, j):
                cands.add((s, ins, d + 1))
        best = min(sum(c) for c in cands)
        return frozenset(c for c in cands if sum(c) == best)

    return go(0, 0)


def test_criterion_1_oracle_equivalence(acceptance_report):
    t0 = time.perf_counter()

    # exact-search decoding vs exhaustive sentence enumeration
    rng = np.random.default_rng(331)
    cases = [(False, 1)] * 30 + [(True, 1)] * 10 + [(False, 2)] * 10
    decode_bad = 0
    max_gap = 0.0
    for use_sil, n_mix in cases:
        model, lm, lex, frames, cfg = test_decoder._random_instance(
            rng, use_sil, n_mix)
        assert cfg.beam is None and frames.shape[0] <= 8
        result = decoder.decode_frames(decoder.DecodeGraph(model, lm, lex), frames, cfg)
        scored = test_decoder._oracle_decode(model, lm, lex, frames, cfg)
        best_score, best_words = scored[0]
        gap = abs(result.score - best_score)
        max_gap = max(max_gap, gap)
        unambiguous = len(scored) == 1 or scored[0][0] - scored[1][0] > 1e-6
        if gap > 1e-9 or (unambiguous and tuple(result.words) != best_words):
            decode_bad += 1

    # edit-distance counts vs brute-force recursion
    rng = np.random.default_rng(332)
    alphabet = ["a", "b", "c", "d"]
    wer_bad = 0
    n_pairs = 250
    for _ in range(n_pairs):
        ref = [alphabet[int(i)]
               for i in rng.integers(0, 4, int(rng.integers(1, 7)))]
        hyp = [alphabet[int(i)]
               for i in rng.integers(0, 4, int(rng.integers(0, 7)))]
        if scoring.align_wer(ref, hyp) not in _wer_oracle(ref, hyp):
            wer_bad += 1

    # PCA vs a dense eigensolver, both covariance routes
    rng = np.random.default_rng(333)
    pca_dev = 0.0
    for data, k in [(rng.uniform(0.0, 1.0, (50, 16, 32)), 10),
                    (rng.normal(size=(60, 40)), 6)]:
        model = eigenlips.fit_pca(data, k)
        mean_o, comps_o, evals_o = test_eigenlips._oracle_pca(data, k)
        pca_dev = max(pca_dev,
                      float(np.abs(model.mean - mean_o).max()),
                      float(np.abs(model.eigenvalues - evals_o).max()),
                      float(np.abs(model.components - comps_o).max()))

    elapsed = time.perf_counter() - t0
    ok = (decode_bad == 0 and wer_bad == 0 and pca_dev <= 1e-6
          and elapsed < 60.0)
    _gate(acceptance_report, ok, "criterion 1 (oracle equivalence)",
          f"decode {len(cases) - decode_bad}/{len(cases)} instances match "
          f"enumeration (max score gap {max_gap:.1e}); align_wer "
          f"{n_pairs - wer_bad}/{n_pairs} pairs optimal; PCA max deviation "
          f"{pca_dev:.1e} <= 1e-6; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: numerical-optimization checks

def test_criterion_2_numerical_optimization(acceptance_report, tiny_corpus):
    net = autoencoder.ConvAutoencoder(channels=(2, 3), bottleneck=4,
                                      input_hw=(8, 8), seed=0)
    batch = np.random.default_rng(2).uniform(0.2, 0.8, (2, 8, 8))
    grad_err = test_autoencoder.max_gradient_rel_err(net, batch)

    corpus_dir, records = tiny_corpus
    lexicon = lingware.load_lexicon(corpus_dir / "lexicon.txt")
    data = []
    for record in records:
        landmarks = corpus.read_landmarks(record.landmark_path)
        chain = hmm.phone_chain(lexicon, record.transcript)
        data.append((geometric.geometric_sequence(landmarks), chain))
    model = hmm.flat_start([frames for frames, _ in data], sorted(lexicon.phone_set()),
                           experiment.ExperimentConfig.from_mapping({}).topology)
    history = hmm.train_em(model, data, schedule=((1, 21),))
    lls = [ll for _, ll in history]
    drops = sum(1 for a, b in zip(lls, lls[1:]) if b < a - 1e-6 * abs(a))

    ok = grad_err < 1e-3 and len(lls) >= 20 and drops == 0
    _gate(acceptance_report, ok, "criterion 2 (numerical optimization)",
          f"autoencoder gradient max rel err {grad_err:.1e} < 1e-3; EM log "
          f"likelihood non-decreasing over {len(lls)} iterations "
          f"({drops} drops at tol 1e-6)")


# ---------------------------------------------------------------------------
# criterion 3: invariance suite

def test_criterion_3_invariances(acceptance_report, tiny_corpus):
    corpus_dir, records = tiny_corpus
    frame = corpus.read_landmarks(records[0].landmark_path)[3].astype(float)

    # rotation invariance of the geometric features
    ref_rot = geometric.geometric_sequence(frame[None])[0]
    rot_dev = 0.0
    center = frame.mean(axis=0)
    for deg in (47.0, 133.0, -101.0):
        th = math.radians(deg)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        moved = (frame - center) @ rot.T + center
        rot_dev = max(rot_dev, float(np.abs(
            geometric.geometric_sequence(moved[None])[0] - ref_rot).max()))

    # scaling/translation: exactly representable transforms must be bitwise
    grid = np.round(frame * 4.0)
    ref_grid = geometric.geometric_sequence(grid[None])[0]
    exact = True
    for shift in ((7.0, -3.0), (120.0, 45.0)):
        exact &= bool(np.array_equal(
            geometric.geometric_sequence((grid + np.array(shift))[None])[0], ref_grid))
    for scale in (2.0, 8.0, 0.5):
        exact &= bool(np.array_equal(
            geometric.geometric_sequence((grid * scale)[None])[0], ref_grid))

    # z-score statistics per group
    rng = np.random.default_rng(7)
    seqs = [features.FeatureSequence(
        frames=rng.normal(loc=2.0, scale=3.0, size=(8 + i, 5)),
        utterance_id=f"u{i}", speaker_id=f"s{i % 3}", stream_tag="geo")
        for i in range(9)]
    zs_dev = 0.0
    for mode in ("speaker", "utterance"):
        normed = features.zscore_normalize(seqs, mode)
        groups = {}
        for seq in normed:
            key = seq.speaker_id if mode == "speaker" else seq.utterance_id
            groups.setdefault(key, []).append(seq.frames)
        for frames_list in groups.values():
            stacked = np.vstack(frames_list)
            zs_dev = max(zs_dev, float(np.abs(stacked.mean(axis=0)).max()),
                         float(np.abs(stacked.std(axis=0) - 1.0).max()))

    # deltas of a constant sequence vanish
    const = features.FeatureSequence(frames=np.full((9, 4), 3.7),
                                     utterance_id="c", speaker_id="s",
                                     stream_tag="geo")
    with_dd = features.add_deltas(const, 2)
    deltas_zero = bool(np.all(with_dd.frames[:, 4:] == 0.0))

    # PCA basis orthonormality
    pca = eigenlips.fit_pca(np.random.default_rng(9).uniform(
        0.0, 1.0, (60, 16, 32)), 12)
    gram = pca.components @ pca.components.T
    ortho_dev = float(np.abs(gram - np.eye(12)).max())

    ok = (rot_dev <= 1e-9 and exact and zs_dev <= 1e-6 and deltas_zero
          and ortho_dev <= 1e-8)
    _gate(acceptance_report, ok, "criterion 3 (invariance suite)",
          f"geometric rotation dev {rot_dev:.1e} <= 1e-9, scale/translation "
          f"exact: {exact}; z-score group dev {zs_dev:.1e} <= 1e-6; deltas of "
          f"constants zero: {deltas_zero}; PCA orthonormality dev "
          f"{ortho_dev:.1e} <= 1e-8")


# ---------------------------------------------------------------------------
# criteria 4 and 5 share one full grid on the closed-loop synthetic corpus

ACCEPTANCE_SPEC = dict(n_speakers=5, n_utterances=240,
                       utterances_per_speaker=[50, 50, 50, 50, 40],
                       seed=7, noise_level=0.4, frames_per_phoneme=(3.0, 1.0))

GRID_OVERRIDES = {"test_speakers": "spk04", "schedule": "1:3,2:3",
                  "ae_epochs": "10", "beam": "none", "bootstrap": "1000"}


@pytest.fixture(scope="session")
def acceptance_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    lexicon = corpus.default_lexicon(n_words=20, seed=0)
    spec = corpus.SynthSpec(lexicon=lexicon, **ACCEPTANCE_SPEC)
    corpus.synthesize_corpus(spec, out)
    return out


@pytest.fixture(scope="session")
def acceptance_grid(acceptance_corpus, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance_grid")
    cfg = experiment.ExperimentConfig.from_mapping({
        "corpus_dir": str(acceptance_corpus), "out_dir": str(out_dir),
        **GRID_OVERRIDES})
    start = time.perf_counter()
    reports = experiment.run_grid(cfg)
    elapsed = time.perf_counter() - start
    return cfg, reports, elapsed


def test_criterion_4_end_to_end(acceptance_report, acceptance_grid):
    cfg, reports, elapsed = acceptance_grid
    n_cells = len(cfg.streams) * len(cfg.contexts) * len(cfg.norms)
    report = reports[("eig+dnn", 2, "speaker")]
    ok = report["wer"] <= 20.0 and elapsed < 900.0
    _gate(acceptance_report, ok, "criterion 4 (end-to-end synthetic)",
          f"eig+dnn dd2 speaker-normalized WER {report['wer']:.1f}% "
          f"[{report['ci_low']:.1f}, {report['ci_high']:.1f}] <= 20%; "
          f"{n_cells}-cell grid in {elapsed / 60.0:.1f} min < 15 min "
          f"(200 train / 40 test, 20 words, closed bigram)")


def test_criterion_5_trend_gates(acceptance_report, acceptance_grid):
    cfg, reports, _ = acceptance_grid
    records, lexicon, train_records, test_records = experiment.load_corpus(cfg)

    # same features as the gating cell, retrained with the 3-state topology
    base_paths = {s: {r.utterance_id: cfg.out_dir / s / f"{r.utterance_id}.vfa"
                      for r in records} for s in ("eig", "dnn")}
    base = experiment.load_base_features(base_paths,
                                         train_records + test_records)
    seqs = experiment.assemble_features(base, "eig+dnn", 2, "speaker")
    train_seqs = seqs[:len(train_records)]
    test_seqs = seqs[len(train_records):]
    cfg3 = dataclasses.replace(cfg, topology="classic3")
    model3, _ = experiment.train_cell_model(cfg3, train_seqs, train_records,
                                            lexicon)
    lm = lingware.load_lm(cfg.out_dir / "lm.alm")
    graph = decoder.DecodeGraph(model3, lm, lexicon)
    dc = cfg.decode_config()
    hyps = {}
    undecodable = 0
    for seq in test_seqs:
        try:
            hyps[seq.utterance_id] = decoder.decode_frames(
                graph, seq.frames, dc).words
        except EmptyBeamError:
            # minimum-duration constraint unsatisfiable: score as deletions
            hyps[seq.utterance_id] = []
            undecodable += 1
    refs = {r.utterance_id: r.transcript for r in test_records}
    wer3 = scoring.evaluate(refs, hyps, n_resamples=cfg.bootstrap,
                            seed=cfg.seed, confidence=cfg.confidence).wer
    wer2 = reports[("eig+dnn", 2, "speaker")]["wer"]
    topo = "holds" if wer2 <= wer3 else "does not hold"

    def row_mean(stream):
        vals = [reports[(stream, ctx, norm)]["wer"]
                for ctx in cfg.contexts for norm in cfg.norms]
        return sum(vals) / len(vals)

    isolated = {s: row_mean(s) for s in ("geo", "eig", "dnn")}
    combined = {s: row_mean(s) for s in cfg.streams if "+" in s}
    winners = sorted(s for s, m in combined.items()
                     if all(m < iso for iso in isolated.values()))
    iso_txt = " ".join(f"{s}={m:.1f}" for s, m in isolated.items())
    comb_txt = " ".join(f"{s}={m:.1f}" for s, m in combined.items())
    if winners:
        comb_line = f"holds ({winners[0]} beats every isolated row)"
    else:
        comb_line = "does not hold"
    _gate(acceptance_report, True, "criterion 5 (trend gates, soft)",
          f"skip2 {wer2:.1f}% vs classic3 {wer3:.1f}% on eig+dnn dd2 speaker "
          f"({undecodable}/{len(test_seqs)} utterances undecodable under the "
          f"3-frame minimum): {topo}; combined-beats-isolated: {comb_line} "
          f"[row means: {iso_txt} | {comb_txt}]")


# ---------------------------------------------------------------------------
# every cell of the grid, pinned

PINS_PATH = Path(__file__).with_name("acceptance_pins.tsv")


def test_every_cell_matches_its_pins(acceptance_grid):
    """Each grid cell's error counts (``score.json``) equal their pins
    exactly, and its last EM log likelihood (``loglik.tsv``) equals its pin
    to 1e-9 relative: a reordered sum passes, while a changed model or a
    changed hypothesis fails. A change of outputs on purpose updates the
    pins in ``acceptance_pins.tsv``."""
    cfg, _, _ = acceptance_grid
    header, *rows = [line.split("\t") for line in
                     PINS_PATH.read_text(encoding="utf-8").splitlines()]
    keys = header[1:5]
    assert sorted(name for name, *_ in rows) == sorted(
        experiment.cell_name(*cell)
        for cell in itertools.product(cfg.streams, cfg.contexts, cfg.norms))
    moved = []
    for name, *counts, pinned in rows:
        cell_dir = cfg.out_dir / "cells" / name
        score = json.loads((cell_dir / "score.json").read_text(encoding="utf-8"))
        got = [score[key] for key in keys]
        if got != [int(c) for c in counts]:
            moved.append(f"{name}: {dict(zip(keys, got))}, pinned {counts}")
        lines = (cell_dir / "loglik.tsv").read_text(encoding="utf-8").splitlines()
        last = float(lines[-1].split("\t")[1])
        if abs(last - float(pinned)) > 1e-9 * abs(float(pinned)):
            moved.append(f"{name}: final log likelihood {last}, pinned {pinned}")
    assert not moved, "\n".join(moved)


# ---------------------------------------------------------------------------
# criterion 6: determinism

def _hash_tree(root):
    return {str(p.relative_to(root)): experiment.file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _tiny_grid_tree(root, jobs=1):
    """Digest of every file of a tiny corpus and its grid, built in root."""
    corpus_dir = root / "corpus"
    lexicon = corpus.default_lexicon(n_words=6, seed=1)
    spec = corpus.SynthSpec(lexicon=lexicon, n_speakers=3,
                            n_utterances=12, words_per_utterance=(1, 2),
                            seed=11, noise_level=0.2,
                            frames_per_phoneme=(4.0, 1.0))
    corpus.synthesize_corpus(spec, corpus_dir)
    cfg = experiment.ExperimentConfig.from_mapping({
        "corpus_dir": str(corpus_dir),
        "out_dir": str(root / "out"),
        "test_speakers": "spk02", "streams": "geo,eig+dnn",
        "contexts": "0,2", "norms": "utterance", "schedule": "1:2",
        "pca_components": "8", "pca_max_frames": "96",
        "ae_channels": "4,8,8", "ae_bottleneck": "8", "ae_epochs": "2",
        "ae_max_frames": "256", "beam": "none", "bootstrap": "200"})
    experiment.run_grid(cfg, jobs=jobs)
    return _hash_tree(root)


def test_criterion_6_determinism(acceptance_report, tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    first = _tiny_grid_tree(root / "a")
    second = _tiny_grid_tree(root / "b")
    differing = sorted(set(k for k in first if second.get(k) != first[k])
                       | (set(second) - set(first)))
    ok = not differing and len(first) > 0
    detail = (f"{len(first)} artifacts (corpus + every stage) byte-identical "
              f"across independent runs" if ok else
              f"{len(differing)} artifact(s) differ, e.g. {differing[:3]}")
    _gate(acceptance_report, ok, "criterion 6 (determinism)", detail)


def test_grid_jobs_do_not_change_artifacts(tmp_path):
    serial = _tiny_grid_tree(tmp_path / "serial")
    pooled = _tiny_grid_tree(tmp_path / "pooled", jobs=2)
    assert len(serial) > 0
    assert pooled == serial
