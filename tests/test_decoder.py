import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp as sp_logsumexp
from scipy.stats import norm

from vsrlab import decoder, experiment, hmm
from vsrlab.decoder import DecodeConfig, DecodeGraph, decode_batch, decode_frames
from vsrlab.errors import EmptyBeamError, OovError
from vsrlab.hmm import LOG_ZERO
from vsrlab.lingware import Lexicon, fit_bigram


def _model(phone_means, kind="skip2", use_sil=False, var=0.25, n_mix=1):
    """Single-dimension model; state s of a phone sits at base + 0.5 * s."""
    names = sorted(phone_means)
    if use_sil and "sil" not in names:
        raise ValueError("sil mean required")
    rows = hmm._TOPOLOGY_ROWS[kind]
    mus = np.array([phone_means[name] + 0.5 * s for name in names
                    for s in range(rows.shape[0])])
    if n_mix == 1:
        means = mus[:, None]
        weights = np.ones(mus.shape[0])
    else:
        means = np.column_stack([mus - 0.4, mus + 0.4]).reshape(-1, 1)
        weights = np.tile([0.6, 0.4], mus.shape[0])
    return hmm.OpticalModel(phones=names, dim=1,
                            phone_n_states=np.full(len(names), rows.shape[0]),
                            trans=np.tile(rows.ravel(), len(names)),
                            n_mix=np.full(mus.shape[0], n_mix), weights=weights,
                            means=means, variances=np.full(means.shape, var),
                            var_floor=np.full(1, 1e-10), use_sil=use_sil)


def _decode(model, lm, lex, frames, config=None):
    """One utterance decoded under a graph built for it alone."""
    return decode_frames(DecodeGraph(model, lm, lex), frames, config)


def _lexicon():
    lex = Lexicon()
    lex.add("ba", ["p"])
    lex.add("do", ["t"])
    lex.add("ga", ["k"])
    return lex


def _lm():
    return fit_bigram([["ba"], ["do", "ga"], ["ba", "do"], ["ga"], ["do"]])


class _FlatLm:
    """Every word and the sentence end at log probability 0 in every
    context, except the ``forbidden`` (context, word) pairs at log zero."""

    def __init__(self, words, forbidden):
        self.unigram = dict.fromkeys(words, 0.0)
        self.forbidden = forbidden

    def logp(self, word, context):
        return LOG_ZERO if (context, word) in self.forbidden else 0.0


# ---------------------------------------------------------------------------
# reference decoder: enumerate word sequences, score each with a dense
# Viterbi written with plain loops and scipy densities

def _state_logpdf(model, pid, s, x):
    k = int(model.phone_n_states[:pid].sum()) + s
    start = int(model.n_mix[:k].sum())
    comps = [math.log(model.weights[m])
             + norm.logpdf(x, model.means[m, 0], math.sqrt(model.variances[m, 0]))
             for m in range(start, start + model.n_mix[k])]
    return float(sp_logsumexp(comps))


def _sentence_acoustic(model, lex, sentence, frames):
    phones = []
    for word in sentence:
        phones.extend(lex.canonical(word))
    if model.use_sil:
        phones = ["sil"] + phones + ["sil"]
    pids = [model.phones.index(p) for p in phones]
    sizes = [int(model.phone_n_states[pid]) for pid in pids]
    bases = [0]
    for n in sizes[:-1]:
        bases.append(bases[-1] + n)
    s_count = sum(sizes)
    trans = np.zeros((s_count, s_count))
    exit_p = np.zeros(s_count)
    for pos, pid in enumerate(pids):
        # the phone's rows, found by counting the entries of the phones before it
        n = sizes[pos]
        start = sum(int(m) * (int(m) + 1) for m in model.phone_n_states[:pid])
        rows = model.trans[start:start + n * (n + 1)].reshape(n, n + 1)
        for s in range(n):
            for c in range(n):
                trans[bases[pos] + s, bases[pos] + c] = rows[s, c]
            p_final = rows[s, n]
            if pos + 1 < len(pids):
                trans[bases[pos] + s, bases[pos + 1]] += p_final
            else:
                exit_p[bases[pos] + s] = p_final
    n_frames = frames.shape[0]
    emis = np.empty((n_frames, s_count))
    for j in range(s_count):
        pos = max(i for i, b in enumerate(bases) if b <= j)
        pid = pids[pos]
        s = j - bases[pos]
        for t in range(n_frames):
            emis[t, j] = _state_logpdf(model, pid, s, frames[t, 0])

    v = [-math.inf] * s_count
    v[0] = emis[0, 0]
    for t in range(1, n_frames):
        nv = [-math.inf] * s_count
        for j in range(s_count):
            best = -math.inf
            for i in range(s_count):
                if trans[i, j] > 0.0 and v[i] > -math.inf:
                    c = v[i] + math.log(trans[i, j])
                    if c > best:
                        best = c
            if best > -math.inf:
                nv[j] = best + emis[t, j]
        v = nv
    best = -math.inf
    for j in range(s_count):
        if exit_p[j] > 0.0 and v[j] > -math.inf:
            best = max(best, v[j] + math.log(exit_p[j]))
    return best


def _oracle_decode(model, lm, lex, frames, cfg, max_words=3):
    scored = []
    vocab = lex.words
    for n in range(1, max_words + 1):
        for sentence in itertools.product(vocab, repeat=n):
            acoustic = _sentence_acoustic(model, lex, sentence, frames)
            if acoustic == -math.inf:
                continue
            lm_term = lm.score(list(sentence))
            total = acoustic + cfg.lm_scale * lm_term \
                + cfg.word_insertion_penalty * n
            scored.append((total, sentence))
    assert scored, "no sentence fits the frame count"
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored


def _random_instance(rng, use_sil, n_mix=1):
    means = {"p": 0.0, "t": 4.0, "k": -4.0}
    if use_sil:
        means["sil"] = 10.0
    model = _model(means, use_sil=use_sil, n_mix=n_mix)
    lex = _lexicon()
    lm = _lm()
    n_words = int(rng.integers(1, 4))
    sentence = [lex.words[int(rng.integers(3))] for _ in range(n_words)]
    segments = []
    if use_sil:
        segments.append(10.0)
    for word in sentence:
        segments.append(means[lex.canonical(word)[0]])
    if use_sil:
        segments.append(10.0)
    budget = 8 - len(segments)
    lengths = [1] * len(segments)
    for _ in range(int(rng.integers(0, budget + 1))):
        lengths[int(rng.integers(len(segments)))] += 1
    frames = np.concatenate([
        rng.normal(mu, 0.4, size=(n, 1))
        for mu, n in zip(segments, lengths)
    ])
    cfg = DecodeConfig(lm_scale=float(rng.choice([2.0, 5.0])),
                       word_insertion_penalty=float(rng.choice([0.0, -0.7])),
                       beam=None)
    return model, lm, lex, frames, cfg


# ---------------------------------------------------------------------------
# reference token passer: the per-utterance decoder that ``decode_batch``
# replaced, with (words, start frames) tuple histories in object arrays and
# Python word-boundary steps. The batched kernel must give exactly its words,
# scores and spans.

_EMPTY = ((), ())


def _better(score_a, hist_a, score_b, hist_b):
    """True when token a should replace token b."""
    if score_a > score_b:
        return True
    if score_a == score_b and hist_b is not None and hist_a is not None:
        return hist_a[0] < hist_b[0]
    return False


def _shift_down(v, k):
    out = np.full_like(v, LOG_ZERO)
    out[k:] = v[:-k]
    return out


def _exit_states(graph):
    all_exits = np.flatnonzero(np.isfinite(graph.exit_logp))
    tail_base = graph.tail_entry if graph.model.use_sil else graph.n_states
    feed = all_exits[all_exits < tail_base]
    return feed, (all_exits[all_exits >= tail_base] if graph.model.use_sil else feed)


def _collect_exits(graph, score, hist):
    exits = {}
    word_id = {w: i for i, w in enumerate(graph.vocab)}
    for j in _exit_states(graph)[0]:
        s = score[j] + graph.exit_logp[j]
        if not np.isfinite(s):
            continue
        h = hist[j]
        ctx = word_id[h[0][-1]] if h[0] else graph.start_context
        old = exits.get(ctx)
        if old is None or _better(s, h, old[0], old[1]):
            exits[ctx] = (s, h)
    return exits


def _apply_entries(graph, exits, t, lam, wip, new_score, new_hist):
    if not exits:
        return
    ctxs = list(exits)
    scores = np.array([exits[c][0] for c in ctxs])
    mat = scores[:, None] + lam * graph.lm_matrix[ctxs] + wip
    col_best = mat.max(axis=0)
    col_arg = np.argmax(mat, axis=0)
    if len(ctxs) > 1:
        ties = (mat == col_best).sum(axis=0) > 1
        for w in np.where(ties)[0]:
            rows = np.where(mat[:, w] == col_best[w])[0]
            col_arg[w] = min(rows, key=lambda r: exits[ctxs[r]][1][0])
    for k, entry in enumerate(graph.word_entries):
        w = graph.variant_words[k]
        cand_score = col_best[w]
        if cand_score < new_score[entry]:
            continue
        h = exits[ctxs[col_arg[w]]][1]
        cand_hist = (h[0] + (graph.vocab[w],), h[1] + (t,))
        if _better(cand_score, cand_hist, new_score[entry], new_hist[entry]):
            new_score[entry] = cand_score
            new_hist[entry] = cand_hist
    if graph.tail_entry is not None:
        best_s = LOG_ZERO
        best_h = None
        for ctx in ctxs:
            if ctx == graph.start_context:
                continue
            s, h = exits[ctx]
            s = s + lam * graph.end_logp[ctx]
            if _better(s, h, best_s, best_h):
                best_s = s
                best_h = h
        if best_h is not None and _better(best_s, best_h,
                                          new_score[graph.tail_entry],
                                          new_hist[graph.tail_entry]):
            new_score[graph.tail_entry] = best_s
            new_hist[graph.tail_entry] = best_h


def _terminate(graph, score, hist, lam, n_frames, config):
    best_score = LOG_ZERO
    best_hist = None
    word_id = {w: i for i, w in enumerate(graph.vocab)}
    for j in _exit_states(graph)[1]:
        s = score[j] + graph.exit_logp[j]
        if not np.isfinite(s):
            continue
        h = hist[j]
        if not h[0]:
            continue
        if not graph.model.use_sil:
            s = s + lam * graph.end_logp[word_id[h[0][-1]]]
        if _better(s, h, best_score, best_hist):
            best_score = s
            best_hist = h
    if best_hist is None:
        raise EmptyBeamError(f"no complete hypothesis after {n_frames} frames")
    words = list(best_hist[0])
    starts = list(best_hist[1])
    spans = []
    for i, word in enumerate(words):
        start = 0 if i == 0 else starts[i]
        end = starts[i + 1] if i + 1 < len(words) else n_frames
        spans.append((word, start, end))
    return decoder.DecodeResult(words=words, score=float(best_score), word_spans=spans)


def _state_log_likelihoods(model, frames):
    """GMM log densities of every unique state (T, unique states)."""
    stacked = hmm._stack_components(model)
    return hmm._state_logsumexp(hmm.component_log_likelihoods(stacked, frames), model.n_mix)


def _decode_emissions(graph, emissions, config):
    """Decode one utterance given by its (T, unique states) log densities."""
    batch = hmm.pad_batch(graph.model.arc_table(), [graph], [emissions])
    return decoder._search(graph, batch, config, [0])[0]


def _reference_decode(graph, frames, config, emissions=None):
    if emissions is None:
        emissions = _state_log_likelihoods(graph.model, frames)
    emis = emissions[:, graph.unique_cols]
    a0, a1, a2 = graph.model.arc_table()[graph.arcs[:3]]
    n_frames = emis.shape[0]
    lam = config.lm_scale
    wip = config.word_insertion_penalty
    score = np.full(graph.n_states, LOG_ZERO)
    hist = np.empty(graph.n_states, dtype=object)
    if graph.model.use_sil:
        score[graph.lead_entry] = emis[0, graph.lead_entry]
        hist[graph.lead_entry] = _EMPTY
    else:
        for k, entry in enumerate(graph.word_entries):
            w = graph.variant_words[k]
            s = lam * graph.lm_matrix[graph.start_context, w] + wip + emis[0, entry]
            cand = ((graph.vocab[w],), (0,))
            if _better(s, cand, score[entry], hist[entry]):
                score[entry] = s
                hist[entry] = cand
    for t in range(1, n_frames):
        exits = _collect_exits(graph, score, hist)
        c0 = score + a0
        c1 = _shift_down(score + a1, 1)
        c2 = _shift_down(score + a2, 2)
        new_score = np.maximum(np.maximum(c0, c1), c2)
        choice = np.where(new_score == c0, 0, np.where(new_score == c1, 1, 2))
        src = np.arange(graph.n_states) - choice
        new_hist = hist[np.clip(src, 0, None)]
        tie_mask = ((c0 == new_score).astype(int) + (c1 == new_score).astype(int)
                    + (c2 == new_score).astype(int)) > 1
        for j in np.where(tie_mask & np.isfinite(new_score))[0]:
            best_h = None
            for cand, off in ((c0[j], 0), (c1[j], 1), (c2[j], 2)):
                if cand == new_score[j]:
                    h = hist[j - off]
                    if best_h is None or (h is not None and h[0] < best_h[0]):
                        best_h = h
            new_hist[j] = best_h
        _apply_entries(graph, exits, t, lam, wip, new_score, new_hist)
        finite = np.isfinite(new_score)
        if not finite.any():
            raise EmptyBeamError(f"no active hypothesis at frame {t}")
        new_score[finite] += emis[t, finite]
        new_hist[~finite] = None
        if config.beam is not None:
            dead = new_score < new_score.max() - config.beam
            new_score[dead] = LOG_ZERO
            new_hist[dead] = None
        score = new_score
        hist = new_hist
    return _terminate(graph, score, hist, lam, n_frames, config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(lm_scale=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(lm_scale=-3.0)
        with pytest.raises(ValueError):
            DecodeConfig(beam=0.0)
        DecodeConfig(beam=None)
        assert DecodeConfig().beam == 200.0
        assert DecodeConfig().lm_scale == 10.0
        assert DecodeConfig().word_insertion_penalty == 0.0

    def test_non_finite_values_rejected(self):
        for kwargs in [{"lm_scale": math.nan}, {"lm_scale": math.inf},
                       {"beam": math.nan}, {"word_insertion_penalty": math.inf},
                       {"word_insertion_penalty": -math.inf},
                       {"word_insertion_penalty": math.nan}]:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                DecodeConfig(**kwargs)

    def test_infinite_beam_is_exact(self):
        rng = np.random.default_rng(78)
        model, lm, lex, frames, _ = _random_instance(rng, use_sil=True)
        a = _decode(model, lm, lex, frames, DecodeConfig(lm_scale=4.0, beam=None))
        b = _decode(model, lm, lex, frames, DecodeConfig(lm_scale=4.0, beam=math.inf))
        assert (a.words, a.score, a.word_spans) == (b.words, b.score, b.word_spans)

    def test_oov_word_rejected(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0})
        lex = _lexicon()
        lex.add("zumo", ["t"])
        with pytest.raises(OovError):
            DecodeGraph(model, _lm(), lex)


class TestExactness:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(71)
        for trial in range(10):
            model, lm, lex, frames, cfg = _random_instance(rng, use_sil=False)
            result = _decode(model, lm, lex, frames, cfg)
            scored = _oracle_decode(model, lm, lex, frames, cfg)
            assert result.score == pytest.approx(scored[0][0], abs=1e-9)
            if len(scored) == 1 or scored[0][0] - scored[1][0] > 1e-6:
                assert tuple(result.words) == scored[0][1]

    def test_matches_enumeration_with_silence(self):
        rng = np.random.default_rng(72)
        for trial in range(6):
            model, lm, lex, frames, cfg = _random_instance(rng, use_sil=True)
            result = _decode(model, lm, lex, frames, cfg)
            scored = _oracle_decode(model, lm, lex, frames, cfg)
            assert result.score == pytest.approx(scored[0][0], abs=1e-9)
            if len(scored) == 1 or scored[0][0] - scored[1][0] > 1e-6:
                assert tuple(result.words) == scored[0][1]

    def test_matches_enumeration_two_mixtures(self):
        rng = np.random.default_rng(73)
        for trial in range(4):
            model, lm, lex, frames, cfg = _random_instance(rng, use_sil=False,
                                                           n_mix=2)
            result = _decode(model, lm, lex, frames, cfg)
            scored = _oracle_decode(model, lm, lex, frames, cfg)
            assert result.score == pytest.approx(scored[0][0], abs=1e-9)

    def test_single_frame_hand_score(self):
        # T=1: pick the word maximizing emission + scaled start/end bigram
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0})
        lm = _lm()
        lex = _lexicon()
        cfg = DecodeConfig(lm_scale=3.0, word_insertion_penalty=-0.2, beam=None)
        frames = np.array([[3.7]])
        result = _decode(model, lm, lex, frames, cfg)
        candidates = {}
        for word in lex.words:
            pid = model.phones.index(lex.canonical(word)[0])
            emis = _state_log_likelihoods(model, frames)[0, int(model.phone_n_states[:pid].sum())]
            # single frame: enter state 0, exit directly (skip arc, p=1/3)
            candidates[word] = emis + math.log(1.0 / 3.0) \
                + 3.0 * (lm.logp(word, "<s>") + lm.logp("</s>", word)) - 0.2
        best = max(sorted(candidates), key=lambda w: candidates[w])
        assert result.words == [best] == ["do"]
        assert result.score == pytest.approx(candidates[best], abs=1e-10)


class TestTieBreak:
    def test_homophones_pick_lexicographic_smaller(self):
        model = _model({"t": 0.0})
        lex = Lexicon()
        lex.add("dos", ["t"])
        lex.add("tos", ["t"])
        lm = fit_bigram([["dos"], ["tos"]])
        frames = np.zeros((4, 1))
        result = _decode(model, lm, lex, frames,
                        DecodeConfig(lm_scale=1.0, beam=None))
        assert result.words == ["dos"]


    def test_tied_exits_prefer_the_smaller_history(self):
        # all scores tie (see _tied_instance). At frame 8 the long variant
        # of "xx" can only hold (bb, xx) and the short one holds (aa, xx);
        # the exit of context xx must take the short variant's token, the
        # last one that can still enter "yy" and end at frame 11
        model = _model({"p": 0.0, "t": 0.0, "k": 0.0}, kind="classic3")
        model.means[:] = 0.0
        lex = Lexicon()
        for word, pron in [("aa", ["p", "p"]), ("bb", ["p"]), ("xx", ["t", "t"]),
                           ("xx", ["t"]), ("yy", ["k"])]:
            lex.add(word, pron)
        allowed = {("<s>", "aa"), ("<s>", "bb"), ("aa", "xx"), ("bb", "xx"),
                   ("xx", "yy"), ("yy", "</s>")}
        forbidden = {(c, w) for c in ["<s>"] + lex.words
                     for w in lex.words + ["</s>"]} - allowed
        graph = DecodeGraph(model, _FlatLm(lex.words, forbidden), lex)
        cfg = DecodeConfig(lm_scale=1.0, beam=None)
        frames = np.zeros((12, 1))
        want = _reference_decode(graph, frames, cfg)
        got = decode_frames(graph, frames, cfg)
        assert (got.words, got.score, got.word_spans) \
            == (want.words, want.score, want.word_spans)
        assert got.words == ["aa", "xx", "yy"]


class TestBeam:
    def test_tight_beam_starves_termination(self):
        # greedy emissions favour staying in state 0, but the only legal
        # 3-frame path must advance every frame
        model = _model({"p": 0.0}, kind="classic3")
        lex = Lexicon()
        lex.add("ba", ["p"])
        lm = fit_bigram([["ba"]])
        frames = np.array([[0.0], [0.0], [0.0]])
        exact = _decode(model, lm, lex, frames, DecodeConfig(lm_scale=1.0, beam=None))
        assert exact.words == ["ba"]
        with pytest.raises(EmptyBeamError):
            _decode(model, lm, lex, frames,
                   DecodeConfig(lm_scale=1.0, beam=1e-4))

    def test_wide_beam_matches_exact(self):
        rng = np.random.default_rng(74)
        model, lm, lex, frames, _ = _random_instance(rng, use_sil=True)
        cfg_exact = DecodeConfig(lm_scale=4.0, beam=None)
        cfg_beam = DecodeConfig(lm_scale=4.0, beam=1e6)
        a = _decode(model, lm, lex, frames, cfg_exact)
        b = _decode(model, lm, lex, frames, cfg_beam)
        assert a.words == b.words
        assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_beam_scores_monotone_in_width(self):
        rng = np.random.default_rng(77)
        model, lm, lex, frames, _ = _random_instance(rng, use_sil=True)
        scores = []
        for beam in (2.0, 10.0, 50.0, None):
            try:
                scores.append(_decode(model, lm, lex, frames,
                                     DecodeConfig(lm_scale=4.0, beam=beam)).score)
            except EmptyBeamError:
                scores.append(-np.inf)
        for narrow, wide in zip(scores, scores[1:]):
            assert narrow <= wide + 1e-12

    def test_too_few_frames(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0, "sil": 10.0},
                       use_sil=True)
        lex = _lexicon()
        # two frames cannot cover lead silence, one word, tail silence
        with pytest.raises(EmptyBeamError):
            _decode(model, _lm(), lex, np.zeros((2, 1)))


class TestResult:
    def test_spans_partition_frames(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0, "sil": 10.0},
                       use_sil=True)
        lex = _lexicon()
        lm = _lm()
        frames = np.concatenate([
            np.full((3, 1), 10.0),   # lead silence
            np.full((4, 1), 0.25),   # "ba"
            np.full((5, 1), 4.25),   # "do"
            np.full((3, 1), 10.0),   # tail silence
        ])
        result = _decode(model, lm, lex, frames,
                        DecodeConfig(lm_scale=1.0, beam=None))
        assert result.words == ["ba", "do"]
        # spans partition all frames; boundary silence folds into the words
        assert result.word_spans[0][1] == 0
        assert result.word_spans[-1][2] == 15
        for (_, _, end), (_, start, _) in zip(result.word_spans,
                                              result.word_spans[1:]):
            assert end == start
        assert result.word_spans[0][0] == "ba"
        assert result.word_spans[1][0] == "do"
        # the word boundary falls inside the acoustic change
        assert 5 <= result.word_spans[0][2] <= 9

    def test_emission_shift_keeps_argmax(self):
        rng = np.random.default_rng(75)
        model, lm, lex, frames, cfg = _random_instance(rng, use_sil=False)
        emis = _state_log_likelihoods(model, frames)
        shift = rng.normal(size=(emis.shape[0], 1))
        graph = DecodeGraph(model, lm, lex)
        a = _decode_emissions(graph, emis, cfg)
        b = _decode_emissions(graph, emis + shift, cfg)
        assert a.words == b.words
        assert b.score == pytest.approx(a.score + shift.sum(), abs=1e-9)

    def test_deterministic_and_graph_reuse(self):
        rng = np.random.default_rng(76)
        model, lm, lex, frames, cfg = _random_instance(rng, use_sil=True)
        graph = DecodeGraph(model, lm, lex)
        a = decode_frames(graph, frames, cfg)
        b = decode_frames(graph, frames, cfg)
        c = _decode(model, lm, lex, frames, cfg)
        assert a.words == b.words == c.words
        assert a.score == b.score == c.score
        assert a.word_spans == b.word_spans == c.word_spans


def _variant_instance(rng, use_sil):
    """Random graph with two-variant words, homophones under a symmetric
    bigram, and a batch of utterances of mixed length. Half the batches use
    frames from a few fixed values, so that distinct paths often reach
    exactly equal scores."""
    means = {"p": 0.0, "t": 2.0, "k": -2.0}
    if use_sil:
        means["sil"] = 5.0
    kind = str(rng.choice(["skip2", "classic3"]))
    model = _model(means, kind=kind, use_sil=use_sil, n_mix=int(rng.integers(1, 3)))
    lex = Lexicon()
    lex.add("ba", ["p"])
    lex.add("ba", ["p", "t"])
    lex.add("da", ["t"])
    lex.add("ta", ["t"])
    lex.add("ka", ["k", "p"])
    lex.add("ka", ["k"])
    sentences = [["da"], ["ta"], ["ba", "da"], ["ba", "ta"], ["da", "ka"],
                 ["ta", "ka"], ["ka"], ["ka", "ba"]]
    lm = fit_bigram(sentences[:int(rng.integers(2, len(sentences) + 1))]
                    + [["da"], ["ta"]], vocabulary=lex.words)
    lo = (3 if kind == "classic3" else 1) * (3 if use_sil else 1)
    lengths = rng.integers(lo, lo + 12, size=int(rng.integers(1, 6)))
    if rng.random() < 0.5:
        values = rng.choice([0.0, 2.0, -2.0, 5.0], size=4)
        frames = [rng.choice(values, size=(n, 1)) for n in lengths]
    else:
        frames = [rng.normal(0.0, 2.5, size=(n, 1)) for n in lengths]
    cfg = DecodeConfig(lm_scale=float(rng.choice([1.0, 2.0, 5.0])),
                       word_insertion_penalty=float(rng.choice([0.0, -0.7, 1.3])),
                       beam=rng.choice([None, 1e6, 2.0]))
    return DecodeGraph(model, lm, lex), frames, cfg


def _tied_instance(rng, use_sil):
    """Every state has the same density, every arc of classic3 has
    probability 1/2, and every frame is the same, so under a flat language
    model every token of a frame has exactly the same score: the word
    sequence and position rules alone pick every hypothesis. Words that sort
    first are the longest, and random bigrams are forbidden, so the earliest
    (positional) candidate is often not the one with the smallest word
    sequence."""
    means = {"p": 0.0, "t": 0.0, "k": 0.0}
    if use_sil:
        means["sil"] = 0.0
    model = _model(means, kind="classic3", use_sil=use_sil)
    model.means[:] = 0.0
    lex = Lexicon()
    for word, pron in [("ba", ["p", "t", "k"]), ("ba", ["p", "p"]),
                       ("da", ["t", "k"]), ("ta", ["t", "k"]), ("ka", ["k"]),
                       ("za", ["k"]), ("za", ["t"])]:
        lex.add(word, pron)
    lo = 9 if use_sil else 3
    frames = [np.zeros((n, 1)) for n in rng.integers(lo, lo + 10,
                                                       size=int(rng.integers(1, 6)))]
    cfg = DecodeConfig(lm_scale=float(rng.choice([1.0, 3.0])),
                       beam=rng.choice([None, 2.0]))
    contexts = ["<s>"] + lex.words
    forbidden = {(c, w) for c in contexts for w in lex.words + ["</s>"]
                 if rng.random() < 0.3}
    return DecodeGraph(model, _FlatLm(lex.words, forbidden), lex), frames, cfg


class TestBatch:
    @pytest.mark.parametrize("use_sil", [False, True])
    @pytest.mark.parametrize("make", [_variant_instance, _tied_instance],
                             ids=["variants", "all_tied"])
    def test_equals_reference_alone_and_in_batches(self, make, use_sil, monkeypatch):
        rng = np.random.default_rng(81 + use_sil)
        tie_rebuilds = []
        words = decoder._History.words
        monkeypatch.setattr(decoder._History, "words",
                            lambda self, link: tie_rebuilds.append(1) or words(self, link))
        compared = failed = 0
        for trial in range(80):
            graph, frames, cfg = make(rng, use_sil)
            expected = []
            for x in frames:
                try:
                    expected.append(_reference_decode(graph, x, cfg))
                except EmptyBeamError:
                    expected.append(None)
            bad = {i for i, r in enumerate(expected) if r is None}
            if bad:
                with pytest.raises(EmptyBeamError) as err:
                    decode_batch(graph, frames, cfg)
                assert err.value.utterance in bad
                assert f"utterance {err.value.utterance}:" in str(err.value)
                failed += 1
            else:
                got = decode_batch(graph, frames, cfg)
                for want, a in zip(expected, got):
                    assert (a.words, a.score, a.word_spans) \
                        == (want.words, want.score, want.word_spans)
                compared += len(frames)
            for want, x in zip(expected, frames):
                if want is None:
                    with pytest.raises(EmptyBeamError):
                        decode_frames(graph, x, cfg)
                    continue
                alone = decode_frames(graph, x, cfg)
                assert (alone.words, alone.score, alone.word_spans) \
                    == (want.words, want.score, want.word_spans)
        # the suite reaches the exact-tie paths and the batches
        assert tie_rebuilds and compared > 40

    def test_emission_override_equals_reference(self):
        rng = np.random.default_rng(83)
        for trial in range(10):
            graph, frames, cfg = _variant_instance(rng, use_sil=bool(trial % 2))
            emis = np.round(_state_log_likelihoods(graph.model, frames[0]))
            try:
                want = _reference_decode(graph, frames[0], cfg, emissions=emis)
            except EmptyBeamError:
                with pytest.raises(EmptyBeamError):
                    _decode_emissions(graph, emis, cfg)
                continue
            got = _decode_emissions(graph, emis, cfg)
            assert (got.words, got.score, got.word_spans) \
                == (want.words, want.score, want.word_spans)

    def test_empty_beam_names_the_utterance(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0, "sil": 10.0},
                       use_sil=True)
        graph = DecodeGraph(model, _lm(), _lexicon())
        good = np.concatenate([np.full((3, 1), 10.0), np.full((4, 1), 0.25),
                               np.full((3, 1), 10.0)])
        # two frames cannot cover lead silence, one word, tail silence
        frames = [good, good, np.zeros((2, 1)), good]
        with pytest.raises(EmptyBeamError, match="utterance 2:") as err:
            decode_batch(graph, frames, DecodeConfig(beam=None))
        assert err.value.utterance == 2

    def test_decode_cell_adds_the_utterance_id(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0, "sil": 10.0},
                       use_sil=True)
        cfg = SimpleNamespace(decode_config=lambda: DecodeConfig(beam=None))
        seqs = [SimpleNamespace(utterance_id=f"spk01_u{i}", frames=np.full((n, 1), 10.0))
                for i, n in enumerate((9, 2, 9))]
        with pytest.raises(EmptyBeamError, match=r"^spk01_u1: utterance 1:"):
            experiment.decode_cell(cfg, model, _lm(), _lexicon(), seqs)

    def test_zero_frames_is_an_empty_beam(self):
        model = _model({"p": 0.0, "t": 4.0, "k": -4.0})
        graph = DecodeGraph(model, _lm(), _lexicon())
        with pytest.raises(EmptyBeamError, match="utterance 0: no frames"):
            decode_frames(graph, np.zeros((0, 1)))
        with pytest.raises(EmptyBeamError, match="utterance 1: no frames") as err:
            decode_batch(graph, [np.zeros((4, 1)), np.zeros((0, 1))])
        assert err.value.utterance == 1
