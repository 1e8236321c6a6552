"""Closed-vocabulary continuous decoding: token-passing Viterbi over the
phone models, the pronunciation lexicon, and a bigram language model.

The search space stacks one state chain per pronunciation variant, plus a
leading and a trailing silence chain when the model uses silence. Language
model scores are applied when a token enters a word; the sentence-end
probability is applied when a token enters the trailing silence (or at
termination when silence is off), which keeps recombination exact. With no
beam the search is exact; with a beam, tokens worse than the frame best by
more than the beam width are dropped.

Exact score ties are resolved toward the lexicographically smaller word
sequence, so decoding is fully deterministic.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBeamError, OovError
from .hmm import LOG_ZERO, SILENCE_PHONE, _shift_down, compose_chain, \
    state_log_likelihoods
from .lingware import SENTENCE_END, SENTENCE_START

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    lm_scale: float = 10.0
    word_insertion_penalty: float = 0.0
    beam: float | None = 200.0     # None decodes exactly

    def __post_init__(self):
        if self.lm_scale <= 0.0:
            raise ValueError("lm_scale must be positive")
        if self.beam is not None and self.beam <= 0.0:
            raise ValueError("beam must be positive when set")


@dataclass
class DecodeResult:
    words: list
    score: float
    word_spans: list               # (word, start_frame, end_frame) partition


class DecodeGraph:
    """Precompiled search network for one model/lexicon/language model."""

    def __init__(self, model, lm, lexicon):
        self.model = model
        self.lm = lm
        self.vocab = list(lexicon.words)
        if not self.vocab:
            raise OovError("the lexicon is empty")
        for word in self.vocab:
            if word not in lm.unigram:
                raise OovError(f"word {word!r} has no language model entry")
        self.word_id = {w: i for i, w in enumerate(self.vocab)}

        a0, a1, a2, exitp, ucols = [], [], [], [], []
        base = 0

        def add_chain(phones):
            nonlocal base
            graph = compose_chain(model, phones)
            a0.append(graph.a0)
            a1.append(graph.a1)
            a2.append(graph.a2)
            exitp.append(graph.exit_logp)
            ucols.append(graph.unique_cols)
            base += graph.n_states
            return base - graph.n_states

        if model.use_sil:
            self.lead_entry = add_chain([SILENCE_PHONE])
        else:
            self.lead_entry = None
        self.word_entries = []
        self.variant_words = []    # word index per pronunciation variant
        for w, word in enumerate(self.vocab):
            for pron in lexicon.pronunciations(word):
                self.word_entries.append(add_chain(pron))
                self.variant_words.append(w)
        if model.use_sil:
            self.tail_entry = add_chain([SILENCE_PHONE])
            self.tail_base = self.tail_entry
        else:
            self.tail_entry = None
            self.tail_base = base
        self.a0 = np.concatenate(a0)
        self.a1 = np.concatenate(a1)
        self.a2 = np.concatenate(a2)
        self.exitp = np.concatenate(exitp)
        self.ucols = np.concatenate(ucols)
        self.n_states = base
        all_exits = np.where(np.isfinite(self.exitp))[0]
        # trailing silence may only terminate, never feed another word
        self.feed_exit_states = all_exits[all_exits < self.tail_base]
        self.final_exit_states = (all_exits[all_exits >= self.tail_base]
                                  if model.use_sil else self.feed_exit_states)

        # lm_matrix[v, w] = ln p(vocab[w] | context v); last row is <s>
        v = len(self.vocab)
        self.lm_matrix = np.empty((v + 1, v))
        self.end_logp = np.full(v + 1, LOG_ZERO)
        for i in range(v + 1):
            ctx = SENTENCE_START if i == v else self.vocab[i]
            for j, word in enumerate(self.vocab):
                self.lm_matrix[i, j] = lm.logp(word, ctx)
            if i < v:
                self.end_logp[i] = lm.logp(SENTENCE_END, ctx)
        self.start_context = v


_EMPTY = ((), ())                  # (words, start_frames) of the null history


def _better(score_a, hist_a, score_b, hist_b):
    """True when token a should replace token b."""
    if score_a > score_b:
        return True
    if score_a == score_b and hist_b is not None and hist_a is not None:
        return hist_a[0] < hist_b[0]
    return False


def _collect_exits(graph, score, hist):
    """Best exiting token per language model context: {ctx: (score, hist)}."""
    exits = {}
    for j in graph.feed_exit_states:
        s = score[j] + graph.exitp[j]
        if not np.isfinite(s):
            continue
        h = hist[j]
        ctx = graph.word_id[h[0][-1]] if h[0] else graph.start_context
        old = exits.get(ctx)
        if old is None or _better(s, h, old[0], old[1]):
            exits[ctx] = (s, h)
    return exits


def _apply_entries(graph, exits, t, lam, wip, new_score, new_hist):
    if not exits:
        return
    ctxs = list(exits)
    scores = np.array([exits[c][0] for c in ctxs])
    mat = scores[:, None] + lam * graph.lm_matrix[ctxs] + wip   # (k, V)
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
        # the sentence-end probability is charged on entering the trailing
        # silence so that recombination there stays exact
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


def decode_frames(graph, frames, config=None, emissions=None):
    """Decode one utterance; ``emissions`` may override the per-state log
    densities (same layout as ``state_log_likelihoods``)."""
    if config is None:
        config = DecodeConfig()
    if emissions is None:
        emissions = state_log_likelihoods(graph.model, frames)
    emis = emissions[:, graph.ucols]
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
        c0 = score + graph.a0
        c1 = _shift_down(score + graph.a1, 1)
        c2 = _shift_down(score + graph.a2, 2)
        new_score = np.maximum(np.maximum(c0, c1), c2)
        choice = np.where(new_score == c0, 0, np.where(new_score == c1, 1, 2))
        src = np.arange(graph.n_states) - choice
        new_hist = hist[np.clip(src, 0, None)]

        # banded-source ties: prefer the smaller word sequence
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
            raise EmptyBeamError(
                f"no active hypothesis at frame {t}; increase the beam "
                f"(current {config.beam})")
        new_score[finite] += emis[t, finite]
        new_hist[~finite] = None
        if config.beam is not None:
            dead = new_score < new_score.max() - config.beam
            new_score[dead] = LOG_ZERO
            new_hist[dead] = None
        score = new_score
        hist = new_hist

    return _terminate(graph, score, hist, lam, n_frames, config)


def _terminate(graph, score, hist, lam, n_frames, config):
    best_score = LOG_ZERO
    best_hist = None
    for j in graph.final_exit_states:
        s = score[j] + graph.exitp[j]
        if not np.isfinite(s):
            continue
        h = hist[j]
        if not h[0]:
            continue
        if not graph.model.use_sil:
            s = s + lam * graph.end_logp[graph.word_id[h[0][-1]]]
        if _better(s, h, best_score, best_hist):
            best_score = s
            best_hist = h
    if best_hist is None:
        raise EmptyBeamError(
            f"no complete hypothesis after {n_frames} frames; increase the "
            f"beam (current {config.beam})")
    words = list(best_hist[0])
    starts = list(best_hist[1])
    spans = []
    for i, word in enumerate(words):
        start = 0 if i == 0 else starts[i]
        end = starts[i + 1] if i + 1 < len(words) else n_frames
        spans.append((word, start, end))
    return DecodeResult(words=words, score=float(best_score), word_spans=spans)


def decode(model, lm, lexicon, frames, config=None, emissions=None):
    """One-shot decode; build a ``DecodeGraph`` once when decoding many."""
    graph = DecodeGraph(model, lm, lexicon)
    return decode_frames(graph, frames, config, emissions)
