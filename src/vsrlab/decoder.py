"""Closed-vocabulary continuous decoding: token-passing Viterbi over the
phone models, the pronunciation lexicon, and a bigram language model.

The search space stacks one state chain per pronunciation variant, plus a
leading and a trailing silence chain when the model uses silence. Language
model scores are applied when a token enters a word; the sentence-end
probability is applied when a token enters the trailing silence (or at
termination when silence is off), which keeps recombination exact. With no
beam the search is exact; with a beam, tokens worse than the frame best by
more than the beam width are dropped.

``decode_batch`` decodes many utterances at once. They are scored and laid
out by ``hmm.padded_batches``, the acoustic scoring that EM and forced
alignment use, in order of length and in batches of bounded size, and every
frame is a fixed set of array operations over (utterances, states). A
token's history is an integer link into a store of (word, parent link,
start frame) records, written only when a token enters a word (Young,
Russell & Thornton 1989, token passing with word links).
A token's language model context never changes while it stays in a chain:
it is the chain's word, or ``<s>`` in the leading silence. So the graph
keeps a padded table of the exit states of each context, and the best exit
per context is one max over it.

Exact score ties are resolved toward the lexicographically smaller word
sequence, then toward the earlier candidate: staying before advancing one
before advancing two states, the token already in a word's first state
before one entering it, the lower exit state. Decoding is therefore fully
deterministic and independent of batching. Ties are rare; they take a
Python path that rebuilds the competing word sequences from the links.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBeamError, OovError
from .hmm import LOG_ZERO, SILENCE_PHONE, compose_chain, into_states, padded_batches
from .lingware import SENTENCE_END, SENTENCE_START

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    lm_scale: float
    word_insertion_penalty: float
    beam: float | None     # None (or inf) decodes exactly

    def __post_init__(self):
        if not 0.0 < self.lm_scale < math.inf:
            raise ValueError("lm_scale must be positive and finite")
        if not math.isfinite(self.word_insertion_penalty):
            raise ValueError("word_insertion_penalty must be finite")
        if self.beam is not None and not self.beam > 0.0:
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
        self.vocab = list(lexicon.words)   # sorted, so id tuples order like words
        if not self.vocab:
            raise OovError("the lexicon is empty")
        for word in self.vocab:
            if word not in lm.unigram:
                raise OovError(f"word {word!r} has no language model entry")
        v = len(self.vocab)
        self.start_context = v

        arcs, unique_cols, contexts = [], [], []
        base = 0

        def add_chain(phones, context):
            nonlocal base
            graph = compose_chain(model, phones)
            arcs.append(graph.arcs)
            unique_cols.append(graph.unique_cols)
            contexts.append(np.full(graph.n_states, context))
            base += graph.n_states
            return base - graph.n_states

        if model.use_sil:
            self.lead_entry = add_chain([SILENCE_PHONE], v)
        else:
            self.lead_entry = None
        word_entries = []
        variant_words = []         # word index per pronunciation variant
        for w, word in enumerate(self.vocab):
            for pron in lexicon.pronunciations(word):
                word_entries.append(add_chain(pron, w))
                variant_words.append(w)
        self.word_entries = np.array(word_entries)
        self.variant_words = np.array(variant_words)
        if model.use_sil:
            # the trailing silence may only terminate, never feed a word
            self.tail_entry = add_chain([SILENCE_PHONE], -1)
            tail_base = self.tail_entry
        else:
            self.tail_entry = None
            tail_base = base
        self.arcs = np.concatenate(arcs, axis=1)
        self.exit_logp = model.arc_table()[self.arcs[3]]
        self.unique_cols = np.concatenate(unique_cols)
        self.n_states = base
        self.state_context = np.concatenate(contexts)
        all_exits = np.flatnonzero(np.isfinite(self.exit_logp))
        feed = all_exits[all_exits < tail_base]
        self.final_exit_states = (all_exits[all_exits >= tail_base]
                                  if model.use_sil else feed)

        # feed_exits[c] lists, in state order, the exit states whose tokens
        # leave with context c (last row: <s>); -1 pads to the longest row
        per_context = [feed[self.state_context[feed] == c] for c in range(v + 1)]
        width = max(len(states) for states in per_context)
        self.feed_exits = np.full((v + 1, width), -1)
        for c, states in enumerate(per_context):
            self.feed_exits[c, :len(states)] = states
        self.feed_exit_logp = np.where(self.feed_exits >= 0,
                                       self.exit_logp[self.feed_exits], LOG_ZERO)

        # lm_matrix[v, w] = ln p(vocab[w] | context v); last row is <s>
        self.lm_matrix = np.empty((v + 1, v))
        self.end_logp = np.full(v + 1, LOG_ZERO)
        for i in range(v + 1):
            ctx = SENTENCE_START if i == v else self.vocab[i]
            for j, word in enumerate(self.vocab):
                self.lm_matrix[i, j] = lm.logp(word, ctx)
            if i < v:
                self.end_logp[i] = lm.logp(SENTENCE_END, ctx)


class _History:
    """Word links: record i is (word[i], parent[i], start[i]), the word a
    token entered at frame start[i] after the history parent[i]; link -1 is
    the empty history."""

    def __init__(self, capacity):
        self.word = np.empty(capacity, dtype=np.int64)
        self.parent = np.empty(capacity, dtype=np.int64)
        self.start = np.empty(capacity, dtype=np.int64)
        self.size = 0

    def add(self, words, parents, start):
        """Append records; returns their links."""
        lo, hi = self.size, self.size + len(words)
        self.word[lo:hi] = words
        self.parent[lo:hi] = parents
        self.start[lo:hi] = start
        self.size = hi
        return np.arange(lo, hi)

    def words(self, link):
        """Word ids of a history, oldest first."""
        out = []
        while link >= 0:
            out.append(int(self.word[link]))
            link = self.parent[link]
        return tuple(reversed(out))

    def best(self, links):
        """The first of ``links`` with the smallest word sequence."""
        return min(links, key=self.words)


def decode_batch(graph, frame_list, config):
    """Decode every utterance of ``frame_list`` under one graph; returns a
    ``DecodeResult`` per utterance, in order. An ``EmptyBeamError`` names the
    failing utterance by its position (also in its ``utterance``)."""
    frames = [np.asarray(x, dtype=float) for x in frame_list]
    if not frames:
        return []
    results = [None] * len(frames)
    for ids, _, _, batch in padded_batches(graph.model, frames, [graph] * len(frames)):
        for b, result in zip(ids, _search(graph, batch, config, ids)):
            results[b] = result
    return results


def decode_frames(graph, frames, config):
    """Decode one utterance, as a batch of one."""
    return decode_batch(graph, [frames], config)[0]


def _search(graph, batch, config, ids):
    """Token passing over the utterances of a ``BandBatch`` laid out on
    ``graph``; ``ids`` names them in errors. Returns their results."""
    for i, n in zip(ids, batch.n_frames):
        if n == 0:
            raise EmptyBeamError(f"utterance {i}: no frames to decode", i)
    emis, n_frames = batch.emis, batch.n_frames
    n_utts = emis.shape[1]
    lam, wip = config.lm_scale, config.word_insertion_penalty
    lam_lm = lam * graph.lm_matrix
    lam_end = lam * graph.end_logp
    words, entries = graph.variant_words, graph.word_entries
    history = _History(len(words) * (1 + n_utts * emis.shape[0]))
    results = [None] * n_utts

    # scores and links behind two log-zero columns, whose into_states windows
    # follow each in-place update; the exit table's -1 pads land on one of them
    score = np.full((n_utts, graph.n_states + 2), LOG_ZERO)
    link = np.full(score.shape, -1, dtype=np.int64)
    into = into_states(score, batch.band)
    links = [pred for pred, _ in into_states(link, batch.band)]
    feed_cols = graph.feed_exits + 2
    if graph.model.use_sil:
        score[:, 2 + graph.lead_entry] = emis[0, :, graph.lead_entry]
    else:
        score[:, 2 + entries] = ((lam_lm[graph.start_context, words] + wip)
                                 + emis[0][:, entries])
        link[:, 2 + entries] = history.add(words, -1, 0)

    for t in range(emis.shape[0]):
        if t > 0:
            new, new_link = _step(graph, history, score, link, feed_cols, into, links,
                                  lam_lm, lam_end, wip, t)
            dead = (n_frames > t) & ~(new > LOG_ZERO).any(axis=1)
            if dead.any():
                i = ids[int(np.argmax(dead))]
                raise EmptyBeamError(
                    f"utterance {i}: no active hypothesis at frame {t}; "
                    f"increase the beam (current {config.beam})", i)
            new += emis[t]
            if config.beam is not None:
                new[new < new.max(axis=1, keepdims=True) - config.beam] = LOG_ZERO
            score[:, 2:] = new
            link[:, 2:] = new_link
        for b in np.flatnonzero(n_frames == t + 1):
            results[b] = _terminate(graph, history, score[b, 2:], link[b, 2:],
                                    lam_end, t + 1, config, ids[b])
    return results


def _step(graph, history, score, link, feed_cols, into, links, lam_lm, lam_end, wip, t):
    """One frame of token passing before emissions, through ``into`` and ``links``,
    the ``into_states`` windows of ``score`` and ``link``: the banded arcs, then
    word entries from the best exit of each context. Returns new scores and links."""
    n_utts = score.shape[0]

    # best exit per context; ties go to the smaller words, then the lower state
    rows = np.arange(n_utts)[:, None]
    exits = score[:, feed_cols] + graph.feed_exit_logp          # (B, V+1, K)
    exit_best = exits.max(axis=2)
    exit_link = link[rows, feed_cols[np.arange(feed_cols.shape[0]), exits.argmax(axis=2)]]
    tied = ((exits == exit_best[:, :, None]).sum(axis=2) > 1) & (exit_best > LOG_ZERO)
    for b, c in zip(*np.nonzero(tied)):
        ks = np.flatnonzero(exits[b, c] == exit_best[b, c])
        exit_link[b, c] = history.best(link[b, feed_cols[c, ks]])

    # banded arcs: stay, advance one, advance two
    cands = [pred + arc for pred, arc in into]
    new = np.maximum(np.maximum(cands[0], cands[1]), cands[2])
    eq0, eq1, eq2 = (c == new for c in cands)
    new_link = np.where(eq0, links[0], np.where(eq1, links[1], links[2]))
    tied = ((eq0 & (eq1 | eq2)) | (eq1 & eq2)) & (new > LOG_ZERO)
    for b, j in zip(*np.nonzero(tied)):
        new_link[b, j] = history.best([lk[b, j] for lk, c in zip(links, cands)
                                       if c[b, j] == new[b, j]])

    # word entries: best context per word, then against the token held
    enter_scores = (exit_best[:, :, None] + lam_lm) + wip        # (B, V+1, V)
    word_best = enter_scores.max(axis=1)
    word_ctx = enter_scores.argmax(axis=1)
    tied = (((enter_scores == word_best[:, None, :]).sum(axis=1) > 1)
            & (word_best > LOG_ZERO))
    for b, w in zip(*np.nonzero(tied)):
        word_ctx[b, w] = min(np.flatnonzero(enter_scores[b, :, w] == word_best[b, w]),
                             key=lambda c: history.words(exit_link[b, c]))
    words, entries = graph.variant_words, graph.word_entries
    cand = word_best[:, words]                                   # (B, variants)
    parents = exit_link[rows, word_ctx[:, words]]
    held = new[:, entries]
    enter = cand > held
    for b, k in zip(*np.nonzero((cand == held) & (cand > LOG_ZERO))):
        enter[b, k] = (history.words(parents[b, k]) + (int(words[k]),)
                       < history.words(new_link[b, entries[k]]))
    bs, ks = np.nonzero(enter)
    new[bs, entries[ks]] = cand[bs, ks]
    new_link[bs, entries[ks]] = history.add(words[ks], parents[bs, ks], t)

    if graph.tail_entry is not None:
        # the sentence-end probability is charged on entering the trailing
        # silence so that recombination there stays exact; <s> cannot end
        ends = exit_best[:, :-1] + lam_end[:-1]
        end_best = ends.max(axis=1)
        end_link = exit_link[rows[:, 0], ends.argmax(axis=1)]
        tied = ((ends == end_best[:, None]).sum(axis=1) > 1) & (end_best > LOG_ZERO)
        for b in np.flatnonzero(tied):
            end_link[b] = history.best(exit_link[b, :-1][ends[b] == end_best[b]])
        tail = graph.tail_entry
        enter = end_best > new[:, tail]
        for b in np.flatnonzero((end_best == new[:, tail]) & (end_best > LOG_ZERO)):
            enter[b] = history.words(end_link[b]) < history.words(new_link[b, tail])
        new[enter, tail] = end_best[enter]
        new_link[enter, tail] = end_link[enter]
    return new, new_link


def _terminate(graph, history, score, link, lam_end, n_frames, config, i):
    final = graph.final_exit_states
    s = score[final] + graph.exit_logp[final]
    if not graph.model.use_sil:
        s = s + lam_end[graph.state_context[final]]
    s[link[final] < 0] = LOG_ZERO          # a hypothesis holds at least one word
    best = s.max()
    if not best > LOG_ZERO:
        raise EmptyBeamError(
            f"utterance {i}: no complete hypothesis after {n_frames} frames; "
            f"increase the beam (current {config.beam})", i)
    top = history.best(link[final[s == best]])
    words, starts = [], []
    while top >= 0:
        words.append(graph.vocab[history.word[top]])
        starts.append(int(history.start[top]))
        top = history.parent[top]
    words.reverse()
    starts.reverse()
    starts[0] = 0                          # the leading silence folds into the first word
    spans = [(word, start, end)
             for word, start, end in zip(words, starts, starts[1:] + [n_frames])]
    return DecodeResult(words=words, score=float(best), word_spans=spans)
