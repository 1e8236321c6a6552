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
per context is one argmax over it. The entries are one table as well, of a
column per word and, with silence, one for the sentence end, over the
contexts: the trailing silence is entered as one more pronunciation that
writes no record.

Exact score ties are resolved toward the lexicographically smaller word
sequence, then toward the earlier candidate: staying before advancing one
before advancing two states, the token already in a word's first state
before one entering it, the lower exit state. Decoding is therefore fully
deterministic and independent of batching. Ties are rare, so a frame looks
for them with one count per choice (``_tied``), and only a tie builds the
tie mask and takes a Python path that rebuilds the competing word
sequences from the links.
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
            word_entries.append(self.tail_entry)
            variant_words.append(v)
        else:
            self.tail_entry = None
            tail_base = base
        # each entry state with its column of the entry table: a word's, or
        # the sentence end's (last) for the trailing silence
        self.entry_states = np.array(word_entries)
        self.entry_columns = np.array(variant_words)
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
        # entry_lm[w, c] = ln p(vocab[w] | context c), then with silence a row
        # of ln p(</s> | c), log-zero for <s>, which cannot end
        self.entry_lm = (np.vstack([self.lm_matrix.T, self.end_logp]) if model.use_sil
                         else self.lm_matrix.T)


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
    lam_end = config.lm_scale * graph.end_logp
    words, entries = graph.variant_words, graph.word_entries
    history = _History(len(words) * (1 + n_utts * emis.shape[0]))
    results = [None] * n_utts
    finishing = [[] for _ in range(emis.shape[0])]
    for b, n in enumerate(n_frames):
        finishing[n - 1].append(b)

    # scores and links behind two log-zero (-1) columns, on which the exit
    # table's -1 pads land; the into_states windows follow the scores in place
    score = np.full((n_utts, graph.n_states + 2), LOG_ZERO)
    link = np.full(score.shape, -1, dtype=np.int64)
    into = into_states(score, batch.band)
    at = _Layout(graph, n_utts, config)
    if graph.model.use_sil:
        score[:, 2 + graph.lead_entry] = emis[0, :, graph.lead_entry]
    else:
        score[:, 2 + entries] = ((config.lm_scale * graph.lm_matrix[graph.start_context, words]
                                  + config.word_insertion_penalty) + emis[0][:, entries])
        link[:, 2 + entries] = history.add(words, -1, 0)

    for t in range(emis.shape[0]):
        if t > 0:
            _step(graph, history, score, link, into, at, t)
            dead = (n_frames > t) & (score.max(axis=1) == LOG_ZERO)
            if dead.any():
                i = ids[int(np.argmax(dead))]
                raise EmptyBeamError(
                    f"utterance {i}: no active hypothesis at frame {t}; "
                    f"increase the beam (current {config.beam})", i)
            new = score[:, 2:]
            new += emis[t]
            if config.beam is not None:
                new[new < new.max(axis=1, keepdims=True) - config.beam] = LOG_ZERO
        for b in finishing[t]:
            results[b] = _terminate(graph, history, score[b, 2:], link[b, 2:],
                                    lam_end, t + 1, config, ids[b])
    return results


class _Layout:
    """What one search over B utterances reads on every frame: flat indices
    into the (B, S + 2) scores and links, the exit table (B, V + 1, K), the
    entry table (B, columns, V + 1) and its column bests (B, columns), the
    entry table's scaled language model, and the band's candidate buffer."""

    def __init__(self, graph, n_utts, config):
        rows = np.arange(n_utts)[:, None]
        width = graph.n_states + 2
        n_ctx, n_exits = graph.feed_exits.shape
        n_cols = graph.entry_lm.shape[0]
        self.feed = rows[:, :, None] * width + (graph.feed_exits + 2)
        self.exit_rows = np.arange(n_utts * n_ctx).reshape(n_utts, n_ctx) * n_exits
        self.own = rows * width + 2 + np.arange(graph.n_states)
        self.ctx_rows = rows * n_ctx
        self.table_rows = np.arange(n_utts * n_cols).reshape(n_utts, n_cols) * n_ctx
        self.column = rows * n_cols + graph.entry_columns
        self.score_entry = rows * width + 2 + graph.entry_states
        self.entry_lm = config.lm_scale * graph.entry_lm
        # the penalty is added after the language model, and to words only
        self.wip = np.where(np.arange(n_cols) < len(graph.vocab),
                            config.word_insertion_penalty, 0.0)[:, None]
        self.cands = np.empty((3, n_utts, graph.n_states))


def _tied(cands, best):
    """Whether some finite entry of ``best``, the maximum of ``cands`` over
    one axis and broadcast against them, is reached by more than one
    candidate: a log-zero best is reached by all n of its candidates, any
    other by at least one."""
    n = cands.size // best.size
    return (np.count_nonzero(cands == best)
            > best.size + (n - 1) * np.count_nonzero(best == LOG_ZERO))


def _step(graph, history, score, link, into, at, t):
    """One frame of token passing before emissions, through ``into``, the
    ``into_states`` windows of ``score``, and the index tables ``at``: the
    banded arcs, then word and sentence-end entries from the best exit of
    each context. Updates ``score`` and ``link`` in place."""
    # best exit per context; the lower state wins, then the tie rules
    exits = score.take(at.feed)                                  # (B, V+1, K)
    exits += graph.feed_exit_logp
    pick = exits.argmax(axis=2)
    pick += at.exit_rows
    exit_best = exits.take(pick)
    exit_link = link.take(at.feed.take(pick))
    if _tied(exits, exit_best[:, :, None]):
        _exit_ties(history, exits, exit_best, exit_link, link, at.feed)

    # banded arcs: stay, advance one, advance two; the earliest best wins
    cands = at.cands
    for k, (pred, arc) in enumerate(into):
        np.add(pred, arc, out=cands[k])
    new = cands.max(axis=0, out=score[:, 2:])
    worse = cands[:2] < new               # staying, then advancing one, is worse
    worse[1] &= worse[0]
    back = at.own - worse[0]
    back -= worse[1]
    new_link = link.take(back)
    if _tied(cands, new):
        _band_ties(history, cands, new, new_link, link, at.own)

    # entries: the best context of each word and of the sentence end, then
    # against the token held; the trailing silence takes the exit's history
    table = exit_best[:, None, :] + at.entry_lm                  # (B, columns, V+1)
    table += at.wip
    ctx = table.argmax(axis=2)
    col_best = table.take(ctx + at.table_rows)
    if _tied(table, col_best[:, :, None]):
        _context_ties(history, table, col_best, ctx, exit_link)
    cand = col_best.take(at.column)                              # (B, entries)
    parents = exit_link.take(ctx.take(at.column) + at.ctx_rows)
    held = score.take(at.score_entry)
    top = np.maximum(cand, held)
    enter = cand > held
    if np.count_nonzero(cand == held) > np.count_nonzero(top == LOG_ZERO):  # not both log-zero
        _entry_ties(graph, history, cand, held, parents, new_link, enter)
    score.put(at.score_entry, top)
    words, entries = graph.variant_words, graph.word_entries
    n = len(words)
    if graph.tail_entry is not None:
        np.copyto(new_link[:, graph.tail_entry], parents[:, n], where=enter[:, n])
    bs, ks = np.nonzero(enter[:, :n])
    new_link[bs, entries[ks]] = history.add(words[ks], parents[bs, ks], t)
    link[:, 2:] = new_link


# The tie rules, run only when ``_tied`` finds an exact tie: each rebuilds the
# competing word sequences from the links and takes the smallest, then the
# earliest candidate.

def _exit_ties(history, exits, exit_best, exit_link, link, feed):
    """Exits of one context: the smaller words, then the lower state."""
    tied = ((exits == exit_best[:, :, None]).sum(axis=2) > 1) & (exit_best > LOG_ZERO)
    for b, c in zip(*np.nonzero(tied)):
        ks = np.flatnonzero(exits[b, c] == exit_best[b, c])
        exit_link[b, c] = history.best(link.take(feed[b, c, ks]))


def _band_ties(history, cands, new, new_link, link, own):
    """Band predecessors: the smaller words, then staying before advancing."""
    tied = ((cands == new).sum(axis=0) > 1) & (new > LOG_ZERO)
    for b, j in zip(*np.nonzero(tied)):
        new_link[b, j] = history.best([link.flat[own[b, j] - k] for k in range(3)
                                       if cands[k, b, j] == new[b, j]])


def _context_ties(history, table, col_best, ctx, exit_link):
    """Contexts of one word or of the sentence end: the smaller words."""
    tied = ((table == col_best[:, :, None]).sum(axis=2) > 1) & (col_best > LOG_ZERO)
    for b, w in zip(*np.nonzero(tied)):
        ctx[b, w] = min(np.flatnonzero(table[b, w] == col_best[b, w]),
                        key=lambda c: history.words(exit_link[b, c]))


def _entry_ties(graph, history, cand, held, parents, new_link, enter):
    """An entering token against the token held: the smaller words, then the
    token held. A word adds itself to its parent's words; the sentence end
    adds nothing."""
    v = len(graph.vocab)
    for b, k in zip(*np.nonzero((cand == held) & (cand > LOG_ZERO))):
        column = int(graph.entry_columns[k])
        entering = history.words(parents[b, k]) + ((column,) if column < v else ())
        enter[b, k] = entering < history.words(new_link[b, graph.entry_states[k]])


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
