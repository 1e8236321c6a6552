"""Lexicon handling and a Witten-Bell interpolated bigram language model.

The language model closes its event space over ``words + </s>`` predicted
from ``words + <s>``: every training sentence contributes one start bigram,
its interior bigrams, and one end bigram. Witten-Bell interpolation

    p(w | v) = lam_v * c(v, w) / c(v) + (1 - lam_v) * p_uni(w)
    lam_v    = c(v) / (c(v) + T(v))

with T(v) the number of distinct successors of v. The unigram itself is
interpolated against the uniform distribution with the same construction, so
every probability is strictly positive and each context sums to one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .errors import FormatError, LexiconError, OovError

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
LM_MAGIC = b"ALM1"
# one ALM1 bigram record: context index, predicted-word index, probability
_LM_RECORD = np.dtype([("v", "<u4"), ("w", "<u4"), ("p", "<f8")])


# ---------------------------------------------------------------------------
# lexicon

@dataclass
class Lexicon:
    entries: dict = field(default_factory=dict)  # word -> list of pronunciations

    @property
    def words(self):
        return sorted(self.entries)

    def pronunciations(self, word):
        try:
            return self.entries[word]
        except KeyError:
            raise OovError(f"word {word!r} is not in the lexicon") from None

    def canonical(self, word):
        """First listed pronunciation, used for training transcripts."""
        return self.pronunciations(word)[0]

    def add(self, word, phones):
        if not phones:
            raise LexiconError(f"word {word!r} has an empty pronunciation")
        self.entries.setdefault(word, []).append(list(phones))

    def phone_set(self):
        out = set()
        for prons in self.entries.values():
            for pron in prons:
                out.update(pron)
        return out


def load_lexicon(path, inventory=None):
    """Read a 'word phone phone ...' file; repeated words add variants."""
    lex = Lexicon()
    inventory = set(inventory) if inventory is not None else None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            word, phones = parts[0], parts[1:]
            if word in (SENTENCE_START, SENTENCE_END):
                raise LexiconError(f"{path}:{lineno}: the sentence marker {word!r} "
                                   f"cannot be a word")
            if not phones:
                raise LexiconError(f"{path}:{lineno}: word {word!r} has no phonemes")
            if inventory is not None:
                unknown = [p for p in phones if p not in inventory]
                if unknown:
                    raise LexiconError(
                        f"{path}:{lineno}: word {word!r} uses unknown phoneme {unknown[0]!r}")
            lex.add(word, phones)
    if not lex.entries:
        raise LexiconError(f"{path}: lexicon is empty")
    return lex


def save_lexicon(path, lex):
    with open(path, "w", encoding="utf-8") as fh:
        for word in lex.words:
            for pron in lex.entries[word]:
                fh.write(word + " " + " ".join(pron) + "\n")


# ---------------------------------------------------------------------------
# bigram language model

@dataclass
class BigramLm:
    vocab: list                    # sorted word list
    unigram: dict                  # word or </s> -> probability
    bigram: dict                   # (v, w) -> interpolated probability
    lam: dict                      # context -> Witten-Bell weight

    def prob(self, word, context):
        """p(word | context); context is a word or the sentence start."""
        if word != SENTENCE_END and word not in self.unigram:
            raise OovError(f"word {word!r} is outside the model vocabulary")
        if context != SENTENCE_START and context not in self.unigram:
            raise OovError(f"context {context!r} is outside the model vocabulary")
        hit = self.bigram.get((context, word))
        if hit is not None:
            return hit
        return (1.0 - self.lam.get(context, 0.0)) * self.unigram[word]

    def logp(self, word, context):
        return math.log(self.prob(word, context))

    def score(self, words):
        """ln probability of a complete sentence including the end event."""
        total = 0.0
        context = SENTENCE_START
        for word in words:
            total += self.logp(word, context)
            context = word
        return total + self.logp(SENTENCE_END, context)


def fit_bigram(transcripts, vocabulary=None):
    """Estimate a Witten-Bell interpolated bigram from word-list transcripts."""
    if not transcripts:
        raise ValueError("no transcripts to fit")
    for words in [*transcripts, vocabulary or ()]:
        for marker in (SENTENCE_START, SENTENCE_END):
            if marker in words:
                raise ValueError(f"the sentence marker {marker!r} cannot be a word")
    if vocabulary is not None:
        vocab = sorted(set(vocabulary))
        allowed = set(vocab)
        for words in transcripts:
            for w in words:
                if w not in allowed:
                    raise OovError(f"transcript word {w!r} is outside the closed vocabulary")
    else:
        vocab = sorted({w for words in transcripts for w in words})
    if not vocab:
        raise ValueError("empty vocabulary")

    uni_counts = {}
    big_counts = {}
    for words in transcripts:
        if not words:
            continue
        context = SENTENCE_START
        for w in list(words) + [SENTENCE_END]:
            uni_counts[w] = uni_counts.get(w, 0) + 1
            key = (context, w)
            big_counts[key] = big_counts.get(key, 0) + 1
            context = w

    # unigram smoothed against the uniform distribution over words + </s>
    alphabet = vocab + [SENTENCE_END]
    n_events = sum(uni_counts.values())
    n_types = len(uni_counts)
    lam_u = n_events / (n_events + n_types)
    uniform = 1.0 / len(alphabet)
    unigram = {w: lam_u * uni_counts.get(w, 0) / n_events + (1.0 - lam_u) * uniform
               for w in alphabet}

    ctx_total = {}
    ctx_types = {}
    for (v, _), c in big_counts.items():
        ctx_total[v] = ctx_total.get(v, 0) + c
        ctx_types[v] = ctx_types.get(v, 0) + 1
    lam = {v: ctx_total[v] / (ctx_total[v] + ctx_types[v]) for v in ctx_total}

    bigram = {}
    for (v, w), c in big_counts.items():
        bigram[(v, w)] = lam[v] * c / ctx_total[v] + (1.0 - lam[v]) * unigram[w]
    return BigramLm(vocab=vocab, unigram=unigram, bigram=bigram, lam=lam)


# ---------------------------------------------------------------------------
# ARPA interchange

def write_arpa(path, lm):
    """Standard backoff-format ARPA file (log10 probabilities).

    Listed bigrams carry the fully interpolated probability; the backoff
    weight of a context is log10(1 - lam), which reproduces the unseen-case
    formula exactly.
    """
    contexts = [SENTENCE_START] + lm.vocab
    unigrams = lm.vocab + [SENTENCE_END]
    bigrams = sorted(lm.bigram)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        fh.write(f"ngram 1={len(unigrams) + 1}\n")
        fh.write(f"ngram 2={len(bigrams)}\n\n")
        fh.write("\\1-grams:\n")
        fh.write(f"-99\t{SENTENCE_START}\t{_log10_bow(lm, SENTENCE_START)}\n")
        for w in unigrams:
            bow = f"\t{_log10_bow(lm, w)}" if w != SENTENCE_END else ""
            fh.write(f"{_log10(lm.unigram[w])}\t{w}{bow}\n")
        fh.write("\n\\2-grams:\n")
        for v, w in bigrams:
            fh.write(f"{_log10(lm.bigram[(v, w)])}\t{v} {w}\n")
        fh.write("\n\\end\\\n")


def _log10(p):
    return f"{math.log10(p):.10f}"


def _log10_bow(lm, context):
    lam = lm.lam.get(context, 0.0)
    return f"{math.log10(max(1.0 - lam, 1e-99)):.10f}"


def read_arpa(path):
    """Parse an ARPA file written by write_arpa back into a BigramLm."""
    section = None
    unigram = {}
    lam = {}
    bigram = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("\\data\\") or line.startswith("ngram "):
                continue
            if line == "\\1-grams:":
                section = 1
                continue
            if line == "\\2-grams:":
                section = 2
                continue
            if line == "\\end\\":
                break
            parts = line.split("\t")
            if section == 1:
                if len(parts) < 2:
                    raise FormatError(f"{path}: bad unigram line {line!r}")
                logp, word = parts[0], parts[1]
                if word != SENTENCE_START:
                    unigram[word] = 10.0 ** float(logp)
                if len(parts) == 3:
                    lam[word] = 1.0 - 10.0 ** float(parts[2])
            elif section == 2:
                if len(parts) != 2:
                    raise FormatError(f"{path}: bad bigram line {line!r}")
                v, w = parts[1].split(" ")
                bigram[(v, w)] = 10.0 ** float(parts[0])
            else:
                raise FormatError(f"{path}: content outside any n-gram section: {line!r}")
    if not unigram:
        raise FormatError(f"{path}: no unigram section found")
    vocab = sorted(w for w in unigram if w != SENTENCE_END)
    return BigramLm(vocab=vocab, unigram=unigram, bigram=bigram, lam=lam)


# ---------------------------------------------------------------------------
# binary language model container

def save_lm(path, lm):
    words = lm.vocab
    index = {w: i for i, w in enumerate(words)}
    # prediction index: words then </s>; context index: <s> then words
    pred = dict(index)
    pred[SENTENCE_END] = len(words)
    ctx = {SENTENCE_START: 0}
    for w in words:
        ctx[w] = index[w] + 1
    with open(path, "wb") as fh:
        fh.write(LM_MAGIC)
        binio.write_u32(fh, len(words))
        for w in words:
            binio.write_str8(fh, w)
        uni = np.array([lm.unigram[w] for w in words] + [lm.unigram[SENTENCE_END]])
        binio.write_array(fh, uni, "<f8")
        lams = np.array([lm.lam.get(SENTENCE_START, 0.0)]
                        + [lm.lam.get(w, 0.0) for w in words])
        binio.write_array(fh, lams, "<f8")
        records = [(ctx[v], pred[w], p) for (v, w), p in sorted(lm.bigram.items())]
        binio.write_u32(fh, len(records))
        binio.write_array(fh, np.array(records, dtype=_LM_RECORD), _LM_RECORD)


def load_lm(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, LM_MAGIC)
        n_words = r.u32()
        words = [r.str8() for _ in range(n_words)]
        seen = set()
        for word in words:
            if word in seen:
                raise FormatError(f"{path}: word {word!r} is listed twice")
            if word in (SENTENCE_START, SENTENCE_END):
                raise FormatError(f"{path}: the sentence marker {word!r} is listed as a word")
            seen.add(word)
        uni = r.array("<f8", (n_words + 1,))
        lams = r.array("<f8", (n_words + 1,))
        records = r.array(_LM_RECORD, (r.u32(),))
        r.end()
    pred_names = words + [SENTENCE_END]
    ctx_names = [SENTENCE_START] + words
    if np.any(records["v"] >= len(ctx_names)) or np.any(records["w"] >= len(pred_names)):
        raise FormatError(f"{path}: bigram record index out of range")
    keys = [(ctx_names[v], pred_names[w]) for v, w in zip(records["v"].tolist(), records["w"].tolist())]
    # save_lm writes each pair once, sorted by context name, then word name
    for prev, key in zip(keys, keys[1:]):
        if prev >= key:
            raise FormatError(f"{path}: bigram {key} is "
                              + ("listed twice" if prev == key else "out of order"))
    # written this way round, each range check also fails on NaN
    probs = np.concatenate([uni, records["p"]])
    if not np.all((probs > 0.0) & (probs <= 1.0)):
        raise FormatError(f"{path}: unigram and bigram probabilities must lie in (0, 1]")
    if not np.all((lams >= 0.0) & (lams < 1.0)):
        raise FormatError(f"{path}: Witten-Bell weights must lie in [0, 1)")
    unigram = {w: uni[i] for i, w in enumerate(pred_names)}
    bigram = dict(zip(keys, records["p"].tolist()))
    lam = {name: lams[i] for i, name in enumerate(ctx_names) if lams[i] != 0.0}
    return BigramLm(vocab=list(words), unigram=unigram, bigram=bigram, lam=lam)
