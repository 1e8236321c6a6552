"""Word error rate scoring with bootstrap confidence intervals.

WER is computed from a unit-cost edit-distance alignment. When costs tie the
backtrace prefers the diagonal move (match or substitution), then insertion,
then deletion, so counts are reproducible across runs. Confidence intervals
come from resampling utterances with replacement and pooling counts before
dividing, i.e. the interval is on the corpus-level ratio, not on a mean of
per-utterance rates.
"""

import functools
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UndefinedWerError

log = logging.getLogger(__name__)


@dataclass
class WerReport:
    wer: float                # percent
    substitutions: int
    insertions: int
    deletions: int
    reference_words: int
    n_utterances: int
    ci_low: float
    ci_high: float
    confidence: float
    n_resamples: int

    def format_line(self):
        half = (self.ci_high - self.ci_low) / 2.0
        return f"WER {self.wer:.1f} ± {half:.1f}"

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)


def align_wer(ref, hyp):
    """Edit-distance alignment counts: (substitutions, insertions, deletions).

    ``ref`` and ``hyp`` are word lists; an empty reference leaves the rate
    undefined and is rejected.
    """
    if not ref:
        raise UndefinedWerError("empty reference transcript; WER is undefined")
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=int)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            ins = dist[i, j - 1] + 1
            dele = dist[i - 1, j] + 1
            dist[i, j] = min(diag, ins, dele)
    subs = inss = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            inss += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return subs, inss, dels


def utterance_counts(refs, hyps):
    """Per-utterance (S, I, D, N) keyed by utterance id.

    ``refs`` and ``hyps`` map utterance ids to word lists. A reference with no
    hypothesis is scored against the empty string after a warning; hypotheses
    without references are ignored with a warning.
    """
    counts = {}
    for utt, ref in refs.items():
        hyp = hyps.get(utt)
        if hyp is None:
            log.warning("%s: no hypothesis; scoring an empty one", utt)
            hyp = []
        s, i, d = align_wer(ref, hyp)
        counts[utt] = (s, i, d, len(ref))
    for utt in hyps:
        if utt not in refs:
            log.warning("%s: hypothesis has no reference; ignored", utt)
    if not counts:
        raise UndefinedWerError("no utterances to score")
    return counts


def pooled_wer(counts):
    """Percent WER from pooled counts over all utterances."""
    total_err = sum(s + i + d for s, i, d, _ in counts.values())
    total_ref = sum(n for _, _, _, n in counts.values())
    if total_ref == 0:
        raise UndefinedWerError("total reference length is zero")
    return 100.0 * total_err / total_ref


def resample_wers(counts, n_resamples, seed):
    """Pooled WER of each bootstrap resample, in draw order.

    Resample ``k`` uses its own generator seeded at ``seed + k``, so the first
    m entries are identical for any request with the same seed and n >= m.
    """
    rows = np.array(list(counts.values()), dtype=float)  # (n, 4): S I D N
    errors = rows[:, :3].sum(axis=1)
    refs = rows[:, 3]
    idx = _resample_indices(rows.shape[0], n_resamples, seed)
    return 100.0 * errors[idx].sum(axis=1) / refs[idx].sum(axis=1)


@functools.lru_cache(maxsize=1)
def _resample_indices(n, n_resamples, seed):
    """Utterance indices of every resample, (n_resamples, n); row ``k`` comes
    from a generator seeded at ``seed + k``. Every cell of a grid resamples
    the same n with the same count and seed, so the last matrix is kept; it
    is read-only because each caller gets the same array."""
    idx = np.empty((n_resamples, n), dtype=np.int64)
    for k in range(n_resamples):
        idx[k] = np.random.default_rng(seed + k).integers(0, n, n)
    idx.flags.writeable = False
    return idx


def bootstrap_ci(counts, n_resamples, *, seed, confidence):
    """Nearest-rank percentile interval of the pooled WER.

    Resample ``k`` draws utterances i.i.d. with a fresh generator seeded at
    ``seed + k``, so any prefix of the resample sequence is stable when
    ``n_resamples`` changes.
    """
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples for a stable interval")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    wers = resample_wers(counts, n_resamples, seed)
    wers.sort()
    lo_q = (1.0 - confidence) / 2.0
    hi_q = 1.0 - lo_q
    lo_rank = min(max(int(np.ceil(lo_q * n_resamples)), 1), n_resamples)
    hi_rank = min(max(int(np.ceil(hi_q * n_resamples)), 1), n_resamples)
    return float(wers[lo_rank - 1]), float(wers[hi_rank - 1])


def evaluate(refs, hyps, n_resamples, *, seed, confidence):
    """Full report: pooled WER with a bootstrap interval."""
    counts = utterance_counts(refs, hyps)
    lo, hi = bootstrap_ci(counts, n_resamples=n_resamples, seed=seed, confidence=confidence)
    return WerReport(
        wer=pooled_wer(counts),
        substitutions=sum(c[0] for c in counts.values()),
        insertions=sum(c[1] for c in counts.values()),
        deletions=sum(c[2] for c in counts.values()),
        reference_words=sum(c[3] for c in counts.values()),
        n_utterances=len(counts),
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
        n_resamples=n_resamples,
    )


def load_transcripts(path):
    """Read an 'utterance_id<TAB>words...' file into a dict of word lists."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'utt<TAB>words'")
            utt, text = line.split("\t", 1)
            if utt in out:
                raise FormatError(f"{path}:{lineno}: utterance {utt!r} listed twice")
            out[utt] = text.split()
    return out


def save_transcripts(path, transcripts):
    with open(path, "w", encoding="utf-8") as fh:
        for utt in sorted(transcripts):
            fh.write(utt + "\t" + " ".join(transcripts[utt]) + "\n")
