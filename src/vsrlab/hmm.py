"""Monophone GMM-HMM acoustic models: flat start, embedded Baum-Welch
training with a mixture-growing schedule, and Viterbi forced alignment.

Two left-to-right topologies are built in. "classic3" has three emitting
states with self and next-state arcs and exits only from the last state, so
a phone occupies at least three frames. "skip2" has two emitting states with
an extra exit arc from the first state (arcs 1->1, 1->2, 1->exit, 2->2,
2->exit), letting a phone collapse to a single frame.

Utterance graphs are chains of phone models. Because every topology here
enters at its first state and exits forward by at most two chain positions,
the composed transition structure is banded: each chain state has arcs for
staying, advancing one and advancing two chain states, and for ending the
utterance. One rule places every arc: the arc that advances k chain states
from local state s of a phone with n states is column s + k of that state's
transition row, and that column is the exit column n exactly when the arc
leaves the phone, into the next phone's first state or, from the last phone,
out of the utterance. A chain graph holds structure only: each arc is an
index into the model's arc table, the log of the transition table followed
by one log-zero entry that index -1 reads for a missing arc. The band's
values are the table read at those indices, and EM counts arcs through the
same indices. Every band pass is vectorized over states and utterances;
``into_states`` and ``out_of_states`` are the one home of the band's
neighbour layout. EM runs its forward and backward passes in the linear
domain (``forward_scaled``, ``backward_scaled``): each frame's row is divided
by its maximum and the log of the divisor kept, and its posteriors and arc
counts are products of those rows. An utterance on which underflow could
have changed the result (a zero or subnormal scale, or flushed values that
could carry more than about 1e-16 of posterior mass) is recomputed by
``forward_log`` and ``backward_log``, which run in the log domain and are
exact. Viterbi alignment and the decoder are max-plus and stay in the log
domain.

One routine, ``padded_batches``, does the acoustic scoring for EM, forced
alignment and the decoder alike: it scores a batch's frames against the
mixture table at once and lays the utterances out on the band, taken in
order of length in batches of bounded size. Each utterance is padded with
log-zero to the longest chain and the longest utterance of its batch, which
leaves its own values exactly as a pass over it alone would give them.

The model keeps its parameters in two flat tables. Every phone enters at its
first state, so only the transition rows vary between phones: the transition
table holds each phone's (n, n + 1) rows, flat and in model order, beside the
phones' state counts. The mixture table holds the Gaussians: component weights
(C,), means (C, D) and diagonal variances (C, D), one block of rows per state
in model order, plus each state's component count. The E-step sums, the arc
counts, the density blocks and the OPT1 file all keep these orders.
"""

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import (
    AlignmentInfeasibleError,
    FormatError,
    InsufficientDataError,
    OovError,
)

log = logging.getLogger(__name__)

OPTICAL_MAGIC = b"OPT1"
SILENCE_PHONE = "sil"
_OCC_EPS = 1e-8
# flat start floors every variance at this share of the global variance
_VAR_FLOOR_SCALE = 1e-3
# float64 values per array that one batch of padded_batches may hold (8 MiB)
_BATCH_VALUES = 1 << 20
LOG_ZERO = -np.inf
# a scale at or below the smallest normal float64 has lost precision
_TINY = np.finfo(float).tiny
# log of the most that underflow can move an entry in one step of a scaled
# pass, in units of that step's scale: four roundings of at most 2^-1075
_LOG_FLUSH = -1073 * np.log(2.0)
# log of the posterior mass that underflow may move at a frame before the
# utterance is recomputed in the log domain
_LOG_POSTERIOR_SLACK = np.log(1e-16)


# each built-in topology's transition rows, uniform over the outgoing arcs
_TOPOLOGY_ROWS = {
    "classic3": np.array([[0.5, 0.5, 0.0, 0.0],
                          [0.0, 0.5, 0.5, 0.0],
                          [0.0, 0.0, 0.5, 0.5]]),
    "skip2": np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                       [0.0, 0.5, 0.5]]),
}
TOPOLOGY_KINDS = tuple(_TOPOLOGY_ROWS)


def _block_starts(sizes):
    """Where each of consecutive blocks of ``sizes`` rows starts."""
    return np.cumsum(sizes) - sizes


def _arc_offsets(phone_n_states):
    """Where each phone's (n, n + 1) transition rows start in the table."""
    return _block_starts(phone_n_states * (phone_n_states + 1))


def _block_slices(sizes):
    """The slice of each of consecutive blocks of ``sizes`` rows."""
    return (slice(start, start + n) for start, n in zip(_block_starts(sizes), sizes))


def _mixture_table(blocks):
    """Component counts, weights, means and variances of a mixture table
    from per-state (weights, means, variances) blocks in model order."""
    weights, means, variances = zip(*blocks)
    return (np.array([w.shape[0] for w in weights]), np.concatenate(weights),
            np.vstack(means), np.vstack(variances))


@dataclass
class OpticalModel:
    phones: list
    dim: int
    phone_n_states: np.ndarray  # (P,) emitting states per phone
    trans: np.ndarray       # (A,) the transition table: each phone's (n, n + 1) rows
    n_mix: np.ndarray       # (unique states,) components per state, model order
    weights: np.ndarray     # (C,) the mixture table, state blocks in model order
    means: np.ndarray       # (C, D)
    variances: np.ndarray   # (C, D), diagonal
    var_floor: np.ndarray   # (D,)
    use_sil: bool = True

    def __post_init__(self):
        self.arc_offsets = _arc_offsets(self.phone_n_states)

    def arc_table(self):
        """Log transition probabilities: the transition table, then one
        log-zero entry that arc index -1 reads."""
        with np.errstate(divide="ignore"):
            return np.log(np.append(self.trans, 0.0))


# ---------------------------------------------------------------------------
# transcripts and flat start

def phone_chain(lexicon, words, use_sil=True):
    """Phone sequence of an utterance: canonical pronunciations, optionally
    wrapped in boundary silence."""
    chain = []
    for word in words:
        chain.extend(lexicon.canonical(word))
    if not chain:
        raise OovError("empty transcript produces no phones")
    if use_sil:
        chain = [SILENCE_PHONE] + chain + [SILENCE_PHONE]
    return chain


def flat_start(frame_list, phones, topology_kind, use_sil=True):
    """Single-Gaussian model with every state at the global mean/variance."""
    if not frame_list:
        raise InsufficientDataError("no training frames for flat start")
    stacked = np.vstack(frame_list)
    if stacked.shape[0] < 2:
        raise InsufficientDataError("flat start needs at least two frames")
    dim = stacked.shape[1]
    g_mean = stacked.mean(axis=0)
    g_var = stacked.var(axis=0)
    g_var = np.maximum(g_var, 1e-12)
    floor = _VAR_FLOOR_SCALE * g_var
    phones = list(phones)
    if use_sil and SILENCE_PHONE not in phones:
        phones = phones + [SILENCE_PHONE]
    phones = sorted(phones)
    if topology_kind not in _TOPOLOGY_ROWS:
        raise ValueError(f"unknown topology kind {topology_kind!r}")
    rows = _TOPOLOGY_ROWS[topology_kind]
    n = len(phones) * rows.shape[0]
    return OpticalModel(phones=phones, dim=dim,
                        phone_n_states=np.full(len(phones), rows.shape[0]),
                        trans=np.tile(rows.ravel(), len(phones)),
                        n_mix=np.ones(n, dtype=int), weights=np.ones(n),
                        means=np.tile(g_mean, (n, 1)), variances=np.tile(g_var, (n, 1)),
                        var_floor=floor, use_sil=use_sil)


# ---------------------------------------------------------------------------
# emission densities

def _stack_components(model):
    """The mixture table as density blocks: quadratic and linear coefficients
    (C, D), then constants and log weights (C,)."""
    var = model.variances
    c0 = np.sum(-0.5 * model.means ** 2 / var - 0.5 * np.log(2.0 * np.pi * var), axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    return -0.5 / var, model.means / var, c0, logw


def component_log_likelihoods(stacked, frames):
    """Per-component weighted log densities (T, total components) under the
    blocks ``stacked`` from ``_stack_components``."""
    c1, c2, c0, logw = stacked
    x = np.asarray(frames, dtype=float)
    out = (x ** 2) @ c1.T
    out += x @ c2.T
    out += c0
    out += logw
    return out


def _slot_columns(sizes):
    """Where each component of a mixture table with ``sizes`` components per
    state sits in the slot layout (states, most components), flattened."""
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)
    return seg * sizes.max() + np.arange(seg.shape[0]) - np.repeat(_block_starts(sizes), sizes)


def _state_logsumexp(comp, sizes, shares=False):
    """Log-sum-exp (T, states) of each state's block of ``sizes`` component
    columns of ``comp`` (T, total components).

    The blocks are laid out by slot, (T, states, most components), with
    log-zero filling the short ones, and the max and the sum run over the
    slots: the j-th component of every state at once. The sum adds the first
    slot to the running sum of the others, the order in which numpy's
    ``add.reduceat`` sums a block of up to eight components (a longer block
    it sums pairwise), so up to eight components per state the result is the
    same to the bit. With ``shares``, also returns each component's share of its state's sum
    in the slot layout: zero in the fill and where the state's density is
    zero."""
    n = int(sizes.max())
    blocks = np.full((comp.shape[0], sizes.shape[0] * n), LOG_ZERO)
    blocks[:, _slot_columns(sizes)] = comp
    blocks = blocks.reshape(comp.shape[0], sizes.shape[0], n)
    m = blocks[:, :, 0].copy()
    for j in range(1, n):
        np.maximum(m, blocks[:, :, j], out=m)
    m[~np.isfinite(m)] = 0.0
    blocks -= m[:, :, None]
    p = np.exp(blocks, out=blocks)
    total = np.zeros_like(m)
    for j in range(1, n):
        total += p[:, :, j]
    total += p[:, :, 0]
    with np.errstate(divide="ignore"):
        unique = np.log(total)
    unique += m
    if not shares:
        return unique
    p /= np.where(total > 0.0, total, 1.0)[:, :, None]
    return unique, p


# ---------------------------------------------------------------------------
# utterance graph composition

@dataclass
class ChainGraph:
    phones: tuple           # phone names along the chain
    chain_pos: np.ndarray   # (S,) position in the chain per chain state
    unique_cols: np.ndarray  # (S,) column into the unique-state densities
    arcs: np.ndarray        # (4, S) arc-table index: stay, advance 1, 2, end (-1: none)

    @property
    def n_states(self):
        return self.chain_pos.shape[0]


def compose_chain(model, chain):
    """Banded utterance graph for a phone-name chain: each chain state's
    arcs index its transition row in the arc table by the arc-column rule.

    The graph depends only on the model's phone names and state counts and
    on the chain, never on parameter values, so every model of equal
    structure gets the same graph object, built once and read-only: EM
    iterations, grid cells, forced alignment and the decoder share it."""
    return _chain_graph(tuple(model.phones), tuple(model.phone_n_states.tolist()),
                        tuple(chain))


# a grid's training transcripts plus its decode lexicon's pronunciations,
# with room to spare: a few KiB per graph
@functools.lru_cache(maxsize=1024)
def _chain_graph(phones, phone_n_states, chain):
    index = {name: i for i, name in enumerate(phones)}
    for name in chain:
        if name not in index:
            raise OovError(f"phone {name!r} is not in the model")
    pids = np.array([index[name] for name in chain], dtype=int)
    all_sizes = np.array(phone_n_states, dtype=int)
    sizes = all_sizes[pids]
    phone_ids = np.repeat(pids, sizes)
    chain_pos = np.repeat(np.arange(len(pids)), sizes)
    local_state = np.arange(phone_ids.shape[0]) - np.repeat(_block_starts(sizes), sizes)
    n = sizes[chain_pos]
    row = _arc_offsets(all_sizes)[phone_ids] + local_state * (n + 1)
    # columns fed by staying, advancing one and advancing two, then by ending
    col = np.vstack([local_state + np.arange(3)[:, None], n])
    last = chain_pos == len(pids) - 1
    # an exit feeds the next phone's entry, or from the last phone ends the utterance
    live = np.vstack([(col[:3] < n) | ((col[:3] == n) & ~last), last])
    graph = ChainGraph(phones=chain, chain_pos=chain_pos,
                       unique_cols=_block_starts(all_sizes)[phone_ids] + local_state,
                       arcs=np.where(live, row + col, -1))
    for array in (graph.chain_pos, graph.unique_cols, graph.arcs):
        array.flags.writeable = False
    return graph


@dataclass
class BandBatch:
    """Utterances laid out for the batched forward and backward passes."""
    band: np.ndarray      # (4, B, S + 2): the arcs' log probs behind two log-zero columns
    emis: np.ndarray      # (T, B, S) chain-state emissions
    n_frames: np.ndarray  # (B,) frames of each utterance
    n_states: np.ndarray  # (B,) chain states of each utterance
    arcs: np.ndarray      # (4, B, S + 2): the band's arc-table indices (-1: none)
    cols: np.ndarray      # (B, S): each chain state's unique state (0 beyond the chain)


def pad_batch(table, graphs, uniques):
    """Lay out utterances, each given by its chain graph and its (T_b, unique
    states) log densities, as a band read from the arc table ``table`` and
    chain-state emissions, padded with log-zero to the longest chain S and
    the longest utterance T."""
    n_frames = np.array([u.shape[0] for u in uniques])
    n_states = np.array([graph.n_states for graph in graphs])
    arcs = np.full((4, len(graphs), n_states.max() + 2), -1)
    cols = np.zeros((len(graphs), n_states.max()), dtype=int)
    padded = np.full((n_frames.max(), len(graphs), n_states.max()), LOG_ZERO)
    for b, (graph, u) in enumerate(zip(graphs, uniques)):
        arcs[:, b, 2:2 + graph.n_states] = graph.arcs
        cols[b, :graph.n_states] = graph.unique_cols
        padded[:u.shape[0], b, :graph.n_states] = u[:, graph.unique_cols]
    return BandBatch(band=table[arcs], emis=padded, n_frames=n_frames, n_states=n_states,
                     arcs=arcs, cols=cols)


def _batches(frames, graphs, n_components):
    """Utterance indices in order of length, cut into batches whose padded
    frames times (chain states + 2 + ``n_components``) stay within
    ``_BATCH_VALUES``. An utterance over the budget on its own makes a batch
    of one.

    ``n_components`` counts the mixture table's slot layout (states times
    most components). So no per-frame array of a batch holds more than
    ``_BATCH_VALUES`` float64 values (8 MiB): not the padded emissions, the
    forward and backward values of either domain, the posteriors, nor the
    stacked frames' component densities and shares. Together they peak at
    about three times the batch's values in an EM iteration, four when
    every utterance falls back to the log domain (tracemalloc, one batch of
    60 utterances), so a batch stays within about 32 MiB, besides its
    stacked frames and their squares, which grow with the feature dimension
    instead."""
    batch, t_max, s_max = [], 0, 0
    for b in np.argsort([x.shape[0] for x in frames], kind="stable"):
        t = max(t_max, frames[b].shape[0])
        s = max(s_max, graphs[b].n_states)
        if batch and (len(batch) + 1) * t * (s + 2 + n_components) > _BATCH_VALUES:
            yield batch
            batch, t, s = [], frames[b].shape[0], graphs[b].n_states
        batch.append(b)
        t_max, s_max = t, s
    yield batch


def padded_batches(model, frames, graphs, shares=False):
    """Score utterances against the model and lay them out for the band
    passes: the one acoustic-scoring routine of EM, forced alignment and the
    decoder.

    ``frames`` holds each utterance's (T_b, D) float frames and ``graphs``
    its chain (anything with ``n_states``, ``arcs`` and ``unique_cols``).
    The mixture table is stacked once, and each batch's frames are scored
    together. Yields, for each batch of ``_batches``, the utterance indices,
    their frames stacked in that order (frames, D), with ``shares`` each
    component's share of its state's density at every stacked frame in
    ``_state_logsumexp``'s slot layout (else None), and their ``BandBatch``.
    """
    stacked = _stack_components(model)
    table = model.arc_table()
    n_slots = model.n_mix.shape[0] * int(model.n_mix.max())
    for batch in _batches(frames, graphs, n_slots):
        x = np.concatenate([frames[b] for b in batch])
        scored = _state_logsumexp(component_log_likelihoods(stacked, x), model.n_mix, shares)
        unique, share = scored if shares else (scored, None)
        ends = np.cumsum([frames[b].shape[0] for b in batch])[:-1]
        padded = pad_batch(table, [graphs[b] for b in batch], np.split(unique, ends))
        del scored, unique
        yield batch, x, share, padded


def into_states(row, band):
    """For the stay, advance-one and advance-two arcs in turn, the windows of
    ``row`` (..., S + 2) and ``band`` (4, ..., S + 2), both behind two log-zero
    columns, that show each state j its predecessor j, j-1 or j-2 and the arc from it."""
    width = row.shape[-1]
    return [(row[..., 2 - k:width - k], band[k, ..., 2 - k:width - k]) for k in range(3)]


def out_of_states(arcs, row):
    """The mirror of ``into_states``: the windows of ``arcs`` (4, ..., S) and
    ``row`` (..., S + 2), ahead of two log-zero columns, that show each state
    j its arc out to j, j+1 or j+2 and that successor."""
    width = arcs.shape[-1]
    return [(arcs[k], row[..., k:k + width]) for k in range(3)]


def forward_log(batch):
    """Forward pass over a ``BandBatch`` of utterances at once.

    Returns alpha (T, B, S), log-zero beyond each utterance's own frames and
    states, and the (B,) total log likelihoods. Padding only adds log-zero
    terms, so every value is the one a batch of that utterance alone gives.
    """
    band, e = batch.band, batch.emis
    alpha = np.full((e.shape[0],) + band.shape[1:], LOG_ZERO)
    alpha[0, :, 2] = e[0, :, 0]
    windows = into_states(alpha, band)     # views that follow alpha as it fills
    for t in range(1, e.shape[0]):
        stay, one, two = [pred[t - 1] + arc for pred, arc in windows]
        np.add(np.logaddexp(np.logaddexp(stay, one), two), e[t], out=alpha[t, :, 2:])
    alpha = alpha[:, :, 2:]
    # each utterance's exit scores at its own last frame: only the last two
    # states of a chain can exit within the band, so the sum has at most two
    # non-zero terms and no summation order can change it
    ends = alpha[batch.n_frames - 1, np.arange(e.shape[1])] + band[3, :, 2:]
    return alpha, _state_logsumexp(ends, np.array([ends.shape[1]]))[:, 0]


def backward_log(batch):
    """Backward pass over a ``BandBatch`` of utterances at once: beta
    (T, B, S), laid out as ``forward_log``'s alpha. Each utterance's exit
    arcs seed its beta at its own last frame."""
    e, n_frames = batch.emis, batch.n_frames
    arcs = batch.band[:, :, 2:]
    beta = np.full(e.shape, LOG_ZERO)
    nxt = np.full((e.shape[1], e.shape[2] + 2), LOG_ZERO)
    windows = out_of_states(arcs, nxt)     # views that follow each update of nxt
    for t in range(e.shape[0] - 1, -1, -1):
        if t + 1 < e.shape[0]:
            np.add(beta[t + 1], e[t + 1], out=nxt[:, :-2])
            stay, one, two = [arc + succ for arc, succ in windows]
            np.logaddexp(np.logaddexp(stay, one), two, out=beta[t])
        beta[t, n_frames == t + 1] = arcs[3, n_frames == t + 1]
    return beta


def forward_scaled(probs, shifted):
    """Forward pass over a ``BandBatch`` in the linear domain (Rabiner 1989,
    "A tutorial on hidden Markov models", section V-A), from the arc
    probabilities ``probs`` (4, B, S + 2) and the shifted emissions
    ``shifted`` (T, B, S + 2) of ``_linear``.

    Each step is one multiply-add over the band and one division of each
    utterance's row by its maximum. Returns alpha (T, B, S + 2) so scaled,
    behind two zero columns, and the log of each divisor (T, B). A row with
    nothing left in it (a padded frame, or one lost to underflow) is divided
    by the smallest normal float instead, which ``_scaled_posteriors``
    reads as untrustworthy on an utterance's own frames."""
    alpha = np.zeros(shifted.shape)
    scale = np.empty(shifted.shape[:2])
    step = np.empty(alpha.shape[1:2] + (alpha.shape[2] - 2,))
    alpha[0, :, 2] = shifted[0, :, 0]
    (stay, a0), (one, a1), (two, a2) = into_states(alpha, probs)
    for t in range(shifted.shape[0]):
        row = alpha[t, :, 2:]
        if t:
            np.multiply(stay[t - 1], a0, out=row)
            row += np.multiply(one[t - 1], a1, out=step)
            row += np.multiply(two[t - 1], a2, out=step)
            row *= shifted[t, :, :-2]
        np.maximum(row.max(axis=1), _TINY, out=scale[t])
        row /= scale[t][:, None]
    return alpha, np.log(scale)


def backward_scaled(probs, shifted, n_frames):
    """Backward pass in the linear domain, the mirror of ``forward_scaled``:
    beta (T, B, S), each row divided by its maximum, and the log of each
    divisor (T, B). Each utterance's exit arcs seed its beta at its own last
    frame, from ``n_frames`` (B,). Row t of ``shifted`` (t >= 1) becomes the next-frame term of row
    t - 1: the shifted emissions times beta at t."""
    arcs = probs[:, :, 2:]
    beta = np.zeros((shifted.shape[0],) + arcs.shape[1:])
    scale = np.empty(shifted.shape[:2])
    step = np.empty(arcs.shape[1:])
    (a0, stay), (a1, one), (a2, two) = out_of_states(arcs, shifted)
    for t in range(shifted.shape[0] - 1, -1, -1):
        row = beta[t]
        if t + 1 < shifted.shape[0]:
            shifted[t + 1, :, :-2] *= beta[t + 1]
            np.multiply(a0, stay[t + 1], out=row)
            row += np.multiply(a1, one[t + 1], out=step)
            row += np.multiply(a2, two[t + 1], out=step)
        ends = n_frames == t + 1
        row[ends] = arcs[3, ends]
        np.maximum(row.max(axis=1), _TINY, out=scale[t])
        row /= scale[t][:, None]
    return beta, np.log(scale)


def _linear(batch):
    """A ``BandBatch`` in the linear domain: the arc probabilities (4, B,
    S + 2), each (frame, utterance) row's emission shift, its maximum over
    the utterance's states (T, B), and the shifted emissions exp(emis -
    shift) (T, B, S + 2), ahead of two zero columns."""
    shift = batch.emis.max(axis=2)
    shift[~np.isfinite(shift)] = 0.0    # a padded frame, or one no state can emit
    shifted = np.zeros(batch.emis.shape[:2] + (batch.emis.shape[2] + 2,))
    own = shifted[:, :, :-2]
    np.subtract(batch.emis, shift[:, :, None], out=own)
    np.exp(own, out=own)
    return np.exp(batch.band), shift, shifted


# ---------------------------------------------------------------------------
# EM training

def _scaled_posteriors(batch):
    """Chain-state posteriors (T, B, S), expected arc counts (4, B, S) in
    the band's arc order, and log likelihoods (B,) of a ``BandBatch`` from
    the scaled passes, with the utterances these cannot be trusted on (B,).

    gamma is the product of scaled alpha and beta, divided by its sum over
    each frame's states; the count of each arc is scaled alpha times the
    backward pass's next-frame term, in the same units over beta's scale,
    summed over frames. An utterance is untrusted when its log likelihood is
    not finite, or, on one of its own frames, when a scale is zero or
    subnormal, when the product of alpha and beta vanishes, or when
    underflow could have moved more than about 1e-16 of posterior mass: an
    entry that a step flushes to zero or leaves subnormal is off by at most
    2^-1073 over that step's scale, and its posterior by at most that much
    times alpha's and beta's row maxima over the likelihood. Its posteriors
    and counts are left at zero."""
    probs, shift, shifted = _linear(batch)
    alpha, log_fwd = forward_scaled(probs, shifted)
    beta, log_bwd = backward_scaled(probs, shifted, batch.n_frames)
    own = np.arange(shift.shape[0])[:, None] < batch.n_frames
    last, utts = batch.n_frames - 1, np.arange(shift.shape[1])
    # logs of alpha's and beta's row maxima, and the log likelihood
    fwd = np.cumsum(np.where(own, log_fwd + shift, 0.0), axis=0)
    later = np.where(own, shift, 0.0)
    later = np.cumsum(later[::-1], axis=0)[::-1] - later
    bwd = np.cumsum(np.where(own, log_bwd, 0.0)[::-1], axis=0)[::-1] + later
    with np.errstate(divide="ignore"):
        loglik = np.log((alpha[last, utts, 2:] * probs[3, :, 2:]).sum(axis=1)) + fwd[last, utts]
    gamma = beta
    gamma *= alpha[:, :, 2:]
    mass = _state_sum(gamma)
    worst = np.minimum(log_fwd, log_bwd)
    bound = fwd + bwd - loglik - worst + _LOG_FLUSH
    untrusted = ~np.isfinite(loglik) | (own & (
        (worst <= np.log(_TINY)) | (mass == 0.0) | (bound > _LOG_POSTERIOR_SLACK))).any(axis=0)
    keep = own & ~untrusted
    norm = np.where(keep, 1.0 / np.where(keep, mass, 1.0), 0.0)
    gamma *= norm[:, :, None]
    alpha *= (norm / np.exp(log_bwd))[:, :, None]
    counts = np.empty((4,) + gamma.shape[1:])
    for k, (arc, succ) in enumerate(out_of_states(probs[:, :, 2:], shifted)):
        np.multiply(arc, np.einsum("tbs,tbs->bs", alpha[:-1, :, 2:], succ[1:]), out=counts[k])
    counts[3] = gamma[last, utts]
    return gamma, counts, loglik, untrusted


def _state_sum(gamma):
    """Each frame's sum over the states of ``gamma`` (T, B, S), adding the
    state columns in order, so that padding does not change the bits."""
    total = gamma[:, :, 0].copy()
    for s in range(1, gamma.shape[2]):
        total += gamma[:, :, s]
    return total


def _log_posteriors(batch):
    """Chain-state posteriors, arc counts and log likelihoods of a
    ``BandBatch``, laid out as ``_scaled_posteriors`` lays them out, from
    ``forward_log`` and ``backward_log``: the exact path, with no
    underflow short of the posteriors themselves. An utterance with no
    path gets zero posteriors and counts."""
    alpha, loglik = forward_log(batch)
    beta = backward_log(batch)
    norm = np.where(np.isfinite(loglik), loglik, np.inf)
    with np.errstate(over="ignore"):
        gamma = np.exp(alpha + beta - norm[:, None])
    nxt = np.full(beta.shape[:2] + (beta.shape[2] + 2,), LOG_ZERO)
    np.add(beta, batch.emis, out=nxt[:, :, :-2])
    counts = np.empty((4,) + beta.shape[1:])
    with np.errstate(over="ignore"):
        # a successor beyond the chain is log-zero, so its column sums to 0
        for k, (arc, succ) in enumerate(out_of_states(batch.band[:, :, 2:], nxt)):
            counts[k] = np.exp(alpha[:-1] + arc + succ[1:] - norm[:, None]).sum(axis=0)
    counts[3] = gamma[batch.n_frames - 1, np.arange(beta.shape[1])]
    return gamma, counts, loglik


def _posteriors(batch):
    """``_scaled_posteriors`` of a ``BandBatch``, with every untrusted
    utterance recomputed by ``_log_posteriors`` in a batch of its own.
    Returns gamma, the arc counts and the log likelihoods."""
    gamma, counts, loglik, untrusted = _scaled_posteriors(batch)
    redo = np.flatnonzero(untrusted)
    if redo.size:
        log.debug("%d of %d utterance(s) recomputed in the log domain",
                  redo.size, untrusted.shape[0])
        n_frames, n_states = batch.n_frames[redo], batch.n_states[redo]
        t, s = n_frames.max(), n_states.max()
        sub = BandBatch(band=batch.band[:, redo, :s + 2], emis=batch.emis[:t, redo, :s],
                        n_frames=n_frames, n_states=n_states, arcs=batch.arcs[:, redo, :s + 2],
                        cols=batch.cols[redo, :s])
        gamma[:t, redo, :s], counts[:, redo, :s], loglik[redo] = _log_posteriors(sub)
    return gamma, counts, loglik


def _e_step(model, frames, graphs):
    """E-step sums over utterances given by their (T_b, D) float frames and
    chain graphs, each batch of ``padded_batches`` at once: occupancy (C,)
    and first and second moments (C, D) in mixture-table order, arc counts
    in transition-table order, the total log likelihood, and the number of
    utterances with a path through their chain (the others add nothing)."""
    occ = np.zeros(model.n_mix.shape[0] * int(model.n_mix.max()))
    mean = np.zeros(occ.shape + (model.dim,))
    sqr = np.zeros_like(mean)
    arc_counts = np.zeros(model.trans.shape[0])
    total, used = 0.0, 0
    for _, x, shares, batch in padded_batches(model, frames, graphs, shares=True):
        gamma, counts, loglik = _posteriors(batch)
        live = np.isfinite(loglik)
        total += float(loglik[live].sum())
        used += int(live.sum())
        # posteriors tied over repeated phones: (B, T, unique states), then
        # the utterances' own frames in stacked order
        onehot = np.zeros(batch.cols.shape + (model.n_mix.shape[0],))
        np.put_along_axis(onehot, batch.cols[:, :, None], 1.0, axis=2)
        tied = np.matmul(gamma.transpose(1, 0, 2), onehot)
        own = np.arange(gamma.shape[0]) < batch.n_frames[:, None]
        shares *= tied[own][:, :, None]
        resp = shares.reshape(x.shape[0], -1)
        occ += resp.sum(axis=0)
        mean += resp.T @ x
        sqr += resp.T @ (x * x)
        arcs = batch.arcs[:, :, 2:]
        arc_counts += np.bincount(arcs[arcs >= 0], weights=counts[arcs >= 0],
                                  minlength=arc_counts.shape[0])
    slots = _slot_columns(model.n_mix)
    return occ[slots], mean[slots], sqr[slots], arc_counts, total, used


def em_iteration(model, data):
    """One full E+M pass; returns the corpus log likelihood under the
    parameters in force when the pass started.

    Utterances too short for their chain (a structural property, constant
    across iterations), those with no frames included, are skipped with a
    warning, so the returned total stays comparable between iterations.
    """
    if not data:
        raise InsufficientDataError("no training utterances")
    graphs = [compose_chain(model, chain) for _, chain in data]
    frames = [np.asarray(x, dtype=float) for x, _ in data]
    # a zero-frame utterance has no path, and the band passes need a first frame
    keep = [b for b, x in enumerate(frames) if x.shape[0]]
    used = 0
    if keep:
        occ, mean, sqr, arc_counts, total, used = _e_step(
            model, [frames[b] for b in keep], [graphs[b] for b in keep])
    skipped = len(data) - used
    if skipped:
        log.warning("skipped %d of %d utterance(s) too short for the topology",
                    skipped, len(data))
    if not used:
        raise InsufficientDataError("every utterance is too short for the topology")
    _apply_mstep(model, occ, mean, sqr, arc_counts)
    return total


_NO_OCCUPANCY = "phone %r state %d has no occupancy; keeping parameters"


def _apply_mstep(model, occ, mean, sqr, arc_counts):
    """Re-estimate from E-step sums: ``occ``, ``mean`` and ``sqr`` hold one
    row per mixture component in mixture-table order; ``arc_counts`` holds
    the arc counts in transition-table order. A state with no component above
    the occupancy floor keeps its parameters, and so does a transition row
    with no count above it; starved components of other states go."""
    sizes = model.n_mix
    starts = _block_starts(sizes)
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)
    keep = occ > _OCC_EPS
    kept = np.add.reduceat(keep.astype(int), starts)
    empty = kept == 0
    state_phone = np.repeat(np.arange(len(model.phones)), model.phone_n_states)
    local = np.arange(sizes.shape[0]) - np.repeat(_block_starts(model.phone_n_states),
                                                   model.phone_n_states)
    for u in np.flatnonzero(kept < sizes):
        name = model.phones[state_phone[u]]
        if empty[u]:
            log.warning(_NO_OCCUPANCY, name, local[u])
        else:
            log.warning("phone %r state %d: dropping %d starved component(s)",
                        name, local[u], sizes[u] - kept[u])
    occ_k = np.where(keep, occ, 0.0)
    state_occ = np.add.reduceat(occ_k, starts)
    occ_k[~keep] = 1.0
    means = mean / occ_k[:, None]
    varia = np.maximum(sqr / occ_k[:, None] - means ** 2, model.var_floor)
    old = empty[seg]
    survive = keep | old
    model.weights = np.where(old, model.weights,
                             occ_k / np.where(empty, 1.0, state_occ)[seg])[survive]
    model.means = np.where(old[:, None], model.means, means)[survive]
    model.variances = np.where(old[:, None], model.variances, varia)[survive]
    model.n_mix = np.where(empty, sizes, kept)

    widths = model.phone_n_states[state_phone] + 1      # each transition row's length
    new = np.where(model.trans > 0.0, arc_counts, 0.0)
    sums = np.add.reduceat(new, _block_starts(widths))
    live = np.repeat(sums > _OCC_EPS, widths)
    model.trans[...] = np.where(live, new / np.repeat(np.maximum(sums, 1e-300), widths),
                                model.trans)


def grow_mixtures(model, target_m):
    """Split the heaviest component of every state until it has target_m."""
    blocks = []
    for block in _block_slices(model.n_mix):
        w, mu, var = model.weights[block], model.means[block], model.variances[block]
        while w.shape[0] < target_m:
            i = int(np.argmax(w))
            sigma = np.sqrt(var[i])
            half = w[i] / 2.0
            w = np.concatenate([w[:i], [half, half], w[i + 1:]])
            mu = np.vstack([mu[:i], mu[i] + 0.1 * sigma, mu[i] - 0.1 * sigma, mu[i + 1:]])
            var = np.vstack([var[:i], var[i], var[i], var[i + 1:]])
        blocks.append((w, mu, var))
    model.n_mix, model.weights, model.means, model.variances = _mixture_table(blocks)


def train_em(model, data, schedule):
    """Mixture-growing embedded training.

    ``data`` is a list of (frames, phone_chain) pairs. The schedule lists
    (mixture_target, iterations); the log likelihood recorded for each
    iteration is evaluated before that iteration's update, so within one
    schedule block the sequence is non-decreasing up to round-off.
    Returns a list of (mixture_target, log_likelihood) per iteration.
    A state with no occupancy is reported once, not on every iteration.
    """
    if not data:
        raise InsufficientDataError("no training utterances")
    reported = set()

    def first_report(record):
        if record.msg is not _NO_OCCUPANCY:
            return True
        new = record.args not in reported
        reported.add(record.args)
        return new

    history = []
    log.addFilter(first_report)
    try:
        for target_m, iters in schedule:
            grow_mixtures(model, target_m)
            for _ in range(iters):
                ll = em_iteration(model, data)
                history.append((target_m, ll))
    finally:
        log.removeFilter(first_report)
    return history


# ---------------------------------------------------------------------------
# forced alignment

@dataclass
class Alignment:
    chain: list             # phone names of the chain
    state_seq: np.ndarray   # (T,) chain state index per frame
    chain_pos_seq: np.ndarray  # (T,) chain position per frame
    phone_seq: list         # (T,) phone name per frame
    score: float


def forced_align(model, frames, chain):
    """Best state path through the utterance chain (Viterbi).

    Score ties prefer the lower predecessor state index, so the result is
    fully deterministic.
    """
    graph = compose_chain(model, chain)
    frames = np.asarray(frames, dtype=float)
    n_frames, s_count = frames.shape[0], graph.n_states
    infeasible = f"no legal path: {n_frames} frames cannot cover a {s_count}-state chain"
    if n_frames == 0:
        raise AlignmentInfeasibleError(infeasible)
    batch = next(padded_batches(model, [frames], [graph]))[3]
    band, emis = batch.band[:, 0], batch.emis[:, 0]

    delta = np.full((n_frames, s_count + 2), LOG_ZERO)
    back = np.zeros((n_frames, s_count), dtype=int)   # the advance into each state
    delta[0, 2] = emis[0, 0]
    for t in range(1, n_frames):
        cand = np.stack([pred + arc for pred, arc in into_states(delta[t - 1], band)])
        # argmax takes the first maximum, so over the advances 2, 1, 0 it
        # resolves ties toward the lowest predecessor
        back[t] = 2 - np.argmax(cand[::-1], axis=0)
        delta[t, 2:] = cand[back[t], np.arange(s_count)] + emis[t]
    final = delta[-1, 2:] + band[3, 2:]
    best_end = int(np.argmax(final))
    score = float(final[best_end])
    if not np.isfinite(score):
        raise AlignmentInfeasibleError(infeasible)
    states = np.empty(n_frames, dtype=int)
    states[-1] = best_end
    for t in range(n_frames - 1, 0, -1):
        states[t - 1] = states[t] - back[t, states[t]]
    pos_seq = graph.chain_pos[states]
    phone_seq = [graph.phones[p] for p in pos_seq]
    return Alignment(chain=list(chain), state_seq=states, chain_pos_seq=pos_seq,
                     phone_seq=phone_seq, score=score)


def phone_spans(alignment):
    """Contiguous (phone, start_frame, end_frame_exclusive) segments, one per
    chain position."""
    spans = []
    start = 0
    n = len(alignment.phone_seq)
    for t in range(1, n + 1):
        if t == n or alignment.chain_pos_seq[t] != alignment.chain_pos_seq[t - 1]:
            spans.append((alignment.phone_seq[start], start, t))
            start = t
    return spans


# ---------------------------------------------------------------------------
# container

# OPT1 stores a topology code per phone; a built-in topology's state count
# names it: 0 is classic3, 1 is skip2
_KIND_CODES = {3: 0, 2: 1}


def save_model(path, model):
    with open(path, "wb") as fh:
        fh.write(OPTICAL_MAGIC)
        binio.write_u32(fh, model.dim)
        binio.write_u32(fh, len(model.phones))
        for name in model.phones:
            binio.write_str8(fh, name)
        binio.write_u8(fh, 1 if model.use_sil else 0)
        binio.write_array(fh, model.var_floor, "<f8")
        slices = _block_slices(model.n_mix)
        for n, start in zip(model.phone_n_states, model.arc_offsets):
            binio.write_u8(fh, _KIND_CODES[n])
            binio.write_u32(fh, n)
            binio.write_array(fh, model.trans[start:start + n * (n + 1)], "<f8")
            binio.write_array(fh, np.eye(1, n), "<f8")   # every phone enters at state 0
            for block in itertools.islice(slices, n):
                binio.write_u32(fh, block.stop - block.start)
                for table in (model.weights, model.means, model.variances):
                    binio.write_array(fh, table[block], "<f8")


def load_model(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, OPTICAL_MAGIC)
        dim, n_phones = r.u32(), r.u32()
        if n_phones == 0:
            raise FormatError(f"{path}: the model has no phones")
        phones = [r.str8() for _ in range(n_phones)]
        for i, name in enumerate(phones):
            if name in phones[:i]:
                raise FormatError(f"{path}: phone {name!r} is listed twice")
        use_sil = r.u8()
        if use_sil not in (0, 1):
            raise FormatError(f"{path}: use_sil flag must be 0 or 1, got {use_sil}")
        var_floor = r.array("<f8", (dim,))
        sizes, trans, initial, blocks = [], [], [], []
        for name in phones:
            code, n = r.u8(), r.u32()
            if _KIND_CODES.get(n) != code:
                raise FormatError(f"{path}: phone {name!r}: topology code {code} does not "
                                  f"match its {n} states")
            sizes.append(n)
            trans.append(r.array("<f8", (n * (n + 1),)))
            initial.append(r.array("<f8", (n,)))
            for s in range(n):
                m = r.u32()
                if m == 0:
                    raise FormatError(f"{path}: phone {name!r} state {s} has no components")
                blocks.append([r.array("<f8", shape) for shape in ((m,), (m, dim), (m, dim))])
        r.end()
    sizes, trans, initial = np.array(sizes), np.concatenate(trans), np.concatenate(initial)
    # each state's transition row, its local state s, and the advance k of
    # each of its arcs: column s + k
    state_phone = np.repeat(np.arange(n_phones), sizes)
    local = np.arange(state_phone.shape[0]) - np.repeat(_block_starts(sizes), sizes)
    widths = sizes[state_phone] + 1
    rows = _block_starts(widths)
    advance = np.arange(trans.shape[0]) - np.repeat(rows + local, widths)
    for bad, message in [
            ((np.minimum.reduceat(trans, rows) < 0.0)
             | ~np.isclose(np.add.reduceat(trans, rows), 1.0, atol=1e-9),
             "transition rows must be non-negative and sum to one"),
            (np.logical_or.reduceat((trans > 0.0) & ((advance < 0) | (advance > 2)), rows),
             "only forward arcs within a band of 2 are supported"),
            ((initial != (local == 0)) | np.signbit(initial),
             "a phone must enter at its first state")]:
        if bad.any():
            raise FormatError(f"{path}: phone {phones[state_phone[np.argmax(bad)]]!r}: "
                              f"{message}")
    n_mix, weights, means, variances = _mixture_table(blocks)
    if not all(np.isfinite(a).all() for a in (var_floor, weights, means, variances)):
        raise FormatError(f"{path}: non-finite variance floor or mixture parameters")
    sums = np.add.reduceat(weights, _block_starts(n_mix))
    if np.any(weights < 0.0) or not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        raise FormatError(f"{path}: mixture weights must be non-negative and sum to one "
                          "in every state")
    if np.any(variances <= 0.0):
        raise FormatError(f"{path}: non-positive variance")
    return OpticalModel(phones=phones, dim=dim, phone_n_states=sizes, trans=trans,
                        n_mix=n_mix, weights=weights, means=means, variances=variances,
                        var_floor=var_floor, use_sil=use_sil == 1)
