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
index into the model's arc table, which is every phone's (n, n + 1) log
transition rows, flat and in model order, then one log-zero entry that index
-1 reads for a missing arc. The band's values are the table read at those
indices, and EM counts arcs through the same indices. The forward, backward,
and Viterbi passes all run on this band, in the log domain, vectorized over
states. Forward and backward also run batched over the utterances of an EM
iteration, taken in order of length in batches of bounded size: each
utterance is padded with log-zero to the longest chain and the longest
utterance of its batch, which leaves its own values exactly as a pass over
it alone would give them.

Beside the arc table, the Gaussians form one mixture table: component weights
(C,), means (C, D) and diagonal variances (C, D), one block of rows per state
in model order, plus each state's component count. The E-step sums, the
density blocks and the OPT1 file all keep this order.
"""

import itertools
import logging
from dataclasses import dataclass, field

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
# float64 values per array that one batched E-step pass may hold (8 MiB)
_BATCH_VALUES = 1 << 20
LOG_ZERO = -np.inf


@dataclass
class HmmTopology:
    kind: str
    n_states: int
    trans: np.ndarray       # (n_states, n_states + 1); last column exits the phone
    initial: np.ndarray     # (n_states,)

    def __post_init__(self):
        self.trans = np.asarray(self.trans, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        if self.n_states < 1:
            raise ValueError("a topology needs at least one state")
        if self.trans.shape != (self.n_states, self.n_states + 1):
            raise ValueError("transition matrix shape mismatch")
        if np.any(self.trans < 0.0) or not np.allclose(self.trans.sum(axis=1), 1.0,
                                                       atol=1e-9):
            raise ValueError("transition rows must be non-negative and sum to one")
        # the arc from state s to column c advances c - s chain states
        source, col = np.nonzero(self.trans > 0.0)
        if np.any((col < source) | (col > source + 2)):
            raise ValueError("only forward arcs within a band of 2 are supported")
        if self.initial[0] != 1.0 or np.any(self.initial[1:] != 0.0):
            raise ValueError("topologies must enter at their first state")


def build_topology(kind):
    """Named topology with uniform probabilities over the outgoing arcs."""
    if kind == "classic3":
        trans = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        return HmmTopology("classic3", 3, trans, np.array([1.0, 0.0, 0.0]))
    if kind == "skip2":
        third = 1.0 / 3.0
        trans = np.array([
            [third, third, third],
            [0.0, 0.5, 0.5],
        ])
        return HmmTopology("skip2", 2, trans, np.array([1.0, 0.0]))
    raise ValueError(f"unknown topology kind {kind!r}")


def _block_starts(sizes):
    """Where each of consecutive blocks of ``sizes`` rows starts."""
    return np.cumsum(sizes) - sizes


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
    topologies: list        # HmmTopology per phone
    n_mix: np.ndarray       # (unique states,) components per state, model order
    weights: np.ndarray     # (C,) the mixture table, state blocks in model order
    means: np.ndarray       # (C, D)
    variances: np.ndarray   # (C, D), diagonal
    var_floor: np.ndarray   # (D,)
    use_sil: bool = True
    phone_index: dict = field(default_factory=dict)

    def __post_init__(self):
        self.phone_index = {p: i for i, p in enumerate(self.phones)}
        self.phone_n_states = np.array([topo.n_states for topo in self.topologies],
                                       dtype=int)
        self._state_offsets = _block_starts(self.phone_n_states)
        # where each phone's (n, n + 1) transition rows start in the arc table
        self.arc_offsets = _block_starts(self.phone_n_states * (self.phone_n_states + 1))

    def state_offset(self, phone_idx):
        return self._state_offsets[phone_idx]

    def arc_table(self):
        """Log transition probabilities: every phone's (n, n + 1) rows, flat
        and in model order, then one log-zero entry that arc index -1 reads."""
        with np.errstate(divide="ignore"):
            return np.log(np.concatenate([topo.trans.ravel() for topo in self.topologies]
                                         + [[0.0]]))


def _logsumexp(a, axis=None):
    a = np.asarray(a, dtype=float)
    if axis is None:
        a = a.ravel()
        axis = 0
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


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


def flat_start(frame_list, phones, topology_kind="skip2", use_sil=True,
               var_floor_scale=1e-3):
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
    floor = var_floor_scale * g_var
    phones = list(phones)
    if use_sil and SILENCE_PHONE not in phones:
        phones = phones + [SILENCE_PHONE]
    phones = sorted(phones)
    topologies = [build_topology(topology_kind) for _ in phones]
    n = sum(topo.n_states for topo in topologies)
    return OpticalModel(phones=phones, dim=dim, topologies=topologies,
                        n_mix=np.ones(n, dtype=int), weights=np.ones(n),
                        means=np.tile(g_mean, (n, 1)), variances=np.tile(g_var, (n, 1)),
                        var_floor=floor, use_sil=use_sil)


# ---------------------------------------------------------------------------
# emission densities

def _stack_components(model):
    """The mixture table as density blocks: quadratic and linear coefficients
    (C, D), constants and log weights (C,), and each state's component count."""
    var = model.variances
    c0 = np.sum(-0.5 * model.means ** 2 / var - 0.5 * np.log(2.0 * np.pi * var), axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    return -0.5 / var, model.means / var, c0, logw, model.n_mix


def component_log_likelihoods(stacked, frames):
    """Per-component weighted log densities (T, total components) under the
    blocks ``stacked`` from ``_stack_components``."""
    c1, c2, c0, logw, _ = stacked
    x = np.asarray(frames, dtype=float)
    return (x ** 2) @ c1.T + x @ c2.T + c0 + logw


def _state_logsumexp(comp, sizes):
    """Log-sum-exp of each state's block of ``sizes`` component columns."""
    starts = _block_starts(sizes)
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)
    m = np.maximum.reduceat(comp, starts, axis=1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduceat(np.exp(comp - safe_m[:, seg]), starts, axis=1)) + safe_m


# ---------------------------------------------------------------------------
# utterance graph composition

@dataclass
class ChainGraph:
    phones: list            # phone names along the chain
    chain_pos: np.ndarray   # (S,) position in the chain per chain state
    unique_cols: np.ndarray  # (S,) column into the unique-state densities
    arcs: np.ndarray        # (4, S) arc-table index: stay, advance 1, 2, end (-1: none)

    @property
    def n_states(self):
        return self.chain_pos.shape[0]


def compose_chain(model, chain):
    """Banded utterance graph for a phone-name chain: each chain state's
    arcs index its transition row in the arc table by the arc-column rule."""
    for name in chain:
        if name not in model.phone_index:
            raise OovError(f"phone {name!r} is not in the model")
    pids = np.array([model.phone_index[name] for name in chain], dtype=int)
    sizes = model.phone_n_states[pids]
    phone_ids = np.repeat(pids, sizes)
    chain_pos = np.repeat(np.arange(len(pids)), sizes)
    local_state = np.arange(phone_ids.shape[0]) - np.repeat(_block_starts(sizes), sizes)
    n = sizes[chain_pos]
    row = model.arc_offsets[phone_ids] + local_state * (n + 1)
    # columns fed by staying, advancing one and advancing two, then by ending
    col = np.vstack([local_state + np.arange(3)[:, None], n])
    last = chain_pos == len(pids) - 1
    # an exit feeds the next phone's entry, or from the last phone ends the utterance
    live = np.vstack([(col[:3] < n) | ((col[:3] == n) & ~last), last])
    return ChainGraph(phones=list(chain), chain_pos=chain_pos,
                      unique_cols=model.state_offset(phone_ids) + local_state,
                      arcs=np.where(live, row + col, -1))


@dataclass
class BandBatch:
    """Utterances laid out for the batched forward and backward passes."""
    band: np.ndarray      # (4, B, S + 2): the arcs' log probs behind two log-zero columns
    emis: np.ndarray      # (T, B, S) chain-state emissions
    n_frames: np.ndarray  # (B,) frames of each utterance
    n_states: np.ndarray  # (B,) chain states of each utterance


def pad_batch(table, graphs, uniques):
    """Lay out utterances, each given by its chain graph and its (T_b, unique
    states) log densities, as a band read from the arc table ``table`` and
    chain-state emissions, padded with log-zero to the longest chain S and
    the longest utterance T."""
    n_frames = np.array([u.shape[0] for u in uniques])
    n_states = np.array([graph.n_states for graph in graphs])
    arcs = np.full((4, len(graphs), n_states.max() + 2), -1)
    padded = np.full((n_frames.max(), len(graphs), n_states.max()), LOG_ZERO)
    for b, (graph, u) in enumerate(zip(graphs, uniques)):
        arcs[:, b, 2:2 + graph.n_states] = graph.arcs
        padded[:u.shape[0], b, :graph.n_states] = u[:, graph.unique_cols]
    return BandBatch(band=table[arcs], emis=padded, n_frames=n_frames, n_states=n_states)


def forward_log(batch):
    """Forward pass over a ``BandBatch`` of utterances at once.

    Returns alpha (T, B, S), log-zero beyond each utterance's own frames and
    states, and the (B,) total log likelihoods. Padding only adds log-zero
    terms, so every value is the one a batch of that utterance alone gives.
    """
    band, e = batch.band, batch.emis
    # the predecessors j, j-1 and j-2 of state j are slices of a padded row
    a0, a1, a2 = band[0, :, 2:], band[1, :, 1:-1], band[2, :, :-2]
    alpha = np.full((e.shape[0],) + band.shape[1:], LOG_ZERO)
    alpha[0, :, 2] = e[0, :, 0]
    stay = np.empty(e.shape[1:])
    adv = np.empty(e.shape[1:])
    for t in range(1, e.shape[0]):
        prev = alpha[t - 1]
        np.add(prev[:, 2:], a0, out=stay)
        np.add(prev[:, 1:-1], a1, out=adv)
        np.logaddexp(stay, adv, out=stay)
        np.add(prev[:, :-2], a2, out=adv)
        np.logaddexp(stay, adv, out=stay)
        np.add(stay, e[t], out=alpha[t, :, 2:])
    alpha = alpha[:, :, 2:]
    loglik = np.array([_logsumexp(alpha[n - 1, b, :s] + band[3, b, 2:2 + s])
                       for b, (n, s) in enumerate(zip(batch.n_frames, batch.n_states))])
    return alpha, loglik


def backward_log(batch):
    """Backward pass over a ``BandBatch`` of utterances at once: beta
    (T, B, S), laid out as ``forward_log``'s alpha. Each utterance's exit
    arcs seed its beta at its own last frame."""
    e, n_frames = batch.emis, batch.n_frames
    a0, a1, a2, exit_logp = batch.band[:, :, 2:]
    beta = np.full(e.shape, LOG_ZERO)
    # two trailing log-zero columns make the successors j+1 and j+2 slices
    nxt = np.full((e.shape[1], e.shape[2] + 2), LOG_ZERO)
    stay = np.empty(e.shape[1:])
    adv = np.empty(e.shape[1:])
    for t in range(e.shape[0] - 1, -1, -1):
        if t + 1 < e.shape[0]:
            np.add(beta[t + 1], e[t + 1], out=nxt[:, :-2])
            np.add(a0, nxt[:, :-2], out=stay)
            np.add(a1, nxt[:, 1:-1], out=adv)
            np.logaddexp(stay, adv, out=stay)
            np.add(a2, nxt[:, 2:], out=adv)
            np.logaddexp(stay, adv, out=beta[t])
        last = n_frames == t + 1
        beta[t, last] = exit_logp[last]
    return beta


# ---------------------------------------------------------------------------
# EM training

def _utterance_statistics(graph, band, comp, unique, emis, alpha, beta, loglik, seg):
    """One utterance's E-step posteriors from its own (unpadded) band, alpha
    and beta: the responsibility of every mixture component per frame (T,
    total components), tied over repeated phones, and the expected count of
    each arc of ``graph.arcs``, (4, S)."""
    with np.errstate(over="ignore"):
        gamma = np.exp(alpha + beta - loglik)  # (T, S) chain-state posteriors
    tied = np.zeros(unique.shape)
    np.add.at(tied, (slice(None), graph.unique_cols), gamma)
    with np.errstate(invalid="ignore"):
        resp = tied[:, seg] * np.exp(comp - unique[:, seg])
    resp = np.nan_to_num(resp, nan=0.0, posinf=0.0, neginf=0.0)

    s_count = graph.n_states
    counts = np.zeros((4, s_count))
    nxt = beta[1:] + emis[1:]
    with np.errstate(over="ignore"):
        for off in range(3):
            xi = np.exp(alpha[:-1, :s_count - off] + band[off, :s_count - off]
                        + nxt[:, off:] - loglik)
            counts[off, :s_count - off] = xi.sum(axis=0)
        counts[3] = np.exp(alpha[-1] + band[3] - loglik)
    return resp, counts


def _batches(frames, graphs, n_components):
    """Utterance indices in order of length, cut into batches whose padded
    frames times (chain states + mixture components) stay within
    ``_BATCH_VALUES``, so that none of a batch's alpha, beta, emission and
    component-density arrays holds more float64 values. An utterance over
    the budget on its own makes a batch of one."""
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


def em_iteration(model, data):
    """One full E+M pass; returns the corpus log likelihood under the
    parameters in force when the pass started.

    Utterances too short for their chain (a structural property, constant
    across iterations) are skipped with a warning, so the returned total
    stays comparable between iterations.
    """
    if not data:
        raise InsufficientDataError("no training utterances")
    stacked = _stack_components(model)
    sizes = stacked[4]
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)
    graphs = [compose_chain(model, chain) for _, chain in data]
    frames = [np.asarray(x, dtype=float) for x, _ in data]
    table = model.arc_table()

    occ = np.zeros(seg.shape[0])
    mean = np.zeros((seg.shape[0], model.dim))
    sqr = np.zeros_like(mean)
    arcs = []
    total = 0.0
    for batch in _batches(frames, graphs, seg.shape[0]):
        comps = [component_log_likelihoods(stacked, frames[b]) for b in batch]
        uniques = [_state_logsumexp(comp, sizes) for comp in comps]
        padded = pad_batch(table, [graphs[b] for b in batch], uniques)
        alpha, loglik = forward_log(padded)
        beta = backward_log(padded)
        for i in np.flatnonzero(np.isfinite(loglik)):
            graph, x = graphs[batch[i]], frames[batch[i]]
            own = (slice(0, x.shape[0]), i, slice(0, graph.n_states))
            resp, counts = _utterance_statistics(
                graph, padded.band[:, i, 2:2 + graph.n_states], comps[i], uniques[i],
                padded.emis[own], alpha[own], beta[own], loglik[i], seg)
            occ += resp.sum(axis=0)
            mean += resp.T @ x
            sqr += resp.T @ x ** 2
            arcs.append((graph.arcs.ravel(), counts.ravel()))
            total += float(loglik[i])

    skipped = len(data) - len(arcs)
    if skipped:
        log.warning("skipped %d of %d utterance(s) too short for the topology",
                    skipped, len(data))
    if not arcs:
        raise InsufficientDataError("every utterance is too short for the topology")
    index, count = (np.concatenate(a) for a in zip(*arcs))
    live = index >= 0
    trans = np.bincount(index[live], weights=count[live], minlength=table.shape[0])
    _apply_mstep(model, occ, mean, sqr, trans)
    return total


def _apply_mstep(model, occ, mean, sqr, trans):
    """Re-estimate from E-step sums: ``occ``, ``mean`` and ``sqr`` hold one
    row per mixture component in mixture-table order; ``trans`` holds the arc
    counts in arc-table order. A state with no component above the occupancy
    floor keeps its parameters; starved components of other states go."""
    blocks = []
    slices = _block_slices(model.n_mix)
    for name, topo in zip(model.phones, model.topologies):
        for s in range(topo.n_states):
            block = next(slices)
            keep = occ[block] > _OCC_EPS
            if not keep.any():
                log.warning("phone %r state %d has no occupancy; keeping parameters",
                            name, s)
                blocks.append((model.weights[block], model.means[block],
                               model.variances[block]))
                continue
            if not keep.all():
                log.warning("phone %r state %d: dropping %d starved component(s)",
                            name, s, int((~keep).sum()))
            occ_k = occ[block][keep]
            means = mean[block][keep] / occ_k[:, None]
            varia = np.maximum(sqr[block][keep] / occ_k[:, None] - means ** 2,
                               model.var_floor)
            blocks.append((occ_k / occ_k.sum(), means, varia))
    model.n_mix, model.weights, model.means, model.variances = _mixture_table(blocks)
    for start, topo in zip(model.arc_offsets, model.topologies):
        counts = trans[start:start + topo.trans.size].reshape(topo.trans.shape)
        struct = topo.trans > 0.0
        new = np.where(struct, counts, 0.0)
        sums = new.sum(axis=1, keepdims=True)
        rows = sums[:, 0] > _OCC_EPS
        topo.trans = np.where(rows[:, None], np.divide(new, np.maximum(sums, 1e-300)),
                              topo.trans)


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


def train_em(model, data, schedule=((1, 4), (2, 4), (4, 4), (8, 4))):
    """Mixture-growing embedded training.

    ``data`` is a list of (frames, phone_chain) pairs. The schedule lists
    (mixture_target, iterations); the log likelihood recorded for each
    iteration is evaluated before that iteration's update, so within one
    schedule block the sequence is non-decreasing up to round-off.
    Returns a list of (mixture_target, log_likelihood) per iteration.
    """
    if not data:
        raise InsufficientDataError("no training utterances")
    history = []
    for target_m, iters in schedule:
        grow_mixtures(model, target_m)
        for _ in range(iters):
            ll = em_iteration(model, data)
            history.append((target_m, ll))
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
    stacked = _stack_components(model)
    unique = _state_logsumexp(component_log_likelihoods(stacked, frames), stacked[4])
    batch = pad_batch(model.arc_table(), [graph], [unique])
    band, emis = batch.band[:, 0], batch.emis[:, 0]

    # delta rows sit behind two log-zero columns, so the predecessors j-2,
    # j-1 and j of every state are the three windows of the previous row;
    # in that order, argmax resolves ties toward the lowest predecessor
    delta = np.full((n_frames, s_count + 2), LOG_ZERO)
    back = np.zeros((n_frames, s_count), dtype=int)
    arcs = np.stack([band[2, :-2], band[1, 1:-1], band[0, 2:]])
    delta[0, 2] = emis[0, 0]
    for t in range(1, n_frames):
        cand = np.lib.stride_tricks.sliding_window_view(delta[t - 1], s_count) + arcs
        choice = np.argmax(cand, axis=0)
        delta[t, 2:] = cand[choice, np.arange(s_count)] + emis[t]
        back[t] = np.arange(s_count) - (2 - choice)
    final = delta[-1, 2:] + band[3, 2:]
    best_end = int(np.argmax(final))
    score = float(final[best_end])
    if not np.isfinite(score):
        raise AlignmentInfeasibleError(infeasible)
    states = np.empty(n_frames, dtype=int)
    states[-1] = best_end
    for t in range(n_frames - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
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

_KIND_CODES = {"classic3": 0, "skip2": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


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
        for topo in model.topologies:
            binio.write_u8(fh, _KIND_CODES[topo.kind])
            binio.write_u32(fh, topo.n_states)
            binio.write_array(fh, topo.trans, "<f8")
            binio.write_array(fh, topo.initial, "<f8")
            for block in itertools.islice(slices, topo.n_states):
                binio.write_u32(fh, block.stop - block.start)
                for table in (model.weights, model.means, model.variances):
                    binio.write_array(fh, table[block], "<f8")


def load_model(path):
    with open(path, "rb") as fh:
        binio.check_magic(fh, OPTICAL_MAGIC, path)
        dim = binio.read_u32(fh, path)
        n_phones = binio.read_u32(fh, path)
        if n_phones == 0:
            raise FormatError(f"{path}: the model has no phones")
        phones = [binio.read_str8(fh, path) for _ in range(n_phones)]
        use_sil = binio.read_u8(fh, path) == 1
        var_floor = binio.read_array(fh, "<f8", (dim,), path)
        topologies = []
        blocks = []
        for name in phones:
            code = binio.read_u8(fh, path)
            if code not in _KIND_NAMES:
                raise FormatError(f"{path}: unknown topology code {code}")
            n_states = binio.read_u32(fh, path)
            trans = binio.read_array(fh, "<f8", (n_states, n_states + 1), path)
            initial = binio.read_array(fh, "<f8", (n_states,), path)
            try:
                topologies.append(HmmTopology(_KIND_NAMES[code], n_states, trans, initial))
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from exc
            for s in range(n_states):
                m = binio.read_u32(fh, path)
                if m == 0:
                    raise FormatError(f"{path}: phone {name!r} state {s} has no components")
                blocks.append([binio.read_array(fh, "<f8", shape, path)
                               for shape in ((m,), (m, dim), (m, dim))])
    n_mix, weights, means, variances = _mixture_table(blocks)
    if not all(np.isfinite(a).all() for a in (var_floor, weights, means, variances)):
        raise FormatError(f"{path}: non-finite variance floor or mixture parameters")
    sums = np.add.reduceat(weights, _block_starts(n_mix))
    if np.any(weights < 0.0) or not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        raise FormatError(f"{path}: mixture weights must be non-negative and sum to one "
                          "in every state")
    if np.any(variances <= 0.0):
        raise FormatError(f"{path}: non-positive variance")
    return OpticalModel(phones=phones, dim=dim, topologies=topologies, n_mix=n_mix,
                        weights=weights, means=means, variances=variances,
                        var_floor=var_floor, use_sil=use_sil)
