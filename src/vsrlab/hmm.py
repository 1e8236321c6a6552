"""Monophone GMM-HMM acoustic models: flat start, embedded Baum-Welch
training with a mixture-growing schedule, and Viterbi forced alignment.

Two left-to-right topologies are built in. "classic3" has three emitting
states with self and next-state arcs and exits only from the last state, so
a phone occupies at least three frames. "skip2" has two emitting states with
an extra exit arc from the first state (arcs 1->1, 1->2, 1->exit, 2->2,
2->exit), letting a phone collapse to a single frame.

Utterance graphs are chains of phone models. Because every topology here
enters at its first state and exits forward by at most two chain positions,
the composed transition structure is banded: arrays A0/A1/A2 hold log
probabilities of staying, advancing one, and advancing two chain states.
The forward, backward, and Viterbi passes all run on this band, in the log
domain, vectorized over states.
"""

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
        if self.trans.shape != (self.n_states, self.n_states + 1):
            raise ValueError("transition matrix shape mismatch")
        if not np.allclose(self.trans.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to one")
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


@dataclass
class GmmState:
    weights: np.ndarray     # (M,)
    means: np.ndarray       # (M, D)
    variances: np.ndarray   # (M, D), diagonal

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))


@dataclass
class OpticalModel:
    phones: list
    dim: int
    topologies: list        # HmmTopology per phone
    states: list            # per phone: list of GmmState
    var_floor: np.ndarray   # (D,)
    use_sil: bool = True
    phone_index: dict = field(default_factory=dict)

    def __post_init__(self):
        self.phone_index = {p: i for i, p in enumerate(self.phones)}
        offsets = []
        total = 0
        for topo in self.topologies:
            offsets.append(total)
            total += topo.n_states
        self._state_offsets = offsets
        self.n_unique_states = total

    def state_offset(self, phone_idx):
        return self._state_offsets[phone_idx]


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
    states = [[GmmState(np.array([1.0]), g_mean[None, :].copy(), g_var[None, :].copy())
               for _ in range(t.n_states)] for t in topologies]
    return OpticalModel(phones=phones, dim=dim, topologies=topologies,
                        states=states, var_floor=floor, use_sil=use_sil)


# ---------------------------------------------------------------------------
# emission densities

def _stack_components(model):
    """All mixture components of all states in one matrix block set."""
    c1 = []
    c2 = []
    c0 = []
    logw = []
    sizes = []
    for phone_states in model.states:
        for st in phone_states:
            var = st.variances
            c1.append(-0.5 / var)
            c2.append(st.means / var)
            c0.append(np.sum(-0.5 * st.means ** 2 / var - 0.5 * np.log(2.0 * np.pi * var),
                             axis=1))
            with np.errstate(divide="ignore"):
                logw.append(np.log(st.weights))
            sizes.append(st.weights.shape[0])
    return (np.vstack(c1), np.vstack(c2), np.concatenate(c0),
            np.concatenate(logw), np.array(sizes))


def component_log_likelihoods(model, frames):
    """Per-component weighted log densities (T, total components) plus the
    per-state block sizes."""
    c1, c2, c0, logw, sizes = _stack_components(model)
    x = np.asarray(frames, dtype=float)
    comp = (x ** 2) @ c1.T + x @ c2.T + c0 + logw
    return comp, sizes


def state_log_likelihoods(model, frames):
    """GMM log densities for every unique state: (T, n_unique_states).

    Column order is phone-major, state-minor: ``model.state_offset(p) + s``.
    """
    return _state_logsumexp(*component_log_likelihoods(model, frames))


def _state_logsumexp(comp, sizes):
    """Log-sum-exp of each state's block of ``sizes`` component columns."""
    starts = np.cumsum(sizes) - sizes
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
    phone_ids: np.ndarray   # (S,) model phone index per chain state
    chain_pos: np.ndarray   # (S,) position in the chain per chain state
    local_state: np.ndarray  # (S,) state index within the phone
    unique_cols: np.ndarray  # (S,) column into state_log_likelihoods output
    a0: np.ndarray          # (S,) log prob of staying
    a1: np.ndarray          # (S,) log prob of advancing one
    a2: np.ndarray          # (S,) log prob of advancing two
    col0: np.ndarray        # (S,) local transition column fed by each arc
    col1: np.ndarray
    col2: np.ndarray
    exit_logp: np.ndarray   # (S,) log prob of ending the utterance here
    exit_col: np.ndarray

    @property
    def n_states(self):
        return self.phone_ids.shape[0]


def compose_chain(model, chain):
    """Banded utterance graph for a phone-name chain."""
    for name in chain:
        if name not in model.phone_index:
            raise OovError(f"phone {name!r} is not in the model")
    pids = [model.phone_index[name] for name in chain]
    bases = []
    total = 0
    for pid in pids:
        bases.append(total)
        total += model.topologies[pid].n_states
    s_count = total
    a = [np.full(s_count, LOG_ZERO) for _ in range(3)]
    cols = [np.full(s_count, -1, dtype=int) for _ in range(3)]
    exit_logp = np.full(s_count, LOG_ZERO)
    exit_col = np.full(s_count, -1, dtype=int)
    phone_ids = np.empty(s_count, dtype=int)
    chain_pos = np.empty(s_count, dtype=int)
    local_state = np.empty(s_count, dtype=int)
    unique_cols = np.empty(s_count, dtype=int)

    with np.errstate(divide="ignore"):
        for pos, pid in enumerate(pids):
            topo = model.topologies[pid]
            base = bases[pos]
            n = topo.n_states
            for s in range(n):
                j = base + s
                phone_ids[j] = pid
                chain_pos[j] = pos
                local_state[j] = s
                unique_cols[j] = model.state_offset(pid) + s
                for c in range(n):
                    p = topo.trans[s, c]
                    if p <= 0.0:
                        continue
                    off = c - s
                    if off < 0 or off > 2:
                        raise ValueError("only forward arcs within a band of 2 are supported")
                    a[off][j] = np.log(p)
                    cols[off][j] = c
                p_final = topo.trans[s, n]
                if p_final > 0.0:
                    if pos + 1 < len(pids):
                        off = bases[pos + 1] - j
                        if off < 1 or off > 2:
                            raise ValueError("exit arc jumps outside the supported band")
                        a[off][j] = np.log(p_final)
                        cols[off][j] = n  # the exit column of this phone
                    else:
                        exit_logp[j] = np.log(p_final)
                        exit_col[j] = n
    return ChainGraph(phones=list(chain), phone_ids=phone_ids, chain_pos=chain_pos,
                      local_state=local_state,
                      unique_cols=unique_cols, a0=a[0], a1=a[1], a2=a[2],
                      col0=cols[0], col1=cols[1], col2=cols[2],
                      exit_logp=exit_logp, exit_col=exit_col)


def _shift_down(v, k):
    """v[j-k] with log-zero fill: out[j] = v[j-k]."""
    if k == 0:
        return v
    out = np.full_like(v, LOG_ZERO)
    out[k:] = v[:-k]
    return out


def _shift_up(v, k):
    """v[j+k] with log-zero fill: out[j] = v[j+k]."""
    if k == 0:
        return v
    out = np.full_like(v, LOG_ZERO)
    out[:-k] = v[k:]
    return out


def forward_log(graph, emis):
    """Alpha matrix (T, S) and the total log likelihood."""
    n_frames, s_count = emis.shape
    alpha = np.full((n_frames, s_count), LOG_ZERO)
    alpha[0, 0] = emis[0, 0]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        stay = prev + graph.a0
        adv1 = _shift_down(prev + graph.a1, 1)
        adv2 = _shift_down(prev + graph.a2, 2)
        alpha[t] = np.logaddexp(np.logaddexp(stay, adv1), adv2) + emis[t]
    loglik = float(_logsumexp(alpha[-1] + graph.exit_logp))
    return alpha, loglik


def backward_log(graph, emis):
    n_frames, s_count = emis.shape
    beta = np.full((n_frames, s_count), LOG_ZERO)
    beta[-1] = graph.exit_logp
    for t in range(n_frames - 2, -1, -1):
        nxt = beta[t + 1] + emis[t + 1]
        stay = graph.a0 + nxt
        adv1 = graph.a1 + _shift_up(nxt, 1)
        adv2 = graph.a2 + _shift_up(nxt, 2)
        beta[t] = np.logaddexp(np.logaddexp(stay, adv1), adv2)
    return beta


# ---------------------------------------------------------------------------
# EM training

class _Accumulators:
    def __init__(self, model):
        self.occ = [[np.zeros(st.weights.shape[0]) for st in phone_states]
                    for phone_states in model.states]
        self.mean = [[np.zeros_like(st.means) for st in phone_states]
                     for phone_states in model.states]
        self.sqr = [[np.zeros_like(st.variances) for st in phone_states]
                    for phone_states in model.states]
        self.trans = [np.zeros_like(t.trans) for t in model.topologies]


def _accumulate_utterance(model, graph, frames, comp, sizes, acc):
    """One utterance's E-step contribution; returns its log likelihood."""
    starts = np.cumsum(sizes) - sizes
    emis = _state_logsumexp(comp, sizes)[:, graph.unique_cols]

    alpha, loglik = forward_log(graph, emis)
    if not np.isfinite(loglik):
        raise AlignmentInfeasibleError(
            f"utterance of {frames.shape[0]} frames cannot realize a "
            f"{graph.n_states}-state chain")
    beta = backward_log(graph, emis)

    with np.errstate(over="ignore"):
        gamma = np.exp(alpha + beta - loglik)  # (T, S) state posteriors

    # occupancy and moment statistics, tied over repeated phones
    x = frames
    xx = frames ** 2
    for j in range(graph.n_states):
        pid = int(graph.phone_ids[j])
        s = int(graph.local_state[j])
        u = int(graph.unique_cols[j])
        block = slice(starts[u], starts[u] + sizes[u])
        # responsibility of each component within this chain state
        with np.errstate(invalid="ignore"):
            resp = gamma[:, j, None] * np.exp(comp[:, block] - emis[:, j, None])
        resp = np.nan_to_num(resp, nan=0.0, posinf=0.0, neginf=0.0)
        acc.occ[pid][s] += resp.sum(axis=0)
        acc.mean[pid][s] += resp.T @ x
        acc.sqr[pid][s] += resp.T @ xx

    # transition statistics per offset band
    n_frames = frames.shape[0]
    for off, a_vec, col_vec in ((0, graph.a0, graph.col0),
                                (1, graph.a1, graph.col1),
                                (2, graph.a2, graph.col2)):
        live = np.where(np.isfinite(a_vec))[0]
        if live.size == 0 or n_frames < 2:
            continue
        tgt = live + off
        nxt = beta[1:, tgt] + emis[1:, tgt]
        with np.errstate(over="ignore"):
            xi = np.exp(alpha[:-1, live] + a_vec[live] + nxt - loglik)
        totals = xi.sum(axis=0)
        for k, j in enumerate(live):
            acc.trans[graph.phone_ids[j]][graph.local_state[j], col_vec[j]] += totals[k]
    live = np.where(np.isfinite(graph.exit_logp))[0]
    with np.errstate(over="ignore"):
        fin = np.exp(alpha[-1, live] + graph.exit_logp[live] - loglik)
    for k, j in enumerate(live):
        acc.trans[graph.phone_ids[j]][graph.local_state[j], graph.exit_col[j]] += fin[k]
    return loglik


def em_iteration(model, data):
    """One full E+M pass; returns the corpus log likelihood under the
    parameters in force when the pass started.

    Utterances too short for their chain (a structural property, constant
    across iterations) are skipped with a warning, so the returned total
    stays comparable between iterations.
    """
    acc = _Accumulators(model)
    total = 0.0
    skipped = 0
    graphs_frames = []
    for frames, chain in data:
        graphs_frames.append((compose_chain(model, chain), np.asarray(frames, dtype=float)))
    for graph, frames in graphs_frames:
        comp, sizes = component_log_likelihoods(model, frames)
        try:
            total += _accumulate_utterance(model, graph, frames, comp, sizes, acc)
        except AlignmentInfeasibleError:
            skipped += 1
    if skipped:
        log.warning("skipped %d of %d utterance(s) too short for the topology",
                    skipped, len(data))
    if skipped == len(data):
        raise InsufficientDataError("every utterance is too short for the topology")
    _apply_mstep(model, acc)
    return total


def _apply_mstep(model, acc):
    for pid, phone_states in enumerate(model.states):
        for s, st in enumerate(phone_states):
            occ = acc.occ[pid][s]
            total = occ.sum()
            if total <= _OCC_EPS:
                log.warning("phone %r state %d has no occupancy; keeping parameters",
                            model.phones[pid], s)
                continue
            keep = occ > _OCC_EPS
            if not keep.all():
                log.warning("phone %r state %d: dropping %d starved component(s)",
                            model.phones[pid], s, int((~keep).sum()))
            occ_k = occ[keep]
            means = acc.mean[pid][s][keep] / occ_k[:, None]
            varia = acc.sqr[pid][s][keep] / occ_k[:, None] - means ** 2
            varia = np.maximum(varia, model.var_floor)
            st.weights = occ_k / occ_k.sum()
            st.means = means
            st.variances = varia
    for pid, topo in enumerate(model.topologies):
        counts = acc.trans[pid]
        struct = topo.trans > 0.0
        new = np.where(struct, counts, 0.0)
        sums = new.sum(axis=1, keepdims=True)
        rows = sums[:, 0] > _OCC_EPS
        topo.trans = np.where(rows[:, None], np.divide(new, np.maximum(sums, 1e-300)),
                              topo.trans)


def grow_mixtures(model, target_m):
    """Split the heaviest component of every state until it has target_m."""
    for phone_states in model.states:
        for st in phone_states:
            while st.weights.shape[0] < target_m:
                i = int(np.argmax(st.weights))
                sigma = np.sqrt(st.variances[i])
                half = st.weights[i] / 2.0
                up = st.means[i] + 0.1 * sigma
                down = st.means[i] - 0.1 * sigma
                st.weights = np.concatenate([st.weights[:i], [half, half],
                                             st.weights[i + 1:]])
                st.means = np.vstack([st.means[:i], up[None], down[None], st.means[i + 1:]])
                st.variances = np.vstack([st.variances[:i], st.variances[i][None],
                                          st.variances[i][None], st.variances[i + 1:]])


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
    unique = state_log_likelihoods(model, frames)
    emis = unique[:, graph.unique_cols]
    n_frames, s_count = emis.shape

    delta = np.full((n_frames, s_count), LOG_ZERO)
    back = np.zeros((n_frames, s_count), dtype=int)
    delta[0, 0] = emis[0, 0]
    for t in range(1, n_frames):
        prev = delta[t - 1]
        # candidate order: predecessor j-2, j-1, j, so argmax resolves ties
        # toward the lowest predecessor index
        cand = np.stack([
            _shift_down(prev + graph.a2, 2),
            _shift_down(prev + graph.a1, 1),
            prev + graph.a0,
        ])
        choice = np.argmax(cand, axis=0)
        delta[t] = cand[choice, np.arange(s_count)] + emis[t]
        back[t] = np.arange(s_count) - (2 - choice)
    final = delta[-1] + graph.exit_logp
    best_end = int(np.argmax(final))
    score = float(final[best_end])
    if not np.isfinite(score):
        raise AlignmentInfeasibleError(
            f"no legal path: {n_frames} frames cannot cover a "
            f"{s_count}-state chain")
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
        for topo, phone_states in zip(model.topologies, model.states):
            binio.write_u8(fh, _KIND_CODES[topo.kind])
            binio.write_u32(fh, topo.n_states)
            binio.write_array(fh, topo.trans, "<f8")
            binio.write_array(fh, topo.initial, "<f8")
            for st in phone_states:
                binio.write_u32(fh, st.weights.shape[0])
                binio.write_array(fh, st.weights, "<f8")
                binio.write_array(fh, st.means, "<f8")
                binio.write_array(fh, st.variances, "<f8")


def load_model(path):
    with open(path, "rb") as fh:
        binio.check_magic(fh, OPTICAL_MAGIC, path)
        dim = binio.read_u32(fh, path)
        n_phones = binio.read_u32(fh, path)
        phones = [binio.read_str8(fh, path) for _ in range(n_phones)]
        use_sil = binio.read_u8(fh, path) == 1
        var_floor = binio.read_array(fh, "<f8", (dim,), path)
        topologies = []
        states = []
        for _ in range(n_phones):
            code = binio.read_u8(fh, path)
            if code not in _KIND_NAMES:
                raise FormatError(f"{path}: unknown topology code {code}")
            n_states = binio.read_u32(fh, path)
            trans = binio.read_array(fh, "<f8", (n_states, n_states + 1), path)
            initial = binio.read_array(fh, "<f8", (n_states,), path)
            topologies.append(HmmTopology(_KIND_NAMES[code], n_states, trans, initial))
            phone_states = []
            for _ in range(n_states):
                m = binio.read_u32(fh, path)
                weights = binio.read_array(fh, "<f8", (m,), path)
                means = binio.read_array(fh, "<f8", (m, dim), path)
                variances = binio.read_array(fh, "<f8", (m, dim), path)
                phone_states.append(GmmState(weights, means, variances))
            states.append(phone_states)
    return OpticalModel(phones=phones, dim=dim, topologies=topologies,
                        states=states, var_floor=var_floor, use_sil=use_sil)
