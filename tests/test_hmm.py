import hashlib
import itertools
import logging
import math

import numpy as np
import pytest
from scipy.special import logsumexp as sp_logsumexp
from scipy.stats import norm

from vsrlab.errors import AlignmentInfeasibleError, FormatError, InsufficientDataError, OovError
from vsrlab import hmm
from vsrlab.lingware import Lexicon


def _state_log_likelihoods(model, frames):
    """GMM log densities of every unique state (T, unique states), from the
    routines that EM, the decoder and forced alignment share."""
    stacked = hmm._stack_components(model)
    return hmm._state_logsumexp(hmm.component_log_likelihoods(stacked, frames), model.n_mix)


def _chain_log_likelihood(model, frames, chain):
    """Forward-pass log likelihood of frames under a phone chain."""
    graph = hmm.compose_chain(model, chain)
    unique = _state_log_likelihoods(model, frames)
    return hmm.forward_log(hmm.pad_batch(model.arc_table(), [graph], [unique]))[1][0]


def _build(phones, rows, blocks, var_floor, use_sil=False):
    """Model from per-phone (n, n + 1) transition rows and per-state
    (weights, means, variances) blocks in model order."""
    blocks = [[np.array(a, dtype=float) for a in block] for block in blocks]
    n_mix, weights, means, variances = hmm._mixture_table(blocks)
    return hmm.OpticalModel(phones=phones, dim=means.shape[1],
                            phone_n_states=np.array([len(r) for r in rows]),
                            trans=np.concatenate([np.ravel(r) for r in rows]),
                            n_mix=n_mix, weights=weights, means=means,
                            variances=variances, var_floor=np.asarray(var_floor, dtype=float),
                            use_sil=use_sil)


def _make_model(kind, phone_params, dim, use_sil=False):
    """Model with explicit per-phone state parameters.

    kind: one topology kind for every phone, or {name: kind}
    phone_params: {name: [(weights, means, variances), ...] per state}
    """
    phones = sorted(phone_params)
    kinds = kind if isinstance(kind, dict) else dict.fromkeys(phones, kind)
    rows = [hmm._TOPOLOGY_ROWS[kinds[name]] for name in phones]
    for name, r in zip(phones, rows):
        assert len(phone_params[name]) == r.shape[0]
    return _build(phones, rows, [spec for name in phones for spec in phone_params[name]],
                  np.full(dim, 1e-10), use_sil)


def _phone_rows(model, pid):
    """Phone ``pid``'s (n, n + 1) transition rows, a view into the transition
    table found by counting the entries of the phones before it."""
    start = int(sum(n * (n + 1) for n in model.phone_n_states[:pid]))
    n = int(model.phone_n_states[pid])
    return model.trans[start:start + n * (n + 1)].reshape(n, n + 1)


def _state_params(model, pid, s):
    """(weights, means, variances) of one state's block of the mixture table,
    found by counting the components of the states before it."""
    k = int(model.phone_n_states[:pid].sum()) + s
    start = int(model.n_mix[:k].sum())
    block = slice(start, start + int(model.n_mix[k]))
    return model.weights[block], model.means[block], model.variances[block]


def _dense_compose(model, chain):
    """Reference composition: full S x S matrix built with plain loops."""
    pids = [model.phones.index(p) for p in chain]
    sizes = [int(model.phone_n_states[p]) for p in pids]
    bases = [0]
    for n in sizes[:-1]:
        bases.append(bases[-1] + n)
    s_count = sum(sizes)
    trans = np.zeros((s_count, s_count))
    exit_p = np.zeros(s_count)
    for pos, pid in enumerate(pids):
        rows = _phone_rows(model, pid)
        n = rows.shape[0]
        for s in range(n):
            for c in range(n):
                trans[bases[pos] + s, bases[pos] + c] = rows[s, c]
            p_final = rows[s, n]
            if pos + 1 < len(pids):
                trans[bases[pos] + s, bases[pos + 1]] += p_final
            else:
                exit_p[bases[pos] + s] = p_final
    return trans, exit_p


def _enum_total_loglik(trans, exit_p, emis):
    """Sum over every legal state path, in the linear domain."""
    n_frames, s_count = emis.shape
    lik = np.exp(emis)
    total = 0.0
    for path in itertools.product(range(s_count), repeat=n_frames):
        if path[0] != 0:
            continue
        p = lik[0, path[0]]
        for t in range(1, n_frames):
            p *= trans[path[t - 1], path[t]] * lik[t, path[t]]
        p *= exit_p[path[-1]]
        total += p
    return math.log(total) if total > 0.0 else -math.inf


def _enum_best_path(trans, exit_p, emis):
    """Max-probability path score by exhaustive enumeration."""
    n_frames, s_count = emis.shape
    best = -math.inf
    for path in itertools.product(range(s_count), repeat=n_frames):
        if path[0] != 0:
            continue
        if exit_p[path[-1]] == 0.0:
            continue
        p = emis[0, path[0]]
        ok = True
        for t in range(1, n_frames):
            step = trans[path[t - 1], path[t]]
            if step == 0.0:
                ok = False
                break
            p += math.log(step) + emis[t, path[t]]
        if not ok:
            continue
        p += math.log(exit_p[path[-1]])
        best = max(best, p)
    return best


def _enum_em_update(model, params, chain, frames_list):
    """One Baum-Welch update by exhaustive path enumeration.

    Returns the corpus log likelihood and the re-estimated parameters:
    {(phone, state): (weights, means, variances)} and {phone: transitions}.
    Chain states that share a phone state pool their statistics.
    """
    trans, exit_p = _dense_compose(model, chain)
    owner = []   # (phone name, local state, chain position) per chain state
    for pos, name in enumerate(chain):
        n = int(model.phone_n_states[model.phones.index(name)])
        owner.extend((name, s, pos) for s in range(n))
    s_count = len(owner)
    stats = {}
    counts = {name: np.zeros_like(_phone_rows(model, model.phones.index(name)))
              for name in chain}
    total_ll = 0.0
    for x in frames_list:
        n_frames = x.shape[0]
        # per chain state, (T, M) with that state's own component count M
        comp = [np.array([[math.log(w[m]) + norm.logpdf(x[t], mu[m], np.sqrt(var[m])).sum()
                           for m in range(len(w))] for t in range(n_frames)])
                for w, mu, var in (params[name][s] for name, s, _ in owner)]
        emis = np.column_stack([sp_logsumexp(c, axis=1) for c in comp])
        lik = np.exp(emis)
        paths = []
        for path in itertools.product(range(s_count), repeat=n_frames):
            if path[0] != 0:
                continue
            p = lik[0, 0] * exit_p[path[-1]]
            for t in range(1, n_frames):
                p *= trans[path[t - 1], path[t]] * lik[t, path[t]]
            if p > 0.0:
                paths.append((path, p))
        z = sum(p for _, p in paths)
        total_ll += math.log(z)
        gamma = np.zeros((n_frames, s_count))
        for path, p in paths:
            for t, j in enumerate(path):
                gamma[t, j] += p / z
            for t in range(1, n_frames + 1):
                name, s, pos = owner[path[t - 1]]
                n = int(model.phone_n_states[model.phones.index(name)])
                if t == n_frames:
                    col = n                          # leaves the utterance
                elif owner[path[t]][2] == pos:
                    col = owner[path[t]][1]          # stays within the phone
                else:
                    col = n                          # enters the next phone
                counts[name][s, col] += p / z
        for j, (name, s, _) in enumerate(owner):
            resp = gamma[:, j, None] * np.exp(comp[j] - emis[:, j, None])
            occ, mean, sqr = stats.get((name, s), (0.0, 0.0, 0.0))
            stats[(name, s)] = (occ + resp.sum(axis=0), mean + resp.T @ x,
                                sqr + resp.T @ x ** 2)
    states = {}
    for key, (occ, mean, sqr) in stats.items():
        means = mean / occ[:, None]
        states[key] = (occ / occ.sum(), means, sqr / occ[:, None] - means ** 2)
    transitions = {name: c / c.sum(axis=1, keepdims=True) for name, c in counts.items()}
    return total_ll, states, transitions


def _dummy_params(n_states, dim):
    return [(np.ones(1), np.zeros((1, dim)), np.ones((1, dim))) for _ in range(n_states)]


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


def _loop_log_likelihoods(batch, alpha):
    """Each utterance's total log likelihood from its own exit scores, one
    utterance at a time: the oracle for ``forward_log``'s batched sum."""
    band = batch.band
    return np.array([_logsumexp(alpha[n - 1, b, :s] + band[3, b, 2:2 + s])
                     for b, (n, s) in enumerate(zip(batch.n_frames, batch.n_states))])


def _oracle_forced_align(model, frames, chain):
    """Viterbi alignment as ``hmm.forced_align`` computed it with a sliding
    window over each padded delta row, kept as the reference for its tie
    rule."""
    graph = hmm.compose_chain(model, chain)
    frames = np.asarray(frames, dtype=float)
    n_frames, s_count = frames.shape[0], graph.n_states
    infeasible = f"no legal path: {n_frames} frames cannot cover a {s_count}-state chain"
    if n_frames == 0:
        raise AlignmentInfeasibleError(infeasible)
    batch = next(hmm.padded_batches(model, [frames], [graph]))[3]
    band, emis = batch.band[:, 0], batch.emis[:, 0]

    # delta rows sit behind two log-zero columns, so the predecessors j-2,
    # j-1 and j of every state are the three windows of the previous row;
    # in that order, argmax resolves ties toward the lowest predecessor
    delta = np.full((n_frames, s_count + 2), hmm.LOG_ZERO)
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
    return hmm.Alignment(chain=list(chain), state_seq=states, chain_pos_seq=pos_seq,
                         phone_seq=phone_seq, score=score)


class TestTopology:
    def _flat(self, kind):
        frames = np.random.default_rng(17).normal(size=(5, 1))
        return hmm.flat_start([frames], ["a", "b"], topology_kind=kind, use_sil=False)

    def test_classic3_structure(self):
        model = self._flat("classic3")
        assert list(model.phone_n_states) == [3, 3]
        expected = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        assert np.array_equal(model.trans, np.tile(expected.ravel(), 2))

    def test_skip2_structure(self):
        model = self._flat("skip2")
        assert list(model.phone_n_states) == [2, 2]
        third = 1.0 / 3.0
        expected = np.array([
            [third, third, third],
            [0.0, 0.5, 0.5],
        ])
        assert np.array_equal(model.trans, np.tile(expected.ravel(), 2))
        # five arcs per phone, including the first-state exit
        assert np.count_nonzero(model.trans) == 10

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology kind 'ergodic'"):
            self._flat("ergodic")

    @pytest.mark.parametrize("trans", [
        [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]],             # backward arc 1 -> 0
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
         [0.25, 0.0, 0.5, 0.25]],                         # backward arc 2 -> 0
        [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0],
         [0.0, 0.0, 0.5, 0.5]],                           # exit three states ahead
    ])
    def test_arcs_outside_the_band_rejected(self, tmp_path, trans):
        n = len(trans)
        model = _build(["a", "b"], [hmm._TOPOLOGY_ROWS["skip2"], trans],
                       _dummy_params(2 + n, 1), np.full(1, 1e-10))
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        with pytest.raises(FormatError, match=f"{path}: phone 'b': .*band of 2"):
            hmm.load_model(path)


class TestCompose:
    def test_skip2_chain_band(self):
        model = _make_model("skip2", {"a": _dummy_params(2, 1),
                                      "b": _dummy_params(2, 1)}, dim=1)
        graph = hmm.compose_chain(model, ["a", "b"])
        a0, a1, a2, exit_logp = model.arc_table()[graph.arcs]
        l3 = math.log(1.0 / 3.0)
        l2 = math.log(0.5)
        assert graph.n_states == 4
        np.testing.assert_allclose(a0, [l3, l2, l3, l2])
        # state 1 exits into phone b's entry one position ahead
        np.testing.assert_allclose(a1, [l3, l2, l3, -np.inf])
        # state 0 skips straight into phone b's entry two positions ahead
        np.testing.assert_allclose(a2, [l3, -np.inf, -np.inf, -np.inf])
        np.testing.assert_allclose(exit_logp, [-np.inf, -np.inf, l3, l2])
        assert list(graph.chain_pos) == [0, 0, 1, 1]

    def test_band_matches_dense_composition(self):
        # phones of both topologies in one model and one chain, with repeats
        rng = np.random.default_rng(16)
        model = _make_model({"a": "skip2", "c": "classic3"},
                            {"a": _dummy_params(2, 1), "c": _dummy_params(3, 1)}, dim=1)
        for pid in range(2):
            rows = _phone_rows(model, pid)
            p = rng.uniform(0.1, 1.0, size=rows.shape) * (rows > 0.0)
            rows[...] = p / p.sum(axis=1, keepdims=True)
        for chain in (["a"], ["c"], ["a", "c"], ["c", "a", "a", "c"], ["c", "c", "a"]):
            graph = hmm.compose_chain(model, chain)
            band = model.arc_table()[graph.arcs]
            trans, exit_p = _dense_compose(model, chain)
            s_count = trans.shape[0]
            with np.errstate(divide="ignore"):
                for k in range(3):
                    want = np.full(s_count, -np.inf)
                    want[:s_count - k] = np.log(np.diagonal(trans, k))
                    np.testing.assert_allclose(band[k], want, rtol=1e-15)
                np.testing.assert_allclose(band[3], np.log(exit_p), rtol=1e-15)
            # arcs beyond the band are absent
            assert np.all(np.triu(trans, 3) == 0.0) and np.all(np.tril(trans, -1) == 0.0)
            offsets = [0, 2]
            want_cols = [offsets[model.phones.index(name)] + s for name in chain
                         for s in range(model.phone_n_states[model.phones.index(name)])]
            assert list(graph.unique_cols) == want_cols

    def test_equal_structure_shares_one_read_only_graph(self):
        frames = np.random.default_rng(17).normal(size=(8, 2))
        model = hmm.flat_start([frames], ["a", "b"], topology_kind="skip2", use_sil=False)
        graph = hmm.compose_chain(model, ["a", "b", "a"])
        # other parameter values, same phones and state counts
        other_values = hmm.flat_start([frames * 3.0], ["b", "a"], topology_kind="skip2",
                                      use_sil=False)
        other_values.trans[:] = 0.5
        assert hmm.compose_chain(other_values, ("a", "b", "a")) is graph
        for array in (graph.chain_pos, graph.unique_cols, graph.arcs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # the same phone names with other state counts
        classic = hmm.flat_start([frames], ["a", "b"], topology_kind="classic3",
                                 use_sil=False)
        assert classic.phones == model.phones
        other = hmm.compose_chain(classic, ["a", "b", "a"])
        assert other is not graph
        assert (graph.n_states, other.n_states) == (6, 9)

    def test_unknown_phone(self):
        model = _make_model("skip2", {"a": _dummy_params(2, 1)}, dim=1)
        with pytest.raises(OovError):
            hmm.compose_chain(model, ["a", "zz"])


class TestEmissions:
    def test_gmm_density_matches_scipy(self):
        rng = np.random.default_rng(5)
        dim = 4
        params = {}
        for name in ("a", "b"):
            specs = []
            for _ in range(2):
                w = rng.dirichlet(np.ones(3))
                mu = rng.normal(size=(3, dim))
                var = rng.uniform(0.2, 2.0, size=(3, dim))
                specs.append((w, mu, var))
            params[name] = specs
        model = _make_model("skip2", params, dim=dim)
        frames = rng.normal(size=(6, dim))
        got = _state_log_likelihoods(model, frames)
        assert got.shape == (6, 4)
        for pid, name in enumerate(model.phones):
            for s, (w, mu, var) in enumerate(params[name]):
                col = int(model.phone_n_states[:pid].sum()) + s
                for t in range(6):
                    comp = [math.log(w[m]) + norm.logpdf(frames[t], mu[m],
                                                         np.sqrt(var[m])).sum()
                            for m in range(3)]
                    assert got[t, col] == pytest.approx(sp_logsumexp(comp), abs=1e-9)

    def test_single_gaussian_closed_form(self):
        model = _make_model("skip2", {"a": [
            (np.ones(1), [[1.0]], [[4.0]]),
            (np.ones(1), [[0.0]], [[1.0]]),
        ]}, dim=1)
        got = _state_log_likelihoods(model, np.array([[3.0]]))
        want0 = -0.5 * (math.log(2 * math.pi * 4.0) + (3.0 - 1.0) ** 2 / 4.0)
        want1 = -0.5 * (math.log(2 * math.pi) + 9.0)
        assert got[0, 0] == pytest.approx(want0, abs=1e-12)
        assert got[0, 1] == pytest.approx(want1, abs=1e-12)


class TestForward:
    def test_forward_matches_enumeration_skip2(self):
        rng = np.random.default_rng(11)
        model = _make_model("skip2", {"a": _dummy_params(2, 1),
                                      "b": _dummy_params(2, 1)}, dim=1)
        graph = hmm.compose_chain(model, ["a", "b"])
        trans, exit_p = _dense_compose(model, ["a", "b"])
        for n_frames in (1, 2, 4, 6):
            emis = rng.uniform(-2.0, 0.0, size=(n_frames, 4))
            got = hmm.forward_log(hmm.pad_batch(model.arc_table(), [graph], [emis]))[1][0]
            want = _enum_total_loglik(trans, exit_p, emis)
            assert got == pytest.approx(want, abs=1e-10)

    def test_forward_matches_enumeration_classic3(self):
        rng = np.random.default_rng(12)
        model = _make_model("classic3", {"a": _dummy_params(3, 1)}, dim=1)
        graph = hmm.compose_chain(model, ["a"])
        trans, exit_p = _dense_compose(model, ["a"])
        for n_frames in (3, 5):
            emis = rng.uniform(-2.0, 0.0, size=(n_frames, 3))
            got = hmm.forward_log(hmm.pad_batch(model.arc_table(), [graph], [emis]))[1][0]
            want = _enum_total_loglik(trans, exit_p, emis)
            assert got == pytest.approx(want, abs=1e-10)

    def test_end_to_end_likelihood_matches_oracle(self):
        rng = np.random.default_rng(13)
        dim = 2
        params = {}
        for name in ("a", "b"):
            specs = []
            for _ in range(2):
                w = rng.dirichlet(np.ones(2))
                mu = rng.normal(size=(2, dim))
                var = rng.uniform(0.5, 1.5, size=(2, dim))
                specs.append((w, mu, var))
            params[name] = specs
        model = _make_model("skip2", params, dim=dim)
        frames = rng.normal(size=(4, dim))
        got = _chain_log_likelihood(model, frames, ["a", "b"])

        trans, exit_p = _dense_compose(model, ["a", "b"])
        emis = np.empty((4, 4))
        cols = [(pid, s) for pid in range(2) for s in range(2)]
        for t in range(4):
            for j, (pid, s) in enumerate(cols):
                w, mu, var = params[model.phones[pid]][s]
                comp = [math.log(w[m]) + norm.logpdf(frames[t], mu[m],
                                                     np.sqrt(var[m])).sum()
                        for m in range(2)]
                emis[t, j] = sp_logsumexp(comp)
        want = _enum_total_loglik(trans, exit_p, emis)
        assert got == pytest.approx(want, abs=1e-9)

    def test_minimum_durations(self):
        model = _make_model("classic3", {"a": _dummy_params(3, 1)}, dim=1)
        # three emitting states cannot fit in two frames
        assert _chain_log_likelihood(model, np.zeros((2, 1)), ["a"]) == -np.inf
        skip = _make_model("skip2", {"a": _dummy_params(2, 1)}, dim=1)
        # one frame suffices: enter state 0, take the direct exit arc
        emis0 = _state_log_likelihoods(skip, np.zeros((1, 1)))[0, 0]
        got = _chain_log_likelihood(skip, np.zeros((1, 1)), ["a"])
        assert got == pytest.approx(emis0 + math.log(1.0 / 3.0), abs=1e-12)


class TestBatch:
    @pytest.mark.parametrize("kind", ["skip2", "classic3"])
    def test_batch_equals_batch_of_one(self, kind):
        rng = np.random.default_rng(14)
        n = hmm._TOPOLOGY_ROWS[kind].shape[0]
        model = _make_model(kind, {p: _dummy_params(n, 1) for p in "abc"}, dim=1)
        # chains of 1-3 phones and frame counts that differ; the last
        # utterance is too short for its chain under either topology
        utterances = [(["a", "b", "c"], 11), (["b"], 4), (["c", "a"], 8),
                      (["a", "b", "c"], 2)]
        graphs = [hmm.compose_chain(model, chain) for chain, _ in utterances]
        uniques = [rng.uniform(-3.0, 0.0, size=(t, 3 * n)) for _, t in utterances]
        table = model.arc_table()
        batch = hmm.pad_batch(table, graphs, uniques)
        alpha, loglik = hmm.forward_log(batch)
        beta = hmm.backward_log(batch)
        assert loglik[-1] == -np.inf
        assert np.isfinite(loglik[:-1]).all()
        for b, (graph, u) in enumerate(zip(graphs, uniques)):
            t_count, s_count = u.shape[0], graph.n_states
            assert np.array_equal(batch.emis[:t_count, b, :s_count], u[:, graph.unique_cols])
            # the band is the table read at the graph's arcs, log-zero around them
            assert np.array_equal(batch.band[:, b, 2:2 + s_count], table[graph.arcs])
            assert np.all(batch.band[:, b, :2] == -np.inf)
            assert np.all(batch.band[:, b, 2 + s_count:] == -np.inf)
            one = hmm.pad_batch(table, [graph], [u])
            one_alpha, one_loglik = hmm.forward_log(one)
            one_beta = hmm.backward_log(one)
            assert one_alpha.shape == one_beta.shape == (t_count, 1, s_count)
            assert np.array_equal(alpha[:t_count, b, :s_count], one_alpha[:, 0])
            assert np.array_equal(beta[:t_count, b, :s_count], one_beta[:, 0])
            assert np.array_equal(loglik[b], one_loglik[0])
            # padding stays log-zero
            assert np.all(alpha[t_count:, b] == -np.inf)
            assert np.all(alpha[:, b, s_count:] == -np.inf)
            assert np.all(beta[t_count:, b] == -np.inf)
            assert np.all(beta[:, b, s_count:] == -np.inf)

    def test_log_likelihoods_equal_the_per_utterance_loop(self):
        # random transition rows with log-zero arcs, mixed topologies, ragged
        # chains and lengths (some too short for their chain), and emissions
        # spread over thousands of nats
        rng = np.random.default_rng(15)
        utterances = 0
        for _ in range(200):
            kinds = rng.choice(sorted(hmm._TOPOLOGY_ROWS), size=4)
            rows = []
            for kind in kinds:
                allowed = hmm._TOPOLOGY_ROWS[kind] > 0.0
                keep = allowed & (rng.random(allowed.shape) < 0.7)
                keep[np.arange(keep.shape[0]), allowed.argmax(axis=1)] = True
                r = np.where(keep, rng.random(allowed.shape) + 0.01, 0.0)
                rows.append(r / r.sum(axis=1, keepdims=True))
            model = _build(list("abcd"), rows,
                           [_dummy_params(1, 1)[0]] * sum(len(r) for r in rows), [1e-3])
            n_utts = int(rng.integers(1, 8))
            graphs = [hmm.compose_chain(model, list(rng.choice(list("abcd"),
                                                               size=rng.integers(1, 5))))
                      for _ in range(n_utts)]
            uniques = [rng.normal(0.0, 1000.0, size=(rng.integers(1, 12), model.n_mix.shape[0]))
                       for _ in range(n_utts)]
            batch = hmm.pad_batch(model.arc_table(), graphs, uniques)
            alpha, loglik = hmm.forward_log(batch)
            assert np.array_equal(loglik, _loop_log_likelihoods(batch, alpha))
            utterances += n_utts
        assert utterances > 500


class TestAlignment:
    def test_score_matches_enumeration(self):
        rng = np.random.default_rng(21)
        model = _make_model("skip2", {"a": _dummy_params(2, 1),
                                      "b": _dummy_params(2, 1)}, dim=1)
        trans, exit_p = _dense_compose(model, ["a", "b"])
        for trial in range(5):
            frames = rng.normal(size=(5, 1))
            emis = _state_log_likelihoods(model, frames)
            graph = hmm.compose_chain(model, ["a", "b"])
            chain_emis = emis[:, graph.unique_cols]
            align = hmm.forced_align(model, frames, ["a", "b"])
            want = _enum_best_path(trans, exit_p, chain_emis)
            assert align.score == pytest.approx(want, abs=1e-10)
            # the reported path must itself realize the reported score
            p = chain_emis[0, align.state_seq[0]]
            for t in range(1, 5):
                p += math.log(trans[align.state_seq[t - 1], align.state_seq[t]])
                p += chain_emis[t, align.state_seq[t]]
            p += math.log(exit_p[align.state_seq[-1]])
            assert p == pytest.approx(align.score, abs=1e-10)

    def test_tie_break_prefers_low_states(self):
        # identical states and uniform arcs make every legal path equiprobable;
        # the tie rule must then dwell in the earliest states
        model = _make_model("classic3", {"a": _dummy_params(3, 1)}, dim=1)
        align = hmm.forced_align(model, np.zeros((5, 1)), ["a"])
        assert list(align.state_seq) == [0, 0, 0, 1, 2]
        assert align.phone_seq == ["a"] * 5

    @pytest.mark.parametrize("kind", ["skip2", "classic3", "mixed"])
    def test_ties_match_the_sliding_window_oracle(self, kind):
        # uniform transition rows and emissions on two levels make many
        # paths score exactly alike, so the tie rule decides most frames
        rng = np.random.default_rng({"skip2": 31, "classic3": 32, "mixed": 33}[kind])
        phones = list("abcd")
        kinds = ({p: k for p, k in zip(phones, ["skip2", "classic3"] * 2)}
                 if kind == "mixed" else dict.fromkeys(phones, kind))
        model = _make_model(kinds, {
            p: [(np.ones(1), rng.choice([0.0, 2.0], size=(1, 1)), np.ones((1, 1)))
                for _ in range(hmm._TOPOLOGY_ROWS[kinds[p]].shape[0])]
            for p in phones}, dim=1)
        aligned = 0
        for _ in range(60):
            chain = list(rng.choice(phones, size=rng.integers(1, 5)))
            frames = rng.choice([0.0, 2.0], size=(int(rng.integers(1, 25)), 1))
            try:
                want = _oracle_forced_align(model, frames, chain)
            except AlignmentInfeasibleError:
                with pytest.raises(AlignmentInfeasibleError):
                    hmm.forced_align(model, frames, chain)
                continue
            got = hmm.forced_align(model, frames, chain)
            assert np.array_equal(got.state_seq, want.state_seq)
            assert np.array_equal(got.chain_pos_seq, want.chain_pos_seq)
            assert got.phone_seq == want.phone_seq
            assert got.score == want.score
            aligned += 1
        assert aligned >= 30

    def test_boundary_recovery(self):
        model = _make_model("classic3", {
            "a": [(np.ones(1), [[0.0]], [[1.0]])] * 3,
            "b": [(np.ones(1), [[5.0]], [[1.0]])] * 3,
        }, dim=1)
        frames = np.concatenate([np.zeros((6, 1)), np.full((6, 1), 5.0)])
        align = hmm.forced_align(model, frames, ["a", "b"])
        assert align.phone_seq == ["a"] * 6 + ["b"] * 6
        spans = hmm.phone_spans(align)
        assert spans == [("a", 0, 6), ("b", 6, 12)]

    def test_infeasible_raises(self):
        model = _make_model("classic3", {"a": _dummy_params(3, 1)}, dim=1)
        for n_frames in (2, 0):
            with pytest.raises(AlignmentInfeasibleError):
                hmm.forced_align(model, np.zeros((n_frames, 1)), ["a"])


class TestEm:
    def test_single_state_fixed_point(self):
        # one emitting state makes the E-step posterior degenerate, so one
        # iteration must land exactly on the sample statistics
        rng = np.random.default_rng(31)
        frames = rng.normal(loc=3.0, scale=2.0, size=(40, 2))
        model = _build(["q"], [[[0.5, 0.5]]], [(np.ones(1), frames.mean(axis=0)[None] * 0.0,
                                                np.ones((1, 2)))], np.full(2, 1e-10))
        hmm.em_iteration(model, [(frames, ["q"])])
        np.testing.assert_allclose(model.means[0], frames.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.variances[0], frames.var(axis=0), atol=1e-10)
        # 39 self loops and one exit, deterministically
        np.testing.assert_allclose(model.trans, [39 / 40, 1 / 40], atol=1e-12)

    def test_tied_states_match_enumeration(self):
        # with skip2, phone a occurs twice in the chain, so its two chain
        # copies share one set of two-component statistics; classic3 puts
        # counts on every transition column of the arc-column rule; mixing
        # both checks each phone's offset into the flat arc table; unequal
        # component counts check each state's block offset into the mixture
        # table
        for kinds, chain, lengths, n_mix in [
                ({"a": "skip2", "b": "skip2"}, ["a", "b", "a"], (6, 4, 3), {}),
                ({"a": "classic3", "b": "classic3"}, ["a", "b"], (7, 6, 8), {}),
                ({"a": "skip2", "c": "classic3"}, ["a", "c", "a"], (6, 5, 6), {}),
                ({"a": "skip2", "c": "classic3"}, ["a", "c", "a"], (6, 5, 6),
                 {"a": [1, 3], "c": [2, 1, 2]})]:
            rng = np.random.default_rng(39)
            dim = 2
            params = {name: [(rng.dirichlet(np.ones(m) * 4.0), rng.normal(size=(m, dim)),
                              rng.uniform(0.5, 1.5, size=(m, dim)))
                             for m in n_mix.get(name, [2] * len(hmm._TOPOLOGY_ROWS[kind]))]
                      for name, kind in kinds.items()}
            frames_list = [rng.normal(size=(t, dim)) for t in lengths]
            want_ll, want_states, want_trans = _enum_em_update(
                _make_model(kinds, params, dim), params, chain, frames_list)

            model = _make_model(kinds, params, dim)
            got_ll = hmm.em_iteration(model, [(x, chain) for x in frames_list])
            assert got_ll == pytest.approx(want_ll, abs=1e-10)
            for (name, s), want in want_states.items():
                for got, w in zip(_state_params(model, model.phones.index(name), s), want):
                    np.testing.assert_allclose(got, w, rtol=0, atol=1e-10)
            for name, trans in want_trans.items():
                np.testing.assert_allclose(_phone_rows(model, model.phones.index(name)),
                                           trans, rtol=0, atol=1e-10)

    def test_em_monotonic(self):
        rng = np.random.default_rng(32)
        data = []
        for _ in range(6):
            n = int(rng.integers(6, 10))
            seg_a = rng.normal(0.0, 1.0, size=(n, 2))
            seg_b = rng.normal(4.0, 1.0, size=(n, 2))
            data.append((np.vstack([seg_a, seg_b]), ["a", "b"]))
        model = hmm.flat_start([f for f, _ in data], ["a", "b"],
                               topology_kind="skip2", use_sil=False)
        history = hmm.train_em(model, data, schedule=[(1, 12)])
        lls = [ll for _, ll in history]
        assert len(lls) == 12
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-6
        # the separated clusters should be found
        mean_a = np.mean([_state_params(model, 0, s)[1].mean(axis=0) for s in range(2)],
                         axis=0)
        mean_b = np.mean([_state_params(model, 1, s)[1].mean(axis=0) for s in range(2)],
                         axis=0)
        assert mean_a.mean() < 1.0
        assert mean_b.mean() > 3.0

    def test_monotonic_after_split(self):
        rng = np.random.default_rng(33)
        data = [(rng.normal(size=(12, 2)) + np.array([0.0, 3.0]) * (i % 2), ["a"])
                for i in range(4)]
        model = hmm.flat_start([f for f, _ in data], ["a"],
                               topology_kind="skip2", use_sil=False)
        history = hmm.train_em(model, data, schedule=[(1, 3), (2, 6)])
        assert [m for m, _ in history] == [1] * 3 + [2] * 6
        block2 = [ll for m, ll in history if m == 2]
        for prev, cur in zip(block2, block2[1:]):
            assert cur >= prev - 1e-6
        assert list(model.n_mix) == [2, 2]
        assert model.weights.shape == (4,) and model.means.shape == (4, 2)

    def test_variance_floor_engages(self):
        rng = np.random.default_rng(37)
        frames = np.column_stack([rng.normal(0.0, 1.0, size=200),
                                  rng.normal(0.0, 0.5, size=200)])
        model = _build(["q"], [[[0.5, 0.5]]],
                       [(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))], [0.5, 0.5])
        hmm.em_iteration(model, [(frames, ["q"])])
        # dim 1 has sample variance near 0.25, below the floor
        assert model.variances[0, 1] == 0.5
        assert model.variances[0, 0] > 0.5
        assert model.variances[0, 0] == pytest.approx(frames[:, 0].var(), abs=1e-10)

    def test_flat_start_floor_formula(self):
        rng = np.random.default_rng(38)
        frames = rng.normal(size=(50, 3)) * np.array([1.0, 0.1, 10.0])
        model = hmm.flat_start([frames], ["q"], use_sil=False)
        want = 1e-3 * np.maximum(frames.var(axis=0), 1e-12)
        assert np.array_equal(model.var_floor, want)

    def test_starved_component_dropped(self, caplog):
        rng = np.random.default_rng(34)
        frames = rng.normal(size=(30, 1))
        model = _build(["q"], [[[0.5, 0.5]]], [([0.5, 0.5], [[0.0], [1e6]], [[1.0], [1.0]])],
                       np.full(1, 1e-10))
        with caplog.at_level("WARNING", logger="vsrlab.hmm"):
            hmm.em_iteration(model, [(frames, ["q"])])
        assert list(model.n_mix) == [1]
        assert list(model.weights) == [1.0]
        assert model.means.shape == model.variances.shape == (1, 1)
        assert any("starved" in rec.message for rec in caplog.records)

    def test_state_with_every_component_starved_keeps_parameters(self, caplog, tmp_path):
        # the block holds more than the floor in total but no component
        # above it, so no component survives the drop: the state is treated
        # as unoccupied, and its neighbour's block stays where it was
        model = _make_model("skip2", {"a": [([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [2.0]]),
                                            ([1.0], [[3.0]], [[0.5]])]}, dim=1)
        before = [a.copy() for a in (model.n_mix, model.weights, model.means,
                                     model.variances)]
        occ = np.array([0.6e-8, 0.6e-8, 4.0])
        mean = occ[:, None] * np.array([[-1.0], [1.0], [2.0]])
        sqr = occ[:, None] * np.array([[2.0], [3.0], [5.0]])
        trans = np.ones(model.arc_table().shape[0] - 1)
        with caplog.at_level("WARNING", logger="vsrlab.hmm"):
            hmm._apply_mstep(model, occ, mean, sqr, trans)
        assert "phone 'a' state 0 has no occupancy; keeping parameters" \
            in [rec.message for rec in caplog.records]
        assert list(model.n_mix) == [2, 1]
        for got, want in zip((model.weights[:2], model.means[:2], model.variances[:2]),
                             before[1:]):
            assert np.array_equal(got, want[:2])
        np.testing.assert_allclose(model.means[2], [2.0], rtol=1e-12)
        np.testing.assert_allclose(model.variances[2], [1.0], rtol=1e-12)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        back = hmm.load_model(path)
        assert list(back.n_mix) == [2, 1]
        assert np.array_equal(back.weights, model.weights)

    def test_unseen_phone_kept(self, caplog):
        rng = np.random.default_rng(35)
        frames = rng.normal(size=(20, 2))
        model = hmm.flat_start([frames], ["a", "b"], topology_kind="skip2",
                               use_sil=False)
        pid = model.phones.index("b")
        before = [_state_params(model, pid, s)[1].copy() for s in range(2)]
        with caplog.at_level("WARNING", logger="vsrlab.hmm"):
            hmm.train_em(model, [(frames, ["a"])], schedule=[(1, 2)])
        for s, old in enumerate(before):
            assert np.array_equal(old, _state_params(model, pid, s)[1])
        assert any("no occupancy" in rec.message for rec in caplog.records)

    def test_training_deterministic(self):
        rng = np.random.default_rng(36)
        data = [(rng.normal(size=(10, 2)), ["a"]) for _ in range(3)]
        results = []
        for _ in range(2):
            model = hmm.flat_start([f for f, _ in data], ["a"],
                                   topology_kind="classic3", use_sil=False)
            history = hmm.train_em(model, data, schedule=[(1, 2), (2, 2)])
            results.append((history, model.means.copy()))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_infeasible_utterance_skipped(self, caplog):
        # classic3 needs 3 frames per phone; the 2-frame utterance must be
        # skipped without poisoning the statistics of the feasible one
        params = {"a": [([1.0], [[0.0]], [[1.0]]) for _ in range(3)]}
        rng = np.random.default_rng(0)
        long_frames = rng.normal(0.0, 1.0, (6, 1))
        short_frames = rng.normal(0.0, 1.0, (2, 1))
        chain = ["a"]

        solo = _make_model("classic3", params, dim=1)
        ll_solo = hmm.em_iteration(solo, [(long_frames, chain)])

        both = _make_model("classic3", params, dim=1)
        with caplog.at_level(logging.WARNING, logger="vsrlab.hmm"):
            ll_both = hmm.em_iteration(both, [(long_frames, chain),
                                              (short_frames, chain)])
        assert any("too short" in r.message for r in caplog.records)
        assert ll_both == ll_solo
        assert np.array_equal(both.means, solo.means)
        assert np.array_equal(both.variances, solo.variances)

    def test_batch_budget_only_reorders_sums(self, monkeypatch, caplog):
        # a budget too small for two utterances runs every utterance as its
        # own batch; the statistics are the same sums in another order
        rng = np.random.default_rng(40)
        data = [(rng.normal(size=(n, 2)), chain) for n, chain in
                [(9, ["a", "b"]), (3, ["b"]), (14, ["a", "b", "a"]), (1, ["a", "b"]),
                 (6, ["b", "a"])]]

        def train():
            model = hmm.flat_start([f for f, _ in data], ["a", "b"],
                                   topology_kind="skip2", use_sil=False)
            with caplog.at_level(logging.WARNING, logger="vsrlab.hmm"):
                history = hmm.train_em(model, data, schedule=[(1, 2), (2, 2)])
            return model, [ll for _, ll in history]

        graphs = [hmm.compose_chain(hmm.flat_start([data[0][0]], ["a", "b"], use_sil=False),
                                    chain) for _, chain in data]
        frames = [f for f, _ in data]
        assert len(list(hmm._batches(frames, graphs, 8))) == 1
        one_model, one_lls = train()
        monkeypatch.setattr(hmm, "_BATCH_VALUES", 1)
        assert len(list(hmm._batches(frames, graphs, 8))) == len(data)
        split_model, split_lls = train()

        np.testing.assert_allclose(split_lls, one_lls, rtol=1e-12)
        assert np.array_equal(split_model.n_mix, one_model.n_mix)
        for table in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(split_model, table), getattr(one_model, table),
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(split_model.trans, one_model.trans, rtol=0, atol=1e-12)
        # the one-frame utterance is skipped once per iteration, batch or not
        skips = [r.message for r in caplog.records if "too short" in r.message]
        assert skips == ["skipped 1 of 5 utterance(s) too short for the topology"] * 8

    def test_all_utterances_infeasible(self):
        params = {"a": [([1.0], [[0.0]], [[1.0]]) for _ in range(3)]}
        model = _make_model("classic3", params, dim=1)
        frames = np.zeros((2, 1))
        with pytest.raises(InsufficientDataError):
            hmm.em_iteration(model, [(frames, ["a"])])

    def test_flat_start_validation(self):
        with pytest.raises(InsufficientDataError):
            hmm.flat_start([], ["a"], use_sil=False)
        with pytest.raises(InsufficientDataError):
            hmm.train_em(_make_model("skip2", {"a": _dummy_params(2, 1)}, 1), [])


class TestGrow:
    def test_split_formula(self):
        model = _make_model("skip2", {"q": [(np.ones(1), [[2.0, -1.0]], [[4.0, 1.0]]),
                                            (np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))]},
                            dim=2)
        hmm.grow_mixtures(model, 2)
        grown = _state_params(model, 0, 0)
        np.testing.assert_allclose(grown[0], [0.5, 0.5])
        np.testing.assert_allclose(grown[1], [[2.2, -0.9], [1.8, -1.1]])
        np.testing.assert_allclose(grown[2], [[4.0, 1.0], [4.0, 1.0]])
        hmm.grow_mixtures(model, 4)
        assert list(model.n_mix) == [4, 4]
        np.testing.assert_allclose(_state_params(model, 0, 0)[0], [0.25] * 4)

        # a 3-component state beside a 1-component one: each splits its own
        # heaviest component, and neither block moves into the other
        model = _make_model("skip2", {"q": [([0.2, 0.5, 0.3], [[0.0], [1.0], [2.0]],
                                             [[1.0], [4.0], [9.0]]),
                                            ([1.0], [[-5.0]], [[0.25]])]}, dim=1)
        hmm.grow_mixtures(model, 4)
        assert list(model.n_mix) == [4, 4]
        np.testing.assert_allclose(model.weights, [0.2, 0.25, 0.25, 0.3] + [0.25] * 4)
        np.testing.assert_allclose(model.means[:, 0], [0.0, 1.2, 0.8, 2.0,
                                                       -4.9, -5.0, -5.0, -5.1])
        np.testing.assert_allclose(model.variances[:, 0], [1.0, 4.0, 4.0, 9.0] + [0.25] * 4)


class TestChainBuilding:
    def test_phone_chain(self):
        lex = Lexicon()
        lex.add("casa", ["k", "a", "s", "a"])
        assert hmm.phone_chain(lex, ["casa"], use_sil=False) == ["k", "a", "s", "a"]
        assert hmm.phone_chain(lex, ["casa"], use_sil=True) == \
            ["sil", "k", "a", "s", "a", "sil"]
        with pytest.raises(OovError):
            hmm.phone_chain(lex, ["perro"], use_sil=False)
        with pytest.raises(OovError):
            hmm.phone_chain(lex, [], use_sil=True)


def _opt1_phones_start(model):
    """Byte offset of the first phone's topology code in the model's OPT1
    file: magic, dim, phone count, names, silence flag, variance floor."""
    return 13 + sum(1 + len(name.encode()) for name in model.phones) + 8 * model.dim


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        data = [(rng.normal(size=(9, 3)), ["a", "b"]) for _ in range(3)]
        model = hmm.flat_start([f for f, _ in data], ["a", "b"],
                               topology_kind="skip2", use_sil=True)
        hmm.train_em(model, [(f, ["sil"] + c + ["sil"]) for f, c in data],
                     schedule=[(1, 2), (2, 1)])
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        back = hmm.load_model(path)
        assert back.phones == model.phones
        assert back.dim == 3
        assert back.use_sil is True
        assert np.array_equal(back.var_floor, model.var_floor)
        for table in ("phone_n_states", "trans", "n_mix", "weights", "means", "variances"):
            assert np.array_equal(getattr(back, table), getattr(model, table))

    def test_bytes_pinned(self, tmp_path):
        # a skip2 and a classic3 phone with unequal component counts; the
        # digest pins the OPT1 bytes, which the layout of the model in memory
        # must not change
        rng = np.random.default_rng(51)
        blocks = [(rng.dirichlet(np.ones(m)), rng.normal(size=(m, 2)),
                   rng.uniform(0.5, 2.0, size=(m, 2))) for m in [1, 3, 2, 1, 2]]
        rows = [[[0.5, 0.25, 0.25], [0.0, 0.75, 0.25]],
                [[0.625, 0.375, 0.0, 0.0], [0.0, 0.875, 0.125, 0.0], [0.0, 0.0, 0.5, 0.5]]]
        model = _build(["a", "b"], rows, blocks, [1e-3, 2e-3], use_sil=True)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "4ffb924452d8ee64053efdd128451d26fae94aab7aa46db658606b7ffb7f887d"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.opt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            hmm.load_model(path)

    @pytest.mark.parametrize("case", ["no_states", "rows_off_one", "backward_arc",
                                      "late_entry", "kind_off_state_count"])
    def test_bad_topology_is_a_format_error(self, tmp_path, case):
        model = _make_model("classic3", {"a": _dummy_params(3, 1)}, dim=1)
        code = _opt1_phones_start(model)   # then u32 n, (n, n + 1) rows, (n,) entry
        if case == "rows_off_one":
            model.trans *= 0.9
        elif case == "backward_arc":
            model.trans[:] = np.ravel([[0.5, 0.5, 0.0, 0.0],
                                       [0.25, 0.25, 0.5, 0.0],
                                       [0.0, 0.0, 0.5, 0.5]])
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        blob = bytearray(path.read_bytes())
        assert blob[code:code + 5] == b"\x00\x03\x00\x00\x00"
        if case == "no_states":
            # the rows and the mixture table go unwritten with the states
            blob = blob[:code + 1] + bytes(4)
        elif case == "late_entry":
            blob[code + 5 + 8 * 12:code + 5 + 8 * 15] = np.array([0.0, 1.0, 0.0]).tobytes()
        elif case == "kind_off_state_count":
            blob[code] = 1      # skip2's code on a three-state phone
        path.write_bytes(bytes(blob))
        message = {"no_states": "phone 'a': topology code 0 does not match its 0 states",
                   "rows_off_one": "phone 'a': transition rows must be non-negative",
                   "backward_arc": "phone 'a': only forward arcs within a band of 2",
                   "late_entry": "phone 'a': a phone must enter at its first state",
                   "kind_off_state_count": "phone 'a': topology code 1 does not match its 3"}
        with pytest.raises(FormatError, match=f"{path}: {message[case]}"):
            hmm.load_model(path)

    @pytest.mark.parametrize("case", ["no_phones", "nan_weight", "inf_mean", "nan_variance",
                                      "inf_floor", "negative_weight", "weights_off_one",
                                      "zero_variance", "negative_variance", "duplicate_phone"])
    def test_bad_values_are_a_format_error(self, tmp_path, case):
        model = _make_model("skip2", {"a": _dummy_params(2, 1),
                                      "b": _dummy_params(2, 1)}, dim=1)
        if case == "no_phones":
            model.phones, model.phone_n_states = [], np.zeros(0, dtype=int)
            message = "the model has no phones"
        elif case == "duplicate_phone":
            # at load, a name-to-index map would take 'a' to 1 and leave phone 0 unreachable
            model.phones = ["a", "a"]
            message = "phone 'a' is listed twice"
        else:
            table, value, message = {
                "nan_weight": ("weights", np.nan, "non-finite"),
                "inf_mean": ("means", np.inf, "non-finite"),
                "nan_variance": ("variances", np.nan, "non-finite"),
                "inf_floor": ("var_floor", -np.inf, "non-finite"),
                "negative_weight": ("weights", -0.5, "mixture weights must be non-negative"),
                "weights_off_one": ("weights", 0.5, "mixture weights .* sum to one"),
                "zero_variance": ("variances", 0.0, "non-positive variance"),
                "negative_variance": ("variances", -1.0, "non-positive variance")}[case]
            getattr(model, table)[-1] = value
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        with pytest.raises(FormatError, match=f"{path}: {message}"):
            hmm.load_model(path)

    def test_state_without_components_is_a_format_error(self, tmp_path):
        model = _make_model("skip2", {"a": [_dummy_params(1, 1)[0],
                                            (np.zeros(0), np.zeros((0, 1)), np.zeros((0, 1)))],
                                      "b": _dummy_params(2, 1)}, dim=1)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        with pytest.raises(FormatError, match=f"{path}: phone 'a' state 1 has no components"):
            hmm.load_model(path)

    def test_non_utf8_phone_name_is_a_format_error(self, tmp_path):
        model = _make_model("skip2", {"qz": _dummy_params(2, 1)}, dim=1)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        blob = path.read_bytes()
        assert blob.count(b"\x02qz") == 1
        path.write_bytes(blob.replace(b"\x02qz", b"\x02\xff\xfe"))
        with pytest.raises(FormatError, match=f"{path}: string .* is not UTF-8"):
            hmm.load_model(path)

    @pytest.mark.parametrize("flag", [2, 0xFF])
    def test_use_sil_flag_other_than_0_or_1_is_a_format_error(self, tmp_path, flag):
        model = _make_model("skip2", {"a": _dummy_params(2, 1)}, dim=1, use_sil=True)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        raw = bytearray(path.read_bytes())
        at = _opt1_phones_start(model) - 8 * model.dim - 1   # just before the floor
        assert raw[at] == 1
        raw[at] = flag
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"{path}: use_sil flag must be 0 or 1, got {flag}"):
            hmm.load_model(path)

    def test_truncated(self, tmp_path):
        model = _make_model("skip2", {"a": _dummy_params(2, 2)}, dim=2)
        path = tmp_path / "model.opt"
        hmm.save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            hmm.load_model(path)
