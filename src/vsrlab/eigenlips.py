"""Eigenlip features: PCA over aligned mouth ROIs.

The eigendecomposition is computed by a cyclic Jacobi sweep scheme rather
than a library call: each round applies a set of disjoint plane rotations
chosen by a round-robin tournament, so the whole round can be applied with
vectorized row and column updates. Population (1/N) covariance convention.

When there are fewer samples than pixels the spectrum is obtained from the
N x N Gram matrix and mapped back to pixel space, which is exact for the
nonzero part of the spectrum and much cheaper than the full covariance.
"""

from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import FormatError, InsufficientDataError

EIGEN_MAGIC = b"EIG1"
ROI_DIM = 512  # 32 x 16 pixels
_JACOBI_TOL = 1e-11  # Jacobi stops at an off-diagonal norm of this share of the norm
_JACOBI_MAX_SWEEPS = 60


@dataclass
class PcaModel:
    mean: np.ndarray          # (D,)
    components: np.ndarray    # (K, D), rows orthonormal
    eigenvalues: np.ndarray   # (K,), non-increasing, >= 0


def _round_robin_pairs(n):
    """All index pairs of {0..n-1} grouped into rounds of disjoint pairs."""
    players = list(range(n))
    if n % 2:
        players.append(-1)  # bye
    m = len(players)
    rounds = []
    rest = players[1:]
    for _ in range(m - 1):
        arr = [players[0]] + rest
        pairs = []
        for i in range(m // 2):
            a, b = arr[i], arr[m - 1 - i]
            if a != -1 and b != -1:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(np.array(pairs, dtype=int))
        rest = rest[-1:] + rest[:-1]
    return rounds


def jacobi_eigh(matrix):
    """Eigendecomposition of a real symmetric matrix.

    Returns (eigenvalues, vectors) with ``matrix == vectors @ diag(w) @ vectors.T``;
    eigenvalues are unordered (callers sort). Rotations within a round touch
    disjoint rows and columns, so they are applied in bulk.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n), v
    rounds = _round_robin_pairs(n)
    idx = np.arange(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.linalg.norm(a - np.diag(a.diagonal()))
        if off <= _JACOBI_TOL * norm:
            break
        for pairs in rounds:
            p = pairs[:, 0]
            q = pairs[:, 1]
            apq = a[p, q]
            active = np.abs(apq) > 0.0
            if not active.any():
                continue
            p, q, apq = p[active], q[active], apq[active]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta == 0.0, 1.0, t)  # 45 degree rotation when diagonal
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # the pairs are disjoint, so the whole round is one permutation
            # plus a diagonal scaling applied to rows, then to columns
            partner = idx.copy()
            partner[p] = q
            partner[q] = p
            cfull = np.ones(n)
            cfull[p] = c
            cfull[q] = c
            ssign = np.zeros(n)
            ssign[p] = -s
            ssign[q] = s
            tmp = a.take(partner, axis=0)
            a *= cfull[:, None]
            a += ssign[:, None] * tmp
            tmp = a.take(partner, axis=1)
            a *= cfull
            a += ssign * tmp
            tmp = v.take(partner, axis=1)
            v *= cfull
            v += ssign * tmp
    else:
        raise ArithmeticError(f"Jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
    return a.diagonal().copy(), v


def _canonicalize_sign(components):
    """Flip rows so the entry of largest magnitude is positive (first on ties)."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(frames, n_components):
    """Fit eigenlips on (N, H, W) or (N, D) training frames.

    Requires ``N >= n_components + 1`` so the population covariance can have
    full requested rank. Components come back orthonormal, sorted by
    non-increasing eigenvalue, with a deterministic sign convention. Trailing
    zero-variance directions are completed from canonical basis vectors so the
    requested K is always delivered.
    """
    data = np.asarray(frames, dtype=float)
    if data.ndim == 3:
        data = data.reshape(data.shape[0], data.shape[1] * data.shape[2])
    if data.ndim != 2:
        raise ValueError("frames must be (N, H, W) or (N, D)")
    n, dim = data.shape
    k = int(n_components)
    if k < 1 or k > dim:
        raise ValueError(f"n_components must be in [1, {dim}]")
    if n < k + 1:
        raise InsufficientDataError(f"need at least {k + 1} frames to fit {k} components, got {n}")

    mean = data.mean(axis=0)
    centered = data - mean
    if n < dim:
        gram = (centered @ centered.T) / n
        evals, evecs = jacobi_eigh(gram)
        order = np.argsort(-evals, kind="stable")[:k]
        evals = np.maximum(evals[order], 0.0)
        comps = np.zeros((k, dim))
        floor = 1e-12 * max(float(evals[0]) if k else 0.0, 1e-30)
        for i in range(k):
            if evals[i] > floor:
                w = centered.T @ evecs[:, order[i]]
                comps[i] = w / np.sqrt(n * evals[i])
            else:
                evals[i] = 0.0
    else:
        cov = (centered.T @ centered) / n
        evals_all, evecs = jacobi_eigh(cov)
        order = np.argsort(-evals_all, kind="stable")[:k]
        evals = np.maximum(evals_all[order], 0.0)
        comps = evecs[:, order].T.copy()
        floor = 1e-12 * max(float(evals[0]) if k else 0.0, 1e-30)
        evals[evals <= floor] = 0.0

    # replace zero-variance rows deterministically, then orthonormalize signs
    comps = _fill_degenerate_rows(comps, evals, dim)
    comps = _canonicalize_sign(comps)
    return PcaModel(mean=mean, components=comps, eigenvalues=evals)


def _fill_degenerate_rows(comps, evals, dim):
    live = [comps[i] for i in range(len(evals)) if evals[i] > 0.0]
    need = len(evals) - len(live)
    if need == 0:
        return comps
    basis = list(live)
    filled = []
    cursor = 0
    while len(filled) < need and cursor < dim:
        cand = np.zeros(dim)
        cand[cursor] = 1.0
        cursor += 1
        for b in basis:
            cand = cand - np.dot(cand, b) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            cand /= norm
            basis.append(cand)
            filled.append(cand)
    if len(filled) < need:
        raise ArithmeticError("could not complete an orthonormal basis")
    out = comps.copy()
    j = 0
    for i in range(len(evals)):
        if evals[i] <= 0.0:
            out[i] = filled[j]
            j += 1
    return out


def project(model, frames):
    """Eigenlip coefficients: (N, K) for (N, H, W) or (N, D) frames."""
    data = np.asarray(frames, dtype=float)
    if data.ndim == 3:
        data = data.reshape(data.shape[0], data.shape[1] * data.shape[2])
    if data.shape[1] != model.mean.shape[0]:
        raise ValueError(f"frame dimension {data.shape[1]} != model dimension {model.mean.shape[0]}")
    return (data - model.mean) @ model.components.T


def save_pca(path, model):
    if model.mean.shape[0] != ROI_DIM:
        raise ValueError(f"container stores {ROI_DIM}-dimensional models, got {model.mean.shape[0]}")
    k = model.components.shape[0]
    with open(path, "wb") as fh:
        fh.write(EIGEN_MAGIC)
        binio.write_u32(fh, k)
        binio.write_array(fh, model.mean, "<f8")
        binio.write_array(fh, model.eigenvalues, "<f8")
        binio.write_array(fh, model.components, "<f8")


def load_pca(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, EIGEN_MAGIC)
        k = r.u32()
        if k < 1 or k > ROI_DIM:
            raise FormatError(f"{path}: component count {k} out of range")
        mean = r.array("<f8", (ROI_DIM,))
        evals = r.array("<f8", (k,))
        comps = r.array("<f8", (k, ROI_DIM))
        r.end()
    if not (np.isfinite(mean).all() and np.isfinite(comps).all()):
        raise FormatError(f"{path}: non-finite mean or components")
    if not np.all((evals >= 0.0) & (evals < np.inf)):
        raise FormatError(f"{path}: eigenvalues must be non-negative and finite")
    return PcaModel(mean=mean, components=comps, eigenvalues=evals)
