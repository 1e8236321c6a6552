"""Eigenlip features: PCA over aligned mouth ROIs.

The eigendecomposition is computed without a library call, so that
``numpy.linalg.eigh`` stays an independent oracle: Householder reflections
reduce the symmetric matrix to tridiagonal form, and QL iterations with
implicit Wilkinson shifts diagonalize it (tql2; Bowdler, Martin, Reinsch &
Wilkinson 1968; Golub & Van Loan, Matrix Computations, section 8.3). Each QL
iteration's chain of plane rotations is applied to the eigenvectors as one
matrix product. Population (1/N) covariance convention.

When there are fewer samples than pixels the spectrum is obtained from the
N x N Gram matrix and mapped back to pixel space, which is exact for the
nonzero part of the spectrum and much cheaper than the full covariance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import binio, frontend
from .errors import FormatError, InsufficientDataError

EIGEN_MAGIC = b"EIG1"
ROI_DIM = frontend.ROI_WIDTH * frontend.ROI_HEIGHT
_QL_MAX_ITERATIONS = 30  # per eigenvalue


@dataclass
class PcaModel:
    mean: np.ndarray          # (D,)
    components: np.ndarray    # (K, D), rows orthonormal
    eigenvalues: np.ndarray   # (K,), non-increasing, >= 0


def _tridiagonalize(a):
    """Householder reduction of symmetric ``a`` (overwritten) to tridiagonal.

    Returns the diagonal, the subdiagonal (``e[i] = T[i+1, i]``, with a
    trailing 0) and ``Q.T``, where ``a == Q @ T @ Q.T``.
    """
    n = a.shape[0]
    reflectors = []
    e = np.zeros(n)
    for k in range(n - 1):
        x = a[k + 1:, k]
        e[k] = x[0]
        if not x[1:].any():
            continue
        e[k] = alpha = -np.copysign(np.linalg.norm(x), x[0])
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        reflectors.append((k, v))
        block = a[k + 1:, k + 1:]
        p = block @ v
        w = p - (v @ p) * v
        update = np.outer(v, w + w)
        block -= update + update.T
    qt = np.eye(n)
    for k, v in reversed(reflectors):  # backward accumulation touches only the trailing block
        block = qt[k + 1:, k + 1:]
        block -= np.outer(block @ v, v + v)
    return a.diagonal().copy(), e, qt


def _rotation_chain(sines, cosines, upper):
    """One matrix for the chain of plane rotations of a QL iteration.

    Rotation ``i`` maps rows ``i, i + 1`` to ``c_i x_i - s_i x_{i+1},
    s_i x_i + c_i x_{i+1}``, applied from the last pair down to the first. So
    row 0 of the product is ``W[0]`` and row ``i + 1`` is ``s_i e_i + c_i
    W[i + 1]``, where ``W[j, k] = c'_k prod_{i=j}^{k-1} (-s_i)`` (``c'`` is
    ``c`` with a 1 appended) is one cumulative product. ``upper`` is a large
    enough boolean upper triangle.
    """
    s = np.array(sines)
    c = np.array(cosines + [1.0])
    size = len(c)
    upper = upper[:size - 1, :size - 1]
    chain = np.zeros((size, size))
    carried = chain[:-1, 1:]
    np.cumprod(np.where(upper, -s, 1.0), axis=1, out=carried)
    carried *= upper
    carried *= c[1:]
    chain.flat[::size + 1] = c
    chain[1:] *= c[:-1, None]
    chain.flat[size::size + 1] = s
    return chain


def jacobi_eigh(matrix):
    """Eigendecomposition of a real symmetric matrix.

    Returns (eigenvalues, vectors) with ``matrix == vectors @ diag(w) @ vectors.T``;
    eigenvalues are unordered (callers sort). Householder tridiagonalization,
    then implicit-shift QL on the tridiagonal (tql2). The name is the earlier
    Jacobi solver's; it stays while ``perfbench`` traces this function by name.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    top = float(np.abs(a).max())
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, top)):
        raise ValueError("matrix must be symmetric")
    # an exact power-of-two scaling keeps the reflections' squares in range
    scale = 2.0 ** -math.frexp(top)[1]
    a *= scale
    diag, sub, vt = _tridiagonalize(0.5 * (a + a.T))
    d, e = diag.tolist(), sub.tolist()
    # deflate at rounding level relative to the whole matrix, as tql2 does: a
    # test relative to |d_m| + |d_m+1| never passes among rounding-level zero
    # eigenvalues, whose off-diagonals carry the rounding of the large ones
    tol = np.finfo(float).eps * float((np.abs(diag) + np.abs(sub)).max())
    upper = np.triu(np.ones((n, n), dtype=bool))
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            if iterations == _QL_MAX_ITERATIONS:
                raise ArithmeticError(f"QL eigensolver did not converge in {_QL_MAX_ITERATIONS} "
                                      f"iterations for eigenvalue {l}")
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            sines, cosines = [], []
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # underflow: keep the rotations so far and iterate again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                sines.append(s)
                cosines.append(c)
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
            if sines:
                lo = m - len(sines)
                vt[lo:m + 1] = _rotation_chain(sines[::-1], cosines[::-1], upper) @ vt[lo:m + 1]
    return np.array(d) / scale, vt.T


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
