import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vsrlab import eigenlips
from vsrlab.errors import FormatError, InsufficientDataError


def _sign_fix(rows):
    out = rows.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _oracle_pca(data, k):
    """Reference PCA straight from numpy.linalg.eigh on the covariance."""
    data = data.reshape(data.shape[0], -1)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals)[:k]
    return mean, _sign_fix(evecs[:, order].T), np.maximum(evals[order], 0.0)


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(5)
    for n in (2, 3, 11, 40):
        m = rng.normal(size=(n, n))
        m = m + m.T
        w, v = eigenlips.jacobi_eigh(m)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(m), atol=1e-9)
        assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-9)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigenlips.jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        eigenlips.jacobi_eigh(np.zeros((2, 3)))


def _check_against_eigh(m, w, v, tol=1e-13):
    """Eigenvalues, reconstruction and orthonormality to ``tol`` times the
    size and norm of ``m``, against ``numpy.linalg.eigh``."""
    n = m.shape[0]
    scale = n * np.linalg.norm(m)
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.abs(np.sort(w) - np.linalg.eigvalsh(m)).max() <= tol * scale
    assert np.abs(v @ np.diag(w) @ v.T - m).max() <= tol * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= tol * n


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


def _block_diagonal(rng):
    block = _random_symmetric(rng, 4)
    m = np.zeros((13, 13))
    m[:4, :4] = block
    m[4:8, 4:8] = block  # the same spectrum twice
    m[8:, 8:] = np.diag([2.0, 2.0, 2.0, -1.0, -1.0])
    return m


@pytest.mark.parametrize("make", [
    lambda rng: np.eye(7),
    lambda rng: np.diag([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, -2.0, 1.0]),
    _block_diagonal,
    lambda rng: -(lambda b: b @ b.T + np.eye(30))(rng.normal(size=(30, 30))),
    lambda rng: (lambda x: x @ x.T)(rng.normal(size=(60, 4))),  # rank 4: 56 zero eigenvalues
    lambda rng: 1e100 * _random_symmetric(rng, 25),
    lambda rng: 1e-100 * _random_symmetric(rng, 25),
    lambda rng: 1e100 * (lambda x: x @ x.T)(rng.normal(size=(40, 3))),
    lambda rng: 1e-100 * (lambda x: x @ x.T)(rng.normal(size=(40, 3))),
], ids=["identity", "diagonal-ties", "block-diagonal", "negative-definite",
        "rank-deficient-gram", "scaled-1e100", "scaled-1e-100", "gram-1e100", "gram-1e-100"])
def test_eigensolver_matches_eigh_on_hard_spectra(make):
    m = make(np.random.default_rng(21))
    w, v = eigenlips.jacobi_eigh(m)
    _check_against_eigh(m, w, v)


@pytest.mark.parametrize("power", [1000, -1000])
def test_power_of_two_scaling_is_exact(power):
    # 2**1000 and 2**-1000 would overflow and underflow the reflections' squares
    m = _random_symmetric(np.random.default_rng(26), 20)
    w, v = eigenlips.jacobi_eigh(m)
    w_scaled, v_scaled = eigenlips.jacobi_eigh(2.0 ** power * m)
    assert np.array_equal(w_scaled, 2.0 ** power * w)
    assert np.array_equal(v_scaled, v)


def test_diagonal_matrix_is_its_own_decomposition():
    diag = np.random.default_rng(22).normal(size=9)
    w, v = eigenlips.jacobi_eigh(np.diag(diag))
    assert np.array_equal(w, diag)
    assert np.array_equal(v, np.eye(9))


def test_one_by_one_and_zero_matrices():
    w, v = eigenlips.jacobi_eigh([[2.5]])
    assert np.array_equal(w, [2.5]) and np.array_equal(v, [[1.0]])
    w, v = eigenlips.jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4)) and np.array_equal(v, np.eye(4))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(eigenlips, "_QL_MAX_ITERATIONS", 0)
    with pytest.raises(ArithmeticError, match="did not converge in 0 iterations"):
        eigenlips.jacobi_eigh(_random_symmetric(np.random.default_rng(23), 6))


def _roi_like_frames(n_frames, rng):
    """Mouth-like 16 x 32 images (a soft ellipse of varying opening) plus
    pixel noise, flattened: a flat, ROI-like spectrum."""
    y, x = np.mgrid[-1:1:16j, -1:1:32j]
    opening = rng.uniform(0.1, 0.9, n_frames)[:, None, None]
    width = rng.uniform(0.5, 0.9, n_frames)[:, None, None]
    frames = np.exp(-(x / width) ** 2 - (y / opening) ** 2)
    return (frames + 0.05 * rng.normal(size=frames.shape)).reshape(n_frames, -1)


def test_fit_matches_eigh_oracle_at_default_frame_count():
    # the default pca_max_frames, 320 frames of 512 pixels, takes the Gram route
    frames = _roi_like_frames(320, np.random.default_rng(24))
    model = eigenlips.fit_pca(frames, 32)
    _, comps_o, evals_o = _oracle_pca(frames, 32)
    assert np.abs(model.eigenvalues - evals_o).max() <= 1e-12 * evals_o[0]
    assert np.allclose(model.components, comps_o, atol=1e-8)
    assert np.allclose(model.components @ model.components.T, np.eye(32), atol=1e-12)


_THREAD_CHILD = """
import hashlib, sys
import numpy as np
from vsrlab import eigenlips
digest = hashlib.sha256()
for n in (120, 320):
    frames = np.load(sys.argv[1] + f"/frames{n}.npy")
    centered = frames - frames.mean(axis=0)
    w, v = eigenlips.jacobi_eigh(centered @ centered.T / n)
    digest.update(w.tobytes() + np.ascontiguousarray(v).tobytes())
print(digest.hexdigest())
"""


def test_eigensolver_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 120 is the benchmark workloads' Gram size, 320 the default pca_max_frames;
    # one child process per thread count, since BLAS reads it at start-up
    rng = np.random.default_rng(25)
    for n in (120, 320):
        np.save(tmp_path / f"frames{n}.npy", _roi_like_frames(n, rng))
    src = str(Path(eigenlips.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THREAD_CHILD, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_fit_matches_eigh_oracle_gram_route():
    rng = np.random.default_rng(8)
    frames = rng.uniform(0.0, 1.0, (50, 16, 32))  # N < 512 uses the Gram trick
    model = eigenlips.fit_pca(frames, 10)
    mean_o, comps_o, evals_o = _oracle_pca(frames, 10)
    assert np.allclose(model.mean, mean_o, atol=1e-12)
    assert np.allclose(model.eigenvalues, evals_o, atol=1e-6)
    assert np.allclose(model.components, comps_o, atol=1e-6)
    proj = eigenlips.project(model, frames)
    proj_o = (frames.reshape(50, -1) - mean_o) @ comps_o.T
    assert np.allclose(proj, proj_o, atol=1e-6)


def test_fit_matches_eigh_oracle_primal_route():
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(60, 40))  # N >= D uses the covariance directly
    model = eigenlips.fit_pca(frames, 6)
    _, comps_o, evals_o = _oracle_pca(frames, 6)
    assert np.allclose(model.eigenvalues, evals_o, atol=1e-8)
    assert np.allclose(model.components, comps_o, atol=1e-7)


def test_components_orthonormal_and_sorted():
    rng = np.random.default_rng(3)
    model = eigenlips.fit_pca(rng.uniform(size=(80, 512)), 12)
    k = model.components.shape[0]
    assert np.allclose(model.components @ model.components.T, np.eye(k), atol=1e-9)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)


def test_projection_variance_equals_eigenvalues():
    rng = np.random.default_rng(4)
    frames = rng.uniform(size=(120, 512))
    model = eigenlips.fit_pca(frames, 8)
    proj = eigenlips.project(model, frames)
    # population variance of each coefficient equals its eigenvalue
    assert np.allclose(proj.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose((proj ** 2).mean(axis=0), model.eigenvalues, atol=1e-8)


def test_low_rank_data_reconstructs_exactly():
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.normal(size=(64, 5)))[0].T  # (5, 64)
    coeffs = rng.normal(size=(30, 5))
    frames = 0.5 + coeffs @ basis
    model = eigenlips.fit_pca(frames, 5)
    recon = model.mean + eigenlips.project(model, frames) @ model.components
    assert np.allclose(recon, frames, atol=1e-8)


def test_degenerate_directions_completed():
    frames = np.full((10, 16), 0.25)
    model = eigenlips.fit_pca(frames, 4)
    assert np.allclose(model.eigenvalues, 0.0)
    assert np.allclose(model.components @ model.components.T, np.eye(4), atol=1e-10)
    # canonical completion: identity rows for fully degenerate data
    assert np.allclose(model.components, np.eye(16)[:4], atol=1e-10)
    assert np.allclose(eigenlips.project(model, frames), 0.0, atol=1e-12)


def test_zero_frames_project_to_zero_rows():
    model = eigenlips.PcaModel(mean=np.zeros(16 * 32), components=np.eye(16 * 32)[:5],
                               eigenvalues=np.ones(5))
    assert eigenlips.project(model, np.zeros((0, 16, 32))).shape == (0, 5)
    assert eigenlips.project(model, np.zeros((0, 16 * 32))).shape == (0, 5)


def test_insufficient_frames_rejected():
    with pytest.raises(InsufficientDataError):
        eigenlips.fit_pca(np.zeros((5, 512)), 5)
    with pytest.raises(InsufficientDataError):
        eigenlips.fit_pca(np.zeros((0, 16, 32)), 5)


def test_container_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    model = eigenlips.fit_pca(rng.uniform(size=(40, 512)), 7)
    path = tmp_path / "m.eig"
    eigenlips.save_pca(path, model)
    loaded = eigenlips.load_pca(path)
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.components, model.components)
    assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.eig"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        eigenlips.load_pca(bad)
    with pytest.raises(ValueError):
        eigenlips.save_pca(tmp_path / "d.eig", eigenlips.fit_pca(rng.uniform(size=(9, 8)), 2))


@pytest.mark.parametrize("table, value", [
    ("mean", np.nan), ("components", np.inf),
    ("eigenvalues", np.nan), ("eigenvalues", np.inf), ("eigenvalues", -1e-3),
])
def test_bad_values_are_a_format_error(tmp_path, table, value):
    model = eigenlips.fit_pca(np.random.default_rng(12).uniform(size=(10, 512)), 3)
    getattr(model, table).flat[-1] = value
    path = tmp_path / "m.eig"
    eigenlips.save_pca(path, model)
    message = ("eigenvalues must be non-negative and finite" if table == "eigenvalues"
               else "non-finite mean or components")
    with pytest.raises(FormatError, match=f"{path}: {message}"):
        eigenlips.load_pca(path)
