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
