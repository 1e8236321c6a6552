import hashlib
import math

import numpy as np
import pytest

from vsrlab import corpus, geometric
from vsrlab.errors import DegenerateGeometryError


def _features(pts):
    """One frame's feature vector, taken through ``geometric_sequence``."""
    return geometric.geometric_sequence(pts[None])[0]


def _rectangle_mouth():
    """Hand-constructed frame whose every feature is computable on paper."""
    pts = np.zeros((68, 2))
    pts[2] = (-5.0, -2.0)
    pts[14] = (5.0, -2.0)          # unit length 10, unit area 100
    pts[33] = (0.5, -4.0)          # nose base
    outer = [(-2, 0), (-1.5, -1), (-0.5, -1), (0, -1), (0.5, -1), (1.5, -1),
             (2, 0), (1.5, 1), (0.5, 1), (0, 1), (-0.5, 1), (-1.5, 1)]
    inner = [(-1, 0), (-0.5, -0.5), (0, -0.5), (0.5, -0.5),
             (1, 0), (0.5, 0.5), (0, 0.5), (-0.5, 0.5)]
    pts[48:60] = outer
    pts[60:68] = inner
    return pts


def test_hand_computed_rectangle_mouth():
    feats = _features(_rectangle_mouth())
    # outer polygon: 3x2 rectangle plus two side triangles of area 0.5 -> 7.0
    # outer perimeter: 4*sqrt(1.25) + 6; inner: 4*sqrt(0.5) + 2
    # corner angle: arccos(-0.6) at both corners
    # centroid (0,0), nose (0.5,-4): vertical 4/10, horizontal 0.5/10
    expected = [
        0.4,                                   # outer width 4/10
        0.2,                                   # outer height 2/10
        0.2,                                   # inner width 2/10
        0.1,                                   # inner height 1/10
        0.07,                                  # outer area 7/100
        0.015,                                 # inner area 1.5/100
        (4 * math.sqrt(1.25) + 6) / 10,
        (4 * math.sqrt(0.5) + 2) / 10,
        0.5,                                   # outer aspect 2/4
        0.5,                                   # inner aspect 1/2
        0.05,                                  # upper lip 0.5/10
        0.05,                                  # lower lip 0.5/10
        2.214297435588181,                     # arccos(-0.6)
        2.214297435588181,
        0.4,
        0.05,
        1.5 / 7.0,
        0.015,
    ]
    assert feats.shape == (18,)
    np.testing.assert_allclose(feats, expected, atol=1e-12)


def test_feature_names_align():
    assert len(geometric.FEATURE_NAMES) == geometric.N_FEATURES == 18
    assert len(set(geometric.FEATURE_NAMES)) == 18


def _random_valid_frame(rng):
    pts = rng.uniform(-1.0, 1.0, (68, 2))
    base = _rectangle_mouth()
    jitter = rng.uniform(-0.08, 0.08, (68, 2))
    return base + jitter + pts * 0.0


def test_rotation_invariance():
    rng = np.random.default_rng(12)
    pts = _random_valid_frame(rng)
    ref = _features(pts)
    for deg in (47.0, 133.0, -101.0, 180.0):
        th = math.radians(deg)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        center = rng.uniform(-3, 3, 2)
        moved = (pts - center) @ rot.T + center
        np.testing.assert_allclose(_features(moved), ref, atol=1e-9)


def test_exact_translation_and_scale_invariance():
    # integer grid: translations by integers and power-of-two scalings are
    # exactly representable, so the feature vector must be bit-identical
    pts = _rectangle_mouth() * 4.0  # integer coordinates throughout
    assert np.all(pts == np.round(pts))
    ref = _features(pts)
    for shift in ((7.0, -3.0), (120.0, 45.0)):
        assert np.array_equal(_features(pts + np.array(shift)), ref)
    for scale in (2.0, 8.0, 0.5):
        assert np.array_equal(_features(pts * scale), ref)


def test_shoelace_against_monte_carlo():
    pts = _rectangle_mouth()
    outer = pts[48:60]
    area = geometric._polygon_area(outer)
    rng = np.random.default_rng(99)
    lo = outer.min(axis=0)
    hi = outer.max(axis=0)
    samples = rng.uniform(lo, hi, (200_000, 2))
    # independent even-odd ray-crossing membership test
    inside = np.zeros(len(samples), dtype=bool)
    n = len(outer)
    for i in range(n):
        x1, y1 = outer[i]
        x2, y2 = outer[(i + 1) % n]
        crosses = (y1 > samples[:, 1]) != (y2 > samples[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (samples[:, 1] - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (samples[:, 0] < xs)
    mc_area = inside.mean() * np.prod(hi - lo)
    assert abs(mc_area - area) / area < 0.02


def test_degenerate_geometry():
    pts = _rectangle_mouth()
    pts[2] = pts[14]
    with pytest.raises(DegenerateGeometryError):
        _features(pts)
    pts = _rectangle_mouth()
    pts[54] = pts[48]
    with pytest.raises(DegenerateGeometryError):
        _features(pts)
    pts = _rectangle_mouth()
    pts[48:60, 1] = 0.0
    pts[48:60, 0] = np.linspace(-2, 2, 12)
    with pytest.raises(DegenerateGeometryError):
        _features(pts)


def test_sequence_on_synthetic_corpus(tmp_path):
    spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(5, seed=0), n_speakers=2,
                            n_utterances=2, seed=21, image_size=(64, 64))
    recs = corpus.synthesize_corpus(spec, tmp_path)
    lms = corpus.read_landmarks(recs[0].landmark_path)
    feats = geometric.geometric_sequence(lms)
    assert feats.shape == (len(lms), 18)
    assert np.isfinite(feats).all()
    # articulation must actually move the mouth: most dims vary over time
    assert (feats.std(axis=0) > 1e-6).sum() >= 12


# ---------------------------------------------------------------------------
# per-frame oracle: the single-frame implementation that geometric_sequence
# replaced, kept verbatim so the batched kernel can be checked bit for bit

def _oracle_dist(a, b):
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def _oracle_polygon_area(pts):
    """Absolute shoelace area of a closed polygon given as (N, 2) vertices."""
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _oracle_perimeter(pts):
    closed = np.vstack([pts, pts[:1]])
    return float(np.sum(np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))))


def _oracle_angle_between(a, b):
    na = np.hypot(a[0], a[1])
    nb = np.hypot(b[0], b[1])
    if na == 0.0 or nb == 0.0:
        raise DegenerateGeometryError("zero-length edge at a mouth corner")
    cosv = (a[0] * b[0] + a[1] * b[1]) / (na * nb)
    return float(np.arccos(min(1.0, max(-1.0, cosv))))


def _oracle_geometric_features(landmarks):
    """The 18-dimensional feature vector for one (68, 2) landmark frame."""
    pts = np.asarray(landmarks, dtype=float)
    if pts.shape != (68, 2):
        raise ValueError(f"expected (68, 2) landmarks, got {pts.shape}")
    # local origin at the left mouth corner; on exactly representable inputs
    # this cancels any common translation before further arithmetic
    p = pts - pts[48]

    unit = _oracle_dist(p[2], p[14])
    if unit == 0.0:
        raise DegenerateGeometryError("jaw landmarks coincide; unit length undefined")
    unit_area = unit * unit

    d = p[54] - p[48]
    norm_d = np.hypot(d[0], d[1])
    if norm_d == 0.0:
        raise DegenerateGeometryError("mouth corners coincide")
    u = d / norm_d
    v = np.array([-u[1], u[0]])

    outer = p[np.arange(48, 60)]
    inner = p[np.arange(60, 68)]
    outer_w = _oracle_dist(p[48], p[54])
    outer_h = _oracle_dist(p[51], p[57])
    inner_w = _oracle_dist(p[60], p[64])
    inner_h = _oracle_dist(p[62], p[66])
    if outer_w == 0.0 or inner_w == 0.0:
        raise DegenerateGeometryError("zero mouth width")
    outer_area = _oracle_polygon_area(outer)
    inner_area = _oracle_polygon_area(inner)
    if outer_area == 0.0:
        raise DegenerateGeometryError("outer lip polygon has zero area")

    centroid = p[np.arange(48, 68)].mean(axis=0)
    offset = centroid - p[33]
    along = offset[0] * u[0] + offset[1] * u[1]
    across = offset[0] * v[0] + offset[1] * v[1]

    return np.array([
        outer_w / unit,
        outer_h / unit,
        inner_w / unit,
        inner_h / unit,
        outer_area / unit_area,
        inner_area / unit_area,
        _oracle_perimeter(outer) / unit,
        _oracle_perimeter(inner) / unit,
        outer_h / outer_w,
        inner_h / inner_w,
        _oracle_dist(p[51], p[62]) / unit,
        _oracle_dist(p[57], p[66]) / unit,
        _oracle_angle_between(p[49] - p[48], p[59] - p[48]),
        _oracle_angle_between(p[53] - p[54], p[55] - p[54]),
        abs(across) / unit,
        abs(along) / unit,
        inner_area / outer_area,
        inner_area / unit_area,
    ])


def test_sequence_matches_per_frame_oracle(tmp_path):
    spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(6, seed=2), n_speakers=3,
                            n_utterances=6, seed=5, noise_level=0.3)
    n_frames = 0
    for rec in corpus.synthesize_corpus(spec, tmp_path):
        lms = corpus.read_landmarks(rec.landmark_path)
        oracle = np.stack([_oracle_geometric_features(frame) for frame in lms])
        assert np.array_equal(geometric.geometric_sequence(lms), oracle)
        n_frames += len(lms)
    assert n_frames > 100
    # random frames around the hand-built mouth, rotated and scaled, in float64
    rng = np.random.default_rng(8)
    lms = np.stack([(_random_valid_frame(rng) @ np.array([[0.6, -0.8], [0.8, 0.6]]))
                    * rng.uniform(1.0, 40.0) for _ in range(50)])
    oracle = np.stack([_oracle_geometric_features(frame) for frame in lms])
    assert np.array_equal(geometric.geometric_sequence(lms), oracle)


def test_polygon_area_batches():
    rng = np.random.default_rng(4)
    rings = rng.normal(size=(3, 5, 12, 2))
    areas = geometric._polygon_area(rings)
    assert areas.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        assert areas[idx] == _oracle_polygon_area(rings[idx])


def _degenerate_cases():
    rect = _rectangle_mouth()
    jaw = rect.copy()
    jaw[2] = jaw[14]
    corners = rect.copy()
    corners[54] = corners[48]
    inner_width = rect.copy()
    inner_width[64] = inner_width[60]
    flat = rect.copy()
    flat[48:60, 1] = 0.0
    flat[48:60, 0] = np.linspace(-2, 2, 12)
    left_edge = rect.copy()
    left_edge[49] = left_edge[48]
    right_edge = rect.copy()
    right_edge[55] = right_edge[54]
    return {"jaw": (jaw, "jaw landmarks coincide"),
            "corners": (corners, "mouth corners coincide"),
            "inner_width": (inner_width, "zero mouth width"),
            "outer_area": (flat, "outer lip polygon has zero area"),
            "left_edge": (left_edge, "zero-length edge at a mouth corner"),
            "right_edge": (right_edge, "zero-length edge at a mouth corner")}


@pytest.mark.parametrize("case", list(_degenerate_cases()))
def test_degenerate_frame_in_sequence_is_named(case):
    bad, message = _degenerate_cases()[case]
    with pytest.raises(DegenerateGeometryError, match=message):
        _oracle_geometric_features(bad)
    seq = np.repeat(_rectangle_mouth()[None], 5, axis=0)
    seq[2] = bad
    with pytest.raises(DegenerateGeometryError, match=f"^frame 2: {message}"):
        geometric.geometric_sequence(seq)


def test_earliest_degenerate_frame_is_named():
    cases = _degenerate_cases()
    seq = np.repeat(_rectangle_mouth()[None], 6, axis=0)
    seq[4] = cases["jaw"][0]
    seq[1] = cases["right_edge"][0]
    with pytest.raises(DegenerateGeometryError, match="^frame 1: zero-length edge"):
        geometric.geometric_sequence(seq)


@pytest.mark.parametrize("shape", [(68, 2), (3, 68, 3), (3, 67, 2), (2, 3, 68, 2)])
def test_sequence_shape_checked(shape):
    with pytest.raises(ValueError, match="expected"):
        geometric.geometric_sequence(np.ones(shape))


def test_zero_frames():
    assert geometric.geometric_sequence(np.zeros((0, 68, 2))).shape == (0, 18)


def test_float64_output_pinned(pin_corpus):
    # VFA1 stores float32, so the artifact tree cannot see float64 drift in
    # this kernel; the digest of its float64 output on a fixed corpus can.
    # (Platform: x86-64, numpy 2.4; another libm may move the last bit.)
    digest = hashlib.sha256()
    for landmarks, _ in pin_corpus:
        feats = geometric.geometric_sequence(landmarks)
        assert feats.dtype == np.float64
        digest.update(feats.tobytes())
    assert digest.hexdigest() == \
        "c4e3da6b49460720a8ff9243629e49aa227dffd6a38ae327e1ee92324ce388e2"
