import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from vsrlab import corpus, frontend
from vsrlab.errors import DegenerateGeometryError


def _roi_of_frame(pts, image, **kwargs):
    """One frame's ROI, taken through ``roi_sequence``."""
    return frontend.roi_sequence(pts[None], image[None], **kwargs)[0]


def _blank_landmarks():
    return np.zeros((68, 2))


def test_alignment_angle_hand_value():
    pts = _blank_landmarks()
    pts[48] = (10.0, 20.0)
    pts[54] = (20.0, 25.0)
    # atan2(5, 10) = atan(0.5)
    assert abs(frontend.mouth_alignment_angle(pts) - 0.4636476090008061) < 1e-12


def test_alignment_angle_wraps_to_half_circle():
    pts = _blank_landmarks()
    # corners swapped left/right: line orientation must be unchanged
    pts[48] = (20.0, 25.0)
    pts[54] = (10.0, 20.0)
    assert abs(frontend.mouth_alignment_angle(pts) - 0.4636476090008061) < 1e-12
    pts[48] = (10.0, 20.0)
    pts[54] = (0.0, 25.0)  # atan2(5, -10) wraps to -atan(0.5)
    assert abs(frontend.mouth_alignment_angle(pts) + 0.4636476090008061) < 1e-12


def test_coincident_corners_raise():
    pts = _blank_landmarks()
    pts[48] = pts[54] = (12.0, 9.0)
    with pytest.raises(DegenerateGeometryError):
        frontend.mouth_alignment_angle(pts)


def test_flat_mouth_raises(defaults):
    pts = _blank_landmarks()
    pts[48:68, 0] = np.linspace(10, 30, 20)
    pts[48:68, 1] = 15.0  # zero height box
    with pytest.raises(DegenerateGeometryError):
        _roi_of_frame(pts, np.zeros((40, 40)), margin=defaults.roi_margin)


def _mouth_landmarks(xs, ys):
    pts = _blank_landmarks()
    pts[48:68, 0] = xs
    pts[48:68, 1] = ys
    return pts


def _oracle_direct_crop(image, pts, out_w, out_h, margin):
    """Independent loop implementation for the zero-rotation case."""
    mouth = pts[48:68]
    x0, x1 = mouth[:, 0].min(), mouth[:, 0].max()
    y0, y1 = mouth[:, 1].min(), mouth[:, 1].max()
    bw, bh = x1 - x0, y1 - y0
    x0, x1 = x0 - margin * bw, x1 + margin * bw
    y0, y1 = y0 - margin * bh, y1 + margin * bh
    bw, bh = x1 - x0, y1 - y0
    h, w = image.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            x = min(max(x0 + (j + 0.5) * bw / out_w, 0.0), w - 1.0)
            y = min(max(y0 + (i + 0.5) * bh / out_h, 0.0), h - 1.0)
            xa, ya = int(math.floor(x)), int(math.floor(y))
            xb, yb = min(xa + 1, w - 1), min(ya + 1, h - 1)
            fx, fy = x - xa, y - ya
            out[i, j] = (image[ya, xa] * (1 - fx) * (1 - fy)
                         + image[ya, xb] * fx * (1 - fy)
                         + image[yb, xa] * (1 - fx) * fy
                         + image[yb, xb] * fx * fy)
    return out


def test_zero_rotation_matches_direct_crop_oracle():
    rng = np.random.default_rng(7)
    image = rng.uniform(0.0, 1.0, (48, 64))
    xs = np.concatenate([[20.0, 22, 24, 26, 28, 30, 32], np.linspace(21, 31, 13)])
    ys = np.concatenate([[40.0, 38, 37, 36, 37, 38, 40], np.linspace(41, 44, 13)])
    pts = _mouth_landmarks(xs, ys)
    assert frontend.mouth_alignment_angle(pts) == 0.0
    roi = _roi_of_frame(pts, image, out_size=(32, 16), margin=0.15)
    oracle = _oracle_direct_crop(image, pts, 32, 16, 0.15)
    assert roi.shape == (16, 32)
    assert np.allclose(roi, oracle, atol=1e-12)


def test_linear_ramp_sampling_closed_form():
    # image linear in x: bilinear sampling returns the ramp at the sample point
    w, h = 64, 48
    image = np.tile(np.arange(w, dtype=float) / (w - 1), (h, 1))
    xs = np.concatenate([[20.0, 22, 24, 26, 28, 29, 30], np.linspace(21, 29, 13)])
    ys = np.concatenate([[40.0, 37, 36, 36.5, 37, 38, 40], np.linspace(41, 44, 13)])
    pts = _mouth_landmarks(xs, ys)
    assert frontend.mouth_alignment_angle(pts) == 0.0
    roi = _roi_of_frame(pts, image, out_size=(32, 16), margin=0.15)
    # box x-range is [18.5, 31.5]; first column center 18.5 + 13/64 = 18.703125
    assert np.allclose(roi[:, 0], 18.703125 / 63, atol=1e-12)
    assert np.allclose(roi[:, 31], (18.5 + 31.5 * 13 / 32) / 63, atol=1e-12)


def test_integer_translation_invariance(defaults):
    rng = np.random.default_rng(3)
    image = rng.uniform(0.0, 1.0, (48, 64))
    xs = np.linspace(24, 36, 20)
    ys = 20 + 4 * np.sin(np.linspace(0, 2 * math.pi, 20))
    pts = _mouth_landmarks(xs, ys)
    roi = _roi_of_frame(pts, image, margin=defaults.roi_margin)
    shifted = np.roll(np.roll(image, 5, axis=0), -3, axis=1)
    roi2 = _roi_of_frame(pts + np.array([-3.0, 5.0]), shifted, margin=defaults.roi_margin)
    assert np.allclose(roi, roi2, atol=1e-12)


def _rendered_face():
    spec = corpus.SynthSpec(lexicon={"aa": ["a"]}, n_speakers=2, n_utterances=2,
                            seed=4, noise_level=0.0, add_silence=False,
                            words_per_utterance=(1, 1), image_size=(96, 96))
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        recs = corpus.synthesize_corpus(spec, d)
        image = corpus.read_frames(recs[0].frames_path)[0].astype(float) / 255.0
        pts = corpus.read_landmarks(recs[0].landmark_path)[0].astype(float)
    return image, pts


def test_rotation_equivariance_against_scipy(defaults):
    image, pts = _rendered_face()
    base = _roi_of_frame(pts, image, margin=defaults.roi_margin)
    h, w = image.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    for angle_deg in (-25.0, 12.0, 30.0):
        rot_img = ndimage.rotate(image, angle_deg, reshape=False, order=1, mode="nearest")
        # scipy's positive angle moves content like a rotation by -angle in
        # screen coordinates (y down), so transform landmarks accordingly
        th = -math.radians(angle_deg)
        c, s = math.cos(th), math.sin(th)
        rel = pts - (cx, cy)
        rot_pts = np.stack([cx + c * rel[:, 0] - s * rel[:, 1],
                            cy + s * rel[:, 0] + c * rel[:, 1]], axis=1)
        roi = _roi_of_frame(rot_pts, rot_img, margin=defaults.roi_margin)
        diff = np.mean(np.abs(roi - base))
        assert diff < 0.05, f"angle {angle_deg}: mean abs diff {diff:.4f}"


def test_roi_sequence_and_quantization(defaults):
    image, pts = _rendered_face()
    frames = np.stack([image, image])
    lms = np.stack([pts, pts])
    rois = frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)
    assert rois.shape == (2, 16, 32)
    assert rois.min() >= 0.0 and rois.max() <= 1.0
    with pytest.raises(ValueError):
        frontend.roi_sequence(lms[:1], frames, margin=defaults.roi_margin)


def test_landmarks_outside_image_are_clamped(defaults):
    rng = np.random.default_rng(1)
    image = rng.uniform(0.0, 1.0, (20, 20))
    xs = np.linspace(-5, 10, 20)
    ys = np.linspace(-2, 6, 20)
    pts = _mouth_landmarks(xs, ys)
    roi = _roi_of_frame(pts, image, margin=defaults.roi_margin)
    assert np.isfinite(roi).all()
    assert roi.min() >= 0.0 and roi.max() <= 1.0


# ---------------------------------------------------------------------------
# per-frame oracle: the single-frame implementation that roi_sequence
# replaced, kept verbatim so the batched kernel can be checked bit for bit

def _oracle_bilinear_sample(image, xs, ys):
    """Sample ``image`` at float coords with bilinear weights, edges clamped."""
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    x = np.clip(xs, 0.0, w - 1.0)
    y = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _oracle_extract_aligned_roi(landmarks, image, out_size, margin):
    """Extract one aligned mouth ROI as a float array in [0, 1].

    ``landmarks`` is (68, 2); ``image`` a 2-D grayscale frame (uint8 arrays
    are rescaled by 255). Returns shape (out_height, out_width).
    """
    pts = np.asarray(landmarks, dtype=float)
    img = np.asarray(image)
    if img.dtype == np.uint8:
        img = img.astype(float) / 255.0
    out_w, out_h = out_size
    theta = frontend.mouth_alignment_angle(pts)

    mouth = pts[frontend.MOUTH_SLICE]
    center = mouth.mean(axis=0)
    c, s = math.cos(theta), math.sin(theta)
    rel = mouth - center
    # rotate by -theta so the corner line becomes horizontal
    rx = c * rel[:, 0] + s * rel[:, 1]
    ry = -s * rel[:, 0] + c * rel[:, 1]
    x0, x1 = rx.min(), rx.max()
    y0, y1 = ry.min(), ry.max()
    bw, bh = x1 - x0, y1 - y0
    if bw <= 0.0 or bh <= 0.0:
        raise DegenerateGeometryError("mouth landmarks span a zero-area box")
    x0 -= margin * bw
    x1 += margin * bw
    y0 -= margin * bh
    y1 += margin * bh
    bw, bh = x1 - x0, y1 - y0

    # output pixel centers in box coords, mapped back through the rotation
    jj, ii = np.meshgrid(np.arange(out_w), np.arange(out_h))
    bx = x0 + (jj + 0.5) * bw / out_w
    by = y0 + (ii + 0.5) * bh / out_h
    sx = center[0] + c * bx - s * by
    sy = center[1] + s * bx + c * by
    return _oracle_bilinear_sample(img, sx, sy)


@pytest.fixture(scope="module")
def speaker_corpus(tmp_path_factory):
    """Landmarks and frames of every utterance of a 3-speaker corpus."""
    spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(6, seed=2), n_speakers=3,
                            n_utterances=6, seed=5, noise_level=0.3,
                            image_size=(80, 72))
    recs = corpus.synthesize_corpus(spec, tmp_path_factory.mktemp("speakers"))
    return [(corpus.read_landmarks(r.landmark_path), corpus.read_frames(r.frames_path))
            for r in recs]


@pytest.mark.parametrize("pixels", ["uint8", "float64", "float32"])
def test_roi_sequence_matches_per_frame_oracle(speaker_corpus, pixels):
    # every utterance, and the longest cut to lengths about the chunk edges
    chunk = frontend._CHUNK_FRAMES
    lms, frames = max(speaker_corpus, key=lambda utterance: len(utterance[0]))
    lengths = (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)
    assert len(lms) >= max(lengths)
    cuts = [(lms[:k], frames[:k]) for k in lengths]
    n_frames = 0
    for lms, frames in speaker_corpus + cuts:
        if pixels != "uint8":
            frames = (frames / 255.0).astype(pixels)
        for out_size, margin in (((32, 16), 0.15), ((7, 5), 0.4)):
            rois = frontend.roi_sequence(lms, frames, out_size=out_size, margin=margin)
            oracle = np.stack([_oracle_extract_aligned_roi(p, f, out_size, margin)
                               for p, f in zip(lms, frames)])
            assert rois.shape == oracle.shape == (len(lms), out_size[1], out_size[0])
            assert np.array_equal(rois, oracle)
        n_frames += len(lms)
    assert n_frames > 100


def _face_sequence(n):
    image, pts = _rendered_face()
    return np.repeat(pts[None], n, axis=0), np.repeat(image[None], n, axis=0)


def test_degenerate_frame_in_sequence_is_named(defaults):
    lms, frames = _face_sequence(5)
    lms[2, 54] = lms[2, 48]
    with pytest.raises(DegenerateGeometryError, match=r"^frame 2: mouth corners coincide"):
        frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)
    lms, frames = _face_sequence(5)
    lms[3, 48:68, 1] = 40.0
    with pytest.raises(DegenerateGeometryError, match=r"^frame 3: .*zero-area box"):
        frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)


def test_earliest_degenerate_frame_is_named(defaults):
    # a later frame failing an earlier check does not hide an earlier frame
    lms, frames = _face_sequence(6)
    lms[1, 48:68, 1] = 40.0
    lms[4, 54] = lms[4, 48]
    with pytest.raises(DegenerateGeometryError, match=r"^frame 1: .*zero-area box"):
        frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)
    # a frame failing both checks reports the first one a frame is checked by
    lms[1, 54] = lms[1, 48]
    with pytest.raises(DegenerateGeometryError, match=r"^frame 1: mouth corners coincide"):
        frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)


def test_memory_peak_within_docstring_bound(defaults):
    # the module docstring bounds one call's memory peak, beyond the frames,
    # for an 82-frame utterance
    bound = re.search(r"stays under ([0-9.]+) MB for an 82-frame utterance",
                      " ".join(frontend.__doc__.split()))
    assert bound, "the module docstring states no memory bound"
    lms, frames = _face_sequence(82)
    frames = np.round(frames * 255.0).astype(np.uint8)
    frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)
    tracemalloc.start()
    try:
        frontend.roi_sequence(lms, frames, margin=defaults.roi_margin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float(bound.group(1)) * 1e6


def test_zero_frames(defaults):
    rois = frontend.roi_sequence(np.zeros((0, 68, 2)), np.zeros((0, 40, 50), dtype=np.uint8),
                                 margin=defaults.roi_margin)
    assert rois.shape == (0, 16, 32)
    rois = frontend.roi_sequence(np.zeros((0, 68, 2)), np.zeros((0, 40, 50)),
                                 margin=defaults.roi_margin, out_size=(8, 4))
    assert rois.shape == (0, 4, 8)


def test_float64_output_pinned(pin_corpus, defaults):
    # VFA1 stores float32, so the artifact tree cannot see float64 drift in
    # this kernel; the digest of its float64 output on a fixed corpus can.
    # (Platform: x86-64, numpy 2.4; another libm may move the last bit.)
    digest = hashlib.sha256()
    for landmarks, frames in pin_corpus:
        rois = frontend.roi_sequence(landmarks, frames, margin=defaults.roi_margin)
        assert rois.dtype == np.float64
        digest.update(rois.tobytes())
    assert digest.hexdigest() == \
        "408757bad7ae9b7d7f9022563da7eb439f518fd16cb5f3017932c8bbb984c2e0"
