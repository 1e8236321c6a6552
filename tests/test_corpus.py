import hashlib
import math
import re
import struct

import numpy as np
import pytest

from vsrlab import corpus
from vsrlab.errors import FormatError, IntegrityError, ManifestError


def _tiny_lexicon():
    return {"bama": ["b", "a", "m", "a"], "tipo": ["t", "i", "p", "o"], "suke": ["s", "u", "k", "e"]}


def test_landmark_container_layout(tmp_path):
    pts = np.arange(68 * 2 * 2, dtype=np.float32).reshape(2, 68, 2)
    path = tmp_path / "a.lmk"
    corpus.write_landmarks(path, pts)
    raw = path.read_bytes()
    # independent decode with struct: magic, frame count, point count, payload
    assert raw[:4] == b"LMK1"
    n_frames, n_points = struct.unpack_from("<II", raw, 4)
    assert (n_frames, n_points) == (2, 68)
    payload = np.frombuffer(raw[12:], dtype="<f4").reshape(2, 68, 2)
    assert np.array_equal(payload, pts)
    assert np.array_equal(corpus.read_landmarks(path), pts)


def test_frames_container_layout(tmp_path):
    frames = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "a.frm"
    corpus.write_frames(path, frames)
    raw = path.read_bytes()
    assert raw[:4] == b"FRM1"
    n_frames, width, height = struct.unpack_from("<III", raw, 4)
    assert (n_frames, width, height) == (2, 4, 3)
    assert np.array_equal(np.frombuffer(raw[16:], dtype=np.uint8).reshape(2, 3, 4), frames)
    assert np.array_equal(corpus.read_frames(path), frames)
    assert corpus.read_frames_header(path) == (2, 4, 3)


@pytest.mark.parametrize("width, height", [(0, 3), (4, 0)])
def test_frames_with_no_pixels_are_rejected(tmp_path, width, height):
    with pytest.raises(ValueError, match="H, W > 0"):
        corpus.write_frames(tmp_path / "x.frm", np.zeros((2, height, width), dtype=np.uint8))
    path = tmp_path / "a.frm"
    path.write_bytes(b"FRM1" + struct.pack("<III", 2, width, height))
    with pytest.raises(FormatError, match=f"{path}: frames of {width}x{height} pixels"):
        corpus.read_frames(path)


def test_truncated_container_rejected(tmp_path):
    pts = np.zeros((3, 68, 2), dtype=np.float32)
    path = tmp_path / "a.lmk"
    corpus.write_landmarks(path, pts)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError):
        corpus.read_landmarks(path)
    bad = tmp_path / "b.lmk"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        corpus.read_landmarks(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_landmarks_rejected(tmp_path, value):
    pts = np.ones((5, 68, 2), dtype=np.float32)
    pts[3, 50, 1] = value
    path = tmp_path / "a.lmk"
    corpus.write_landmarks(path, pts)
    with pytest.raises(FormatError, match=r"a\.lmk: non-finite coordinates in frame 3"):
        corpus.read_landmarks(path)


def _write_pair(tmp_path, n_frames, name="u"):
    lmk = tmp_path / f"{name}.lmk"
    frm = tmp_path / f"{name}.frm"
    corpus.write_landmarks(lmk, np.zeros((n_frames, 68, 2), dtype=np.float32))
    corpus.write_frames(frm, np.zeros((n_frames, 8, 8), dtype=np.uint8))
    return lmk.name, frm.name


def test_manifest_round_trip(tmp_path):
    lmk, frm = _write_pair(tmp_path, 30)
    lines = [
        f"u1\tspkA\t30\t1.0\t{lmk}\t{frm}\thola mundo",
        f"u2\tspkB\t30\t1.0\t{lmk}\t{frm}\tbuenos dias amigos",
    ]
    man = tmp_path / "manifest.tsv"
    man.write_text("\n".join(lines) + "\n")
    records = corpus.load_manifest(man)
    assert [r.utterance_id for r in records] == ["u1", "u2"]
    assert records[0].transcript == ["hola", "mundo"]
    assert records[1].speaker_id == "spkB"
    assert records[0].frame_rate == 30.0

    out = tmp_path / "copy.tsv"
    corpus.write_manifest(out, records)
    assert [r.transcript for r in corpus.load_manifest(out)] == [r.transcript for r in records]


def test_manifest_field_count_error(tmp_path):
    man = tmp_path / "manifest.tsv"
    man.write_text("u1\tspkA\t30\t1.0\tonly_five_fields\n")
    with pytest.raises(ManifestError):
        corpus.load_manifest(man)


@pytest.mark.parametrize("rate, duration, field", [
    ("nan", "1.0", "frame_rate"), ("inf", "1.0", "frame_rate"),
    ("0", "1.0", "frame_rate"), ("-30", "1.0", "frame_rate"),
    ("30", "nan", "duration"), ("30", "inf", "duration"),
    ("30", "-0.5", "duration"), ("nan", "inf", "frame_rate")])
def test_manifest_bad_number_error(tmp_path, rate, duration, field):
    lmk, frm = _write_pair(tmp_path, 30)
    man = tmp_path / "manifest.tsv"
    man.write_text(f"u1\tspkA\t30\t1.0\t{lmk}\t{frm}\thola\n"
                   f"u2\tspkA\t{rate}\t{duration}\t{lmk}\t{frm}\thola\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}:2: {field} must be"):
        corpus.load_manifest(man)


def test_manifest_duplicate_id(tmp_path):
    lmk, frm = _write_pair(tmp_path, 10)
    row = f"u1\tspkA\t30\t0.333\t{lmk}\t{frm}\thola"
    man = tmp_path / "manifest.tsv"
    man.write_text(row + "\n" + row + "\n")
    with pytest.raises(ManifestError, match="duplicate"):
        corpus.load_manifest(man)


def test_manifest_frame_count_mismatch(tmp_path):
    lmk, _ = _write_pair(tmp_path, 10, "a")
    _, frm = _write_pair(tmp_path, 12, "b")
    man = tmp_path / "manifest.tsv"
    man.write_text(f"u7\tspkA\t30\t0.333\t{lmk}\t{frm}\thola\n")
    with pytest.raises(IntegrityError, match="u7"):
        corpus.load_manifest(man)


def test_manifest_duration_mismatch_warns(tmp_path, caplog):
    lmk, frm = _write_pair(tmp_path, 30)
    man = tmp_path / "manifest.tsv"
    man.write_text(f"u1\tspkA\t30\t9.0\t{lmk}\t{frm}\thola\n")
    with caplog.at_level("WARNING", logger="vsrlab.corpus"):
        records = corpus.load_manifest(man)
    assert records[0].duration == 9.0
    assert any("duration" in m for m in caplog.messages)


def test_manifest_scales_to_thousands(tmp_path):
    lmk, frm = _write_pair(tmp_path, 30)
    lines = [f"u{i:05d}\tspk{i % 57:02d}\t30\t1.0\t{lmk}\t{frm}\tpalabra {i}" for i in range(2792)]
    man = tmp_path / "manifest.tsv"
    man.write_text("\n".join(lines) + "\n")
    records = corpus.load_manifest(man)
    assert len(records) == 2792
    assert records[0].utterance_id == "u00000"
    assert records[-1].utterance_id == "u02791"
    assert len({r.speaker_id for r in records}) == 57


def test_default_lexicon_deterministic():
    lex1 = corpus.default_lexicon(20, seed=5)
    lex2 = corpus.default_lexicon(20, seed=5)
    assert lex1 == lex2
    assert len(lex1) == 20
    inventory = set(corpus.DEFAULT_PHONEME_INVENTORY)
    for word, phones in lex1.items():
        assert phones, word
        assert set(phones) <= inventory


def test_synthesis_deterministic(tmp_path):
    spec = corpus.SynthSpec(lexicon=_tiny_lexicon(), n_speakers=2, n_utterances=4,
                            seed=11, noise_level=0.05, image_size=(48, 48))
    recs1 = corpus.synthesize_corpus(spec, tmp_path / "one")
    recs2 = corpus.synthesize_corpus(spec, tmp_path / "two")
    # manifests store paths relative to themselves, so bytes must match exactly
    assert (tmp_path / "one" / "manifest.tsv").read_bytes() == \
        (tmp_path / "two" / "manifest.tsv").read_bytes()
    for r1, r2 in zip(recs1, recs2):
        assert r1.utterance_id == r2.utterance_id
        assert r1.transcript == r2.transcript
        assert np.array_equal(corpus.read_landmarks(r1.landmark_path),
                              corpus.read_landmarks(r2.landmark_path))
        assert np.array_equal(corpus.read_frames(r1.frames_path),
                              corpus.read_frames(r2.frames_path))


def test_zero_noise_single_phone_is_constant(tmp_path):
    # one single-phoneme word, no silence, no noise: every frame identical
    spec = corpus.SynthSpec(lexicon={"aa": ["a"]}, n_speakers=2, n_utterances=2,
                            seed=2, noise_level=0.0, add_silence=False,
                            words_per_utterance=(1, 1), image_size=(48, 48))
    recs = corpus.synthesize_corpus(spec, tmp_path)
    for r in recs:
        frames = corpus.read_frames(r.frames_path)
        assert np.all(frames == frames[0])
        lms = corpus.read_landmarks(r.landmark_path)
        assert np.all(lms == lms[0])


def test_distinct_phonemes_render_distinctly(tmp_path):
    spec = corpus.SynthSpec(lexicon={"aa": ["a"], "uu": ["u"]}, n_speakers=2,
                            n_utterances=2, seed=2, noise_level=0.0, add_silence=False,
                            words_per_utterance=(1, 1), image_size=(48, 48),
                            utterances_per_speaker=[1, 1])
    # force each speaker to draw enough words that both appear somewhere
    spec2 = corpus.SynthSpec(lexicon={"aa": ["a"], "uu": ["u"]}, n_speakers=2,
                             n_utterances=8, seed=2, noise_level=0.0, add_silence=False,
                             words_per_utterance=(1, 1), image_size=(48, 48))
    recs = corpus.synthesize_corpus(spec2, tmp_path)
    by_word = {}
    for r in recs:
        frames = corpus.read_frames(r.frames_path)
        by_word.setdefault((r.speaker_id, r.transcript[0]), frames[-1])
    pairs = 0
    for spk in {"spk00", "spk01"}:
        if (spk, "aa") in by_word and (spk, "uu") in by_word:
            diff = np.mean(np.abs(by_word[(spk, "aa")].astype(float) - by_word[(spk, "uu")].astype(float)))
            assert diff > 1.0, f"{spk}: mean abs pixel diff {diff}"
            pairs += 1
    assert pairs >= 1


def test_synthesis_counts_and_split(tmp_path):
    lex = corpus.default_lexicon(20, seed=0)
    spec = corpus.SynthSpec(lexicon=lex, n_speakers=5, n_utterances=15, seed=9,
                            image_size=(48, 48), utterances_per_speaker=[4, 4, 4, 2, 1])
    recs = corpus.synthesize_corpus(spec, tmp_path)
    assert len(recs) == 15
    per_spk = {}
    for r in recs:
        per_spk[r.speaker_id] = per_spk.get(r.speaker_id, 0) + 1
    assert sorted(per_spk.values(), reverse=True) == [4, 4, 4, 2, 1]
    # reload through the manifest and check integrity end to end
    loaded = corpus.load_manifest(tmp_path / "manifest.tsv")
    assert len(loaded) == 15


def test_spec_validation():
    with pytest.raises(ValueError):
        corpus.SynthSpec(lexicon={}, n_speakers=2).validate()
    with pytest.raises(ValueError):
        corpus.SynthSpec(lexicon={"a": ["q"]}, n_speakers=2).validate()
    with pytest.raises(ValueError):
        corpus.SynthSpec(lexicon={"a": ["a"]}, n_speakers=1).validate()
    with pytest.raises(ValueError):
        corpus.SynthSpec(lexicon={"a": ["a"]}, n_speakers=2, n_utterances=5,
                         utterances_per_speaker=[1, 2]).validate()


def _render_frame(shape, profile, spec):
    """Rasterize one grayscale face frame: the per-frame renderer that
    ``corpus._render_frames`` replaced, kept as its oracle."""
    width, height = spec.image_size
    half_w, inner_h, curl, teeth = shape
    outer_w = half_w + 1.5 * profile["scale"]
    inner_w = 0.82 * half_w
    up = inner_h + profile["upper_lip"]
    low = inner_h + profile["lower_lip"]
    mx, my = corpus._mouth_center(profile)
    ys, xs = np.mgrid[0:height, 0:width]
    u = xs - mx
    v = ys - my
    tilt = profile["tilt"]
    ur = math.cos(tilt) * u + math.sin(tilt) * v
    vr = -math.sin(tilt) * u + math.cos(tilt) * v
    vr = vr - curl * ur ** 2 / max(outer_w, 1e-6)

    img = np.full((height, width), profile["skin"] * profile["gain"])
    img += 0.04 * (ys / height - 0.5)  # mild vertical lighting gradient

    h_out = np.where(vr < 0, up, low)
    in_outer = (ur / outer_w) ** 2 + (vr / h_out) ** 2 <= 1.0
    img[in_outer] = profile["lip"] * profile["gain"]
    if inner_h > 1e-6:
        in_inner = (ur / max(inner_w, 1e-6)) ** 2 + (vr / inner_h) ** 2 <= 1.0
        img[in_inner] = 0.08
        band = in_inner & (vr <= -inner_h + teeth * 1.6 * inner_h)
        img[band] = 0.88 * profile["gain"]
    return img


# (24, 20) is smaller than the box around the mouth, which also sits partly
# below the image
@pytest.mark.parametrize("image_size", [(96, 96), (64, 48), (24, 20)])
@pytest.mark.parametrize("tilt", [0.0, -0.14, 0.11])
def test_render_frames_equal_per_frame_oracle(image_size, tilt):
    rng = np.random.default_rng(image_size[0])
    spec = corpus.SynthSpec(lexicon=_tiny_lexicon(), image_size=image_size)
    profile = dict(corpus._speaker_profile(rng, spec), tilt=tilt)
    n = 40
    shapes = np.column_stack([rng.uniform(1.0, 15.0, n), rng.uniform(0.0, 5.0, n),
                              rng.uniform(-0.25, 0.25, n), rng.uniform(0.0, 1.0, n)])
    # no opening, and tiny openings either side of the renderer's threshold
    shapes[:4, 1] = [0.0, 1e-7, 1e-6, 2e-6]
    shapes[4:8, 3] = [0.0, 1.0, 0.0, 1.0]
    shapes[8:12, 2] = [-0.25, 0.25, -0.25, 0.25]
    got = corpus._render_frames(shapes, profile, spec)
    want = np.stack([_render_frame(shape, profile, spec) for shape in shapes])
    assert got.shape == (n, image_size[1], image_size[0])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_level, pinned", [
    (0.4, "89cee581afae499beb55c6ffd0388f780d838f7cf6c50d98fabb8785eabf085c"),
    (0.0, "d049544c07460e8664a27f181cd976286e88e8cb7d277af85c42ed381cb916e7"),
])
def test_synthesized_corpus_pinned(tmp_path, noise_level, pinned):
    # every file of a small corpus, whose utterances span several rendering
    # chunks and whose mouth box is clipped by the image's lower edge.
    # (Platform: x86-64, numpy 2.4; another libm may move the last bit.)
    spec = corpus.SynthSpec(lexicon=corpus.default_lexicon(n_words=6, seed=0),
                            n_speakers=2, n_utterances=2, image_size=(48, 40),
                            frames_per_phoneme=(30.0, 2.0), words_per_utterance=(2, 2),
                            noise_level=noise_level, seed=4)
    records = corpus.synthesize_corpus(spec, tmp_path)
    assert all(corpus.read_frames_header(r.frames_path)[0] > 3 * corpus._CHUNK_FRAMES
               for r in records)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(tmp_path)).encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == pinned
