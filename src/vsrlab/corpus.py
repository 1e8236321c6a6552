"""Corpus data model, on-disk formats, and synthetic corpus generation.

On-disk layout of a corpus directory:

    manifest.tsv          one utterance per line, tab-separated:
                          utterance_id  speaker_id  frame_rate  duration_seconds
                          landmark_path  frames_path  transcript...
                          (transcript is the rest of the line, space-separated
                          lowercase words; paths are relative to the manifest)
    landmarks/<utt>.lmk   "LMK1", u32 frame_count, u32 n_points (68), then
                          frame-major f32 (x, y) pairs in source pixel coords
    frames/<utt>.frm      "FRM1", u32 frame_count, u32 width, u32 height, then
                          frame-major u8 grayscale pixels, row-major

The synthetic generator renders an articulated cartoon face: each phoneme maps
to a distinct mouth shape (width, opening height, corner curl, teeth band) per
speaker, trajectories interpolate linearly between consecutive targets over a
two-frame transition, and landmark/pixel noise is added on top. It exists so
the full recognition loop can be exercised without any external video data.

An utterance's frames are built in chunks of up to ``_CHUNK_FRAMES`` frames,
each in one batched pass: the landmarks of the chunk's frames, then their
images. An image starts as the speaker's background, and only a box around
the mouth, whose bound ``_render_frames`` derives, is tested for the lips,
the opening and the teeth. The chunk then draws its noise as one
(frames, 2 * 68 + H * W) array: a row per frame in frame order, the frame's
landmark noise and then its pixel noise. The generator yields these values
in the same order as one draw per frame for the landmarks and one for the
pixels would, so the files do not depend on the chunk size. An utterance
draws, in order: its word count, its words, its phone durations, its shape
jitter, then its frames' noise.
"""

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .errors import FormatError, IntegrityError, ManifestError
from .hmm import SILENCE_PHONE
from .lingware import Lexicon, save_lexicon

log = logging.getLogger(__name__)

LANDMARK_MAGIC = b"LMK1"
FRAMES_MAGIC = b"FRM1"
N_LANDMARKS = 68

# Castilian-style 23-symbol inventory used by the synthetic corpus ("ny"
# stands for the palatal nasal, "z" for the interdental fricative, "y" for
# the palatal approximant).
DEFAULT_PHONEME_INVENTORY = [
    "a", "b", "ch", "d", "e", "f", "g", "i", "k", "l", "m", "n",
    "ny", "o", "p", "r", "rr", "s", "t", "u", "x", "y", "z",
]


@dataclass
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    transcript: list[str]
    frame_rate: float
    landmark_path: Path
    frames_path: Path
    duration: float


@dataclass
class SynthSpec:
    """Parameters of the synthetic corpus generator.

    ``n_utterances`` are distributed as evenly as possible over speakers unless
    ``utterances_per_speaker`` gives explicit counts.
    """

    lexicon: dict
    n_speakers: int = 2
    n_utterances: int = 10
    phoneme_inventory: list[str] = field(default_factory=lambda: list(DEFAULT_PHONEME_INVENTORY))
    frames_per_phoneme: tuple[float, float] = (5.0, 1.0)
    noise_level: float = 0.02
    seed: int = 0
    frame_rate: float = 30.0
    image_size: tuple[int, int] = (96, 96)  # (width, height)
    words_per_utterance: tuple[int, int] = (2, 6)
    utterances_per_speaker: list[int] | None = None
    add_silence: bool = True

    def validate(self):
        """Raise ``ValueError``, naming the field, if the spec cannot make a corpus."""
        counts = self.utterances_per_speaker
        (mean_f, std_f), (low, high) = self.frames_per_phoneme, self.words_per_utterance
        for name, ok, rule in [
                ("n_speakers", self.n_speakers >= 2, "at least 2"),
                ("n_utterances", self.n_utterances >= 1, "at least 1"),
                ("utterances_per_speaker", counts is None or (
                    len(counts) == self.n_speakers and sum(counts) == self.n_utterances
                    and min(counts, default=0) >= 0),
                 "None or a count >= 0 per speaker, summing to n_utterances"),
                ("lexicon", bool(self.lexicon), "non-empty"),
                ("frames_per_phoneme mean", 2 <= mean_f < math.inf, ">= 2 and finite"),
                ("frames_per_phoneme spread", 0 <= std_f < math.inf, "non-negative and finite"),
                ("noise_level", 0 <= self.noise_level < math.inf, "non-negative and finite"),
                ("frame_rate", 0 < self.frame_rate < math.inf, "positive and finite"),
                ("image_size", min(self.image_size) >= 1, "at least 1 pixel each way"),
                ("words_per_utterance", 1 <= low <= high, "(low, high), 1 <= low <= high")]:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name.split()[0])}")
        inventory = set(self.phoneme_inventory)
        for word, phones in self.lexicon.items():
            if not phones:
                raise ValueError(f"word {word!r} has an empty pronunciation")
            unknown = set(phones) - inventory
            if unknown:
                raise ValueError(f"word {word!r} uses phonemes outside the inventory: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# binary containers

def write_landmarks(path, points):
    """Write a (T, 68, 2) float array as an LMK1 file."""
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 3 or points.shape[1:] != (N_LANDMARKS, 2):
        raise ValueError(f"landmarks must have shape (T, 68, 2), got {points.shape}")
    with open(path, "wb") as fh:
        fh.write(LANDMARK_MAGIC)
        binio.write_u32(fh, points.shape[0])
        binio.write_u32(fh, N_LANDMARKS)
        binio.write_array(fh, points, "<f4")


def read_landmarks(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, LANDMARK_MAGIC)
        n_frames, n_points = r.u32(), r.u32()
        if n_points != N_LANDMARKS:
            raise FormatError(f"{path}: expected {N_LANDMARKS} points per frame, got {n_points}")
        points = r.array("<f4", (n_frames, n_points, 2))
        r.end()
    finite = np.isfinite(points).all(axis=(1, 2))
    if not finite.all():
        raise FormatError(f"{path}: non-finite coordinates in frame {int(finite.argmin())}")
    return points


def read_landmark_count(path):
    with open(path, "rb") as fh:
        return binio.Reader(fh, path, LANDMARK_MAGIC).u32()


def write_frames(path, frames):
    """Write a (T, H, W) uint8 array as an FRM1 file."""
    frames = np.asarray(frames)
    if frames.dtype != np.uint8 or frames.ndim != 3 or 0 in frames.shape[1:]:
        raise ValueError("frames must be a (T, H, W) uint8 array with H, W > 0")
    n_frames, height, width = frames.shape
    with open(path, "wb") as fh:
        fh.write(FRAMES_MAGIC)
        binio.write_u32(fh, n_frames)
        binio.write_u32(fh, width)
        binio.write_u32(fh, height)
        binio.write_array(fh, frames, np.uint8)


def read_frames(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, FRAMES_MAGIC)
        n_frames, width, height = r.u32(), r.u32(), r.u32()
        if width == 0 or height == 0:
            raise FormatError(f"{path}: frames of {width}x{height} pixels")
        frames = r.array(np.uint8, (n_frames, height, width))
        r.end()
    return frames


def read_frames_header(path):
    """Return (frame_count, width, height) without loading pixel data."""
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, FRAMES_MAGIC)
        return r.u32(), r.u32(), r.u32()


# ---------------------------------------------------------------------------
# manifest

def load_manifest(path):
    """Parse a manifest into UtteranceRecords, preserving row order.

    Each row's landmark and frame containers are opened and their frame
    counts compared; a missing file or a mismatch raises IntegrityError
    naming the utterance. Manifest durations are authoritative; a
    disagreement with frame_count / frame_rate beyond one frame period is
    only warned about.
    """
    path = Path(path)
    base = path.parent
    records = []
    seen = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ManifestError(f"{path}:{lineno}: expected 7 tab-separated fields, got {len(parts)}")
        utt_id, speaker_id, rate_s, dur_s, lmk_rel, frm_rel, transcript = parts
        if utt_id in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate utterance_id {utt_id!r}")
        seen.add(utt_id)
        try:
            frame_rate = float(rate_s)
            duration = float(dur_s)
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: bad numeric field: {exc}") from None
        if not (math.isfinite(frame_rate) and frame_rate > 0):
            raise ManifestError(f"{path}:{lineno}: frame_rate must be positive and finite, "
                                f"got {rate_s!r}")
        if not (math.isfinite(duration) and duration >= 0):
            raise ManifestError(f"{path}:{lineno}: duration must be non-negative and finite, "
                                f"got {dur_s!r}")
        words = transcript.split()
        if not words:
            raise ManifestError(f"{path}:{lineno}: empty transcript for {utt_id!r}")
        record = UtteranceRecord(
            utterance_id=utt_id,
            speaker_id=speaker_id,
            transcript=words,
            frame_rate=frame_rate,
            landmark_path=base / lmk_rel,
            frames_path=base / frm_rel,
            duration=duration,
        )
        _validate_record_files(record)
        records.append(record)
    return records


def _validate_record_files(record):
    utt = record.utterance_id
    if not record.landmark_path.is_file():
        raise IntegrityError(f"{utt}: missing landmark file {record.landmark_path}")
    if not record.frames_path.is_file():
        raise IntegrityError(f"{utt}: missing frames file {record.frames_path}")
    n_lmk = read_landmark_count(record.landmark_path)
    n_frm = read_frames_header(record.frames_path)[0]
    if n_lmk != n_frm:
        raise IntegrityError(f"{utt}: landmark file has {n_lmk} frames but frames file has {n_frm}")
    period = 1.0 / record.frame_rate
    if abs(record.duration - n_frm * period) > period:
        log.warning(
            "%s: manifest duration %.3fs disagrees with %d frames at %g fps; keeping manifest value",
            utt, record.duration, n_frm, record.frame_rate,
        )


def write_manifest(path, records):
    path = Path(path)
    base = path.parent
    lines = []
    for r in records:
        lines.append("\t".join([
            r.utterance_id,
            r.speaker_id,
            f"{r.frame_rate:g}",
            f"{r.duration:.6f}",
            str(Path(r.landmark_path).relative_to(base) if Path(r.landmark_path).is_relative_to(base) else r.landmark_path),
            str(Path(r.frames_path).relative_to(base) if Path(r.frames_path).is_relative_to(base) else r.frames_path),
            " ".join(r.transcript),
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# synthetic corpus

def default_lexicon(n_words=20, seed=0, inventory=None):
    """Build a deterministic pseudo-word lexicon of CV-syllable words."""
    inventory = list(inventory) if inventory is not None else list(DEFAULT_PHONEME_INVENTORY)
    vowels = [p for p in inventory if p in ("a", "e", "i", "o", "u")]
    consonants = [p for p in inventory if p not in vowels]
    if not vowels or not consonants:
        raise ValueError("inventory must contain both vowels and consonants")
    rng = np.random.default_rng(seed)
    lexicon = {}
    while len(lexicon) < n_words:
        n_syll = int(rng.integers(2, 4))
        phones = []
        for _ in range(n_syll):
            phones.append(consonants[int(rng.integers(len(consonants)))])
            phones.append(vowels[int(rng.integers(len(vowels)))])
        word = "".join(phones)
        if word not in lexicon:
            lexicon[word] = phones
    return dict(sorted(lexicon.items()))


# Shape scalars are (half_width, inner_half_height, corner_curl, teeth) in
# source pixels, except curl and teeth which are dimensionless.
_TRANSITION_FRAMES = 2
_SHAPE_NOISE_GAIN = 25.0  # articulation jitter, in px per unit noise_level
# frames rendered, noised and quantized at a time: bounds the float64 images
# and noise held for a long utterance to a few arrays of 128 * H * W values
_CHUNK_FRAMES = 128


def _speaker_profile(rng, spec):
    width, height = spec.image_size
    scale = float(rng.uniform(0.92, 1.08))
    return {
        "scale": scale,
        "center": np.array([
            width / 2.0 + float(rng.uniform(-2.0, 2.0)),
            height / 2.0 - 4.0 + float(rng.uniform(-2.0, 2.0)),
        ]),
        "skin": float(rng.uniform(0.55, 0.75)),
        "lip": float(rng.uniform(0.28, 0.40)),
        "tilt": float(rng.uniform(-0.14, 0.14)),
        "gain": float(rng.uniform(0.92, 1.08)),
        "upper_lip": 2.6 * scale,
        "lower_lip": 3.4 * scale,
    }


def _phone_bases(rng, spec):
    """Corpus-global base shape for every phoneme, plus a neutral silence pose.

    Width and opening are assigned from shuffled lattices so any two phonemes
    differ in both dimensions, which keeps the classes separable even at zero
    noise. Shared across speakers: a phoneme keeps its identity, speakers only
    deform it.
    """
    phones = list(spec.phoneme_inventory)
    n = len(phones)
    widths = np.linspace(7.0, 13.0, n)
    heights = np.linspace(0.4, 4.5, n)
    curls = np.linspace(-0.25, 0.25, n)
    teeth = np.linspace(0.0, 1.0, n)
    order_w = rng.permutation(n)
    order_h = rng.permutation(n)
    order_c = rng.permutation(n)
    order_t = rng.permutation(n)
    bases = {}
    for i, phone in enumerate(phones):
        bases[phone] = np.array([widths[order_w[i]], heights[order_h[i]],
                                 curls[order_c[i]], teeth[order_t[i]]])
    bases[SILENCE_PHONE] = np.array([9.0, 0.4, 0.0, 0.0])
    return bases


def _phone_targets(rng, spec, profile, bases):
    """Per-speaker targets: the shared bases under speaker scale and jitter."""
    s = profile["scale"]
    targets = {}
    for phone in bases:
        jitter = rng.uniform(-0.05, 0.05, 4)
        base = bases[phone]
        targets[phone] = np.array([
            base[0] * s * (1 + jitter[0]),
            base[1] * s * (1 + jitter[1]),
            base[2] + 0.05 * jitter[2],
            min(1.0, max(0.0, base[3] + 0.05 * jitter[3])),
        ])
    return targets


def _static_landmarks(profile):
    """The 48 non-mouth landmarks (jaw, brows, nose, eyes), speaker-fixed."""
    s = profile["scale"]
    cx, cy = profile["center"]
    pts = np.zeros((48, 2))
    # jaw 0..16 on a half ellipse, chin at index 8
    alpha = np.arange(17) * math.pi / 16.0
    pts[0:17, 0] = cx - 30.0 * s * np.cos(alpha)
    pts[0:17, 1] = cy - 6.0 * s + 34.0 * s * np.sin(alpha)
    # brows 17..26
    bx = np.linspace(-18.0, -4.0, 5) * s
    pts[17:22, 0] = cx + bx
    pts[22:27, 0] = cx - bx[::-1]
    pts[17:27, 1] = cy - 18.0 * s
    # nose bridge 27..30 and base 31..35 (33 is the subnasal center)
    pts[27:31, 0] = cx
    pts[27:31, 1] = cy + np.linspace(-14.0, 2.0, 4) * s
    pts[31:36, 0] = cx + np.linspace(-6.0, 6.0, 5) * s
    pts[31:36, 1] = cy + 6.0 * s
    # eyes 36..47, six points each
    for base, ex in ((36, -11.0), (42, 11.0)):
        ang = np.arange(6) * (2 * math.pi / 6.0)
        pts[base:base + 6, 0] = cx + ex * s + 3.5 * s * np.cos(ang)
        pts[base:base + 6, 1] = cy - 12.0 * s + 1.8 * s * np.sin(ang)
    return pts


_OUTER_ANGLES = np.array([180, 150, 120, 90, 60, 30, 0, -30, -60, -90, -120, -150]) * math.pi / 180.0
_INNER_ANGLES = np.array([180, 135, 90, 45, 0, -45, -90, -135]) * math.pi / 180.0


def _mouth_geometry(shapes, profile):
    """Mouth landmark positions (T, 20, 2) in mouth-local coordinates (y down)
    of mouth ``shapes`` (T, 4)."""
    half_w, inner_h, curl = (shapes[:, i, None] for i in range(3))
    outer_w = half_w + 1.5 * profile["scale"]
    inner_w = 0.82 * half_w
    up = inner_h + profile["upper_lip"]
    low = inner_h + profile["lower_lip"]
    pts = np.zeros((len(shapes), 20, 2))
    cos_o, sin_o = np.cos(_OUTER_ANGLES), np.sin(_OUTER_ANGLES)
    pts[:, 0:12, 0] = outer_w * cos_o
    pts[:, 0:12, 1] = -np.where(sin_o >= 0, up, low) * sin_o
    cos_i, sin_i = np.cos(_INNER_ANGLES), np.sin(_INNER_ANGLES)
    pts[:, 12:20, 0] = inner_w * cos_i
    pts[:, 12:20, 1] = -inner_h * sin_i
    pts[:, :, 1] += curl * pts[:, :, 0] ** 2 / np.maximum(outer_w, 1e-6)
    return pts


def _mouth_center(profile):
    return profile["center"] + np.array([0.0, 18.0 * profile["scale"]])


def _frame_landmarks(shapes, profile):
    """The (T, 68, 2) landmarks of frames with mouth ``shapes`` (T, 4)."""
    pts = np.empty((len(shapes), N_LANDMARKS, 2))
    pts[:, 0:48] = _static_landmarks(profile)
    tilt = profile["tilt"]
    rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
    pts[:, 48:68] = _mouth_geometry(shapes, profile) @ rot.T + _mouth_center(profile)
    return pts


def _render_frames(shapes, profile, spec):
    """Rasterize grayscale face frames (T, H, W) consistent with the landmarks
    of mouth ``shapes`` (T, 4).

    Every frame starts as the speaker's background, and only pixels within
    ``reach`` of the mouth center, in x and in y, are tested for the lips,
    the mouth opening and the teeth. The bound: a pixel at offset (u, v)
    has rotated offset (ur, vr0) of the same length, and the curl bends vr0
    into vr = vr0 - curl * ur**2 / outer_w. Inside the outer ellipse
    |ur| <= outer_w and |vr| <= max(up, low), so |vr0| <= max(up, low) +
    |curl| * outer_w, and |u|, |v| <= |ur| + |vr0|. The mouth opening
    (half-width 0.82 * half_w, half-height inner_h) and the teeth band inside
    it obey tighter bounds. So ``reach`` is the largest
    outer_w + max(up, low) + |curl| * outer_w over the frames, plus a 2 px
    margin for rounding, and the box is clipped to the image.
    """
    width, height = spec.image_size
    half_w, inner_h, curl, teeth = (shapes[:, i, None, None] for i in range(4))
    outer_w = half_w + 1.5 * profile["scale"]
    inner_w = 0.82 * half_w
    up = inner_h + profile["upper_lip"]
    low = inner_h + profile["lower_lip"]
    mx, my = _mouth_center(profile)
    ys, xs = np.mgrid[0:height, 0:width]

    background = np.full((height, width), profile["skin"] * profile["gain"])
    background += 0.04 * (ys / height - 0.5)  # mild vertical lighting gradient
    img = np.repeat(background[None], len(shapes), axis=0)

    reach = np.max(outer_w + np.maximum(up, low) + np.abs(curl) * outer_w) + 2.0
    x0, x1 = np.clip([math.floor(mx - reach), math.ceil(mx + reach) + 1], 0, width)
    y0, y1 = np.clip([math.floor(my - reach), math.ceil(my + reach) + 1], 0, height)
    box = img[:, y0:y1, x0:x1]
    u = xs[y0:y1, x0:x1] - mx
    v = ys[y0:y1, x0:x1] - my
    tilt = profile["tilt"]
    ur = math.cos(tilt) * u + math.sin(tilt) * v
    vr = -math.sin(tilt) * u + math.cos(tilt) * v
    vr = vr - curl * ur ** 2 / np.maximum(outer_w, 1e-6)

    h_out = np.where(vr < 0, up, low)
    in_outer = (ur / outer_w) ** 2 + (vr / h_out) ** 2 <= 1.0
    box[in_outer] = profile["lip"] * profile["gain"]
    # frames with no opening skip the test (and its division by zero)
    has_inner = inner_h > 1e-6
    in_inner = has_inner & ((ur / np.maximum(inner_w, 1e-6)) ** 2
                            + (vr / np.where(has_inner, inner_h, 1.0)) ** 2 <= 1.0)
    box[in_inner] = 0.08
    band = in_inner & (vr <= -inner_h + teeth * 1.6 * inner_h)
    box[band] = 0.88 * profile["gain"]
    return img


def _quantize(img):
    """8-bit gray levels of ``img``, computed in place in ``img`` so that a
    chunk allocates no further float arrays of its size."""
    img *= 255.0
    np.clip(np.round(img, out=img), 0, 255, out=img)
    return img.astype(np.uint8)


def synthesize_corpus(spec, out_dir):
    """Generate a corpus under ``out_dir`` and return its records.

    Deterministic for a fixed spec: repeated runs produce byte-identical files.
    Besides landmark/frame containers and the manifest, a ``lexicon.txt`` is
    written so the directory is self-contained for training and decoding.
    """
    spec.validate()
    out_dir = Path(out_dir)
    (out_dir / "landmarks").mkdir(parents=True, exist_ok=True)
    (out_dir / "frames").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(spec.seed)
    words = sorted(spec.lexicon)
    counts = spec.utterances_per_speaker
    if counts is None:
        base, extra = divmod(spec.n_utterances, spec.n_speakers)
        counts = [base + (1 if i < extra else 0) for i in range(spec.n_speakers)]

    profiles = [_speaker_profile(rng, spec) for _ in range(spec.n_speakers)]
    bases = _phone_bases(rng, spec)
    targets = [_phone_targets(rng, spec, p, bases) for p in profiles]

    mean_f, std_f = spec.frames_per_phoneme
    records = []
    for spk_idx in range(spec.n_speakers):
        speaker_id = f"spk{spk_idx:02d}"
        profile = profiles[spk_idx]
        for k in range(counts[spk_idx]):
            utt_id = f"{speaker_id}_u{k:04d}"
            n_words = int(rng.integers(spec.words_per_utterance[0], spec.words_per_utterance[1] + 1))
            transcript = [words[int(i)] for i in rng.integers(0, len(words), n_words)]
            phones = []
            for w in transcript:
                phones.extend(spec.lexicon[w])
            if spec.add_silence:
                phones = [SILENCE_PHONE] + phones + [SILENCE_PHONE]
            durations = np.maximum(2, np.rint(rng.normal(mean_f, std_f, len(phones)))).astype(int)

            # piecewise trajectory: hold each target, blending from the
            # previous one over the first _TRANSITION_FRAMES frames
            shapes = []
            prev = None
            for phone, dur in zip(phones, durations):
                tgt = targets[spk_idx][phone]
                for j in range(dur):
                    if prev is not None and j < _TRANSITION_FRAMES:
                        alpha = (j + 1) / (_TRANSITION_FRAMES + 1)
                        shapes.append(prev + alpha * (tgt - prev))
                    else:
                        shapes.append(tgt)
                prev = tgt
            shapes = np.array(shapes)
            if spec.noise_level > 0:
                shapes = shapes + rng.normal(0.0, spec.noise_level * _SHAPE_NOISE_GAIN * 0.01, shapes.shape)
                shapes[:, 0] = np.maximum(shapes[:, 0], 1.0)
                shapes[:, 1] = np.maximum(shapes[:, 1], 0.0)
                shapes[:, 3] = np.clip(shapes[:, 3], 0.0, 1.0)

            n_frames = len(shapes)
            landmarks = np.empty((n_frames, N_LANDMARKS, 2), dtype=np.float32)
            frames = np.empty((n_frames, spec.image_size[1], spec.image_size[0]), dtype=np.uint8)
            for start in range(0, n_frames, _CHUNK_FRAMES):
                chunk = slice(start, start + _CHUNK_FRAMES)
                pts = _frame_landmarks(shapes[chunk], profile)
                img = _render_frames(shapes[chunk], profile, spec)
                if spec.noise_level > 0:
                    # each row: the frame's landmark noise, then its pixel noise
                    noise = rng.normal(0.0, spec.noise_level,
                                       (len(pts), pts[0].size + img[0].size))
                    pts += noise[:, :pts[0].size].reshape(pts.shape)
                    img += noise[:, pts[0].size:].reshape(img.shape)
                landmarks[chunk] = pts
                frames[chunk] = _quantize(img)

            lmk_path = out_dir / "landmarks" / f"{utt_id}.lmk"
            frm_path = out_dir / "frames" / f"{utt_id}.frm"
            write_landmarks(lmk_path, landmarks)
            write_frames(frm_path, frames)
            records.append(UtteranceRecord(
                utterance_id=utt_id,
                speaker_id=speaker_id,
                transcript=transcript,
                frame_rate=spec.frame_rate,
                landmark_path=lmk_path,
                frames_path=frm_path,
                duration=n_frames / spec.frame_rate,
            ))

    write_manifest(out_dir / "manifest.tsv", records)
    save_lexicon(out_dir / "lexicon.txt",
                 Lexicon({w: [list(p)] for w, p in spec.lexicon.items()}))
    return records
