"""Feature sequence post-processing: z-score normalization, regression
deltas, stream combination, and the on-disk feature container.

Pipeline order is enforced, not advised: normalization statistics are defined
on static features, so a sequence that already carries delta blocks cannot be
normalized again, and delta augmentation refuses to run twice.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import binio
from .errors import (
    FormatError,
    IncompatibleStreamsError,
    PipelineOrderError,
    SequenceTooShortError,
)

FEATURE_MAGIC = b"VFA1"
NORM_MODES = ("speaker", "utterance")
NORMALIZATION_TAGS = ("none",) + NORM_MODES
MAX_DELTA_CONTEXT = 3
_STD_FLOOR = 1e-8


@dataclass
class FeatureSequence:
    frames: np.ndarray        # (T, D) float64
    utterance_id: str
    speaker_id: str
    stream_tag: str           # e.g. "geo", "eig", "geo+dnn"
    normalization_tag: str = "none"
    delta_context: int = 0    # 0 = static only, N>0 = deltas with window N

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {self.frames.shape}")
        if self.normalization_tag not in NORMALIZATION_TAGS:
            raise ValueError(f"unknown normalization tag {self.normalization_tag!r}")
        if not 0 <= self.delta_context <= MAX_DELTA_CONTEXT:
            raise ValueError(f"delta context must be in [0, {MAX_DELTA_CONTEXT}], "
                             f"got {self.delta_context}")


def regression_deltas(frames, context):
    """First-order regression coefficients with replicated edges.

    d_t = sum_{n=1..N} n * (c_{t+n} - c_{t-n}) / (2 * sum_{n=1..N} n^2)
    """
    frames = np.asarray(frames, dtype=float)
    n_frames = frames.shape[0]
    pad = np.concatenate([
        np.repeat(frames[:1], context, axis=0),
        frames,
        np.repeat(frames[-1:], context, axis=0),
    ])
    num = np.zeros_like(frames)
    for n in range(1, context + 1):
        num += n * (pad[context + n:context + n + n_frames]
                    - pad[context - n:context - n + n_frames])
    denom = 2.0 * sum(n * n for n in range(1, context + 1))
    return num / denom


def add_deltas(seq, context):
    """Append delta and delta-delta blocks: (T, D) -> (T, 3D)."""
    if not 1 <= context <= MAX_DELTA_CONTEXT:
        raise ValueError(f"delta context must be in [1, {MAX_DELTA_CONTEXT}], got {context}")
    if seq.delta_context != 0:
        raise PipelineOrderError(
            f"{seq.utterance_id}: sequence already carries deltas (context {seq.delta_context})")
    if seq.frames.shape[0] < 2:
        raise SequenceTooShortError(
            f"{seq.utterance_id}: need at least 2 frames for deltas, got {seq.frames.shape[0]}")
    delta = regression_deltas(seq.frames, context)
    delta2 = regression_deltas(delta, context)
    return replace(seq, frames=np.hstack([seq.frames, delta, delta2]), delta_context=context)


def zscore_normalize(seqs, mode):
    """Per-speaker or per-utterance z-scoring of static features.

    Statistics use the population (1/N) variance; a zero-variance dimension is
    mapped to zero rather than dividing by zero. Returns new sequences in the
    input order.
    """
    if mode not in NORM_MODES:
        raise ValueError(f"mode must be 'speaker' or 'utterance', got {mode!r}")
    for seq in seqs:
        if seq.delta_context != 0:
            raise PipelineOrderError(
                f"{seq.utterance_id}: normalize before adding deltas, not after")
        if seq.normalization_tag != "none":
            raise PipelineOrderError(
                f"{seq.utterance_id}: sequence is already normalized ({seq.normalization_tag})")

    if mode == "utterance":
        groups = [[seq] for seq in seqs]
    else:
        by_speaker = {}
        for seq in seqs:
            by_speaker.setdefault(seq.speaker_id, []).append(seq)
        groups = list(by_speaker.values())

    out = {}
    for group in groups:
        stacked = np.vstack([seq.frames for seq in group])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)  # population convention
        std = np.maximum(std, _STD_FLOOR)
        for seq in group:
            out[id(seq)] = replace(seq, frames=(seq.frames - mean) / std,
                                   normalization_tag=mode)
    return [out[id(seq)] for seq in seqs]


def combine_streams(seqs):
    """Frame-synchronous concatenation of parallel feature streams."""
    if not seqs:
        raise ValueError("no streams to combine")
    if len(seqs) == 1:
        return seqs[0]
    first = seqs[0]
    for seq in seqs[1:]:
        if seq.utterance_id != first.utterance_id:
            raise IncompatibleStreamsError(
                f"cannot combine {first.utterance_id!r} with {seq.utterance_id!r}")
        if seq.frames.shape[0] != first.frames.shape[0]:
            raise IncompatibleStreamsError(
                f"{first.utterance_id}: frame counts differ "
                f"({first.frames.shape[0]} vs {seq.frames.shape[0]} in {seq.stream_tag})")
        if seq.normalization_tag != first.normalization_tag:
            raise IncompatibleStreamsError(
                f"{first.utterance_id}: normalization differs "
                f"({first.normalization_tag} vs {seq.normalization_tag})")
        if seq.delta_context != first.delta_context:
            raise IncompatibleStreamsError(
                f"{first.utterance_id}: delta context differs "
                f"({first.delta_context} vs {seq.delta_context})")
    return FeatureSequence(
        frames=np.hstack([seq.frames for seq in seqs]),
        utterance_id=first.utterance_id,
        speaker_id=first.speaker_id,
        stream_tag="+".join(seq.stream_tag for seq in seqs),
        normalization_tag=first.normalization_tag,
        delta_context=first.delta_context,
    )


def save_features(path, seq):
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        binio.write_u32(fh, seq.frames.shape[0])
        binio.write_u32(fh, seq.frames.shape[1])
        binio.write_str8(fh, seq.utterance_id)
        binio.write_str8(fh, seq.speaker_id)
        binio.write_str8(fh, seq.stream_tag)
        binio.write_str8(fh, seq.normalization_tag)
        binio.write_u8(fh, seq.delta_context)
        binio.write_array(fh, seq.frames, "<f4")


def load_features(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, FEATURE_MAGIC)
        n_frames, dim = r.u32(), r.u32()
        utterance_id, speaker_id, stream_tag, normalization_tag = (r.str8() for _ in range(4))
        delta_context = r.u8()
        frames = r.array("<f4", (n_frames, dim))
        r.end()
    # checked before widening, which warns on a signalling NaN
    if not np.isfinite(frames).all():
        t = int(np.isfinite(frames).all(axis=1).argmin())
        raise FormatError(f"{path}: non-finite value in frame {t}")
    frames = frames.astype(float)
    try:
        return FeatureSequence(frames, utterance_id, speaker_id, stream_tag,
                               normalization_tag, delta_context)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
