import struct

import numpy as np
import pytest

from vsrlab import features
from vsrlab.errors import (
    FormatError,
    IncompatibleStreamsError,
    PipelineOrderError,
    SequenceTooShortError,
)


def _seq(frames, utt="u1", spk="s1", tag="geo", norm="none", ctx=0):
    return features.FeatureSequence(np.asarray(frames, dtype=float), utt, spk, tag,
                                    normalization_tag=norm, delta_context=ctx)


def test_delta_window1_hand_values():
    # d_t = (c_{t+1} - c_{t-1}) / 2 with replicated edges
    d = features.regression_deltas(np.array([[0.0], [1.0], [2.0], [3.0]]), 1)
    np.testing.assert_allclose(d[:, 0], [0.5, 1.0, 1.0, 0.5], atol=1e-12)


def test_delta_window2_hand_values():
    # denom 2*(1+4)=10; worked by hand on the ramp 0..5
    d = features.regression_deltas(np.arange(6.0).reshape(-1, 1), 2)
    np.testing.assert_allclose(d[:, 0], [0.5, 0.8, 1.0, 1.0, 0.8, 0.5], atol=1e-12)


def test_delta_interior_of_ramp_is_slope():
    ramp = (3.5 * np.arange(20.0) - 2.0).reshape(-1, 1)
    for ctx in (1, 2, 3):
        d = features.regression_deltas(ramp, ctx)
        np.testing.assert_allclose(d[ctx:-ctx, 0], 3.5, atol=1e-10)


def test_delta_of_constant_is_zero():
    d = features.regression_deltas(np.full((7, 3), 2.25), 3)
    assert np.allclose(d, 0.0, atol=1e-15)


def test_add_deltas_layout():
    seq = _seq(np.array([[0.0, 10.0], [1.0, 10.0], [2.0, 10.0], [3.0, 10.0]]))
    out = features.add_deltas(seq, 1)
    assert out.frames.shape == (4, 6)
    assert np.array_equal(out.frames[:, :2], seq.frames)       # static block first
    np.testing.assert_allclose(out.frames[:, 2], [0.5, 1.0, 1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(out.frames[:, 3], 0.0, atol=1e-12)
    # delta-delta of the window-1 ramp deltas, worked by hand
    np.testing.assert_allclose(out.frames[:, 4], [0.25, 0.25, -0.25, -0.25], atol=1e-12)
    assert out.delta_context == 1
    assert seq.delta_context == 0  # input untouched


def test_add_deltas_preconditions():
    with pytest.raises(SequenceTooShortError):
        features.add_deltas(_seq([[1.0]]), 1)
    doubled = features.add_deltas(_seq([[1.0], [2.0]]), 1)
    with pytest.raises(PipelineOrderError):
        features.add_deltas(doubled, 1)
    with pytest.raises(ValueError):
        features.add_deltas(_seq([[1.0], [2.0]]), 0)
    with pytest.raises(ValueError):
        features.add_deltas(_seq([[1.0], [2.0]]), 4)


def test_zscore_population_convention():
    # values 1, 3: population std is exactly 1 (sample std would be sqrt(2))
    out, = features.zscore_normalize([_seq([[1.0], [3.0]])], "utterance")
    np.testing.assert_allclose(out.frames[:, 0], [-1.0, 1.0], atol=1e-12)
    assert out.normalization_tag == "utterance"


def test_zscore_speaker_pools_across_utterances():
    a1 = _seq([[1.0]], utt="a1", spk="A")
    a2 = _seq([[3.0]], utt="a2", spk="A")
    b1 = _seq([[10.0], [30.0]], utt="b1", spk="B")
    out = features.zscore_normalize([a1, a2, b1], "speaker")
    np.testing.assert_allclose(out[0].frames[:, 0], [-1.0], atol=1e-12)
    np.testing.assert_allclose(out[1].frames[:, 0], [1.0], atol=1e-12)
    np.testing.assert_allclose(out[2].frames[:, 0], [-1.0, 1.0], atol=1e-12)
    assert all(s.normalization_tag == "speaker" for s in out)


def test_zscore_zero_variance_dimension():
    out, = features.zscore_normalize([_seq([[5.0, 1.0], [5.0, 3.0]])], "utterance")
    np.testing.assert_allclose(out.frames[:, 0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.frames[:, 1], [-1.0, 1.0], atol=1e-12)


def test_zscore_ordering_constraints():
    seq = features.add_deltas(_seq([[1.0], [2.0]]), 1)
    with pytest.raises(PipelineOrderError):
        features.zscore_normalize([seq], "speaker")
    normed, = features.zscore_normalize([_seq([[1.0], [2.0]])], "speaker")
    with pytest.raises(PipelineOrderError):
        features.zscore_normalize([normed], "utterance")
    with pytest.raises(ValueError):
        features.zscore_normalize([_seq([[1.0]])], "global")


def test_combine_streams():
    a = _seq([[1.0], [2.0]], tag="geo")
    b = _seq([[10.0, 20.0], [30.0, 40.0]], tag="eig")
    out = features.combine_streams([a, b])
    assert out.frames.shape == (2, 3)
    assert out.stream_tag == "geo+eig"
    np.testing.assert_allclose(out.frames[1], [2.0, 30.0, 40.0])
    single = features.combine_streams([a])
    assert single is a


def test_combine_streams_incompatibilities():
    a = _seq([[1.0], [2.0]], tag="geo")
    with pytest.raises(IncompatibleStreamsError):
        features.combine_streams([a, _seq([[1.0]], tag="eig")])
    with pytest.raises(IncompatibleStreamsError):
        features.combine_streams([a, _seq([[1.0], [2.0]], utt="other")])
    with pytest.raises(IncompatibleStreamsError):
        features.combine_streams([a, _seq([[1.0], [2.0]], norm="speaker")])
    b = features.add_deltas(_seq([[1.0], [2.0]], tag="eig"), 1)
    with pytest.raises(IncompatibleStreamsError):
        features.combine_streams([a, b])


def test_container_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    seq = _seq(rng.normal(size=(5, 4)).astype(np.float32), utt="utt9", spk="spkQ",
               tag="geo+dnn", norm="speaker", ctx=2)
    path = tmp_path / "u.vfa"
    features.save_features(path, seq)
    raw = path.read_bytes()
    assert raw[:4] == b"VFA1"
    assert struct.unpack_from("<II", raw, 4) == (5, 4)
    # first metadata string is the length-prefixed utterance id
    assert raw[12] == len("utt9")
    assert raw[13:17] == b"utt9"
    loaded = features.load_features(path)
    assert loaded.utterance_id == "utt9"
    assert loaded.speaker_id == "spkQ"
    assert loaded.stream_tag == "geo+dnn"
    assert loaded.normalization_tag == "speaker"
    assert loaded.delta_context == 2
    np.testing.assert_allclose(loaded.frames, seq.frames, atol=1e-7)


def test_oversized_header_is_a_format_error(tmp_path):
    # the header claims 2**24 frames of 1024 dims (64 GiB) over a 64-byte body
    path = tmp_path / "big.vfa"
    header = b"VFA1" + struct.pack("<II", 2 ** 24, 1024)
    header += b"".join(bytes([len(s)]) + s for s in (b"u", b"s", b"geo", b"none"))
    path.write_bytes(header + bytes([0]) + bytes(64))
    with pytest.raises(FormatError, match="big.vfa: truncated"):
        features.load_features(path)


def test_non_utf8_utterance_id_is_a_format_error(tmp_path):
    path = tmp_path / "u.vfa"
    features.save_features(path, _seq(np.zeros((3, 2)), utt="zq"))
    raw = bytearray(path.read_bytes())
    assert raw[12:15] == b"\x02zq"
    raw[13:15] = b"\xff\xfe"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"{path}: string .* is not UTF-8"):
        features.load_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_frame_is_a_format_error(tmp_path, value):
    frames = np.zeros((4, 3))
    frames[2, 1] = value
    path = tmp_path / "u.vfa"
    features.save_features(path, _seq(frames))
    with pytest.raises(FormatError, match=f"{path}: non-finite value in frame 2"):
        features.load_features(path)


def test_delta_context_above_the_maximum_is_a_format_error(tmp_path):
    path = tmp_path / "u.vfa"
    features.save_features(path, _seq(np.zeros((3, 2)), ctx=features.MAX_DELTA_CONTEXT))
    raw = bytearray(path.read_bytes())
    # the delta context byte sits just before the 3x2 float32 frames
    ctx_at = len(raw) - 3 * 2 * 4 - 1
    assert raw[ctx_at] == features.MAX_DELTA_CONTEXT
    features.load_features(path)
    raw[ctx_at] = 200
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"{path}: delta context must be in "
                                          rf"\[0, {features.MAX_DELTA_CONTEXT}\], got 200"):
        features.load_features(path)


def test_unknown_normalization_tag_is_a_format_error(tmp_path):
    path = tmp_path / "u.vfa"
    features.save_features(path, _seq(np.zeros((3, 2))))
    raw = path.read_bytes()
    assert raw.count(b"\x04none") == 1
    path.write_bytes(raw.replace(b"\x04none", b"\x02zz"))
    with pytest.raises(FormatError, match=f"{path}: unknown normalization tag 'zz'"):
        features.load_features(path)
