import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vsrlab import autoencoder
from vsrlab import binio
from vsrlab.autoencoder import Conv2d, ConvAutoencoder, ToMaps, ToRows, UpsampleConv2d
from vsrlab.errors import FormatError, TrainingDivergedError


# ---------------------------------------------------------------------------
# oracle: the (N, C, H, W) layers the network was first written with, one
# product per image, and an explicit upsample before a stride-1 conv

def _nchw_im2col(x, stride):
    """3x3 patches with pad 1: (N, C, H, W) -> (N, C*9, OH*OW) plus shape info."""
    n, c, h, w = x.shape
    oh = (h + 2 - 3) // stride + 1
    ow = (w + 2 - 3) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, 3, 3, oh, ow))
    for ki in range(3):
        for kj in range(3):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + stride * (oh - 1) + 1:stride,
                                    kj:kj + stride * (ow - 1) + 1:stride]
    return cols.reshape(n, c * 9, oh * ow), (oh, ow)


def _nchw_col2im(dcols, x_shape, stride):
    n, c, h, w = x_shape
    oh = (h + 2 - 3) // stride + 1
    ow = (w + 2 - 3) // stride + 1
    dcols = dcols.reshape(n, c, 3, 3, oh, ow)
    dxp = np.zeros((n, c, h + 2, w + 2))
    for ki in range(3):
        for kj in range(3):
            dxp[:, :, ki:ki + stride * (oh - 1) + 1:stride,
                kj:kj + stride * (ow - 1) + 1:stride] += dcols[:, :, ki, kj]
    return dxp[:, :, 1:-1, 1:-1]


class NchwConv2d:
    """Oracle: 3x3 convolution, padding 1, on (N, C, H, W) batches with
    weights ``w`` (out, in, 3, 3) and bias ``b``."""

    def __init__(self, w, b, stride):
        self.w, self.b, self.stride = w, b, stride

    def forward(self, x):
        cols, (oh, ow) = _nchw_im2col(x, self.stride)
        out_ch = self.w.shape[0]
        wmat = self.w.reshape(out_ch, -1)
        out = np.matmul(wmat, cols) + self.b[:, None]
        return out.reshape(x.shape[0], out_ch, oh, ow), (cols, wmat, x.shape)

    def backward(self, dout, cache):
        cols, wmat, x_shape = cache
        n, out_ch = dout.shape[:2]
        dmat = dout.reshape(n, out_ch, -1)
        self.db = dmat.sum(axis=(0, 2))
        self.dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0) \
            .reshape(self.w.shape)
        return _nchw_col2im(np.matmul(wmat.T, dmat), x_shape, self.stride)


class Upsample2x:
    """Oracle: nearest-neighbor doubling of both spatial axes of an
    (N, C, H, W) batch, which ``UpsampleConv2d`` folds into its kernel."""

    def forward(self, x):
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3), None

    def backward(self, dout, cache):
        return (dout[:, :, ::2, ::2] + dout[:, :, 1::2, ::2]
                + dout[:, :, ::2, 1::2] + dout[:, :, 1::2, 1::2])


class NchwReshape:
    """Oracle: gives every sample of an (N, ...) batch the shape ``shape``."""

    def __init__(self, shape):
        self.shape = shape

    def forward(self, x):
        return x.reshape(x.shape[0], *self.shape), x.shape

    def backward(self, dout, in_shape):
        return dout.reshape(in_shape)


def _oracle_layers(layer):
    """The (N, C, H, W) oracle of one network layer: ``Upsample2x`` then a
    stride-1 ``NchwConv2d`` for an ``UpsampleConv2d``, an ``NchwConv2d`` for a
    ``Conv2d``, an ``NchwReshape`` for a move between maps and rows (which in
    (N, C, H, W) order is a reshape), and the layer itself otherwise (dense
    and elementwise layers do not see the map layout)."""
    if isinstance(layer, UpsampleConv2d):
        return [Upsample2x(), NchwConv2d(layer.w, layer.b, stride=1)]
    if isinstance(layer, Conv2d):
        return [NchwConv2d(layer.w, layer.b, stride=layer.stride)]
    if isinstance(layer, ToRows):
        return [NchwReshape((-1,))]
    if isinstance(layer, ToMaps):
        return [NchwReshape(layer.shape)]
    return [layer]


def _to_chwn(x):
    """An (N, C, H, W) batch as the network's (C, H, W, N) maps."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _to_nchw(x):
    return x.transpose(3, 0, 1, 2)


@pytest.fixture
def default_net(defaults):
    """The network of the config's ``ae_channels`` and ``ae_bottleneck``."""
    return ConvAutoencoder(defaults.ae_channels, defaults.ae_bottleneck, seed=0)


def _rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def max_gradient_rel_err(net, batch, eps=1e-6):
    """Central-difference check of every parameter; returns the worst
    relative error against the analytic gradients."""
    net.loss_and_grad(batch)
    analytic = [(layer, attr, getattr(layer, "d" + attr).copy())
                for layer, attr in net.parameter_arrays()]
    worst = 0.0
    for layer, attr, ana in analytic:
        flat = getattr(layer, attr).ravel()
        aflat = ana.ravel()
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp = net.loss_and_grad(batch)
            flat[idx] = old - eps
            lm = net.loss_and_grad(batch)
            flat[idx] = old
            num = (lp - lm) / (2.0 * eps)
            rel = abs(num - aflat[idx]) / max(abs(num), abs(aflat[idx]), 1e-8)
            worst = max(worst, rel)
    return worst


def _check_gradients(channels, bottleneck):
    # small net so every single parameter can be checked exhaustively;
    # seed chosen to avoid dead-ReLU cascades that put kinks at zero
    net = ConvAutoencoder(channels=channels, bottleneck=bottleneck, input_hw=(8, 8), seed=0)
    batch = np.random.default_rng(2).uniform(0.2, 0.8, (2, 8, 8))
    recon, code = net.forward(batch)
    assert np.abs(code).max() > 1e-3  # live network, not a degenerate check
    assert max_gradient_rel_err(net, batch) < 1e-3


def test_gradients_match_finite_differences():
    _check_gradients(channels=(2, 3), bottleneck=4)


def test_gradients_match_finite_differences_one_stage():
    # the only decoder conv feeds the sigmoid with no ReLU between them
    _check_gradients(channels=(3,), bottleneck=4)


def test_training_does_not_call_public_encode(monkeypatch):
    # a benchmark tracer counts ``encode`` calls and frames by wrapping the
    # method, so the training path must not go through it
    net = ConvAutoencoder(channels=(2, 3), bottleneck=4, input_hw=(8, 8), seed=0)
    batch = np.random.default_rng(2).uniform(0.2, 0.8, (2, 8, 8))
    expected = net.encode(batch)

    def fail(self, frames):
        raise AssertionError("encode called")

    monkeypatch.setattr(ConvAutoencoder, "encode", fail)
    recon, code = net.forward(batch)
    assert np.array_equal(code, expected)
    assert np.isfinite(net.loss_and_grad(batch))
    assert net.train(batch, epochs=1, lr=0.01, batch_size=2, seed=0)


@pytest.mark.parametrize("n, in_ch, out_ch, h, w", [
    (3, 1, 4, 2, 3),    # one input channel, non-square
    (2, 5, 1, 4, 4),    # one output channel
    (4, 3, 2, 1, 5),    # a single low-resolution row
    (2, 1, 1, 3, 2),
    (2, 8, 1, 8, 16),   # the default net's last decoder conv
])
def test_upsample_conv_matches_upsample_then_conv(n, in_ch, out_ch, h, w):
    rng = np.random.default_rng(n * 100 + in_ch * 10 + out_ch)
    layer = UpsampleConv2d(in_ch, out_ch, rng=rng)
    layer.b = rng.normal(size=out_ch)
    upsample, conv = _oracle_layers(layer)
    x = rng.normal(size=(n, in_ch, h, w))
    dout = rng.normal(size=(n, out_ch, 2 * h, 2 * w))
    out, cache = layer.forward(_to_chwn(x))
    up, up_cache = upsample.forward(x)
    expected, conv_cache = conv.forward(up)
    assert _to_nchw(out).shape == expected.shape
    assert _rel_err(_to_nchw(out), expected) < 1e-12
    assert _rel_err(_to_nchw(layer.backward(_to_chwn(dout), cache)),
                    upsample.backward(conv.backward(dout, conv_cache), up_cache)) < 1e-12
    assert _rel_err(layer.dw, conv.dw) < 1e-12
    assert _rel_err(layer.db, conv.db) < 1e-12


def _check_network_against_oracle(channels, bottleneck, input_hw, n_frames):
    net = ConvAutoencoder(channels=channels, bottleneck=bottleneck,
                          input_hw=input_hw, seed=0)
    frames = np.random.default_rng(4).uniform(0.0, 1.0, (n_frames, *input_hw))
    loss = net.loss_and_grad(frames)
    grads = [(layer.dw.copy(), layer.db.copy()) for layer in net.parameter_layers]
    recon, code = net.forward(frames)

    oracle = [o for layer in net.layers for o in _oracle_layers(layer)]
    x, caches = frames[:, None], []
    for layer in oracle:
        x, cache = layer.forward(x)
        caches.append(cache)
    assert _rel_err(recon, x[:, 0]) < 1e-12
    diff = x - frames[:, None]
    assert abs(loss - float(np.mean(diff ** 2))) <= 1e-12 * loss
    d = (2.0 / diff.size) * diff
    for layer, cache in zip(reversed(oracle), reversed(caches)):
        d = layer.backward(d, cache)
    oracle_params = [layer for layer in oracle if hasattr(layer, "dw")]
    assert len(oracle_params) == len(grads)
    for layer, (dw, db) in zip(oracle_params, grads):
        assert _rel_err(dw, layer.dw) < 1e-12
        assert _rel_err(db, layer.db) < 1e-12


@pytest.mark.parametrize("channels, bottleneck, input_hw", [
    ((3,), 4, (8, 8)),           # one stage: its decoder conv feeds the sigmoid
    ((2, 3), 4, (8, 16)),
    ((8, 16, 32), 32, (16, 32)),
])
def test_network_matches_upsample_then_conv_oracle(channels, bottleneck, input_hw):
    _check_network_against_oracle(channels, bottleneck, input_hw, n_frames=5)


@pytest.mark.parametrize("channels, bottleneck, n_frames", [
    ((8, 16, 32), 32, 7),   # a partial last training batch of the default net
    ((3, 5, 6), 7, 4),      # widths that are not powers of two
])
def test_network_matches_oracle_at_other_shapes(channels, bottleneck, n_frames):
    _check_network_against_oracle(channels, bottleneck, (16, 32), n_frames)


_THREAD_CHILD = """
import hashlib, sys
import numpy as np
from vsrlab.autoencoder import ConvAutoencoder
channels = tuple(int(c) for c in sys.argv[1].split(","))
bottleneck, lr = int(sys.argv[2]), float(sys.argv[3])
frames = np.random.default_rng(26).uniform(0.0, 1.0, (300, 16, 32))
digest = hashlib.sha256()
for batch_size in (32, 16):
    net = ConvAutoencoder(channels, bottleneck, seed=0)
    net.train(frames[:64], epochs=1, lr=lr, batch_size=batch_size, seed=0)
    for layer in net.parameter_layers:
        for value in (layer.w, layer.b, layer.dw, layer.db):
            digest.update(np.ascontiguousarray(value).tobytes())
    digest.update(net.encode(frames).tobytes())
print(digest.hexdigest())
"""


def test_training_bytes_do_not_depend_on_blas_threads(defaults):
    # the default net's weights, last gradients and codes; one child process
    # per thread count, since BLAS reads it at start-up
    src = str(Path(autoencoder.__file__).resolve().parents[1])
    args = [",".join(map(str, defaults.ae_channels)), str(defaults.ae_bottleneck),
            repr(defaults.ae_lr)]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THREAD_CHILD, *args], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_untrained_container_bytes_are_pinned(tmp_path, default_net):
    # the CAE1 layout and the order of the initial weight draws, as saved by
    # the network built from one Conv2d per decoder stage with an upsample
    path = tmp_path / "model.cae"
    autoencoder.save_autoencoder(path, default_net)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "eee41f197c4a0d03834c55a2ec8d4a7994e8e9161570c0c0446f00bf8d4d6056"


def test_first_conv_input_gradient_is_not_computed(monkeypatch):
    net = ConvAutoencoder(channels=(2, 3), bottleneck=4, input_hw=(8, 8), seed=0)
    batch = np.random.default_rng(2).uniform(0.2, 0.8, (2, 8, 8))
    net.loss_and_grad(batch)
    dw, db = net.layers[0].dw.copy(), net.layers[0].db.copy()

    def fail(dout, cache):
        raise AssertionError("input gradient of the first conv computed")

    monkeypatch.setattr(net.layers[0], "backward", fail)
    net.loss_and_grad(batch)
    assert np.array_equal(net.layers[0].dw, dw)
    assert np.array_equal(net.layers[0].db, db)


def test_layers_hold_only_parameters_between_calls(default_net):
    # backward caches travel through loss_and_grad, so no pass leaves an
    # activation, mask or im2col behind on a layer
    net = default_net
    frames = np.random.default_rng(3).uniform(0.0, 1.0, (4, 16, 32))
    net.forward(frames)
    net.encode(frames)
    net.loss_and_grad(frames)
    for layer in net.layers:
        held = {name for name, value in vars(layer).items()
                if isinstance(value, np.ndarray)}
        assert held <= {"w", "b", "dw", "db"}, (type(layer).__name__, held)


def test_zero_frames_give_empty_outputs(default_net):
    net = default_net
    empty = np.zeros((0, 16, 32))
    assert net.encode(empty).shape == (0, 32)
    recon, code = net.forward(empty)
    assert recon.shape == (0, 16, 32)
    assert code.shape == (0, 32)


def test_chunked_passes_equal_one_pass(monkeypatch, default_net):
    net = default_net
    full = 2 * autoencoder.CHUNK_FRAMES
    frames = np.random.default_rng(6).uniform(0.0, 1.0, (full + 37, 16, 32))
    recon, code = net.forward(frames)
    codes = net.encode(frames)
    assert np.array_equal(codes, code)
    monkeypatch.setattr(autoencoder, "CHUNK_FRAMES", len(frames))
    one_recon, one_code = net.forward(frames)
    assert np.array_equal(net.encode(frames), one_code)
    # whole chunks are bit-identical to the single pass; the dense layers'
    # matmul of the 37-frame tail may take another BLAS kernel (OpenBLAS
    # 0.3.31 does below 64 rows), which moved these codes by 1.6e-15
    assert np.array_equal(code[:full], one_code[:full])
    assert np.array_equal(recon[:full], one_recon[:full])
    np.testing.assert_allclose(code, one_code, rtol=0, atol=1e-13)
    np.testing.assert_allclose(recon, one_recon, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", [(2, 2, 16, 32), (2, 1, 1, 16, 32), (16 * 32,), (2, 16, 16)])
def test_batch_of_other_shape_is_rejected_by_name(default_net, shape):
    with pytest.raises(ValueError, match=r"expected \(16, 32\), \(N, 16, 32\) or "
                       rf"\(N, 1, 16, 32\) images, got shape {re.escape(str(shape))}"):
        default_net.encode(np.zeros(shape))
    with pytest.raises(ValueError, match="got shape"):
        default_net.loss_and_grad(np.zeros(shape))


def test_one_channel_batch_equals_image_batch(default_net):
    frames = np.random.default_rng(8).uniform(0.0, 1.0, (3, 16, 32))
    assert np.array_equal(default_net.encode(frames[:, None]), default_net.encode(frames))
    assert np.array_equal(default_net.loss_and_grad(frames[:, None]),
                          default_net.loss_and_grad(frames))


def test_forward_shapes_and_range(default_net):
    net = default_net
    frames = np.random.default_rng(0).uniform(0, 1, (3, 16, 32))
    recon, code = net.forward(frames)
    assert recon.shape == (3, 16, 32)
    assert code.shape == (3, 32)
    assert np.all(recon > 0.0) and np.all(recon < 1.0)
    single = net.encode(frames[0])
    assert single.shape == (1, 32)
    np.testing.assert_allclose(single[0], net.encode(frames)[0], atol=1e-12)
    # encode runs only the encoder half, which computes the same codes
    assert np.array_equal(net.encode(frames), code)


def test_constructor_validation(defaults, default_net):
    with pytest.raises(ValueError):
        ConvAutoencoder((8, 16), defaults.ae_bottleneck, seed=0,
                        input_hw=(10, 16))  # 10 % 4 != 0
    net = default_net
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 8, 8)))


def test_learns_constant_image():
    net = ConvAutoencoder(channels=(4, 8), bottleneck=6, input_hw=(16, 16), seed=0)
    frames = np.full((16, 16, 16), 0.37)
    losses = net.train(frames, epochs=50, lr=0.5, batch_size=8, seed=3)
    assert losses[-1] < losses[0]
    mae = float(np.abs(net.forward(frames)[0] - frames).mean())
    assert mae < 0.02, mae


def test_learns_structured_patterns(default_net):
    rng = np.random.default_rng(5)
    xs = np.linspace(0, 1, 32)[None, None, :]
    ys = np.linspace(0, 1, 16)[None, :, None]
    phase = rng.uniform(0, 2 * np.pi, (64, 1, 1))
    frames = 0.5 + 0.4 * np.sin(2 * np.pi * (xs + 0.5 * ys) + phase)
    net = default_net
    losses = net.train(frames, epochs=10, lr=0.01, batch_size=16, seed=1)
    assert losses[-1] < 0.75 * losses[0]


def test_training_deterministic():
    frames = np.random.default_rng(7).uniform(0, 1, (24, 16, 16))
    runs = []
    for _ in range(2):
        net = ConvAutoencoder(channels=(4, 8), bottleneck=5, input_hw=(16, 16), seed=9)
        losses = net.train(frames, epochs=3, lr=0.05, batch_size=8, seed=4)
        runs.append((losses, net.encode(frames)))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_divergence_reported_with_epoch():
    net = ConvAutoencoder(channels=(4, 8), bottleneck=5, input_hw=(16, 16), seed=0)
    frames = np.full((8, 16, 16), 0.5)
    frames[3, 2, 2] = np.nan
    with pytest.raises(TrainingDivergedError) as info:
        net.train(frames, epochs=2, lr=0.01, batch_size=4, seed=0)
    assert info.value.epoch == 1

    net = ConvAutoencoder(channels=(4, 8), bottleneck=5, input_hw=(16, 16), seed=0)
    net.parameter_layers[0].w[0, 0, 0, 0] = np.inf
    with pytest.raises(TrainingDivergedError):
        net.train(np.full((8, 16, 16), 0.5), epochs=2, lr=0.01, batch_size=4, seed=0)


def test_container_round_trip(tmp_path, defaults):
    net = ConvAutoencoder(channels=(2, 3, 4), bottleneck=6, seed=13)
    frames = np.random.default_rng(1).uniform(0, 1, (4, 16, 32))
    net.train(frames, epochs=2, lr=0.01, batch_size=2, seed=0)
    path = tmp_path / "model.cae"
    autoencoder.save_autoencoder(path, net)
    raw = path.read_bytes()
    assert raw[:4] == b"CAE1"
    loaded = autoencoder.load_autoencoder(path)
    assert loaded.channels == (2, 3, 4)
    assert loaded.bottleneck == 6
    np.testing.assert_allclose(loaded.encode(frames), net.encode(frames), atol=1e-5)
    path.write_bytes(raw[:-1])
    with pytest.raises(FormatError, match="model.cae"):
        autoencoder.load_autoencoder(path)
    with pytest.raises(ValueError):
        autoencoder.save_autoencoder(tmp_path / "x.cae",
                                     ConvAutoencoder((2,), defaults.ae_bottleneck, seed=0,
                                                     input_hw=(8, 8)))


@pytest.mark.parametrize("stages, channels, bottleneck", [
    (1, (2 ** 30,), 8),     # would allocate ~72 GiB of weights
    (2, (4, 0), 8),         # zero-width stage
    (2, (4, 8), 0),         # zero-width bottleneck
    (5, (2,) * 5, 8),       # 16x32 input cannot be halved five times
    (2 ** 32 - 1, (), 8),   # 2 ** stages alone would take 512 MiB
])
def test_corrupt_header_is_a_format_error(tmp_path, stages, channels, bottleneck):
    path = tmp_path / "bad.cae"
    with open(path, "wb") as fh:
        fh.write(autoencoder.MODEL_MAGIC)
        binio.write_u32(fh, stages)
        for ch in channels:
            binio.write_u32(fh, ch)
        binio.write_u32(fh, bottleneck)
        fh.write(b"\x00" * 64)
    with pytest.raises(FormatError, match="bad.cae"):
        autoencoder.load_autoencoder(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weights_are_a_format_error(tmp_path, value):
    net = ConvAutoencoder(channels=(2,), bottleneck=3, seed=13)
    net.parameter_layers[1].w[0, 0] = value  # the encoder dense
    path = tmp_path / "model.cae"
    autoencoder.save_autoencoder(path, net)
    with pytest.raises(FormatError, match=f"{path}: non-finite weights"):
        autoencoder.load_autoencoder(path)
