"""Convolutional autoencoder for deep mouth-ROI features, implemented on
plain numpy with hand-derived gradients.

The network is one ordered list of layers, ``ConvAutoencoder.layers``:

- per encoder stage: 3x3 conv (stride 2, pad 1), ReLU;
- a reshape to one row per image, then the linear dense bottleneck;
- dense, ReLU, and a reshape back to the last encoder stage's maps;
- per decoder stage: ``UpsampleConv2d`` (a nearest-neighbor 2x upsample,
  then a 3x3 conv with stride 1 and pad 1), ReLU, except that a sigmoid ends
  the last stage instead.

``UpsampleConv2d`` never builds the upsampled map. Each output pixel's
parity (a, b) selects one of four phase kernels, the 3x3 kernel folded onto
the low-resolution map: along rows, phase 0 puts k0 at offset -1 and k1 + k2
at offset 0, and phase 1 puts k0 + k1 at offset 0 and k2 at offset +1;
columns fold the same way. One im2col of the low-resolution input and one
matmul with the stacked phase kernels compute the four phases, which are
interleaved into the output. Its parameters are the unfolded kernel and the
bias, so training, initialization and the container see a plain 3x3 conv.

The first ``n_encoder`` layers are the encoder; they end at the bottleneck
codes. ``forward`` runs the list in order, ``CHUNK_FRAMES`` images at a time.
``loss_and_grad`` runs it on one batch, then runs ``backward`` over it in
reverse, starting at the sigmoid with the gradient of the mean squared error
against the input. Backward stops at the first conv's weight and bias
gradients: nothing reads the gradient of the input images. All computation
is float64; the on-disk container stores float32.

Layers hold parameters only. ``forward(x)`` returns ``(out, cache)`` and
``backward(dout, cache)`` takes the cache back (a parameter layer's also
sets ``dw`` and ``db``). Inference drops each cache as soon as its layer has
run; ``loss_and_grad`` keeps one batch's caches in a list and pops them in
reverse. Gradient correctness is established by central finite differences
in the test suite (which also checks ``UpsampleConv2d`` against an upsample
and a stride-1 ``Conv2d``), so the backward passes here are the reference
implementation, not a wrapper over a framework.
"""

import math

import numpy as np

from . import binio, frontend
from .errors import FormatError, TrainingDivergedError

MODEL_MAGIC = b"CAE1"
DEFAULT_INPUT_HW = (frontend.ROI_HEIGHT, frontend.ROI_WIDTH)
MOMENTUM = 0.9
# images per pass of ``forward`` and ``encode``, which bounds their memory
CHUNK_FRAMES = 256


def _im2col(x, stride):
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


def _col2im(dcols, x_shape, stride):
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


class Conv2d:
    """3x3 convolution, padding 1, configurable stride."""

    @staticmethod
    def shapes(in_ch, out_ch):
        """Weight and bias shapes."""
        return (out_ch, in_ch, 3, 3), (out_ch,)

    def __init__(self, in_ch, out_ch, stride, rng):
        w_shape, b_shape = self.shapes(in_ch, out_ch)
        fan_in = math.prod(w_shape[1:])
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), w_shape)
        self.b = np.zeros(b_shape)
        self.stride = stride
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x):
        """The output and the cache ``(cols, wmat, x_shape)``: the im2col of
        ``x``, the weight matrix that multiplies it, and the input shape."""
        cols, (oh, ow) = _im2col(x, self.stride)
        out_ch = self.w.shape[0]
        wmat = self.w.reshape(out_ch, -1)
        out = np.matmul(wmat, cols) + self.b[:, None]
        return out.reshape(x.shape[0], out_ch, oh, ow), (cols, wmat, x.shape)

    def param_backward(self, dout, cache):
        """Sets ``dw`` and ``db`` from the output gradient ``dout`` and
        returns it laid out as the product of the cached ``wmat`` and im2col,
        which ``backward`` multiplies by ``wmat.T``."""
        cols = cache[0]
        n, out_ch = dout.shape[:2]
        dmat = dout.reshape(n, out_ch, -1)
        self.db = dmat.sum(axis=(0, 2))
        self.dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0) \
            .reshape(self.w.shape)
        return dmat

    def backward(self, dout, cache):
        _, wmat, x_shape = cache
        dcols = np.matmul(wmat.T, self.param_backward(dout, cache))
        return _col2im(dcols, x_shape, self.stride)


# The row fold of the module docstring: [phase, offset + 1, kernel row].
_ROW_FOLD = np.array([[[1, 0, 0], [0, 1, 1], [0, 0, 0]],
                      [[0, 0, 0], [1, 1, 0], [0, 0, 1]]], dtype=float)
# The same fold along both axes, as a (36, 9) matrix: row (row phase * 2 +
# column phase) * 9 + folded tap, column original tap; taps are numbered
# row * 3 + column.
_PHASE_FOLD = np.einsum("ard,bse->abrsde", _ROW_FOLD, _ROW_FOLD).reshape(36, 9)


class UpsampleConv2d(Conv2d):
    """Nearest-neighbor 2x upsample, then a 3x3 convolution (stride 1, pad 1)
    with parameters ``w`` and ``b``, computed on the low-resolution map as
    four sub-pixel convolutions (module docstring). The cached ``wmat`` stacks
    the phase kernels, so backward does not fold them again; it folds their
    gradient back into ``dw`` through the transposed fold."""

    def __init__(self, in_ch, out_ch, rng):
        super().__init__(in_ch, out_ch, stride=1, rng=rng)

    def forward(self, x):
        n, _, h, w = x.shape
        cols, _ = _im2col(x, 1)
        out_ch, in_ch = self.w.shape[:2]
        wmat = (self.w.reshape(-1, 9) @ _PHASE_FOLD.T) \
            .reshape(out_ch, in_ch, 4, 9).transpose(2, 0, 1, 3) \
            .reshape(4 * out_ch, in_ch * 9)
        phases = np.matmul(wmat, cols).reshape(n, 2, 2, out_ch, h, w)
        out = phases.transpose(0, 3, 4, 1, 5, 2).reshape(n, out_ch, 2 * h, 2 * w)
        out += self.b[:, None, None]
        return out, (cols, wmat, x.shape)

    def param_backward(self, dout, cache):
        cols = cache[0]
        n, out_ch, h2, w2 = dout.shape
        in_ch = self.w.shape[1]
        self.db = dout.reshape(n, out_ch, -1).sum(axis=(0, 2))
        dphases = dout.reshape(n, out_ch, h2 // 2, 2, w2 // 2, 2) \
            .transpose(0, 3, 5, 1, 2, 4).reshape(n, 4 * out_ch, -1)
        dwmat = np.matmul(dphases, cols.transpose(0, 2, 1)).sum(axis=0)
        self.dw = (dwmat.reshape(4, out_ch, in_ch, 9).transpose(1, 2, 0, 3)
                   .reshape(out_ch * in_ch, 36) @ _PHASE_FOLD).reshape(self.w.shape)
        return dphases


class Dense:
    @staticmethod
    def shapes(in_dim, out_dim):
        """Weight and bias shapes."""
        return (out_dim, in_dim), (out_dim,)

    def __init__(self, in_dim, out_dim, rng):
        w_shape, b_shape = self.shapes(in_dim, out_dim)
        self.w = rng.normal(0.0, np.sqrt(2.0 / in_dim), w_shape)
        self.b = np.zeros(b_shape)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x):
        return x @ self.w.T + self.b, x

    def backward(self, dout, x):
        self.dw = dout.T @ x
        self.db = dout.sum(axis=0)
        return dout @ self.w


class Relu:
    def forward(self, x):
        mask = x > 0
        return np.where(mask, x, 0.0), mask

    def backward(self, dout, mask):
        return np.where(mask, dout, 0.0)


class Sigmoid:
    def forward(self, x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out, out

    def backward(self, dout, out):
        return dout * out * (1.0 - out)


class Reshape:
    """Gives every sample of a batch the shape ``shape``."""

    def __init__(self, shape):
        self.shape = shape

    def forward(self, x):
        return x.reshape(x.shape[0], *self.shape), x.shape

    def backward(self, dout, in_shape):
        return dout.reshape(in_shape)


def _forward(layers, x):
    """Inference: runs ``layers`` on ``x``, dropping each cache at once."""
    for layer in layers:
        x = layer.forward(x)[0]
    return x


def _chunks(x):
    """Consecutive slices of ``CHUNK_FRAMES`` images of the batch ``x``; an
    empty batch gives one empty slice."""
    return [x[start:start + CHUNK_FRAMES]
            for start in range(0, max(len(x), 1), CHUNK_FRAMES)]


def stages_fit(stages, input_hw):
    """Whether ``stages`` stride-2 convolutions halve both sides of
    ``input_hw`` exactly. The range is checked before any power is taken, so
    a corrupt stage count read from a file costs nothing."""
    h, w = input_hw
    return (1 <= stages < min(h, w).bit_length()
            and not (h % (1 << stages) or w % (1 << stages)))


def _layer_plan(channels, bottleneck, input_hw):
    """(layer class, input width, output width, keyword arguments) of every
    parameter layer in ``parameter_layers`` order: encoder convs, encoder
    dense, decoder dense, decoder convs."""
    h, w = input_hw
    stages = len(channels)
    flat = channels[-1] * (h >> stages) * (w >> stages)
    enc = (1,) + tuple(channels)
    dec = tuple(channels[::-1]) + (1,)
    return ([(Conv2d, a, b, {"stride": 2}) for a, b in zip(enc, enc[1:])]
            + [(Dense, flat, bottleneck, {}), (Dense, bottleneck, flat, {})]
            + [(UpsampleConv2d, a, b, {}) for a, b in zip(dec, dec[1:])])


class ConvAutoencoder:
    """Symmetric conv autoencoder with a linear bottleneck.

    ``channels`` gives the encoder stage widths; the input height and width
    must be divisible by 2**len(channels). Small configurations train fast
    and make exhaustive finite-difference checks practical.
    """

    def __init__(self, channels, bottleneck, *, seed, input_hw=DEFAULT_INPUT_HW):
        h, w = input_hw
        stages = len(channels)
        if stages < 1:
            raise ValueError("need at least one conv stage")
        if not stages_fit(stages, input_hw):
            raise ValueError(f"input {h}x{w} not divisible by 2^{stages}")
        self.channels = tuple(int(c) for c in channels)
        self.bottleneck = int(bottleneck)
        self.input_hw = (int(h), int(w))
        rng = np.random.default_rng(seed)

        params = [cls(n_in, n_out, rng=rng, **kwargs) for cls, n_in, n_out, kwargs
                  in _layer_plan(self.channels, self.bottleneck, self.input_hw)]
        self.parameter_layers = params
        layers = []
        for conv in params[:stages]:
            layers += [conv, Relu()]
        layers += [Reshape((params[stages].w.shape[1],)), params[stages]]
        self.n_encoder = len(layers)
        layers += [params[stages + 1], Relu(),
                   Reshape((self.channels[-1], h >> stages, w >> stages))]
        for conv in params[stages + 2:]:
            layers += [conv, Relu()]
        layers[-1] = Sigmoid()
        self.layers = layers

    def _as_batch(self, frames):
        x = np.asarray(frames, dtype=float)
        if x.ndim == 2:
            x = x[None]
        if x.ndim == 3:
            x = x[:, None]
        if x.shape[2:] != self.input_hw:
            raise ValueError(f"expected {self.input_hw} images, got {x.shape[2:]}")
        return x

    def forward(self, frames):
        """Returns (reconstruction (N, H, W), codes (N, bottleneck)), computed
        ``CHUNK_FRAMES`` images at a time. With the default network one chunk
        of 256 images peaks at about 24 MB (tracemalloc); any N adds only the
        returned arrays and about half a chunk."""
        encoder, decoder = self.layers[:self.n_encoder], self.layers[self.n_encoder:]
        recons, codes = [], []
        for chunk in _chunks(self._as_batch(frames)):
            # not through ``encode``, whose calls a benchmark tracer counts
            codes.append(_forward(encoder, chunk))
            recons.append(_forward(decoder, codes[-1])[:, 0])
        return np.concatenate(recons), np.concatenate(codes)

    def loss_and_grad(self, frames):
        """Mean squared reconstruction error; leaves gradients in the layers."""
        x = self._as_batch(frames)
        out, caches = x, []
        for layer in self.layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        diff = out - x
        loss = float(np.mean(diff ** 2))
        d = (2.0 / diff.size) * diff
        for layer in reversed(self.layers[1:]):
            d = layer.backward(d, caches.pop())
        # nothing reads the gradient of the input images
        self.layers[0].param_backward(d, caches.pop())
        return loss

    def parameter_arrays(self):
        """Flat list of (layer, attribute) pairs in serialization order."""
        return [(layer, attr) for layer in self.parameter_layers for attr in ("w", "b")]

    def encode(self, frames):
        """Bottleneck codes (N, bottleneck) from the encoder half alone,
        computed ``CHUNK_FRAMES`` images at a time. With the default network
        one chunk of 256 images peaks at about 10 MB (tracemalloc); any N
        adds only the returned codes and about half a chunk."""
        encoder = self.layers[:self.n_encoder]
        return np.concatenate([_forward(encoder, chunk)
                               for chunk in _chunks(self._as_batch(frames))])

    def train(self, frames, *, epochs, lr, batch_size, seed):
        """Plain SGD with momentum ``MOMENTUM`` over shuffled minibatches.

        Returns the mean loss of each epoch as a list. Raises
        TrainingDivergedError the moment a non-finite loss or update shows up.
        """
        data = np.asarray(frames, dtype=float)
        if data.ndim != 3:
            raise ValueError("training frames must be (N, H, W)")
        if data.shape[0] == 0:
            raise ValueError("no training frames")
        rng = np.random.default_rng(seed)
        velocities = [(np.zeros_like(layer.w), np.zeros_like(layer.b))
                      for layer in self.parameter_layers]
        losses = []
        for epoch in range(epochs):
            order = rng.permutation(data.shape[0])
            total = 0.0
            count = 0
            for start in range(0, data.shape[0], batch_size):
                batch = data[order[start:start + batch_size]]
                loss = self.loss_and_grad(batch)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch + 1}", epoch=epoch + 1)
                for layer, (vw, vb) in zip(self.parameter_layers, velocities):
                    if not (np.isfinite(layer.dw).all() and np.isfinite(layer.db).all()):
                        raise TrainingDivergedError(
                            f"non-finite gradient at epoch {epoch + 1}", epoch=epoch + 1)
                    vw *= MOMENTUM
                    vw -= lr * layer.dw
                    layer.w += vw
                    vb *= MOMENTUM
                    vb -= lr * layer.db
                    layer.b += vb
                total += loss * batch.shape[0]
                count += batch.shape[0]
            losses.append(total / count)
        return losses


# ---------------------------------------------------------------------------
# container

def save_autoencoder(path, model):
    if model.input_hw != DEFAULT_INPUT_HW:
        raise ValueError(f"container stores {DEFAULT_INPUT_HW} models, got {model.input_hw}")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        binio.write_u32(fh, len(model.channels))
        for ch in model.channels:
            binio.write_u32(fh, ch)
        binio.write_u32(fh, model.bottleneck)
        for layer, attr in model.parameter_arrays():
            binio.write_array(fh, getattr(layer, attr), "<f4")


def load_autoencoder(path):
    with open(path, "rb") as fh:
        r = binio.Reader(fh, path, MODEL_MAGIC)
        stages = r.u32()
        if not stages_fit(stages, DEFAULT_INPUT_HW):
            raise FormatError(f"{path}: implausible stage count {stages}")
        channels = tuple(r.u32() for _ in range(stages))
        bottleneck = r.u32()
        if min(channels) < 1 or bottleneck < 1:
            raise FormatError(f"{path}: zero width in channels {channels} "
                              f"or bottleneck {bottleneck}")
        # check the weights the header implies before allocating any of them
        n_params = sum(math.prod(shape) for cls, n_in, n_out, _
                       in _layer_plan(channels, bottleneck, DEFAULT_INPUT_HW)
                       for shape in cls.shapes(n_in, n_out))
        if 4 * n_params > r.left:
            raise FormatError(f"{path}: header implies {4 * n_params} bytes of "
                              f"weights, file holds {r.left}")
        # the seed is moot: every weight is read below
        model = ConvAutoencoder(channels, bottleneck, seed=0)
        for layer, attr in model.parameter_arrays():
            setattr(layer, attr, _widened(r.array("<f4", getattr(layer, attr).shape), path))
        r.end()
    return model


def _widened(stored, path):
    """``stored`` as float64, checked first: widening warns on a signalling NaN."""
    if not np.isfinite(stored).all():
        raise FormatError(f"{path}: non-finite weights")
    return stored.astype(float)
