"""Convolutional autoencoder for deep mouth-ROI features, implemented on
plain numpy with hand-derived gradients.

The network is one ordered list of layers, ``ConvAutoencoder.layers``:

- per encoder stage: 3x3 conv (stride 2, pad 1), ReLU;
- ``ToRows``, one row per image, then the linear dense bottleneck;
- dense, ReLU, and ``ToMaps`` back to the last encoder stage's maps;
- per decoder stage: ``UpsampleConv2d`` (a nearest-neighbor 2x upsample,
  then a 3x3 conv with stride 1 and pad 1), ReLU, except that a sigmoid ends
  the last stage instead.

Conv layers see a batch as (C, H, W, N) maps, with the batch innermost; the
dense layers see (N, features) rows. The batch is transposed in three places
only: from the (N, H, W) images into (1, H, W, N) maps at the network input,
between maps and rows at ``ToRows`` and ``ToMaps`` (each row is in (C, H, W)
order, so the stored dense weights keep their meaning), and back to
(N, H, W) for the reconstruction. With the batch innermost, ``_im2col``
stacks every image's patches into one (9C, OH*OW*N) matrix by copying runs
of N or W*N contiguous values, so each conv's forward pass, weight gradient
and input gradient is one matrix product for the whole batch:
(O, 9C) @ (9C, OH*OW*N), its output gradient times the im2col's transpose,
and the weights' transpose times the output gradient, which ``_col2im``
adds back onto the input. No padded copy of the input is built.

``UpsampleConv2d`` never builds the upsampled map. Each output pixel's
parity (a, b) selects one of four phase kernels, the 3x3 kernel folded onto
the low-resolution map: along rows, phase 0 puts k0 at offset -1 and k1 + k2
at offset 0, and phase 1 puts k0 + k1 at offset 0 and k2 at offset +1;
columns fold the same way. One im2col of the low-resolution input and one
product with the stacked phase kernels compute the four phases, which are
interleaved into the output in runs of N values; backward gathers the output
gradient into the four phases the same way, and their weight gradient is
again one product. Its parameters are the unfolded kernel and the bias, so
training, initialization and the container see a plain 3x3 conv.

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
in the test suite, which also checks every layer against an (N, C, H, W)
oracle with one product per image and an explicit upsample, so the backward
passes here are the reference implementation, not a wrapper over a
framework.
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


def _tap(k, size, out_size, stride):
    """For kernel offset ``k`` (0, 1 or 2) along an axis of ``size`` inputs
    with pad 1: the output range ``lo:hi`` whose taps land inside the input,
    and the slice of the input they read. Outside it the taps read padding."""
    lo = 1 if k == 0 else 0
    hi = min(out_size, (size - k) // stride + 1)
    return slice(lo, hi), slice(stride * lo + k - 1, stride * (hi - 1) + k, stride)


def _taps(h, w, stride):
    """``(oh, ow)`` and, per 3x3 tap in row-major order, its output and input
    slices along the height and width axes."""
    oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
    rows = [_tap(k, h, oh, stride) for k in range(3)]
    cols = [_tap(k, w, ow, stride) for k in range(3)]
    return (oh, ow), [(ro, co, ri, ci) for ro, ri in rows for co, ci in cols]


def _im2col(x, stride):
    """3x3 patches with pad 1: (C, H, W, N) -> (9C, OH*OW*N) plus (OH, OW).
    Row ``c * 9 + tap`` matches ``w.reshape(out_ch, -1)``; each copy moves
    runs of N or W*N contiguous values, and the padding is never built."""
    c, h, w, n = x.shape
    (oh, ow), taps = _taps(h, w, stride)
    cols = np.zeros((c, 9, oh, ow, n))
    for t, (ro, co, ri, ci) in enumerate(taps):
        cols[:, t, ro, co] = x[:, ri, ci]
    return cols.reshape(c * 9, -1), (oh, ow)


def _col2im(dcols, x_shape, stride):
    """The adjoint of ``_im2col``: adds each tap's gradient back onto the
    input pixels it read, dropping the padding's."""
    c, h, w, n = x_shape
    (oh, ow), taps = _taps(h, w, stride)
    dcols = dcols.reshape(c, 9, oh, ow, n)
    dx = np.zeros(x_shape)
    for t, (ro, co, ri, ci) in enumerate(taps):
        dx[:, ri, ci] += dcols[:, t, ro, co]
    return dx


class Conv2d:
    """3x3 convolution, padding 1, configurable stride, on (C, H, W, N) maps.
    Forward, weight gradient and input gradient are one matrix product each."""

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
        out = wmat @ cols
        out += self.b[:, None]
        return out.reshape(out_ch, oh, ow, x.shape[3]), (cols, wmat, x.shape)

    def param_backward(self, dout, cache):
        """Sets ``dw`` and ``db`` from the output gradient ``dout`` and
        returns it laid out as the product of the cached ``wmat`` and im2col,
        which ``backward`` multiplies by ``wmat.T``."""
        cols = cache[0]
        dmat = dout.reshape(dout.shape[0], -1)
        self.db = dmat.sum(axis=1)
        self.dw = (dmat @ cols.T).reshape(self.w.shape)
        return dmat

    def backward(self, dout, cache):
        _, wmat, x_shape = cache
        return _col2im(wmat.T @ self.param_backward(dout, cache), x_shape, self.stride)


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
        _, h, w, n = x.shape
        cols, _ = _im2col(x, 1)
        out_ch, in_ch = self.w.shape[:2]
        wmat = (self.w.reshape(-1, 9) @ _PHASE_FOLD.T) \
            .reshape(out_ch, in_ch, 4, 9).transpose(2, 0, 1, 3) \
            .reshape(4 * out_ch, in_ch * 9)
        phases = (wmat @ cols).reshape(2, 2, out_ch, h, w, n)
        out = phases.transpose(2, 3, 0, 4, 1, 5).reshape(out_ch, 2 * h, 2 * w, n)
        out += self.b[:, None, None, None]
        return out, (cols, wmat, x.shape)

    def param_backward(self, dout, cache):
        cols = cache[0]
        out_ch, h2, w2, n = dout.shape
        in_ch = self.w.shape[1]
        self.db = dout.reshape(out_ch, -1).sum(axis=1)
        dphases = dout.reshape(out_ch, h2 // 2, 2, w2 // 2, 2, n) \
            .transpose(2, 4, 0, 1, 3, 5).reshape(4 * out_ch, -1)
        dwmat = dphases @ cols.T
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


class ToRows:
    """Turns (C, H, W, N) maps into the dense layers' (N, C*H*W) rows, each
    in the (C, H, W) order of the stored dense weights."""

    def forward(self, x):
        c, h, w, n = x.shape
        return x.reshape(c * h * w, n).T, x.shape

    def backward(self, dout, in_shape):
        return np.ascontiguousarray(dout.T).reshape(in_shape)


class ToMaps:
    """Turns (N, C*H*W) rows back into (C, H, W, N) maps of ``shape`` (C, H, W)."""

    def __init__(self, shape):
        self.shape = shape

    def forward(self, x):
        return np.ascontiguousarray(x.T).reshape(*self.shape, len(x)), None

    def backward(self, dout, cache):
        return dout.reshape(math.prod(self.shape), -1).T


def _to_maps(x):
    """(N, H, W) images as the conv layers' (1, H, W, N) maps."""
    return np.ascontiguousarray(x.transpose(1, 2, 0))[None]


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
        layers += [ToRows(), params[stages]]
        self.n_encoder = len(layers)
        layers += [params[stages + 1], Relu(),
                   ToMaps((self.channels[-1], h >> stages, w >> stages))]
        for conv in params[stages + 2:]:
            layers += [conv, Relu()]
        layers[-1] = Sigmoid()
        self.layers = layers

    def _as_batch(self, frames):
        """``frames`` as (N, H, W) images: one (H, W) image, (N, H, W) or
        (N, 1, H, W)."""
        x = np.asarray(frames, dtype=float)
        if x.ndim == 2:
            x = x[None]
        elif x.ndim == 4 and x.shape[1] == 1:
            x = x[:, 0]
        if x.ndim != 3 or x.shape[1:] != self.input_hw:
            h, w = self.input_hw
            raise ValueError(f"expected ({h}, {w}), (N, {h}, {w}) or (N, 1, {h}, {w}) "
                             f"images, got shape {np.shape(frames)}")
        return x

    def forward(self, frames):
        """Returns (reconstruction (N, H, W), codes (N, bottleneck)), computed
        ``CHUNK_FRAMES`` images at a time. With the default network one chunk
        of 256 images peaks at about 22 MB (tracemalloc); any N adds only the
        returned arrays and about half a chunk."""
        encoder, decoder = self.layers[:self.n_encoder], self.layers[self.n_encoder:]
        recons, codes = [], []
        for chunk in _chunks(self._as_batch(frames)):
            # not through ``encode``, whose calls a benchmark tracer counts
            codes.append(_forward(encoder, _to_maps(chunk)))
            recons.append(_forward(decoder, codes[-1])[0].transpose(2, 0, 1))
        return np.concatenate(recons), np.concatenate(codes)

    def loss_and_grad(self, frames):
        """Mean squared reconstruction error; leaves gradients in the layers."""
        x = _to_maps(self._as_batch(frames))
        out, caches = x, []
        for layer in self.layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        d = out - x
        loss = float(np.mean(d ** 2))
        d *= 2.0 / d.size
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
        one chunk of 256 images peaks at about 7.5 MB (tracemalloc); any N
        adds only the returned codes and about half a chunk."""
        encoder = self.layers[:self.n_encoder]
        return np.concatenate([_forward(encoder, _to_maps(chunk))
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
