"""Check that two vsrlab checkouts train the same autoencoder, bit for bit.

    python3 tools/compare_autoencoder.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/`` is imported in a child process of its own, with
BLAS pinned to one thread (trained floats depend on the thread count), which
trains fixed configurations on fixed random frames and keeps every float64
result: weights and biases, the gradients of one more batch, the epoch
losses, the codes and the reconstructions, the last two also of a batch of
``2 * CHUNK_FRAMES + 37`` frames, which ``forward`` and ``encode`` split
into two whole chunks and a partial one. The two sides are compared with
``np.array_equal``. The artifact tree is not enough for this, because the
CAE1 and VFA1 containers store float32 and hide float64 differences.
For every array that differs it prints the largest absolute difference and
that difference relative to the array's largest magnitude, and it exits 1
if any array differs.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare_trees import side_env

# (channels, bottleneck, input_hw, frames, epochs, lr, batch_size)
CONFIGS = {
    "default": ((8, 16, 32), 32, (16, 32), 200, 3, 1e-3, 32),
    "one_stage": ((3,), 4, (8, 8), 40, 3, 0.05, 8),
    "cli_chain": ((4, 8, 8), 8, (16, 32), 96, 2, 0.01, 16),
}


def run_side(src, out):
    sys.path.insert(0, str(Path(src) / "src"))
    from vsrlab.autoencoder import CHUNK_FRAMES, ConvAutoencoder

    arrays = {}
    for name, (channels, bottleneck, hw, n, epochs, lr, batch) in CONFIGS.items():
        frames = np.random.default_rng(0).uniform(0.0, 1.0, (n, *hw))
        net = ConvAutoencoder(channels=channels, bottleneck=bottleneck,
                              input_hw=hw, seed=0)
        losses = net.train(frames, epochs=epochs, lr=lr, batch_size=batch, seed=0)
        # checkouts before the layer list return a TrainingLog
        arrays[f"{name}.losses"] = np.array(getattr(losses, "epoch_losses", losses))
        arrays[f"{name}.loss"] = np.array(net.loss_and_grad(frames[:batch]))
        for i, (layer, attr) in enumerate(net.parameter_arrays()):
            arrays[f"{name}.{i}.{attr}"] = getattr(layer, attr)
            arrays[f"{name}.{i}.d{attr}"] = getattr(layer, "d" + attr)
        recon, code = net.forward(frames)
        arrays[f"{name}.recon"] = recon
        arrays[f"{name}.code"] = code
        arrays[f"{name}.encode"] = net.encode(frames)
        many = np.random.default_rng(1).uniform(0.0, 1.0, (2 * CHUNK_FRAMES + 37, *hw))
        recon, code = net.forward(many)
        arrays[f"{name}.chunked.recon"] = recon
        arrays[f"{name}.chunked.code"] = code
        arrays[f"{name}.chunked.encode"] = net.encode(many)
    np.savez(out, **arrays)


def main(argv):
    if len(argv) == 3 and argv[0] == "--side":
        run_side(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, checkout in enumerate(argv):
            out = Path(tmp) / f"side{i}.npz"
            subprocess.run([sys.executable, __file__, "--side", checkout, str(out)],
                           env=side_env(), check=True)
            results.append(dict(np.load(out)))
    old, new = results
    differ = sorted(k for k in old.keys() | new.keys()
                    if k not in old or k not in new
                    or old[k].dtype != new[k].dtype
                    or not np.array_equal(old[k], new[k]))
    print(f"{len(old.keys() | new.keys())} float64 arrays compared, {len(differ)} differ")
    for key in differ:
        print(f"  {key}: {_difference(old.get(key), new.get(key))}")
    return 1 if differ else 0


def _difference(a, b):
    """The largest absolute difference of two arrays and that difference
    relative to the largest magnitude in either, or why they cannot be
    compared element by element."""
    if a is None or b is None:
        return "on one side only"
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    diff = float(np.abs(a.astype(float) - b.astype(float)).max())
    scale = float(max(np.abs(a).max(), np.abs(b).max()))
    return f"max abs {diff:.3g}, max rel {diff / scale if scale else 0.0:.3g}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
