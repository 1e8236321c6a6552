"""Mouth region-of-interest extraction with in-plane rotation alignment.

Coordinate convention: pixel (row i, col j) of an image sits at continuous
coordinates (x=j, y=i), y growing downward. Landmarks follow the 68-point
layout: 48..67 are the mouth, with 48 / 54 the left / right outer corners.

The aligned ROI is built by rotating the mouth landmarks to make the corner
line horizontal, taking their bounding box grown by a margin fraction per
side, and resampling that box from the source image on a fixed output grid
with bilinear interpolation (edge pixels replicated outside the image).

The boxes are computed for the whole utterance as (T,) arrays, and the
sample coordinates' per-frame column and row terms as (T, 1, W) and
(T, H, 1) arrays. The (H, W) sampling runs ``_CHUNK_FRAMES`` frames at a
time through one set of work arrays, none over 64 KiB at the default
(16, 32) output, so only the returned (T, H, W) array spans the utterance.
Beyond the frames themselves, the memory peak stays under 1.5 MB for an
82-frame utterance (1.4 MB measured with tracemalloc).
"""

import math

import numpy as np

from .errors import DegenerateGeometryError, raise_first_degenerate

MOUTH_SLICE = slice(48, 68)
LEFT_CORNER = 48
RIGHT_CORNER = 54
ROI_WIDTH = 32
ROI_HEIGHT = 16
# Frames sampled per step. A (16, 16, 32) work array of 8-byte values is
# 64 KiB, half of glibc's 128 KiB mmap threshold, so the work arrays come
# from the heap, which keeps its pages from one utterance to the next;
# utterance-sized temporaries were mapped, faulted in page by page and
# unmapped again on every call. 16 frames ran about 9% faster than 8.
_CHUNK_FRAMES = 16


def mouth_alignment_angle(landmarks):
    """In-plane mouth rotation in radians, from the outer corner line.

    Result is wrapped to (-pi/2, pi/2] so an upside-down face maps to the same
    line orientation. Coincident corners make the angle undefined.
    """
    pts = np.asarray(landmarks, dtype=float)
    dx = pts[RIGHT_CORNER, 0] - pts[LEFT_CORNER, 0]
    dy = pts[RIGHT_CORNER, 1] - pts[LEFT_CORNER, 1]
    if dx == 0.0 and dy == 0.0:
        raise DegenerateGeometryError("mouth corners coincide; alignment angle undefined")
    theta = math.atan2(dy, dx)
    if theta <= -math.pi / 2:
        theta += math.pi
    elif theta > math.pi / 2:
        theta -= math.pi
    return theta


def roi_sequence(landmarks, frames, *, margin, out_size=(ROI_WIDTH, ROI_HEIGHT)):
    """Aligned mouth ROIs for a whole utterance as floats in [0, 1].

    ``landmarks`` is (T, 68, 2); ``frames`` (T, H, W) grayscale (uint8
    frames are rescaled by 255). Returns shape (T, out_height, out_width).
    """
    pts = np.asarray(landmarks, dtype=float)
    imgs = np.asarray(frames)
    n = len(imgs)
    if len(pts) != n:
        raise ValueError(f"landmark count {len(pts)} != frame count {n}")
    out_w, out_h = out_size
    corners = pts[:, RIGHT_CORNER] - pts[:, LEFT_CORNER]
    coincide = (corners == 0.0).all(axis=1)
    # scalar math.atan2/cos/sin per frame: numpy's array versions can differ
    # in the last bit, which would move the sampled pixels
    theta = [0.0 if bad else mouth_alignment_angle(frame)
             for frame, bad in zip(pts, coincide)]
    c = np.array([math.cos(t) for t in theta])
    s = np.array([math.sin(t) for t in theta])

    mouth = pts[:, MOUTH_SLICE]
    center = mouth.mean(axis=1)
    rel = mouth - center[:, None]
    # rotate by -theta so the corner line becomes horizontal
    rx = c[:, None] * rel[..., 0] + s[:, None] * rel[..., 1]
    ry = -s[:, None] * rel[..., 0] + c[:, None] * rel[..., 1]
    x0, x1 = rx.min(axis=1), rx.max(axis=1)
    y0, y1 = ry.min(axis=1), ry.max(axis=1)
    bw, bh = x1 - x0, y1 - y0
    raise_first_degenerate([
        (coincide, "mouth corners coincide; alignment angle undefined"),
        ((bw <= 0.0) | (bh <= 0.0), "mouth landmarks span a zero-area box")])
    x0 -= margin * bw
    x1 += margin * bw
    y0 -= margin * bh
    y1 += margin * bh
    bw, bh = x1 - x0, y1 - y0

    # output pixel centers in box coords, mapped back through the rotation.
    # Per-frame values broadcast as (T, 1, 1); box x varies along columns
    # only and box y along rows only, so the sample coords cx + c * bx - s *
    # by and cy + s * bx + c * by are sums of a (T, 1, W) and a (T, H, 1) term
    x0, y0, bw, bh, c, s, cx, cy = (a.reshape(n, 1, 1)
                                    for a in (x0, y0, bw, bh, c, s, *center.T))
    bx = x0 + (np.arange(out_w) + 0.5) * bw / out_w
    by = y0 + (np.arange(out_h).reshape(out_h, 1) + 0.5) * bh / out_h
    return _bilinear(imgs, (cx + c * bx, s * by), (cy + s * bx, c * by))


def _bilinear(frames, x_terms, y_terms):
    """Sample frame t of ``frames`` with bilinear weights, edges clamped, at
    x = x_terms[0][t] - x_terms[1][t] and y = y_terms[0][t] + y_terms[1][t],
    each the sum of a (1, W) and an (H, 1) term; uint8 pixels are divided
    by 255 after the gather.

    Runs ``_CHUNK_FRAMES`` frames at a time in one set of work arrays. Each
    step is the elementwise operation that sampling the whole utterance at
    once would make, in the same order, so the bits are the same."""
    n, (h, w) = len(frames), frames.shape[1:]
    out = np.empty((n, y_terms[1].shape[1], x_terms[0].shape[2]))
    shape = (_CHUNK_FRAMES,) + out.shape[1:]
    x, y, gx, a, b, c = (np.empty(shape) for _ in range(6))
    x0, x1, row0, row1, index = (np.empty(shape, dtype=int) for _ in range(5))
    raw = None if frames.dtype == float else np.empty(shape, dtype=frames.dtype)
    first = np.arange(_CHUNK_FRAMES).reshape(-1, 1, 1) * (h * w)
    for start in range(0, n, _CHUNK_FRAMES):
        part = slice(start, start + _CHUNK_FRAMES)
        m = len(out[part])
        if m < _CHUNK_FRAMES:
            x, y, gx, a, b, c, x0, x1, row0, row1, index, first = (
                v[:m] for v in (x, y, gx, a, b, c, x0, x1, row0, row1, index, first))
            raw = None if raw is None else raw[:m]
        np.subtract(x_terms[0][part], x_terms[1][part], out=x)
        np.add(y_terms[0][part], y_terms[1][part], out=y)
        np.clip(x, 0.0, w - 1.0, out=x)
        np.clip(y, 0.0, h - 1.0, out=y)
        np.floor(x, out=x0, casting="unsafe")
        np.floor(y, out=row0, casting="unsafe")     # y0, until scaled below
        np.add(x0, 1, out=x1)
        np.minimum(x1, w - 1, out=x1)
        np.add(row0, 1, out=row1)
        np.minimum(row1, h - 1, out=row1)
        np.subtract(x, x0, out=x)                   # fx
        np.subtract(y, row0, out=y)                 # fy
        np.subtract(1, x, out=gx)
        # flat indices into the chunk's frames: one take per corner
        for row in (row0, row1):
            row *= w
            row += first
        flat = frames[part].reshape(-1)
        for row, pixels in ((row0, a), (row1, b)):
            left = _gather(flat, np.add(row, x0, out=index), raw, pixels)
            left *= gx
            right = _gather(flat, np.add(row, x1, out=index), raw, c)
            right *= x
            left += right
        # a and b now hold the top and bottom rows' values
        np.subtract(1, y, out=gx)
        a *= gx
        b *= y
        np.add(a, b, out=out[part])
    return out


def _gather(flat, index, raw, pixels):
    """``flat.take(index)`` as float64 into ``pixels``, through ``raw`` (of
    the frames' dtype) unless the frames are float64; uint8 pixels are
    divided by 255."""
    if raw is None:
        return flat.take(index, out=pixels, mode="clip")
    flat.take(index, out=raw, mode="clip")
    if raw.dtype == np.uint8:
        return np.divide(raw, 255.0, out=pixels)
    pixels[...] = raw
    return pixels
