"""Mouth region-of-interest extraction with in-plane rotation alignment.

Coordinate convention: pixel (row i, col j) of an image sits at continuous
coordinates (x=j, y=i), y growing downward. Landmarks follow the 68-point
layout: 48..67 are the mouth, with 48 / 54 the left / right outer corners.

The aligned ROI is built by rotating the mouth landmarks to make the corner
line horizontal, taking their bounding box grown by a margin fraction per
side, and resampling that box from the source image on a fixed output grid
with bilinear interpolation (edge pixels replicated outside the image).

The work is batched over the frames of an utterance: the boxes are (T,)
arrays and the sampling grid is one (T, H, W) array. Beyond the frames
themselves, the memory peak is about twenty (T, 16, 32) temporaries of
8-byte values, 6 MB for an 82-frame utterance.
"""

import math

import numpy as np

from .errors import DegenerateGeometryError, raise_first_degenerate

MOUTH_SLICE = slice(48, 68)
LEFT_CORNER = 48
RIGHT_CORNER = 54
ROI_WIDTH = 32
ROI_HEIGHT = 16


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
    # only and box y along rows only, so only the sample coords are (T, H, W)
    x0, y0, bw, bh, c, s, cx, cy = (a.reshape(n, 1, 1)
                                    for a in (x0, y0, bw, bh, c, s, *center.T))
    bx = x0 + (np.arange(out_w) + 0.5) * bw / out_w
    by = y0 + (np.arange(out_h).reshape(out_h, 1) + 0.5) * bh / out_h
    return _bilinear(imgs, cx + c * bx - s * by, cy + s * bx + c * by)


def _bilinear(frames, xs, ys):
    """Sample frame t of ``frames`` at ``(xs[t], ys[t])`` with bilinear
    weights, edges clamped; uint8 pixels are divided by 255 after the gather."""
    h, w = frames.shape[1:]
    x = np.clip(xs, 0.0, w - 1.0)
    y = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    # gather through flat indices: one take per corner
    flat = frames.reshape(-1)
    first = np.arange(len(frames)).reshape(-1, 1, 1) * (h * w)
    row0, row1 = first + y0 * w, first + y1 * w

    def at(index):
        pixels = flat.take(index)
        return pixels / 255.0 if frames.dtype == np.uint8 else pixels.astype(float)

    gx = 1 - fx
    top = at(row0 + x0) * gx + at(row0 + x1) * fx
    bot = at(row1 + x0) * gx + at(row1 + x1) * fx
    return top * (1 - fy) + bot * fy
