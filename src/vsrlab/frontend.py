"""Mouth region-of-interest extraction with in-plane rotation alignment.

Coordinate convention: pixel (row i, col j) of an image sits at continuous
coordinates (x=j, y=i), y growing downward. Landmarks follow the 68-point
layout: 48..67 are the mouth, with 48 / 54 the left / right outer corners.

The aligned ROI is built by rotating the mouth landmarks to make the corner
line horizontal, taking their bounding box grown by a margin fraction per
side, and resampling that box from the source image on a fixed output grid
with bilinear interpolation (edge pixels replicated outside the image).
"""

import math

import numpy as np

from .errors import DegenerateGeometryError

MOUTH_SLICE = slice(48, 68)
LEFT_CORNER = 48
RIGHT_CORNER = 54
ROI_WIDTH = 32
ROI_HEIGHT = 16
DEFAULT_MARGIN = 0.15


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


def bilinear_sample(image, xs, ys):
    """Sample ``image`` at float coords with bilinear weights, edges clamped."""
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    x = np.clip(xs, 0.0, w - 1.0)
    y = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def extract_aligned_roi(landmarks, image, out_size=(ROI_WIDTH, ROI_HEIGHT), margin=DEFAULT_MARGIN):
    """Extract one aligned mouth ROI as a float array in [0, 1].

    ``landmarks`` is (68, 2); ``image`` a 2-D grayscale frame (uint8 arrays
    are rescaled by 255). Returns shape (out_height, out_width).
    """
    pts = np.asarray(landmarks, dtype=float)
    img = np.asarray(image)
    if img.dtype == np.uint8:
        img = img.astype(float) / 255.0
    out_w, out_h = out_size
    theta = mouth_alignment_angle(pts)

    mouth = pts[MOUTH_SLICE]
    center = mouth.mean(axis=0)
    c, s = math.cos(theta), math.sin(theta)
    rel = mouth - center
    # rotate by -theta so the corner line becomes horizontal
    rx = c * rel[:, 0] + s * rel[:, 1]
    ry = -s * rel[:, 0] + c * rel[:, 1]
    x0, x1 = rx.min(), rx.max()
    y0, y1 = ry.min(), ry.max()
    bw, bh = x1 - x0, y1 - y0
    if bw <= 0.0 or bh <= 0.0:
        raise DegenerateGeometryError("mouth landmarks span a zero-area box")
    x0 -= margin * bw
    x1 += margin * bw
    y0 -= margin * bh
    y1 += margin * bh
    bw, bh = x1 - x0, y1 - y0

    # output pixel centers in box coords, mapped back through the rotation
    jj, ii = np.meshgrid(np.arange(out_w), np.arange(out_h))
    bx = x0 + (jj + 0.5) * bw / out_w
    by = y0 + (ii + 0.5) * bh / out_h
    sx = center[0] + c * bx - s * by
    sy = center[1] + s * bx + c * by
    return bilinear_sample(img, sx, sy)


def roi_sequence(landmarks, frames, out_size=(ROI_WIDTH, ROI_HEIGHT), margin=DEFAULT_MARGIN):
    """Aligned ROIs for a whole utterance: (T, out_height, out_width) floats."""
    n = len(frames)
    if len(landmarks) != n:
        raise ValueError(f"landmark count {len(landmarks)} != frame count {n}")
    out = np.empty((n, out_size[1], out_size[0]))
    for t in range(n):
        out[t] = extract_aligned_roi(landmarks[t], frames[t], out_size, margin)
    return out
