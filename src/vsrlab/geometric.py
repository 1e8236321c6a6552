"""High-level geometric lip features from 68-point landmark frames.

Eighteen scalars per frame, built from the mouth ring (outer lip 48..59,
inner lip 60..67), the jaw (2, 14), and the nose base (33). Lengths are
normalized by the jaw width |p2 - p14|, areas by its square, so the vector is
invariant to translation, rotation, and isotropic scale of the landmark set.

The mouth-local frame is built without trigonometry: u is the unit vector
from the left to the right outer corner, v its perpendicular. On integer
coordinate grids this makes the vector bit-exact under integer translations
and power-of-two scalings, which the test suite checks with equality, not
tolerances.

The work is batched over frames: every feature is computed as one (T,)
column for the whole sequence.
"""

import numpy as np

from .errors import raise_first_degenerate

FEATURE_NAMES = (
    "outer_width",
    "outer_height",
    "inner_width",
    "inner_height",
    "outer_area",
    "inner_area",
    "outer_perimeter",
    "inner_perimeter",
    "outer_aspect",
    "inner_aspect",
    "upper_lip_thickness",
    "lower_lip_thickness",
    "left_corner_angle",
    "right_corner_angle",
    "vertical_nose_offset",
    "horizontal_nose_offset",
    "area_ratio",
    "inner_area_units",
)
N_FEATURES = len(FEATURE_NAMES)

# slices, not index arrays: numpy reduces a C-ordered (T, N) array along N
# row by row, in the order it sums one frame, but a fancy-indexed (T, N, 2)
# copy can come out frame-major in memory and is then summed across frames
# in another order, which moves the perimeters in the last bit
_OUTER = slice(48, 60)
_INNER = slice(60, 68)
_MOUTH = slice(48, 68)


def _polygon_area(pts):
    """Absolute shoelace area of closed polygons given as (..., N, 2) vertices.

    Each sum is a (1, N) @ (N, 1) matmul, which numpy evaluates with the
    same dot routine as ``np.dot`` on one polygon, so a stack of polygons
    sums in the order a single one does.
    """
    x = pts[..., None, :, 0]
    y = pts[..., :, None, 1]
    cross = x @ np.roll(y, -1, axis=-2) - np.roll(x, -1, axis=-1) @ y
    return 0.5 * np.abs(cross[..., 0, 0])


def geometric_sequence(landmark_seq):
    """Feature matrix (T, 18) for a (T, 68, 2) landmark sequence."""
    pts = np.asarray(landmark_seq, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (68, 2):
        raise ValueError(f"expected (T, 68, 2) landmarks, got {pts.shape}")
    # local origin at the left mouth corner; on exactly representable inputs
    # this cancels any common translation before further arithmetic
    p = pts - pts[:, 48:49]

    def length(d):
        return np.hypot(d[..., 0], d[..., 1])

    def dist(i, j):
        return length(p[:, i] - p[:, j])

    def perimeter(ring):
        return length(np.roll(ring, -1, axis=1) - ring).sum(axis=1)

    unit = dist(2, 14)
    d = p[:, 54] - p[:, 48]
    norm_d = length(d)
    outer_w = dist(48, 54)
    outer_h = dist(51, 57)
    inner_w = dist(60, 64)
    inner_h = dist(62, 66)
    outer = p[:, _OUTER]
    inner = p[:, _INNER]
    outer_area = _polygon_area(outer)
    inner_area = _polygon_area(inner)
    # the two edges at each outer corner
    edges = [(p[:, 49] - p[:, 48], p[:, 59] - p[:, 48]),
             (p[:, 53] - p[:, 54], p[:, 55] - p[:, 54])]
    edge_len = [(length(a), length(b)) for a, b in edges]
    raise_first_degenerate([
        (unit == 0.0, "jaw landmarks coincide; unit length undefined"),
        (norm_d == 0.0, "mouth corners coincide"),
        ((outer_w == 0.0) | (inner_w == 0.0), "zero mouth width"),
        (outer_area == 0.0, "outer lip polygon has zero area"),
        (np.any([(na == 0.0) | (nb == 0.0) for na, nb in edge_len], axis=0),
         "zero-length edge at a mouth corner")])
    unit_area = unit * unit
    u = d / norm_d[:, None]
    corner_angles = [
        np.arccos(np.clip((a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) / (na * nb), -1.0, 1.0))
        for (a, b), (na, nb) in zip(edges, edge_len)]

    centroid = p[:, _MOUTH].mean(axis=1)
    offset = centroid - p[:, 33]
    along = offset[:, 0] * u[:, 0] + offset[:, 1] * u[:, 1]
    # across the corner line, along v = (-u_y, u_x)
    across = offset[:, 0] * -u[:, 1] + offset[:, 1] * u[:, 0]

    return np.stack([
        outer_w / unit,
        outer_h / unit,
        inner_w / unit,
        inner_h / unit,
        outer_area / unit_area,
        inner_area / unit_area,
        perimeter(outer) / unit,
        perimeter(inner) / unit,
        outer_h / outer_w,
        inner_h / inner_w,
        dist(51, 62) / unit,
        dist(57, 66) / unit,
        *corner_angles,
        np.abs(across) / unit,
        np.abs(along) / unit,
        inner_area / outer_area,
        inner_area / unit_area,
    ], axis=1)
