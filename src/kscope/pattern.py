"""Point patterns, CSV input/output and fixed-radius pair enumeration.

A :class:`PointPattern` couples a finite set of points with the compact
window on which it was observed.  Pair enumeration runs one k-d tree
search (``scipy.spatial.cKDTree``) in the p-norm of the body and returns
each unordered pair once; :func:`pair_arrays` is its mirrored, ordered
view.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import BodyShape, ObservationWindow, StructuringBody, gauge_norm

__all__ = [
    "PointPattern",
    "load_pattern",
    "save_pattern",
    "close_pairs",
    "pair_arrays",
]

_AXIS_NAMES = ("x", "y", "z")

_MINKOWSKI_P = {
    BodyShape.L1_BALL: 1.0,
    BodyShape.L2_BALL: 2.0,
    BodyShape.LINF_BALL: np.inf,
}

class PointPattern:
    """Finite point pattern observed in a compact convex window.

    Parameters
    ----------
    points : array_like
        Coordinates of shape (n, d); n may be zero.
    window : ObservationWindow
        Window containing every point.  For plus-sampled data this is the
        extended window on which points were actually observed; estimators
        that need a smaller evaluation window take it as a separate
        argument.

    Raises
    ------
    ValueError
        If coordinates are non-finite, a point falls outside the window,
        or two points coincide exactly.
    """

    def __init__(self, points, window: ObservationWindow):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, window.dimension)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n, d)")
        if pts.shape[1] != window.dimension:
            raise ValueError(
                f"point dimension {pts.shape[1]} does not match window "
                f"dimension {window.dimension}"
            )
        if not np.all(np.isfinite(pts)):
            bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0, 0])
            raise ValueError(f"non-finite coordinate in point {bad}")
        inside = window.contains(pts) if len(pts) else np.ones(0, dtype=bool)
        if not np.all(inside):
            bad = int(np.argwhere(~inside)[0, 0])
            raise ValueError(
                f"point {bad} at {pts[bad].tolist()} lies outside the window"
            )
        if len(pts) > 1:
            uniq = np.unique(pts, axis=0)
            if uniq.shape[0] != pts.shape[0]:
                raise ValueError("pattern contains duplicate points")
        self.points = pts
        self.window = window

    def __len__(self):
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.window.dimension

    def __repr__(self):
        return f"PointPattern(n={len(self)}, window={self.window!r})"


def save_pattern(p: PointPattern, path) -> None:
    """Write the pattern to CSV with header ``x,y`` or ``x,y,z``.

    Coordinates are written with 17 significant digits so that a
    save/load round trip reproduces every float exactly.
    """
    d = p.dimension
    if d > len(_AXIS_NAMES):
        raise ValueError("CSV export supports dimensions 1 to 3")
    header = ",".join(_AXIS_NAMES[:d])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in p.points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_pattern(path, window: ObservationWindow) -> PointPattern:
    """Read a CSV point file and validate it against the window.

    Parameters
    ----------
    path : str or path-like
        CSV file with header ``x,y`` (or ``x,y,z``) and one point per row.
    window : ObservationWindow
        Window the points must lie in.

    Returns
    -------
    PointPattern

    Raises
    ------
    ValueError
        On malformed rows (with the 1-based line number), points outside
        the window, or duplicate points.
    """
    d = window.dimension
    if d > len(_AXIS_NAMES):
        raise ValueError("CSV import supports dimensions 1 to 3")
    expected = list(_AXIS_NAMES[:d])
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected header {','.join(expected)}")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header != expected:
        raise ValueError(
            f"{path}: line 1: expected header {','.join(expected)!r}, "
            f"got {lines[0]!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != d:
            raise ValueError(
                f"{path}: line {lineno}: expected {d} columns, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    points = np.asarray(rows, dtype=float).reshape(len(rows), d)
    try:
        return PointPattern(points, window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def close_pairs(points: np.ndarray, body: StructuringBody, r_max: float):
    """Unordered pairs at gauge distance at most r_max, as flat arrays.

    Parameters
    ----------
    points : ndarray
        Coordinates of shape (n, d), with d the body dimension.
    body : StructuringBody
        Body inducing the gauge norm.
    r_max : float
        Nonnegative query radius; the closed ball is used, so ties at
        exactly r_max are included.

    Returns
    -------
    (i, j, diff, dist) : tuple of ndarrays
        Pair indices with ``i < j``, each unordered pair once, difference
        vectors ``points[j] - points[i]`` and their gauge norms.

    Notes
    -----
    Candidates come from ``cKDTree.query_pairs`` in the p-norm of the
    body at radius ``r_max * radius_scale``, widened by a relative 1e-9
    so that rounding in the tree never drops a tie.  Distances are then
    recomputed with :func:`gauge_norm` and filtered against r_max, so the
    pair set and distances match a brute-force search exactly.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != body.dimension:
        raise ValueError(
            f"points of shape {points.shape} do not match body dimension "
            f"{body.dimension}"
        )
    if r_max < 0 or not np.isfinite(r_max):
        raise ValueError("r_max must be a nonnegative finite float")
    if len(points) < 2 or r_max == 0.0:
        pairs = np.zeros((0, 2), dtype=np.intp)
    else:
        pairs = cKDTree(points).query_pairs(
            r_max * body.radius_scale * (1.0 + 1e-9),
            p=_MINKOWSKI_P[body.shape],
            output_type="ndarray",
        )
    ii, jj = pairs[:, 0], pairs[:, 1]
    diffs = points[jj]
    diffs -= points[ii]
    dists = gauge_norm(body, diffs)
    keep = dists <= r_max
    if keep.all():
        return ii, jj, diffs, dists
    return ii[keep], jj[keep], diffs[keep], dists[keep]


def pair_arrays(points: np.ndarray, body: StructuringBody, r_max: float):
    """Ordered pairs at gauge distance at most r_max, as flat arrays.

    The ordered view of :func:`close_pairs`: every unordered pair appears
    in both orientations, with differences ``points[j] - points[i]`` and
    their gauge norms.  Returns ``(i, j, diff, dist)`` with ``i != j``.
    """
    ii, jj, diffs, dists = close_pairs(points, body, r_max)
    return (
        np.concatenate((ii, jj)),
        np.concatenate((jj, ii)),
        np.concatenate((diffs, -diffs)),
        np.concatenate((dists, dists)),
    )
