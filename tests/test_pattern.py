"""Pattern container, CSV persistence and pair-enumeration oracle tests."""

import math

import numpy as np
import pytest

from kscope.geometry import BodyShape, Box, Disk, StructuringBody, gauge_norm
from kscope.pattern import (
    PointPattern,
    close_pairs,
    load_pattern,
    pair_arrays,
    save_pattern,
)

_SHAPES = (BodyShape.L1_BALL, BodyShape.L2_BALL, BodyShape.LINF_BALL)


def brute_force_pairs(points, body, r_max):
    """All ordered pairs within gauge distance r_max, by a full double loop."""
    n = len(points)
    out = set()
    dists = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            g = float(gauge_norm(body, points[j] - points[i]))
            if g <= r_max:
                out.add((i, j))
                dists[(i, j)] = g
    return out, dists


# ---------------------------------------------------------------------------
# construction and validation


def test_pattern_basic_fields():
    w = Box([0.0, 0.0], [10.0, 10.0])
    p = PointPattern([[1.0, 2.0], [3.0, 4.0]], w)
    assert len(p) == 2
    assert p.dimension == 2
    assert p.window is w


def test_empty_pattern_allowed():
    p = PointPattern([], Box([0.0, 0.0], [1.0, 1.0]))
    assert len(p) == 0
    assert p.points.shape == (0, 2)


def test_point_outside_window_rejected():
    w = Box([0.0, 0.0], [10.0, 10.0])
    with pytest.raises(ValueError, match="outside"):
        PointPattern([[1.0, 1.0], [11.0, 0.0]], w)


def test_boundary_points_accepted():
    # the window is closed, so corner and edge points are fine
    w = Box([0.0, 0.0], [10.0, 10.0])
    p = PointPattern([[0.0, 0.0], [10.0, 10.0], [5.0, 0.0]], w)
    assert len(p) == 3
    disk = Disk((0.0, 0.0), 2.0)
    assert len(PointPattern([[2.0, 0.0]], disk)) == 1


def test_duplicate_points_rejected():
    w = Box([0.0, 0.0], [10.0, 10.0])
    with pytest.raises(ValueError, match="duplicate"):
        PointPattern([[1.0, 2.0], [1.0, 2.0]], w)
    # nearby but distinct points are allowed
    p = PointPattern([[1.0, 2.0], [1.0, 2.0 + 1e-13]], w)
    assert len(p) == 2


def test_duplicate_check_compares_whole_rows():
    w = Box([0.0, 0.0, 0.0], [10.0, 10.0, 10.0])
    # rows that share one or two coordinates, in any order, are distinct
    pts = [[1.0, 2.0, 3.0], [1.0, 5.0, 3.0], [4.0, 2.0, 3.0], [1.0, 2.0, 6.0],
           [4.0, 5.0, 6.0], [0.0, 2.0, 3.0]]
    assert len(PointPattern(pts, w)) == 6
    for dup in ([4.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="pattern contains duplicate points"):
            PointPattern(pts[:3] + [dup] + pts[3:], w)
    # 0.0 and -0.0 are the same coordinate
    with pytest.raises(ValueError, match="pattern contains duplicate points"):
        PointPattern([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0], [-0.0, 1.0, 2.0]], w)


def test_duplicate_check_matches_unique_rows():
    """The sorted adjacent-row check agrees with np.unique over random rows."""
    rng = np.random.default_rng(11)
    w = Box([0.0, 0.0], [3.0, 3.0])
    for _ in range(200):
        pts = rng.integers(0, 4, size=(int(rng.integers(2, 9)), 2)).astype(float)
        has_dup = np.unique(pts, axis=0).shape[0] < pts.shape[0]
        if has_dup:
            with pytest.raises(ValueError, match="duplicate"):
                PointPattern(pts, w)
        else:
            assert len(PointPattern(pts, w)) == len(pts)


def test_nonfinite_coordinates_rejected():
    w = Box([0.0, 0.0], [10.0, 10.0])
    with pytest.raises(ValueError, match="non-finite"):
        PointPattern([[1.0, math.nan]], w)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        PointPattern([[1.0, 2.0, 3.0]], Box([0.0, 0.0], [10.0, 10.0]))


# ---------------------------------------------------------------------------
# CSV load/save


def test_load_two_point_csv(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    p = load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))
    assert len(p) == 2
    assert np.array_equal(p.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_point_outside_window_reports_row(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\n11.0,0.0\n")
    with pytest.raises(ValueError, match="outside"):
        load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))


def test_load_empty_body(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n")
    p = load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))
    assert len(p) == 0


def test_load_rejects_bad_header(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))


def test_load_rejects_wrong_column_count(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))


def test_load_rejects_non_numeric_cell(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\nfoo,4.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))


def test_load_rejects_duplicates(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))


def test_load_accepts_crlf_and_blank_tail(tmp_path):
    f = tmp_path / "p.csv"
    f.write_bytes(b"x,y\r\n1.0,2.0\r\n3.0,4.0\r\n\r\n")
    p = load_pattern(f, Box([0.0, 0.0], [10.0, 10.0]))
    assert len(p) == 2


def test_load_3d(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y,z\n1.0,2.0,3.0\n")
    p = load_pattern(f, Box([0.0] * 3, [10.0] * 3))
    assert p.dimension == 3


def test_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(31)
    w = Box([0.0, 0.0], [10.0, 10.0])
    p = PointPattern(rng.uniform(0.0, 10.0, size=(137, 2)), w)
    f = tmp_path / "round.csv"
    save_pattern(p, f)
    q = load_pattern(f, w)
    assert np.array_equal(p.points, q.points)


def test_save_empty_writes_header_only(tmp_path):
    f = tmp_path / "empty.csv"
    save_pattern(PointPattern([], Box([0.0, 0.0], [1.0, 1.0])), f)
    assert f.read_text() == "x,y\n"


def test_save_line_count_large(tmp_path):
    rng = np.random.default_rng(32)
    w = Box([0.0, 0.0], [1.0, 1.0])
    n = 100_000
    # sampling from the open cube keeps collision probability negligible
    p = PointPattern(rng.random(size=(n, 2)), w)
    f = tmp_path / "big.csv"
    save_pattern(p, f)
    with open(f) as fh:
        assert sum(1 for _ in fh) == n + 1


# ---------------------------------------------------------------------------
# pair enumeration


def test_two_point_pair_symmetry():
    pts = np.array([[4.0, 5.0], [5.0, 5.0]])
    body = StructuringBody(2, BodyShape.L2_BALL)
    ii, jj, diffs, dists = close_pairs(pts, body, 1.0)
    assert (ii.tolist(), jj.tolist(), dists.tolist()) == ([0], [1], [1.0])
    assert np.array_equal(diffs, [pts[1] - pts[0]])
    ii, jj, diffs, dists = pair_arrays(pts, body, 1.0)
    assert set(zip(ii.tolist(), jj.tolist())) == {(0, 1), (1, 0)}
    assert dists.tolist() == [1.0, 1.0]
    assert np.array_equal(diffs, pts[jj] - pts[ii])


def test_two_point_pair_below_radius_empty():
    pts = np.array([[4.0, 5.0], [5.0, 5.0]])
    body = StructuringBody(2, BodyShape.L2_BALL)
    for pairs in (close_pairs, pair_arrays):
        ii, jj, diffs, dists = pairs(pts, body, 0.5)
        assert ii.size == jj.size == dists.size == 0
        assert diffs.shape == (0, 2)


def test_tie_at_r_max_included():
    linf = StructuringBody(2, BodyShape.LINF_BALL)
    pts = np.array([[1.0, 1.0], [1.75, 1.5]])
    # max-coordinate distance is exactly 0.75
    assert close_pairs(pts, linf, 0.75)[0].size == 1
    assert pair_arrays(pts, linf, 0.75)[0].size == 2
    assert close_pairs(pts, linf, 0.7499999999)[0].size == 0
    # r_max * radius_scale is inexact in binary: the tree radius is widened,
    # and the exact gauge distance decides ties
    for shape in (BodyShape.L1_BALL, BodyShape.L2_BALL):
        body = StructuringBody(2, shape, 1.3)
        for step in ([0.3, 0.0], [0.0, 0.7], [0.1, 0.2], [0.6, 0.8]):
            far = pts[0] + np.array(step) * 1.3
            pair = np.array([pts[0], far])
            g = float(gauge_norm(body, far - pts[0]))
            ii, _, _, dists = close_pairs(pair, body, g)
            assert ii.size == 1 and dists[0] == g
            assert close_pairs(pair, body, np.nextafter(g, 0.0))[0].size == 0


def test_pair_arrays_degenerate_inputs():
    body = StructuringBody(2, BodyShape.L2_BALL)
    pts = np.array([[1.0, 1.0], [2.0, 2.0]])
    for arr in (np.zeros((0, 2)), np.array([[1.0, 1.0]])):
        ii, jj, diffs, dists = pair_arrays(arr, body, 1.0)
        assert ii.size == jj.size == dists.size == 0
    ii, jj, _, _ = pair_arrays(pts, body, 0.0)
    assert ii.size == 0
    with pytest.raises(ValueError):
        pair_arrays(pts, body, -1.0)
    with pytest.raises(ValueError):
        pair_arrays(pts, body, math.inf)


def test_pairs_dimension_mismatch():
    body = StructuringBody(3, BodyShape.L2_BALL)
    # checked before the search, also when there is nothing to search
    for pts in (np.zeros((0, 2)), np.array([[1.0, 1.0]]), np.eye(2)):
        for pairs in (close_pairs, pair_arrays):
            with pytest.raises(ValueError, match="dimension"):
                pairs(pts, body, 1.0)


def test_grid_matches_brute_force_small():
    """Spec example scale: 200 uniform points, r_max = 0.3."""
    rng = np.random.default_rng(33)
    w = Box([0.0, 0.0], [1.0, 1.0])
    pts = rng.random(size=(200, 2))
    body = StructuringBody(2, BodyShape.L2_BALL)
    ii, jj, _, dists = pair_arrays(pts, body, 0.3)
    got = set(zip(ii.tolist(), jj.tolist()))
    want, want_d = brute_force_pairs(pts, body, 0.3)
    assert got == want
    for i, j, g in zip(ii.tolist(), jj.tolist(), dists.tolist()):
        assert g == want_d[(i, j)]


def test_grid_matches_brute_force_battery():
    """Grid-hashed enumeration equals the O(n^2) oracle on 200 patterns."""
    rng = np.random.default_rng(34)
    checked = 0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        shape = _SHAPES[trial % 3]
        body = StructuringBody(d, shape, float(rng.uniform(0.4, 2.5)))
        if d == 2 and trial % 5 == 0:
            w = Disk((0.0, 0.0), float(rng.uniform(2.0, 8.0)))
            pts = w.sample(rng, int(rng.integers(0, 140)))
        else:
            side = float(rng.uniform(2.0, 12.0))
            w = Box(np.zeros(d), np.full(d, side))
            n = 500 if trial % 40 == 7 else int(rng.integers(0, 140))
            pts = rng.uniform(0.0, side, size=(n, d))
        r_max = float(rng.uniform(0.05, 0.6)) * (np.ptp(pts) if len(pts) else 1.0)

        # vectorized oracle: full n x n gauge-distance matrix
        if len(pts):
            diffs = pts[None, :, :] - pts[:, None, :]
            gm = gauge_norm(body, diffs.reshape(-1, d)).reshape(len(pts), len(pts))
            np.fill_diagonal(gm, np.inf)
            want = set(zip(*np.nonzero(gm <= r_max)))
            want = {(int(a), int(b)) for a, b in want}
        else:
            want = set()

        ii, jj, _, _ = pair_arrays(pts, body, r_max)
        got = set(zip(ii.tolist(), jj.tolist()))
        assert got == want, f"trial {trial}: {len(got)} vs {len(want)} pairs"
        # the unordered search is the upper triangle: each pair once, i < j
        ui, uj, _, _ = close_pairs(pts, body, r_max)
        upper = sorted(zip(ui.tolist(), uj.tolist()))
        assert upper == sorted((a, b) for a, b in want if a < b)
        checked += 1
    assert checked == 200


def test_pair_count_even():
    rng = np.random.default_rng(35)
    body = StructuringBody(2, BodyShape.L1_BALL, 1.3)
    for _ in range(20):
        pts = rng.uniform(0.0, 10.0, size=(int(rng.integers(2, 80)), 2))
        ii, _, _, _ = pair_arrays(pts, body, 1.5)
        assert ii.size % 2 == 0


def test_mirrored_pairs_present():
    rng = np.random.default_rng(36)
    pts = rng.uniform(0.0, 5.0, size=(60, 2))
    body = StructuringBody(2, BodyShape.LINF_BALL)
    ii, jj, _, _ = pair_arrays(pts, body, 1.0)
    got = set(zip(ii.tolist(), jj.tolist()))
    assert got == {(j, i) for i, j in got}


def test_translation_leaves_gauge_distances_unchanged():
    # dyadic coordinates plus an integer shift keep float arithmetic exact
    rng = np.random.default_rng(37)
    w = Box([0.0, 0.0], [8.0, 8.0])
    pts = rng.integers(0, 8 * 1024, size=(150, 2)) / 1024.0
    pts = np.unique(pts, axis=0)
    body = StructuringBody(2, BodyShape.L2_BALL)
    shift = np.array([37.0, -12.0])
    p0 = PointPattern(pts, w)
    p1 = PointPattern(pts + shift, Box(w.lower + shift, w.upper + shift))
    for pairs in (close_pairs, pair_arrays):
        ii, jj, _, dists = pairs(p0.points, body, 1.25)
        d0 = sorted(zip(ii.tolist(), jj.tolist(), dists.tolist()))
        ii, jj, _, dists = pairs(p1.points, body, 1.25)
        d1 = sorted(zip(ii.tolist(), jj.tolist(), dists.tolist()))
        assert d0 == d1
