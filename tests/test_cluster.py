from __future__ import annotations

import math
import time
import tracemalloc
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacloc import cluster
from tacloc.cluster import (MAX_EPS_PX, MAX_SPAN_CELLS, MIN_EPS_PX, NOISE,
                            DbscanParams, _density_bound, _label8,
                            _packed_unique, _tile_pixels, dbscan,
                            dbscan_brute, exclude_press, extract_centroid,
                            weigh)

from .conftest import reference_dominant

PARAMS = DbscanParams(eps=10.0, min_samples=10)


def membership_sets(labels):
    out = set()
    for c in set(labels.tolist()):
        if c == NOISE:
            continue
        out.add(frozenset(np.flatnonzero(labels == c).tolist()))
    return out


def random_point_set(rng, n, mode):
    if mode == 0:  # integer pixels in the ROI band
        return np.column_stack([rng.integers(0, 640, n),
                                rng.integers(200, 361, n)]).astype(float)
    if mode == 1:  # clumps plus scattered noise, integer
        k = int(rng.integers(1, 5))
        centers = np.column_stack([rng.uniform(40, 600, k),
                                   rng.uniform(215, 345, k)])
        parts = [c + rng.normal(0, 4, (max(1, n // (k + 1)), 2)) for c in centers]
        parts.append(np.column_stack([rng.uniform(0, 640, max(1, n // 4)),
                                      rng.uniform(200, 361, max(1, n // 4))]))
        return np.rint(np.vstack(parts)).clip([0, 200], [639, 360])
    if mode == 2:  # a uniform draw rounded to whole pixels, kept float64
        return np.rint(np.column_stack([rng.uniform(0, 640, n),
                                        rng.uniform(200, 361, n)]))
    # duplicate-heavy tiny range: many exact ties
    return np.column_stack([rng.integers(0, 40, n),
                            rng.integers(0, 12, n)]).astype(float)


class TestDbscanBasics:
    def test_coincident_points_one_cluster(self):
        pts = np.tile([[100.0, 250.0]], (20, 1))
        labels = dbscan(pts, PARAMS)
        assert np.all(labels == 0)

    def test_isolated_points_all_noise(self):
        pts = np.array([[0, 200], [50, 250], [100, 300], [150, 350],
                        [200, 210]], dtype=float)
        assert np.all(dbscan(pts, PARAMS) == NOISE)

    def test_empty_input(self):
        assert dbscan(np.zeros((0, 2)), PARAMS).size == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dbscan(np.array([[np.nan, 1.0]]), PARAMS)

    def test_neighbor_count_includes_self(self):
        # exactly min_samples coincident points are all core
        pts = np.tile([[5.0, 5.0]], (10, 1))
        assert np.all(dbscan(pts, PARAMS) == 0)
        assert np.all(dbscan(pts[:9], PARAMS) == NOISE)

    def test_border_tie_goes_to_smaller_coordinate(self):
        # two 10-point towers at x=0 and x=16, border point at x=8
        pts = np.vstack([np.tile([[0.0, 0.0]], (10, 1)),
                         np.tile([[16.0, 0.0]], (10, 1)),
                         [[8.0, 0.0]]])
        a = dbscan(pts, PARAMS)
        b = dbscan_brute(pts, PARAMS)
        assert np.array_equal(a, b)
        assert a[20] == a[0]  # tie resolved toward the x=0 tower

    def test_label_ids_follow_scan_order(self):
        tower = np.tile([[0.0, 0.0]], (10, 1))
        far = np.tile([[100.0, 0.0]], (10, 1))
        pts = np.vstack([far, tower])
        labels = dbscan(pts, PARAMS)
        assert labels[0] == 0 and labels[10] == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for mode in range(4):
            n = int(rng.integers(1, 500))
            pts = random_point_set(rng, n, mode)
            assert np.array_equal(dbscan(pts, PARAMS), dbscan_brute(pts, PARAMS))

    def test_other_parameters(self):
        rng = np.random.default_rng(99)
        for eps, ms in ((3.0, 4), (25.0, 40), (math.sqrt(2), 2)):
            p = DbscanParams(eps=eps, min_samples=ms)
            pts = random_point_set(rng, 300, 1)
            assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))


def _with_counts(uniq, inverse, n):
    """``uniq`` and ``inverse`` with each unique value's multiplicity and
    first input index."""
    m = uniq.shape[0]
    mult = np.bincount(inverse, minlength=m).astype(np.int64)
    first_index = np.full(m, n, dtype=np.int64)
    np.minimum.at(first_index, inverse, np.arange(n, dtype=np.int64))
    return uniq, inverse, mult, first_index


def _row_unique(pts):
    """Unique rows of ``pts``, the inverse map, multiplicities and first
    input index, from ``np.unique(axis=0)``."""
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    return _with_counts(uniq, inverse.ravel(), pts.shape[0])


def _compress_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for i in range(4):
        n = int(rng.integers(2, 400))
        lo = int(rng.integers(-1000, 1000))
        cases[f"random{i}"] = rng.integers(lo, lo + 60, (n, 2)).astype(float)
    cases["single"] = np.array([[-3.0, 7.0]])
    cases["all_duplicate"] = np.tile([[-12.0, -5.0]], (25, 1))
    cases["one_column"] = np.column_stack([np.full(50, 4.0),
                                           rng.integers(-9, 9, 50)]).astype(float)
    cases["one_row"] = np.column_stack([rng.integers(-9, 9, 50),
                                        np.full(50, -4.0)]).astype(float)
    return cases


class TestCompress:
    @pytest.mark.parametrize("pts", [pytest.param(pts, id=name) for name, pts
                                     in _compress_cases().items()])
    def test_packed_key_matches_row_unique(self, pts, monkeypatch):
        # both compress rules: a budget of 0 cells never bins the keys
        uniq, inverse, mult, _ = _row_unique(pts)
        for cells in (cluster._CHUNK_CELLS, 0):
            monkeypatch.setattr(cluster, "_CHUNK_CELLS", cells)
            ws, got_inverse = weigh(pts[:, 0], pts[:, 1], return_inverse=True)
            # without the inverse map, the same weighted pixels
            alone = weigh(pts[:, 0], pts[:, 1])
            assert (alone.box, alone.origin) == (ws.box, ws.origin)
            for got, want in zip(alone[:3], ws[:3]):
                assert np.array_equal(got, want)
            for got, want in ((np.column_stack([ws.du, ws.dv]) + ws.origin,
                               uniq), (got_inverse, inverse),
                              (ws.mult, mult)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            assert got_inverse.dtype == ws.mult.dtype == np.int64
            assert ws.origin == tuple(pts.min(axis=0).astype(int))
            assert ws.box == tuple(np.ptp(pts, axis=0).astype(int) + 1)

    def test_tiles_lay_each_set_apart(self):
        # every case in one image: each set's pixels, in order, in its own
        # rows with a margin of e, and the image pixels in raster order
        e = 10
        sets = [weigh(*pts.T) for pts in _compress_cases().values()]
        pu, pv, set_of, mult, shape = _tile_pixels(sets, e)
        rows = np.cumsum([ws.box[0] + 2 * e for ws in sets])
        row0 = np.concatenate([[0], rows[:-1]])
        assert shape == (rows[-1], max(ws.box[1] for ws in sets) + 2 * e)
        assert np.all(np.diff(pu * shape[1] + pv) > 0)
        for s, ws in enumerate(sets):
            mine = set_of == s
            assert np.array_equal(pu[mine] - row0[s] - e, ws.du)
            assert np.array_equal(pv[mine] - e, ws.dv)
            assert np.array_equal(mult[mine], ws.mult)

    def test_wide_span_refused(self):
        rng = np.random.default_rng(32)
        corners = np.array([[0, 0], [4000, 0], [0, 2500], [4000, 2500]])
        pts = np.rint(np.vstack([c + rng.normal(0, 3, (40, 2)) for c in corners]
                                + [rng.uniform(0, 4000, (40, 2))]))
        assert _tile_cells(pts, PARAMS.eps) > MAX_SPAN_CELLS
        with pytest.raises(ValueError, match="MAX_SPAN_CELLS"):
            dbscan(pts, PARAMS)
        # four clusters that the oracle still finds
        assert dbscan_brute(pts, PARAMS).max() == 3


@pytest.mark.parametrize("keys", [
    pytest.param(keys, id=name) for name, keys in [
        ("n1", np.array([7])),
        ("n1024", np.random.default_rng(1).integers(0, 300, 1024)),
        ("n1025", np.random.default_rng(2).integers(0, 300, 1025)),
        ("n65536", np.random.default_rng(3).integers(0, 1 << 30, 1 << 16)),
        ("n65537", np.random.default_rng(4).integers(0, 1 << 30, (1 << 16) + 1)),
        ("all_equal", np.full(4097, 123456)),
        ("zero", np.zeros(3, dtype=np.int64))]])
def test_packed_unique_matches_unique_with_counts(keys):
    uniq, inverse = np.unique(keys, return_inverse=True)
    want = _with_counts(uniq, inverse, len(keys))[:3]
    got = _packed_unique(keys.astype(np.int64))
    assert len(got) == len(want)
    for got, w in zip(got, want):
        assert got.dtype == w.dtype == np.int64
        assert np.array_equal(got, w)
    # the same sort without the inverse map
    uniq_alone, none, mult_alone = _packed_unique(keys.astype(np.int64),
                                                  return_inverse=False)
    assert none is None
    assert np.array_equal(uniq_alone, want[0])
    assert np.array_equal(mult_alone, want[2])


def test_packed_unique_refuses_keys_that_overflow():
    with pytest.raises(AssertionError):
        _packed_unique(np.array([1 << 61, 0, 1]))  # 2 index bits


def _count_dropped(monkeypatch):
    """A list that gets the number of pixels each density-bound call
    drops."""
    dropped = []
    bound = cluster._density_bound

    def counted(*args):
        keep = bound(*args)
        dropped.append(int(np.count_nonzero(~keep)))
        return keep

    monkeypatch.setattr(cluster, "_density_bound", counted)
    return dropped


def _bound(pts, e, min_samples):
    """:func:`_density_bound` of integer points, each unique pixel laid
    out with a margin of e, and moved by a multiple of e so that cell
    edges fall where they fall on the points; returns the unique points
    and their mask."""
    uniq, mult = np.unique(pts, axis=0, return_counts=True)
    pix = uniq - uniq.min(axis=0) // e * e + e
    shape = tuple(pix.max(axis=0) + e + 1)
    return uniq, _density_bound(pix[:, 0], pix[:, 1], mult, shape, e,
                                min_samples)


def assert_dominant(r, pts, params):
    """``r`` is the dominant cluster of the per-event rule on the oracle's
    labels of ``pts``: equal size and validity, and equal centroid bits,
    nan included."""
    size, centroid = reference_dominant(pts[:, 0], dbscan_brute(pts, params),
                                        params)
    assert (r.largest_cluster_size, r.valid) == (size, not np.isnan(centroid))
    assert np.float64(r.centroid_u).tobytes() \
        == np.float64(centroid).tobytes()


class TestDensityBound:
    def test_keeps_every_point_at_min_samples_1(self):
        pts = np.random.default_rng(5).integers(0, 2000, (300, 2))
        _, keep = _bound(pts, 10, 1)
        assert keep.all()

    @pytest.mark.parametrize("start", range(10))
    def test_keeps_pairs_e_apart_across_a_cell_edge(self, start):
        # every lattice offset within eps 10.7, from each start position in
        # a cell: the pair may share a cluster, so neither may be dropped,
        # while lone pixels far off are
        p = DbscanParams(eps=10.7, min_samples=2)
        offs = np.array([(a, b) for a in range(-10, 11) for b in range(-10, 11)
                         if a * a + b * b <= p.eps ** 2 and (a, b) != (0, 0)])
        base = np.column_stack([start + 40 * np.arange(len(offs)),
                                np.full(len(offs), start + 20)])
        pairs = np.stack([base, base + offs], axis=1).reshape(-1, 2)
        lone = base + (20, 100)
        uniq, keep = _bound(np.vstack([pairs, lone]), 10, p.min_samples)
        assert np.array_equal(keep, (uniq[:, None] != lone).any(axis=2).all(axis=1))
        labels = dbscan(pairs.astype(float), p)
        assert np.array_equal(labels, np.repeat(np.arange(len(offs)), 2))
        assert np.array_equal(labels, dbscan_brute(pairs.astype(float), p))

    def test_set_with_every_pixel_dropped(self, monkeypatch):
        dropped = _count_dropped(monkeypatch)
        rng = np.random.default_rng(6)
        lone = np.column_stack([np.arange(40) * 37, rng.integers(0, 100, 40)])
        blob = np.rint(rng.normal(50, 2, (80, 2)))
        sets = [lone, blob, lone + 5, np.zeros((0, 2))]
        got = list(cluster.extract_centroids([weigh(*p.T) for p in sets],
                                             PARAMS))
        for pts, r in zip(sets, got):
            assert_dominant(r, pts, PARAMS)
        assert got[0].largest_cluster_size == 0 and got[1].valid
        assert dropped == [80]  # both lone sets, none of the blob
        # a chunk whose every pixel is dropped
        got = list(cluster.extract_centroids([weigh(*lone.T)], PARAMS))
        assert got[0].largest_cluster_size == 0 and dropped[-1] == 40


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60),
       st.integers(-1_000_000, 0), st.integers(-1_000_000, 0),
       st.sampled_from([math.sqrt(2), 1.5, 2.0, 3.0, 5.0]), st.integers(1, 6))
def test_dbscan_matches_brute_on_offset_pixels(cells, u0, v0, eps, min_samples):
    pts = np.array(cells, dtype=float) + [u0, v0]
    p = DbscanParams(eps=eps, min_samples=min_samples)
    assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))


def _tile_cells(pts, eps):
    """Cells of a set's tile: its span plus floor(eps) on each side."""
    e = math.floor(eps)
    return math.prod(int(np.ptp(col)) + 1 + 2 * e for col in pts.T)


def _coordinate_case(eps, seed, n, shift, far, flip, bad, as_int,
                     min_samples):
    """A point set for the input contract: n whole coordinates near
    ``shift``, in float64 or (``as_int``) int64 columns, perhaps one
    entry made fractional or non-finite by ``bad``, and perhaps a far
    point that puts the tile one cell row under (``far`` -1), at (0) or
    over (1) ``MAX_SPAN_CELLS``, along either axis (``flip``)."""
    e = math.floor(eps)
    rng = np.random.default_rng(seed)
    pts = (rng.integers(-20, 21, (n, 2)) + shift).astype(float)
    if far is not None:
        h = int(np.ptp(pts[:, 1])) + 1
        w = MAX_SPAN_CELLS // (h + 2 * e) - 2 * e + far
        pts = np.vstack([pts, [pts[:, 0].min() + w - 1, pts[0, 1]]])
    if flip:
        pts = pts[:, ::-1]
    if bad is not None:
        i, j = rng.integers(len(pts)), rng.integers(2)
        pts[i, j] = pts[i, j] + bad if np.isfinite(bad) else bad
    elif as_int:
        pts = pts.astype(np.int64)
    # min_samples >= 2 leaves a far point noise, so its tile stays small
    return pts, DbscanParams(eps=eps, min_samples=min_samples)


_coordinate_cases = st.builds(
    _coordinate_case,
    st.sampled_from([MIN_EPS_PX, 2.5, 10.0, MAX_EPS_PX]),
    st.integers(0, 2**32 - 1), st.integers(1, 40),
    st.integers(-10**6, 10**6), st.sampled_from([None, -1, 0, 1]),
    st.booleans(),
    st.sampled_from([None, None, 0.5, 1e-6, np.nan, np.inf, -np.inf]),
    st.booleans(), st.sampled_from([2, 3, 5, 10]))


def test_dbscan_refuses_exactly_what_the_pixel_path_cannot_serve():
    # fractional or non-finite coordinates, and a tile over the cell
    # bound, raise ValueError; every other set matches the oracle
    seen = set()

    # one fixed case per outcome, so each is seen whatever hypothesis draws
    @settings(max_examples=200, deadline=None)
    @given(_coordinate_cases)
    @example(_coordinate_case(10.0, 0, 20, 0, None, False, 0.5, False, 3))
    @example(_coordinate_case(10.0, 0, 20, 0, 1, False, None, True, 3))
    @example(_coordinate_case(2.5, 1, 20, -7, 0, True, None, False, 3))
    @example(_coordinate_case(MIN_EPS_PX, 2, 20, 9, None, False, None, True, 2))
    def check(case):
        pts, p = case
        if not (np.all(np.isfinite(pts)) and np.all(np.rint(pts) == pts)):
            seen.add("not whole")
            with pytest.raises(ValueError, match="whole pixel coordinates"):
                dbscan(pts, p)
        elif _tile_cells(pts, p.eps) > MAX_SPAN_CELLS:
            seen.add("too wide")
            with pytest.raises(ValueError, match="MAX_SPAN_CELLS"):
                dbscan(pts, p)
        else:
            seen.add("at the bound" if _tile_cells(pts, p.eps)
                     > MAX_SPAN_CELLS // 2 else "small")
            assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))

    check()
    assert seen == {"not whole", "too wide", "at the bound", "small"}


def test_float_columns_beyond_2_53_refused():
    # float64 holds whole numbers exactly only up to 2^53; int64 columns
    # have no such limit
    lone = DbscanParams(min_samples=1)
    with pytest.raises(ValueError, match="whole pixel coordinates"):
        dbscan(np.array([[2.0**60, 0.0]]), lone)
    assert dbscan(np.array([[2**60, 0]]), lone).tolist() == [0]


@pytest.mark.parametrize("eps", [MIN_EPS_PX, 10.0, MAX_EPS_PX])
def test_eps_bounds_accepted(eps):
    assert DbscanParams(eps=eps).eps == eps


@pytest.mark.parametrize("eps", [MIN_EPS_PX - 1e-9, MAX_EPS_PX + 1e-9, 0.0,
                                 -1.0, math.nan, math.inf])
def test_eps_outside_bounds_refused(eps):
    with pytest.raises(ValueError, match=r"\[MIN_EPS_PX sqrt\(2\), "
                       r"MAX_EPS_PX 100\] px"):
        DbscanParams(eps=eps)


@st.composite
def _set_batches(draw):
    """Lists of point sets for one batched call: empty sets, single
    points, coincident towers, integral clumps with noise, and uniform
    draws rounded to whole pixels, under cell budgets that split the list
    anywhere and leave some sets over the budget."""
    eps = draw(st.sampled_from([1.5, 2.5, 4.3, 10.0]))
    params = DbscanParams(eps=eps, min_samples=draw(st.sampled_from([1, 3, 10])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for kind in draw(st.lists(st.sampled_from(
            ["empty", "single", "tower", "blob", "blob", "clumps", "float"]),
            max_size=8)):
        if kind == "empty":
            pts = np.zeros((0, 2))
        elif kind == "single":
            pts = rng.integers(-50, 50, (1, 2)).astype(float)
        elif kind == "tower":
            pts = np.repeat(rng.integers(-50, 50, (1, 2)), rng.integers(2, 30),
                            axis=0).astype(float)
        elif kind == "blob":
            pts = np.rint(rng.normal(rng.integers(-50, 50, 2), 3,
                                     (rng.integers(1, 80), 2)))
        else:
            pts = random_point_set(rng, int(rng.integers(1, 120)),
                                   2 if kind == "float" else 1)
            pts = pts - [300, 280] if kind == "clumps" else pts
        sets.append(pts)
    cells = draw(st.sampled_from([1, 3000, 30_000, cluster._CHUNK_CELLS]))
    return sets, params, cells


def test_batched_sets_match_each_set_alone(monkeypatch):
    dropped = _count_dropped(monkeypatch)

    @settings(max_examples=150, deadline=None)
    @given(_set_batches(), st.booleans())
    def check(case, integer):
        sets, params, cells = case
        # integer columns go to the offsets without a float copy
        cols = [tuple(p.T.astype(np.int16) if integer else p.T) for p in sets]
        with patch.object(cluster, "_CHUNK_CELLS", cells):
            got = list(cluster.extract_centroids(
                [weigh(u, v) for u, v in cols], params))
        assert len(got) == len(sets)
        for pts, r in zip(sets, got):
            assert np.array_equal(dbscan(pts, params),
                                  dbscan_brute(pts, params))
            assert_dominant(r, pts, params)
            assert_dominant(extract_centroid(pts[:, 0], pts[:, 1], params),
                            pts, params)

    check()
    # the bound dropped pixels that the labels above still match
    assert sum(dropped) > 0


@st.composite
def _duplicate_batches(draw):
    """Lists of point sets shaped like press sets with many events on few
    pixels: towers of up to 200 duplicates on each of a few pixels, two
    equal towers whose mean u differs or is equal, empty sets, and lone
    points that are noise (or, at min_samples 1, clusters of one whose
    sizes tie), each shuffled so scan order does not decide a tie; under
    cell budgets of 1, 3000 and the default."""
    params = DbscanParams(eps=draw(st.sampled_from([1.5, 4.3, 10.0])),
                          min_samples=draw(st.sampled_from([1, 3, 10, 50])),
                          min_cluster_points=draw(st.sampled_from(
                              [None, 1, 150])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for kind in draw(st.lists(st.sampled_from(
            ["heavy", "heavy", "tie", "tie_same_u", "empty", "noise"]),
            max_size=6)):
        if kind == "heavy":
            pix = rng.integers(-6, 7, (rng.integers(1, 7), 2))
            pts = np.repeat(pix, rng.integers(1, 201, len(pix)), axis=0)
        elif kind.startswith("tie"):
            a = rng.integers(-30, 30, 2)
            b = a + ([0, 40] if kind == "tie_same_u"
                     else [40, rng.integers(-5, 6)])
            pts = np.repeat([a, b], rng.integers(1, 200), axis=0)
        elif kind == "empty":
            pts = np.zeros((0, 2), dtype=np.int64)
        else:
            n = int(rng.integers(1, 30))
            pts = np.column_stack([np.arange(n) * 25,
                                   rng.integers(-30, 30, n)])
        pts = pts[rng.permutation(len(pts))] + rng.integers(0, 600, 2)
        sets.append(pts.astype(float))
    cells = draw(st.sampled_from([1, 3000, cluster._CHUNK_CELLS]))
    return sets, params, cells


@settings(max_examples=60, deadline=None)
@given(_duplicate_batches())
def test_centroids_from_counts_equal_the_per_event_rule(case):
    # sizes and centroids taken from the multiplicities equal the
    # dominant-cluster rule over the oracle's per-event labels, bit for
    # bit, and dbscan still numbers its labels as the oracle does
    sets, params, cells = case
    with patch.object(cluster, "_CHUNK_CELLS", cells):
        got = list(cluster.extract_centroids([weigh(*p.T) for p in sets],
                                             params))
        for pts in sets:
            assert np.array_equal(dbscan(pts, params),
                                  dbscan_brute(pts, params))
    assert len(got) == len(sets)
    for pts, r in zip(sets, got):
        assert_dominant(r, pts, params)


def test_sets_share_chunks_within_the_budgets(monkeypatch):
    # small sets share one pixel call; a set over the cell budget runs
    # alone and splits the run around it. At eps 10 a blob's tile is
    # (4 + 20) x (3 + 20) cells and the wide set's (84 + 20) x (3 + 20):
    # three blobs fit the budget, one blob and the wide set do not
    calls = []
    grid = cluster._dbscan_pixel_grid

    def counted(sets, params):
        calls.append(len(sets))
        return grid(sets, params)

    monkeypatch.setattr(cluster, "_dbscan_pixel_grid", counted)
    monkeypatch.setattr(cluster, "_CHUNK_CELLS", 3 * 24 * 23)
    blob = np.tile([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], (10, 1))
    wide = np.vstack([blob, blob + [80, 0]])
    sets = [blob, blob, np.zeros((0, 2)), blob, wide, blob, blob + 1, blob]
    got = list(cluster.extract_centroids([weigh(*p.T) for p in sets],
                                         PARAMS))
    assert calls == [4, 1, 3]
    for pts, r in zip(sets, got):
        assert_dominant(r, pts, PARAMS)


def test_working_memory_follows_the_image_and_one_gather_block():
    # the thinned sweep's sets: 20 pixels in two columns 12 apart
    # (the burst's two blobs), so every crop has two pre-merge labels and
    # each core gathers its half disk. Stage (a) may hold a few int32 and
    # bool images of the first image's cells at once (16 bytes a cell)
    # and two gather blocks of int64 indices and int32 values; nothing
    # of the image's size may be int64, and no block may pass
    # _GATHER_CELLS
    rng = np.random.default_rng(3)
    sets = []
    for _ in range(135):
        v = np.concatenate([np.delete(np.arange(11), rng.integers(1, 10))
                            for _ in "ab"])
        u = np.repeat([0, 12], 10)
        mult = rng.integers(1, 4, len(u))
        sets.append(weigh(np.repeat(u + 300, mult).astype(np.int16),
                          np.repeat(v + 200, mult).astype(np.int16)))
    assert all(ws.box == (13, 11) for ws in sets)
    e = int(PARAMS.eps)
    cells = sum((w + 2 * e) * (h + 2 * e) for w, h in (ws.box for ws in sets))
    assert cells <= cluster._CHUNK_CELLS  # one run, one image
    list(cluster.extract_centroids(sets[:1], PARAMS))  # caches the disk
    tracemalloc.start()
    try:
        got = list(cluster.extract_centroids(sets, PARAMS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.valid for r in got)
    assert peak < 16 * cells + 24 * cluster._GATHER_CELLS


def _nearest_lattice_vector(length):
    """Integer (a, b), 0 <= b <= a, whose norm is closest to ``length``."""
    cands = [(a, b) for a in range(int(length) + 2) for b in range(a + 1)]
    return min(cands, key=lambda ab: (abs(np.hypot(*ab) - length), ab))


@st.composite
def _pixel_cases(draw):
    """Pixel sets that stress the pixel path: strips of many 8-connected
    pieces, two blobs at about eps apart, border points exactly floor(eps)
    beyond the outermost core, and a border point tied between two
    clusters; mirrored, transposed and shifted at random."""
    eps = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.3, 10.0, 10.7]))
    e = int(np.floor(eps))
    min_samples = draw(st.sampled_from([1, 2, 3, 5, 10, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["strip", "blobs", "edge", "tie"]))
    if shape == "strip":
        n = draw(st.integers(5, 200))
        pts = np.column_stack([rng.integers(0, 4, n),
                               rng.integers(0, max(2, n * e // 2), n)])
    elif shape == "blobs":
        # every pair across the blobs is at least as far apart as the
        # two anchor points, which are the chosen gap apart
        gap = np.array(_nearest_lattice_vector(
            eps + draw(st.sampled_from([-0.5, 0.0, 0.5]))))
        n = draw(st.integers(2, 120))
        a = rng.integers(-2 * e, 2 * e + 1, (n, 2))
        a = a[a @ gap <= 0]
        b = rng.integers(-2 * e, 2 * e + 1, (n, 2))
        b = b[b @ gap >= 0] + gap
        pts = np.vstack([[[0, 0]], a, [gap], b])
    elif shape == "edge":
        # a line of cores along u with border points exactly e off its
        # ends and sides; min_samples e + 1 makes every line pixel core
        length = draw(st.integers(1, 4 * e))
        line = np.column_stack([np.arange(length + 1), np.zeros(length + 1)])
        edge = [[-e, 0], [length + e, 0], [0, e], [0, -e], [length, e],
                [length, -e], [length + e, 1]]
        pts = np.vstack([line, edge])
        min_samples = draw(st.sampled_from([min_samples, e + 1]))
    else:
        # a border point at the origin, equally far from the cores (-a, b)
        # and (b, -a) of two clusters; tails of 4 make them core at
        # min_samples 5
        a, b = max(((a, b) for a in range(e + 1) for b in range(a)
                    if a * a + b * b <= eps * eps), key=lambda ab: np.hypot(*ab))
        tail = np.arange(5)
        pts = np.vstack([[[0, 0]],
                         np.column_stack([-a - tail, np.full(5, b)]),
                         np.column_stack([np.full(5, b), -a - tail])])
        min_samples = draw(st.sampled_from([min_samples, 5]))
    dup = rng.integers(0, len(pts), draw(st.integers(0, len(pts))))
    pts = np.vstack([pts, pts[dup]]) * rng.choice([-1, 1], 2)
    if draw(st.booleans()):
        pts = pts[:, ::-1]
    pts = pts + rng.integers(-300, 300, 2)
    return pts.astype(float), DbscanParams(eps=eps, min_samples=min_samples)


@settings(max_examples=300, deadline=None)
@given(_pixel_cases())
def test_pixel_path_matches_brute(case):
    pts, p = case
    assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))


@pytest.mark.parametrize("eps", [10.0, 2.5, MAX_EPS_PX])
def test_isolated_pixel_lattice_is_linear(eps):
    # 10,000 pixels, none 8-adjacent to another, all core: the pixel path
    # must join them without visiting pairs of 8-connected pieces
    g = np.arange(100) * 2.0
    pts = np.repeat(np.array([(u, v) for u in g for v in g]), 10, axis=0)
    dbscan(pts[:20], DbscanParams(eps=eps, min_samples=10))  # caches the disk
    t0 = time.perf_counter()
    labels = dbscan(pts, DbscanParams(eps=eps, min_samples=10))
    assert time.perf_counter() - t0 < 5.0
    assert np.all(labels == 0)


def test_border_gather_at_max_eps_is_linear():
    # a 5 x 5 core blob and about 2,000 non-core pixels 60-99 px away: at
    # MAX_EPS_PX each border pixel gathers the disk's 31k offsets, so a
    # gather block holds only about two of them. Every blob pixel has all
    # points in its disk and is core; a ring pixel misses the far side of
    # the ring, so it is border, and its nearest core lies within eps
    blob = [(u, v) for u in range(-2, 3) for v in range(-2, 3)]
    g = range(-99, 100, 3)
    ring = [(u, v) for u in g for v in g if 60 <= math.hypot(u, v) <= 99]
    assert len(ring) > 2000
    pts = np.array(blob + ring, dtype=float)
    params = DbscanParams(eps=MAX_EPS_PX, min_samples=len(pts))
    dbscan(pts[:20], params)  # caches the disk
    t0 = time.perf_counter()
    labels = dbscan(pts, params)
    assert time.perf_counter() - t0 < 5.0
    assert np.all(labels == 0)


def _flood_fill8(img):
    """Reference 8-connected labeling: breadth-first fill from each
    unlabeled set pixel in raster order."""
    w, h = img.shape
    labels = np.zeros((w, h), dtype=np.int64)
    n = 0
    for u0, v0 in zip(*np.nonzero(img)):
        if labels[u0, v0]:
            continue
        n += 1
        labels[u0, v0] = n
        queue = deque([(u0, v0)])
        while queue:
            u, v = queue.popleft()
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    a, b = u + du, v + dv
                    if 0 <= a < w and 0 <= b < h and img[a, b] and not labels[a, b]:
                        labels[a, b] = n
                        queue.append((a, b))
    return labels, n


@st.composite
def _label_images(draw):
    w = draw(st.one_of(st.just(1), st.integers(0, 30)))
    h = draw(st.one_of(st.just(1), st.integers(0, 30)))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill != "random":
        return np.full((w, h), fill == "full")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((w, h)) < draw(st.floats(0.05, 0.95))


@settings(max_examples=300, deadline=None)
@given(_label_images())
def test_label8_matches_flood_fill(img):
    labels, n = _label8(img)
    want, n_want = _flood_fill8(img)
    assert labels.shape == img.shape
    assert n == n_want
    # the same partition: equal background, and a one-to-one label map
    assert np.array_equal(labels > 0, img)
    assert len(set(zip(labels[img].tolist(), want[img].tolist()))) == n
    # numbered 1..n in raster order of each component's first pixel
    seen = labels[img]
    assert np.array_equal(seen[np.sort(np.unique(seen, return_index=True)[1])],
                          np.arange(1, n + 1))


def test_label8_runs_do_not_wrap_rows():
    # a run ending at the last v of one row and a run starting at v = 0 of
    # the next are consecutive in memory but not 8-adjacent
    img = np.zeros((3, 5), dtype=bool)
    img[0, 3:] = True
    img[1, :2] = True
    labels, n = _label8(img)
    assert n == 2
    assert labels[0, 4] == 1 and labels[1, 0] == 2


def test_label8_checkerboard_is_linear():
    # 2,000,000 single-pixel runs, each touching the runs diagonally below it
    img = np.add.outer(np.arange(2000), np.arange(2000)) % 2 == 0
    t0 = time.perf_counter()
    labels, n = _label8(img)
    assert time.perf_counter() - t0 < 5.0
    assert n == 1
    assert np.array_equal(labels, img.astype(np.int64))


class TestDbscanProperties:
    def test_permutation_invariant_membership(self):
        rng = np.random.default_rng(11)
        pts = random_point_set(rng, 400, 1)
        labels = dbscan(pts, PARAMS)
        perm = rng.permutation(len(pts))
        permuted = dbscan(pts[perm], PARAMS)
        back = np.empty_like(permuted)
        back[perm] = permuted
        assert membership_sets(labels) == membership_sets(back)

    def test_every_cluster_at_least_min_samples(self):
        rng = np.random.default_rng(12)
        for mode in range(4):
            pts = random_point_set(rng, 450, mode)
            labels = dbscan(pts, PARAMS)
            for c in range(labels.max() + 1):
                assert (labels == c).sum() >= PARAMS.min_samples

    def test_centroid_inside_bounding_box(self):
        rng = np.random.default_rng(13)
        pts = random_point_set(rng, 400, 1)
        r = extract_centroid(pts[:, 0], pts[:, 1], PARAMS)
        if r.valid:
            labels = dbscan(pts, PARAMS)
            sizes = np.bincount(labels[labels >= 0])
            tied = np.flatnonzero(sizes == sizes.max())
            winner = min(tied, key=lambda c: pts[labels == c, 0].mean())
            members = labels == winner
            assert pts[members, 0].min() <= r.centroid_u <= pts[members, 0].max()

    def test_noise_points_do_not_move_centroid(self):
        rng = np.random.default_rng(14)
        blob = np.rint(rng.normal([300, 280], 3, (500, 2)))
        base = extract_centroid(blob[:, 0], blob[:, 1], PARAMS)
        # isolated singletons far away stay noise
        lone = np.array([[50.0, 210.0], [600.0, 350.0], [120.0, 340.0]])
        both = np.vstack([blob, lone])
        more = extract_centroid(both[:, 0], both[:, 1], PARAMS)
        assert more.centroid_u == base.centroid_u


class TestExtractCentroid:
    def test_gaussian_burst_centroid_accuracy(self):
        rng = np.random.default_rng(15)
        n = 500
        u = np.rint(rng.normal(412.0, 3.0, n)).clip(0, 639)
        v = rng.integers(200, 361, n)
        r = extract_centroid(u, v, PARAMS)
        assert r.valid
        assert abs(r.centroid_u - 412.0) < 0.5

    def test_below_threshold_invalid(self):
        u = np.full(8, 100.0)
        v = np.full(8, 250.0)
        r = extract_centroid(u, v, PARAMS)
        assert not r.valid and np.isnan(r.centroid_u)

    def test_noise_robustness(self):
        rng = np.random.default_rng(16)
        n = 300
        u = np.rint(rng.normal(320.0, 3.0, n)).clip(0, 639)
        v = rng.integers(270, 291, n)
        clean = extract_centroid(u, v, PARAMS)
        nu = rng.integers(0, 640, 30)
        nv = rng.integers(200, 361, 30)
        noisy = extract_centroid(np.concatenate([u, nu]),
                                 np.concatenate([v, nv]), PARAMS)
        assert abs(noisy.centroid_u - clean.centroid_u) < 1.0

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            extract_centroid(np.zeros(3), np.zeros(4), PARAMS)

    def test_largest_cluster_tie_break(self):
        # equal-size towers; the lower-mean-u one must win
        left = np.tile([[100.0, 250.0]], (12, 1))
        right = np.tile([[500.0, 250.0]], (12, 1))
        pts = np.vstack([right, left])
        r = extract_centroid(pts[:, 0], pts[:, 1], PARAMS)
        assert r.centroid_u == 100.0


class TestExcludePress:
    def _result(self, valid):
        return extract_centroid(np.full(20 if valid else 3, 100.0),
                                np.full(20 if valid else 3, 250.0), PARAMS)

    def test_both_valid(self):
        ok = exclude_press(self._result(True), self._result(True))
        assert ok.passed and ok.reason == ""

    def test_cam2_invalid(self):
        bad = exclude_press(self._result(True), self._result(False))
        assert not bad.passed
        assert "cam2" in bad.reason and "cam1" not in bad.reason

    def test_exclusion_fraction_matches_construction(self):
        # press counts drawn so a known fraction falls below threshold
        rng = np.random.default_rng(17)
        n_press = 300
        p_small = 0.05
        fails = 0
        for _ in range(n_press):
            small = rng.random() < p_small
            n = int(rng.integers(3, 9)) if small else int(rng.integers(40, 300))
            u = np.rint(rng.normal(300, 2.0, n))
            v = np.rint(rng.normal(280, 2.0, n))
            r1 = extract_centroid(u, v, PARAMS)
            r2 = extract_centroid(u, v, PARAMS)
            if not exclude_press(r1, r2).passed:
                fails += 1
        sigma = np.sqrt(n_press * p_small * (1 - p_small))
        assert abs(fails - n_press * p_small) < 4 * sigma
