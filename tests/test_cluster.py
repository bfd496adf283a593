from __future__ import annotations

import time
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacloc import cluster
from tacloc.cluster import (_GRID_MAX_CELLS, NOISE, DbscanParams, _compress,
                            _density_bound, _label8, _packed_unique,
                            _tile_pixels, _with_counts, dbscan, dbscan_brute,
                            exclude_press, extract_centroid)

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
    if mode == 2:  # float coordinates
        return np.column_stack([rng.uniform(0, 640, n),
                                rng.uniform(200, 361, n)])
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
        for eps, ms in ((3.0, 4), (25.0, 40), (1.0, 2)):
            p = DbscanParams(eps=eps, min_samples=ms)
            pts = random_point_set(rng, 300, 1)
            assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))


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


def _tiled(sets, e):
    """:func:`_tile_pixels` of the sets, with each unique pixel shifted
    back to the coordinates of its set."""
    los = [pts.min(axis=0) for pts in sets]
    pu, pv, tile, inverse, mult, first_index, _ = _tile_pixels(
        [tuple((pts - lo).astype(np.int64).T) for pts, lo in zip(sets, los)],
        [tuple(np.ptp(pts, axis=0).astype(int) + 1) for pts in sets], e)
    sizes = np.array([len(pts) for pts in sets])
    rows = np.cumsum([np.ptp(pts[:, 0]) + 1 + 2 * e for pts in sets])
    row0 = np.concatenate([[0], rows[:-1]])
    uniq = np.column_stack([pu - row0[tile] - e, pv - e]) + np.array(los)[tile]
    return uniq, tile, inverse, mult, first_index, sizes


class TestCompress:
    @pytest.mark.parametrize("pts", [pytest.param(pts, id=name) for name, pts
                                     in _compress_cases().items()])
    def test_packed_key_matches_row_unique(self, pts):
        uniq, tile, inverse, mult, first_index, _ = _tiled([pts], 3)
        assert not tile.any()
        for got, want in zip((uniq, inverse, mult, first_index), _compress(pts)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_tiles_compress_each_set_alone(self):
        # every case in one image: each set's unique points, in order,
        # with its inverse and first indices offset by the sets before it
        sets = list(_compress_cases().values())
        uniq, tile, inverse, mult, first_index, sizes = _tiled(sets, 10)
        assert np.all(np.diff(tile) >= 0)
        n_uniq = np.bincount(tile, minlength=len(sets))
        starts = np.cumsum(sizes) - sizes
        for s, pts in enumerate(sets):
            rows = slice(n_uniq[:s].sum(), n_uniq[:s + 1].sum())
            want = _compress(pts)
            assert np.array_equal(uniq[rows], want[0])
            assert np.array_equal(inverse[starts[s]:starts[s] + sizes[s]]
                                  - rows.start, want[1])
            assert np.array_equal(mult[rows], want[2])
            assert np.array_equal(first_index[rows] - starts[s], want[3])

    def test_wide_integral_span_takes_bucket_path(self, monkeypatch):
        def no_pixel_grid(*args):
            raise AssertionError("pixel path taken")

        monkeypatch.setattr(cluster, "_dbscan_pixel_grid", no_pixel_grid)
        rng = np.random.default_rng(32)
        corners = np.array([[0, 0], [4000, 0], [0, 2500], [4000, 2500]])
        pts = np.rint(np.vstack([c + rng.normal(0, 3, (40, 2)) for c in corners]
                                + [rng.uniform(0, 4000, (40, 2))]))
        span = (np.ptp(pts[:, 0]) + 2 * PARAMS.eps + 2) \
            * (np.ptp(pts[:, 1]) + 2 * PARAMS.eps + 2)
        assert span > _GRID_MAX_CELLS
        labels = dbscan(pts, PARAMS)
        assert labels.max() == 3
        assert np.array_equal(labels, dbscan_brute(pts, PARAMS))


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
    want = _with_counts(uniq, inverse, len(keys))
    for got, w in zip(_packed_unique(keys.astype(np.int64)), want):
        assert got.dtype == w.dtype == np.int64
        assert np.array_equal(got, w)


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
        got = list(cluster.extract_centroids([tuple(p.T) for p in sets],
                                             PARAMS))
        for pts, r in zip(sets, got):
            assert np.array_equal(r.labels, dbscan_brute(pts, PARAMS))
        assert (got[0].labels == NOISE).all() and got[1].valid
        assert dropped == [80]  # both lone sets, none of the blob
        # a chunk whose every pixel is dropped
        got = list(cluster.extract_centroids([tuple(lone.T)], PARAMS))
        assert (got[0].labels == NOISE).all() and dropped[-1] == 40


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60),
       st.integers(-1_000_000, 0), st.integers(-1_000_000, 0),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]), st.integers(1, 6))
def test_dbscan_matches_brute_on_offset_pixels(cells, u0, v0, eps, min_samples):
    pts = np.array(cells, dtype=float) + [u0, v0]
    p = DbscanParams(eps=eps, min_samples=min_samples)
    assert np.array_equal(dbscan(pts, p), dbscan_brute(pts, p))


def dominant_centroid(u, labels, params):
    """The dominant cluster's centroid from given labels, by the rule of
    :func:`extract_centroid`: the largest cluster, ties to the lower mean
    u, the mean of its members' u in input order; nan when invalid."""
    if labels.max(initial=NOISE) == NOISE:
        return float("nan")
    sizes = np.bincount(labels[labels >= 0])
    tied = np.flatnonzero(sizes == sizes.max())
    c = min(tied, key=lambda c: (u[labels == c].mean(), c))
    if sizes[c] < params.min_cluster_points:
        return float("nan")
    return float(np.mean(u[labels == c]))


@st.composite
def _set_batches(draw):
    """Lists of point sets for one batched call: empty sets, single
    points, coincident towers, integral clumps with noise, and sets with
    fractional coordinates (bucket path), under chunk budgets that split
    the list anywhere and leave some sets over a budget."""
    eps = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.3, 10.0]))
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
    events = draw(st.sampled_from([1, 40, 250, cluster._CHUNK_EVENTS]))
    return sets, params, cells, events


def test_batched_sets_match_each_set_alone(monkeypatch):
    dropped = _count_dropped(monkeypatch)

    @settings(max_examples=150, deadline=None)
    @given(_set_batches(), st.booleans())
    def check(case, integer):
        sets, params, cells, events = case
        # integer columns take the pixel path without a float copy
        cols = [tuple(p.T.astype(np.int16) if integer and np.all(p == np.rint(p))
                      else p.T) for p in sets]
        with patch.multiple(cluster, _CHUNK_CELLS=cells, _CHUNK_EVENTS=events):
            got = list(cluster.extract_centroids(cols, params))
        assert len(got) == len(sets)
        for pts, r in zip(sets, got):
            want = dbscan_brute(pts, params)
            assert np.array_equal(r.labels, want)
            assert np.array_equal(r.labels, dbscan(pts, params))
            alone = extract_centroid(pts[:, 0], pts[:, 1], params)
            centroid = dominant_centroid(pts[:, 0], want, params)
            # equal bits, nan included
            assert np.float64(r.centroid_u).tobytes() \
                == np.float64(alone.centroid_u).tobytes() \
                == np.float64(centroid).tobytes()
            assert (r.largest_cluster_size, r.valid) \
                == (alone.largest_cluster_size, alone.valid)

    check()
    # the bound dropped pixels that the labels above still match
    assert sum(dropped) > 0


def test_sets_share_chunks_within_the_budgets(monkeypatch):
    # small sets share one pixel call; a set over the event budget, or a
    # fractional one, runs alone and splits the run around it
    calls = []
    grid = cluster._dbscan_pixel_grid

    def counted(offsets, boxes, params):
        calls.append(len(offsets))
        return grid(offsets, boxes, params)

    monkeypatch.setattr(cluster, "_dbscan_pixel_grid", counted)
    monkeypatch.setattr(cluster, "_CHUNK_EVENTS", 100)
    blob = np.tile([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], (10, 1))
    big = np.tile(blob, (4, 1))
    sets = [blob, blob, np.zeros((0, 2)), blob, big, blob, blob + 0.5, blob]
    got = list(cluster.extract_centroids([(p[:, 0], p[:, 1]) for p in sets],
                                         PARAMS))
    assert calls == [4, 1, 1, 1]
    for pts, r in zip(sets, got):
        assert np.array_equal(r.labels, dbscan_brute(pts, PARAMS))


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


@pytest.mark.parametrize("eps", [10.0, 2.5])
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
            sizes = np.bincount(r.labels[r.labels >= 0])
            tied = np.flatnonzero(sizes == sizes.max())
            winner = min(tied, key=lambda c: pts[r.labels == c, 0].mean())
            members = r.labels == winner
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
