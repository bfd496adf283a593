"""DBSCAN over per-trial pixel coordinates, dominant-cluster centroids,
and the both-camera press exclusion rule.

Clustering semantics (shared by every implementation path):

* A point is core when the number of points within ``eps`` (Euclidean,
  counting the point itself and any coincident duplicates) is at least
  ``min_samples``.
* Clusters are the connected components of the core points under the
  within-eps relation.
* A non-core point within eps of at least one core point joins the
  cluster of its nearest such core; exact distance ties go to the core
  with the lexicographically smallest (u, v). This makes membership a
  pure function of the point set, independent of input order.
* Everything else is noise (label -1).
* Cluster ids are assigned in first-core-point scan order: clusters are
  numbered by the smallest input index among their core points.

Two accelerated paths implement these semantics: a pixel-grid path for
integer coordinates and a bucket-grid path for general coordinates
(eps-sized cells, neighbor candidates from the 3x3 block). ``dbscan``
picks the path from the raw points, before removing duplicates: the
pixel path compresses through one packed int64 key per point, the
bucket path through a row-wise ``np.unique``. ``dbscan_brute`` is the
independent O(n^2) reference used in tests.

The pixel path has no Python loop over components or disk offsets, in
the spirit of de Berg, Gunawan & Roeloffzen (2017): merge what is
surely connected, then test distances only where components may touch.

1. Core counts: prefix sums along u of the multiplicity image, summed
   over the 2e + 1 disk rows (e = floor(eps)).
2. Crop: later images cover the core bounding box +- 2e; non-core
   points beyond +- e of it are noise.
3. Pre-merge: the core image is dilated by the integer disk of radius
   r = floor((eps - sqrt(2)) / 2) and labeled with 8-connectivity; cores
   of one label are at most 2r + sqrt(2) <= eps apart link by link. The
   labeling is run-based (He, Chao & Suzuki 2008): runs of set pixels
   along v, one pair per run of the next u row that touches a run,
   diagonals included, and connected components over those pairs.
4. Frontier: one prefix-summed stack of (core, label, label^2) gives
   sum (l - L)^2 over each core's disk; where it is nonzero, a core of
   another label is within eps. Half-disk gathers from these cores give
   the label pairs to join, and connected components close them.
5. Border: each non-core point near the cores gathers every disk offset
   in (d^2, du, dv) order at once; the first core hit is the nearest,
   with the canonical tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NOISE = -1

# the pixel-grid path needs 8-adjacent pixels to be eps-neighbors and a
# boundable image size
_GRID_MIN_EPS = math.sqrt(2.0)
_GRID_MAX_CELLS = 8_000_000


@dataclass(frozen=True)
class DbscanParams:
    eps: float = 10.0
    min_samples: int = 10
    min_cluster_points: int | None = None  # validity threshold; defaults to min_samples

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_cluster_points is None:
            object.__setattr__(self, "min_cluster_points", self.min_samples)


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of clustering one camera's events for one press."""

    labels: np.ndarray
    n_clusters: int
    largest_cluster_size: int
    centroid_u: float  # nan when invalid
    centroid_v: float
    valid: bool


def _compress(pts):
    """Unique coordinates, inverse map, multiplicities, first input index."""
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    return _with_counts(uniq, inverse.ravel(), pts.shape[0])


def _compress_pixels(pts):
    """:func:`_compress` for integral points whose padded span fits the grid.

    Each point packs into the int64 key ``(u - u0) * h + (v - v0)`` with
    ``h`` the v extent; the span bound keeps keys below
    ``_GRID_MAX_CELLS``. Ascending keys are the lexicographic (u, v)
    order, so a 1-D unique yields the same rows as the row-wise one.
    """
    u0, v0 = pts.min(axis=0)
    du = (pts[:, 0] - u0).astype(np.int64)
    dv = (pts[:, 1] - v0).astype(np.int64)
    h = int(dv.max()) + 1
    keys, inverse = np.unique(du * h + dv, return_inverse=True)
    uniq = np.column_stack([keys // h + u0, keys % h + v0])
    return _with_counts(uniq, inverse, pts.shape[0])


def _with_counts(uniq, inverse, n):
    m = uniq.shape[0]
    mult = np.bincount(inverse, minlength=m).astype(np.int64)
    first_index = np.full(m, n, dtype=np.int64)
    np.minimum.at(first_index, inverse, np.arange(n, dtype=np.int64))
    return uniq, inverse, mult, first_index


def _renumber(comp, core_mask, first_index, m):
    """Labels for unique points: components numbered by first core index."""
    labels = np.full(m, NOISE, dtype=np.int64)
    if not np.any(core_mask):
        return labels
    n_comp = int(comp[core_mask].max()) + 1
    comp_first = np.full(n_comp, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(comp_first, comp[core_mask], first_index[core_mask])
    order = np.argsort(comp_first, kind="stable")
    relabel = np.empty(n_comp, dtype=np.int64)
    relabel[order] = np.arange(n_comp)
    labels[core_mask] = relabel[comp[core_mask]]
    return labels


@lru_cache(maxsize=16)
def _disk(eps: float):
    """Integer offsets ``(d^2, du, dv)`` within eps in that order, the
    row span ``dv_range`` and its halfwidths, and ``e = floor(eps)``."""
    e = int(math.floor(eps))
    e2 = eps * eps
    offs = np.array(sorted((du * du + dv * dv, du, dv)
                           for du in range(-e, e + 1) for dv in range(-e, e + 1)
                           if du * du + dv * dv <= e2), dtype=np.int64)
    dv_range = np.arange(-e, e + 1)
    halfwidth = np.floor(np.sqrt(np.maximum(e2 - dv_range.astype(float) ** 2, 0.0))
                         ).astype(np.int64)
    return offs, dv_range, halfwidth, e


def _disk_sum(pu, pv, values, shape, dv_range, halfwidth):
    """Sums of ``values`` (one row per point, or one value) over the disk
    around each point (pu, pv) of an image of ``shape``, from prefix sums
    along u. Every disk must lie inside the image."""
    w, h = shape
    prefix = np.zeros((w + 1, h) + values.shape[1:], dtype=values.dtype)
    prefix[pu + 1, pv] = values
    np.cumsum(prefix, axis=0, out=prefix, dtype=prefix.dtype)
    hi = (halfwidth + 1) * h + dv_range
    lo = dv_range - halfwidth * h
    total = np.empty(values.shape, dtype=np.int64)
    for i, g in _gather_rows(prefix.reshape((-1,) + values.shape[1:]), pu * h + pv,
                             np.concatenate([hi, lo])):
        total[i:i + len(g)] = g[:, :len(hi)].sum(axis=1) - g[:, len(hi):].sum(axis=1)
    return total


def _dilate(img, r: int):
    """``img`` dilated by the integer disk of radius r; its outer r rows
    and columns must be empty."""
    _, dv_range, halfwidth, _ = _disk(float(r))
    w, h = img.shape
    prefix = np.zeros((w + 1, h), dtype=np.int32)
    np.cumsum(img, axis=0, out=prefix[1:], dtype=np.int32)
    out = np.zeros_like(img)
    for dv, hw in zip(dv_range, halfwidth):
        hit = prefix[2 * hw + 1:] > prefix[:w - 2 * hw]  # rows hw .. w - hw - 1
        out[hw:w - hw, max(0, -dv):h - max(0, dv)] |= hit[:, max(0, dv):h + min(0, dv)]
    return out


def _gather_rows(flat, at, steps):
    """``flat[at[i] + steps]`` for each i, in chunks of about 2^18 cells."""
    chunk = max(1, (1 << 18) // len(steps))
    for i in range(0, len(at), chunk):
        yield i, flat[at[i:i + chunk, None] + steps]


def _components(n, src, dst):
    """Smallest node of each node's connected component in the graph on
    0..n-1 with edges (src, dst): roots hook to the smaller root across
    each edge, then pointer jumping flattens the trees."""
    comp = np.arange(n)
    while True:
        a, b = comp[src], comp[dst]
        if np.array_equal(a, b):
            return comp
        np.minimum.at(comp, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(comp[comp], comp):
            comp = comp[comp]


def _label8(img):
    """8-connected component labels of a 2-D boolean image, numbered
    1..n in raster order of their first pixel (0 is background), and n."""
    w, h = img.shape
    # a zero pad column ends every run inside its row; flat indices of
    # neighboring rows are h + 1 apart
    padded = np.zeros((w, h + 1), dtype=np.int8)
    padded[:, :h] = img
    step = np.diff(padded.ravel(), prepend=np.int8(0))
    start = np.flatnonzero(step == 1)
    end = np.flatnonzero(step == -1)  # exclusive
    # run b of the next row touches run a when b.start <= a.end and
    # b.end >= a.start: for each a, a contiguous range lo..hi of b's
    lo = np.searchsorted(end, start + h + 1)
    hi = np.searchsorted(start, end + h + 1, side="right")
    n_pairs = hi - lo
    a = np.repeat(np.arange(len(start)), n_pairs)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(n_pairs) - n_pairs), n_pairs)
    comp = _components(len(start), a, b)
    ids = np.cumsum(comp == np.arange(len(start)))[comp]
    flat = np.zeros(w * (h + 1), dtype=np.int64)
    flat[start] = ids
    flat[end] = -ids
    labels = np.cumsum(flat).reshape(w, h + 1)[:, :h]
    return labels, int(ids.max(initial=0))


def _dbscan_pixel_grid(uniq, mult, first_index, params: DbscanParams):
    """Exact DBSCAN on integer pixels; see the module docstring."""
    m = uniq.shape[0]
    offs, dv_range, halfwidth, e = _disk(params.eps)
    pu = uniq[:, 0].astype(np.int64)
    pv = uniq[:, 1].astype(np.int64)
    pu += e - pu.min()
    pv += e - pv.min()
    # images are indexed [u, v]; int32 counts halve the prefix image
    counts = mult.astype(np.int32 if mult.sum() < 2**31 else np.int64)
    core = _disk_sum(pu, pv, counts, (int(pu.max()) + e + 1, int(pv.max()) + e + 1),
                     dv_range, halfwidth) >= params.min_samples
    labels = np.full(m, NOISE, dtype=np.int64)
    if not np.any(core):
        return labels

    # crop to the core bounding box +- 2e: non-core points beyond +- e of
    # it are noise, and the outer e keeps their disks inside the crop
    pu -= pu[core].min() - 2 * e
    pv -= pv[core].min() - 2 * e
    cu, cv = pu[core], pv[core]
    width, height = int(cu.max()) + 2 * e + 1, int(cv.max()) + 2 * e + 1
    core_img = np.zeros((width, height), dtype=bool)
    core_img[cu, cv] = True

    # pre-merge: cores whose radius-r disks touch or are 8-adjacent lie
    # at most 2r + sqrt(2) <= eps apart, so they share a cluster
    r = int(math.floor((params.eps - _GRID_MIN_EPS) / 2))
    grown = _dilate(core_img, r) if r else core_img
    lab_img, n_lab = _label8(grown)
    lab = lab_img[cu, cv]
    comp = lab - 1
    if n_lab > 1:
        # frontier: cores with a core of another label L' within eps, where
        # sum (L' - L)^2 = S2 - 2 L S1 + L^2 N over the disk is nonzero; if
        # that sum could leave int64, every core is on the frontier
        front = np.arange(len(lab))
        if len(offs) * n_lab ** 2 < 2**63:
            planes = np.column_stack([np.ones_like(lab), lab, lab * lab])
            n, s1, s2 = _disk_sum(cu, cv, planes, (width, height),
                                  dv_range, halfwidth).T
            front = np.flatnonzero(s2 - 2 * lab * s1 + lab * lab * n)
        if len(front):
            # each cross pair is seen from its first end in the half disk
            half = offs[(offs[:, 1] > 0) | ((offs[:, 1] == 0) & (offs[:, 2] > 0))]
            lab_flat = (lab_img * core_img).ravel()
            src, dst = [], []
            for i, hit in _gather_rows(lab_flat, cu[front] * height + cv[front],
                                       half[:, 1] * height + half[:, 2]):
                own = lab[front[i:i + len(hit)], None]
                cross = (hit != 0) & (hit != own)
                src.append(np.broadcast_to(own, hit.shape)[cross])
                dst.append(hit[cross])
            comp = _components(n_lab, np.concatenate(src) - 1,
                                np.concatenate(dst) - 1)[comp]
    full = np.full(m, -1, dtype=np.int64)
    full[core] = comp
    labels = _renumber(full, core, first_index, m)

    # border points within e of the core box: gather every disk offset in
    # (d^2, du, dv) order, so the first hit is the nearest core with the
    # canonical tie-break
    label_img = np.full((width, height), NOISE, dtype=np.int64)
    label_img[cu, cv] = labels[core]
    cand = np.flatnonzero(~core & (pu >= e) & (pu < width - e)
                          & (pv >= e) & (pv < height - e))
    for i, hit in _gather_rows(label_img.ravel(), pu[cand] * height + pv[cand],
                               offs[1:, 1] * height + offs[1:, 2]):
        found = hit != NOISE
        first = found.argmax(axis=1)
        rows = np.arange(len(hit))
        got = found[rows, first]
        labels[cand[i:i + len(hit)][got]] = hit[rows, first][got]
    return labels


def _dbscan_bucket_grid(uniq, mult, first_index, params: DbscanParams):
    """General-coordinate DBSCAN using eps-sized cells.

    All candidate neighbor pairs are emitted per 3x3 cell block in bulk;
    distances, core status, core connectivity, and border assignment are
    derived from that pair list.
    """
    m = uniq.shape[0]
    eps2 = params.eps * params.eps
    ux = uniq[:, 0]
    uy = uniq[:, 1]
    cx = np.floor((ux - ux.min()) / params.eps).astype(np.int64)
    cy = np.floor((uy - uy.min()) / params.eps).astype(np.int64)
    ny = int(cy.max()) + 3
    cell = cx * ny + (cy + 1)  # +1 pad keeps dy = -1/+1 collision-free
    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]
    occ_cells, occ_start = np.unique(sorted_cell, return_index=True)
    occ_count = np.diff(np.append(occ_start, m))

    # tie-break rank: position in lexicographic (u, v) order
    colkey = np.empty(m, dtype=np.int64)
    colkey[np.lexsort((uy, ux))] = np.arange(m)

    weight = np.zeros(m, dtype=np.int64)
    pair_i, pair_j, pair_d2 = [], [], []
    for dxc in (-1, 0, 1):
        for dyc in (-1, 0, 1):
            target = occ_cells + dxc * ny + dyc
            loc = np.searchsorted(occ_cells, target)
            ok = loc < len(occ_cells)
            loc_c = np.where(ok, loc, 0)
            hit = ok & (occ_cells[loc_c] == target)
            if not np.any(hit):
                continue
            a_start, a_cnt = occ_start[hit], occ_count[hit]
            b_start, b_cnt = occ_start[loc_c[hit]], occ_count[loc_c[hit]]
            ab = a_cnt * b_cnt
            total = int(ab.sum())
            if not total:
                continue
            k_of = np.repeat(np.arange(len(ab)), ab)
            starts = np.concatenate(([0], np.cumsum(ab)[:-1]))
            r = np.arange(total) - starts[k_of]
            ai = r // b_cnt[k_of]
            bi = r - ai * b_cnt[k_of]
            src = order[a_start[k_of] + ai]
            dst = order[b_start[k_of] + bi]
            dx = ux[src] - ux[dst]
            dy = uy[src] - uy[dst]
            d2 = dx * dx + dy * dy
            keep = d2 <= eps2
            src, dst, d2 = src[keep], dst[keep], d2[keep]
            weight += np.bincount(src, weights=mult[dst], minlength=m).astype(np.int64)
            pair_i.append(src)
            pair_j.append(dst)
            pair_d2.append(d2)

    pi = np.concatenate(pair_i) if pair_i else np.zeros(0, dtype=np.int64)
    pj = np.concatenate(pair_j) if pair_j else np.zeros(0, dtype=np.int64)
    pd2 = np.concatenate(pair_d2) if pair_d2 else np.zeros(0, dtype=np.float64)

    core = weight >= params.min_samples
    comp = np.full(m, -1, dtype=np.int64)
    n_core = int(core.sum())
    if n_core:
        core_ids = np.full(m, -1, dtype=np.int64)
        core_ids[core] = np.arange(n_core)
        cc = core[pi] & core[pj]
        comp[core] = _components(n_core, core_ids[pi[cc]], core_ids[pj[cc]])
    labels = _renumber(comp, core, first_index, m)

    # border points: nearest core, ties by the core's (u, v) rank
    bc = (~core[pi]) & core[pj]
    bi_, bj_, bd2 = pi[bc], pj[bc], pd2[bc]
    if len(bi_):
        so = np.lexsort((colkey[bj_], bd2, bi_))
        bi_, bj_ = bi_[so], bj_[so]
        first = np.ones(len(bi_), dtype=bool)
        first[1:] = bi_[1:] != bi_[:-1]
        labels[bi_[first]] = labels[bj_[first]]
    return labels


def dbscan(points, params: DbscanParams) -> np.ndarray:
    """Density-based clustering of 2D points; returns per-point labels."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    # the test gives the same answer on the points as on their unique rows
    span = (np.ptp(pts[:, 0]) + 2 * params.eps + 2) \
        * (np.ptp(pts[:, 1]) + 2 * params.eps + 2)
    integral = np.all(np.rint(pts) == pts)
    if integral and params.eps >= _GRID_MIN_EPS and span <= _GRID_MAX_CELLS:
        uniq, inverse, mult, first_index = _compress_pixels(pts)
        labels_u = _dbscan_pixel_grid(uniq, mult, first_index, params)
    else:
        uniq, inverse, mult, first_index = _compress(pts)
        labels_u = _dbscan_bucket_grid(uniq, mult, first_index, params)
    return labels_u[inverse]


def dbscan_brute(points, params: DbscanParams) -> np.ndarray:
    """Reference DBSCAN from the full pairwise distance matrix.

    Implements the exact same semantics as :func:`dbscan` without any
    spatial index or duplicate compression; intended for testing on
    small inputs (O(n^2) memory).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = pts.shape[0]
    eps2 = params.eps * params.eps
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    d2 = dx * dx + dy * dy
    within = d2 <= eps2
    core = within.sum(axis=1) >= params.min_samples

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        # flood fill over cores reachable from i
        stack = [i]
        labels[i] = cluster
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(within[j] & core):
                if labels[k] == NOISE:
                    labels[k] = cluster
                    stack.append(int(k))
        cluster += 1

    coord_rank = np.empty(n, dtype=np.int64)
    coord_rank[np.lexsort((pts[:, 1], pts[:, 0]))] = np.arange(n)
    for i in np.flatnonzero(~core):
        reach = within[i] & core
        if not np.any(reach):
            continue
        cand = np.flatnonzero(reach)
        best_d = d2[i, cand].min()
        tied = cand[d2[i, cand] == best_d]
        labels[i] = labels[tied[np.argmin(coord_rank[tied])]]
    return labels


def extract_centroid(u, v, params: DbscanParams) -> ClusterResult:
    """Cluster one camera's (u, v) events and take the dominant centroid.

    The largest cluster (ties broken toward the lower mean u) provides
    the centroid; the result is invalid when no cluster reaches
    ``min_cluster_points``.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    pts = np.column_stack([u, v])
    labels = dbscan(pts, params)
    if labels.size == 0 or labels.max(initial=NOISE) == NOISE:
        return ClusterResult(labels, 0, 0, float("nan"), float("nan"), False)
    n_clusters = int(labels.max()) + 1
    sizes = np.bincount(labels[labels >= 0], minlength=n_clusters)
    best = np.flatnonzero(sizes == sizes.max())
    if len(best) > 1:
        mean_us = [u[labels == c].mean() for c in best]
        best = [best[int(np.argmin(mean_us))]]
    c = int(best[0])
    member = labels == c
    size = int(sizes[c])
    valid = size >= params.min_cluster_points
    return ClusterResult(labels, n_clusters, size,
                         float(u[member].mean()) if valid else float("nan"),
                         float(v[member].mean()) if valid else float("nan"),
                         valid)


@dataclass(frozen=True)
class ExclusionCheck:
    passed: bool
    reason: str  # empty when passed


def exclude_press(r1: ClusterResult, r2: ClusterResult) -> ExclusionCheck:
    """Press-level gate: both cameras must yield a valid dominant cluster."""
    failing = [name for name, r in (("cam1", r1), ("cam2", r2)) if not r.valid]
    if failing:
        return ExclusionCheck(False, "no prominent cluster: " + ", ".join(failing))
    return ExclusionCheck(True, "")
