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
integer coordinates (prefix-summed disk counts on the count image) and
a bucket-grid path for general coordinates (eps-sized cells, neighbor
candidates from the 3x3 block). ``dbscan`` picks the path from the raw
points, before removing duplicates: the pixel path compresses through
one packed int64 key per point, the bucket path through a row-wise
``np.unique``. ``dbscan_brute`` is the independent O(n^2) reference
used in tests.
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
    """Integer offsets within eps, sorted by (d^2, du, dv), plus halfwidths."""
    e = int(math.floor(eps))
    e2 = eps * eps
    offs = sorted((du * du + dv * dv, du, dv)
                  for du in range(-e, e + 1) for dv in range(-e, e + 1)
                  if du * du + dv * dv <= e2)
    dv_range = np.arange(-e, e + 1)
    halfwidth = np.floor(np.sqrt(np.maximum(e2 - dv_range.astype(float) ** 2, 0.0))
                         ).astype(np.int64)
    return offs, dv_range, halfwidth, e


def _dbscan_pixel_grid(uniq, mult, first_index, params: DbscanParams):
    """Exact DBSCAN on integer pixels via prefix-summed disk counts.

    Neighbor totals come from row prefix sums of the multiplicity image;
    core components start from 8-connected labeling and components whose
    point sets still come within eps of each other are merged exactly.
    """
    from scipy import ndimage  # here, not at import: latency never clusters

    m = uniq.shape[0]
    ui = uniq[:, 0].astype(np.int64)
    vi = uniq[:, 1].astype(np.int64)
    offs, dv_range, halfwidth, e = _disk(params.eps)
    u0, v0 = ui.min(), vi.min()
    pu = ui - u0 + e
    pv = vi - v0 + e
    height = int(pv.max()) + e + 1
    width = int(pu.max()) + e + 1

    img = np.zeros((height, width), dtype=np.int64)
    img[pv, pu] = mult
    prefix = np.zeros((height, width + 1), dtype=np.int64)
    np.cumsum(img, axis=1, out=prefix[:, 1:])
    pf = prefix.ravel()

    weight = np.zeros(m, dtype=np.int64)
    stride = width + 1
    for dv, w in zip(dv_range, halfwidth):
        row = (pv + dv) * stride + pu
        weight += pf[row + w + 1] - pf[row - w]
    core = weight >= params.min_samples

    comp = np.full(m, -1, dtype=np.int64)
    if np.any(core):
        core_img = np.zeros((height, width), dtype=bool)
        core_img[pv[core], pu[core]] = True
        lab, n_lab = ndimage.label(core_img, structure=np.ones((3, 3), dtype=np.int8))
        comp_raw = lab[pv, pu] - 1  # -1 for non-core

        parent = list(range(n_lab))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        if n_lab > 1:
            # merge 8-disconnected components that still have point pairs
            # within eps of each other
            boxes = ndimage.find_objects(lab)
            pts_of = [np.flatnonzero(core & (comp_raw == i)) for i in range(n_lab)]
            for i in range(n_lab):
                bi = boxes[i]
                for j in range(i + 1, n_lab):
                    if find(i) == find(j):
                        continue
                    bj = boxes[j]
                    if (bi[0].start > bj[0].stop + e or bj[0].start > bi[0].stop + e
                            or bi[1].start > bj[1].stop + e
                            or bj[1].start > bi[1].stop + e):
                        continue
                    a = pts_of[i]
                    b = pts_of[j]
                    du = pu[a][:, None] - pu[b][None, :]
                    dv = pv[a][:, None] - pv[b][None, :]
                    if np.any(du * du + dv * dv <= params.eps * params.eps):
                        parent[find(i)] = find(j)
            roots = np.array([find(i) for i in range(n_lab)], dtype=np.int64)
            comp[core] = roots[comp_raw[core]]
        else:
            comp[core] = comp_raw[core]

    labels = _renumber(comp, core, first_index, m)

    # border points: walk the disk offsets in (d^2, du, dv) order so the
    # first core hit is the nearest one with the canonical tie-break
    label_img = np.full((height, width), NOISE, dtype=np.int64)
    if np.any(core):
        label_img[pv[core], pu[core]] = labels[core]
    unresolved = np.flatnonzero(~core)
    for d2, du, dv in offs:
        if not len(unresolved):
            break
        if d2 == 0:
            continue
        hit = label_img[pv[unresolved] + dv, pu[unresolved] + du]
        got = hit != NOISE
        labels[unresolved[got]] = hit[got]
        unresolved = unresolved[~got]
    return labels


def _dbscan_bucket_grid(uniq, mult, first_index, params: DbscanParams):
    """General-coordinate DBSCAN using eps-sized cells.

    All candidate neighbor pairs are emitted per 3x3 cell block in bulk;
    distances, core status, core connectivity, and border assignment are
    derived from that pair list.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

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
        adj = coo_matrix((np.ones(int(cc.sum()), dtype=np.int8),
                          (core_ids[pi[cc]], core_ids[pj[cc]])),
                         shape=(n_core, n_core))
        _, comp_core = connected_components(adj, directed=False)
        comp[core] = comp_core
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
