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
(eps-sized cells, neighbor candidates from the 3x3 block). The path is
picked per point set from its raw points, before removing duplicates.
``dbscan`` clusters one set; ``extract_centroids`` clusters many, and
runs of consecutive integral sets share one pixel-path pass in chunks
bounded by ``_CHUNK_CELLS`` image cells and ``_CHUNK_EVENTS`` points (a
set over either budget runs alone, as ``dbscan`` runs its one set).
Integer columns go straight to the pixel path's int64 offsets, with no
float copy and no finite or integrality test. The bucket path
compresses through a row-wise ``np.unique``, one set at a time.
``dbscan_brute`` is the independent O(n^2) reference used in tests.

The pixel path has no Python loop over sets, components or points, in
the spirit of de Berg, Gunawan & Roeloffzen (2017): merge what is surely
connected, then test distances only where components may touch. Each
phase runs once over the tiles of all sets in a chunk, and from phase 2
on its cost follows the occupied pixels near dense cells, not the raw
events or the empty cells of a set's span.

1. Compress: each set gets its own tile of one image, with an empty
   margin of e = floor(eps) around its points, so no disk reaches
   another tile. One packed int64 key per point, its flat pixel index,
   orders the points by (set, u, v). A small image with many points bins
   the keys; otherwise one sort of ``key << b | index`` (b the bit width
   of the point count) gives the unique keys, the inverse map, the
   multiplicities and each key's first input index at once, since equal
   keys sort by index.
2. Density bound (the grid argument of Gan & Tao 2015): multiplicities
   are summed over cells of side e. A point within eps of p differs from
   it by at most e on each axis, so it lies in the 3x3 cell block around
   p's cell, and the block's count bounds p's disk count from above. A
   cell whose block reaches min_samples may hold cores; a pixel with no
   such cell in its own block can be neither core nor within eps of a
   core, so it is noise and is dropped. The bound stays exact: every
   disk neighbor of a pixel in a may-core cell has that cell in its own
   block and is kept, so that pixel's count is complete, and a kept
   pixel in any other cell counts at most its block, below min_samples.
   (A block may also count points of the next tile; that only weakens
   the bound.) Each set's kept pixels are re-laid in a tile of their
   box +- e.
3. Core counts: a summed-area table of the multiplicities gives each
   pixel's count over its inscribed square of half side
   floor(eps / sqrt(2)), which lies inside the disk, so reaching
   min_samples there makes it core; the remaining pixels sum the disk as
   boxes, one per run of disk rows with one halfwidth.
4. Crop: each tile with cores is cropped to its core bounding box +- 2e
   within the tile, and the crops are stacked into a second image;
   non-core points beyond +- e of their core box are noise.
5. Pre-merge: the core image is dilated by the integer disk of radius
   r = floor((eps - sqrt(2)) / 2) and labeled with 8-connectivity; cores
   of one label are at most 2r + sqrt(2) <= eps apart link by link. The
   labeling is run-based (He, Chao & Suzuki 2008): runs of set pixels
   along v, one pair per run of the next u row that touches a run,
   diagonals included, and connected components over those pairs.
6. Frontier: in crops with more than one label, one summed-area table
   of (core, label, label^2) gives sum (l - L)^2 over each core's disk;
   where it is nonzero, a core of another label is within eps. Half-disk
   gathers from these cores give the label pairs to join, and connected
   components close them. Clusters are numbered per set by
   (set, first input index).
7. Border: each non-core point near its set's cores gathers every disk
   offset in (d^2, du, dv) order at once; the first core hit is the
   nearest, with the canonical tie-break.
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
# point sets clustered together on the pixel path share images of at
# most this many first-image cells and points; a larger set runs alone
_CHUNK_CELLS = 1 << 19
_CHUNK_EVENTS = 1 << 16


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
    largest_cluster_size: int
    centroid_u: float  # nan when invalid
    valid: bool


def _compress(pts):
    """Unique coordinates, inverse map, multiplicities, first input index."""
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    return _with_counts(uniq, inverse.ravel(), pts.shape[0])


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
    row span ``dv_range`` and its halfwidths, the disk as boxes
    ``(du0, du1, dv0, dv1)`` (one per run of rows with one halfwidth),
    and ``e = floor(eps)``."""
    e = int(math.floor(eps))
    e2 = eps * eps
    offs = np.array(sorted((du * du + dv * dv, du, dv)
                           for du in range(-e, e + 1) for dv in range(-e, e + 1)
                           if du * du + dv * dv <= e2), dtype=np.int64)
    dv_range = np.arange(-e, e + 1)
    halfwidth = np.floor(np.sqrt(np.maximum(e2 - dv_range.astype(float) ** 2, 0.0))
                         ).astype(np.int64)
    run = np.flatnonzero(np.diff(halfwidth, prepend=-1))
    boxes = np.column_stack([-halfwidth[run], halfwidth[run], dv_range[run],
                             np.append(dv_range[run[1:] - 1], e)])
    return offs, dv_range, halfwidth, boxes, e


def _summed_area(pu, pv, values, shape):
    """Summed-area table of the image of ``shape`` holding ``values`` (one
    row per point, or one value) at (pu, pv): entry [u, v] sums the rows
    before u and the columns before v. It may wrap around; box sums that
    fit the dtype are still exact."""
    w, h = shape
    table = np.zeros((w + 1, h + 1) + values.shape[1:], dtype=values.dtype)
    table[pu + 1, pv + 1] = values
    np.cumsum(table, axis=0, out=table, dtype=table.dtype)
    np.cumsum(table, axis=1, out=table, dtype=table.dtype)
    return table


def _box_sum(table, pu, pv, boxes):
    """Sums over the union of ``boxes`` ``(du0, du1, dv0, dv1)``, each
    shifted to every point (pu, pv), from a summed-area table: four
    gathers per box, in chunks of about 2^18 cells. Every box must lie
    inside the image."""
    h = table.shape[1]
    flat = table.reshape((-1,) + table.shape[2:])
    du0, du1, dv0, dv1 = boxes.T
    # the corners to add, then those to subtract; a gather with one row
    # per corner sums over its first axis fast
    steps = np.concatenate([(du1 + 1) * h + dv1 + 1, du0 * h + dv0,
                            du0 * h + dv1 + 1, (du1 + 1) * h + dv0])[:, None]
    k = 2 * len(boxes)
    at = pu * h + pv
    total = np.empty((len(pu),) + table.shape[2:], dtype=np.int64)
    chunk = max(1, (1 << 18) // len(steps))
    for i in range(0, len(at), chunk):
        g = flat[steps + at[i:i + chunk]]
        total[i:i + chunk] = g[:k].sum(axis=0) - g[k:].sum(axis=0)
    return total


def _dilate(img, r: int):
    """``img`` dilated by the integer disk of radius r; its outer r rows
    and columns must be empty."""
    _, dv_range, halfwidth, _, _ = _disk(float(r))
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


def _packed_unique(keys):
    """Unique values of non-negative int64 ``keys``, the inverse map,
    multiplicities and first input index, from one sort of
    ``key << b | index`` with b the bit width of ``len(keys)``: equal keys
    sort by index, so each run of a key starts at its first occurrence."""
    n = len(keys)
    b = n.bit_length()
    assert int(keys.max()) < 1 << (63 - b), "packed keys overflow int64"
    packed = np.sort(keys << b | np.arange(n))
    ordered = packed >> b
    index = packed & ((1 << b) - 1)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    mult = np.diff(starts, append=n)
    inverse = np.empty(n, dtype=np.int64)
    inverse[index] = np.repeat(np.arange(len(starts)), mult)
    return ordered[starts], inverse, mult, index[starts]


def _tile_pixels(offsets, boxes, e):
    """Lay point sets out as tiles of one image and compress them.

    ``offsets[s]`` holds set s's points as int64 columns (du, dv) of
    offsets from its minimum corner, and ``boxes[s]`` their extent
    (w, h). Set s takes the w + 2e rows from ``row0[s]`` and its point
    (du, dv) the pixel (row0[s] + e + du, e + dv): a margin of e around
    each tile keeps every disk inside it. A point's packed key is its
    flat pixel index, so ascending keys are the (set, u, v) order.
    Returns the pixels (pu, pv) of the unique points, the set of each,
    the inverse map, multiplicities, first index into the concatenated
    sets, and the image shape.
    """
    sizes = np.array([len(du) for du, _ in offsets])
    w, h = np.array(boxes, dtype=np.int64).reshape(-1, 2).T
    rows = np.where(sizes > 0, w + 2 * e, 0)
    row0 = np.cumsum(rows) - rows
    height = int(h.max()) + 2 * e
    set_of = np.repeat(np.arange(len(offsets)), sizes)
    du, dv = (np.concatenate(col) for col in zip(*offsets))
    keys = (du + (row0 + e)[set_of]) * height + (dv + e)
    cells = int(rows.sum()) * height
    if cells <= min(4 * len(keys), _CHUNK_CELLS):
        # a small image with many points: bin the keys instead of sorting
        occupied = np.bincount(keys, minlength=cells) > 0
        uniq = np.flatnonzero(occupied)
        inverse = (np.cumsum(occupied) - 1)[keys]
        _, _, mult, first_index = _with_counts(uniq, inverse, len(keys))
    else:
        uniq, inverse, mult, first_index = _packed_unique(keys)
    pu, pv = np.divmod(uniq, height)
    return (pu, pv, set_of[first_index], inverse, mult, first_index,
            (cells // height, height))


def _box3(img):
    """Sums over the 3x3 block around each cell of a 2-D image; the
    outer ring of cells is left zero."""
    out = np.zeros_like(img)
    rows = img[:-2] + img[1:-1] + img[2:]
    out[1:-1, 1:-1] = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]
    return out


def _density_bound(pu, pv, mult, shape, e, min_samples):
    """Mask of the unique pixels (pu, pv) of an image of ``shape`` that
    may be core or within eps of a core (see the module docstring).

    Cells have side e, widened only where the image would need more than
    ``max(len(pu), _CHUNK_CELLS)`` of them (a lone set over a budget); any
    side >= e keeps the bound exact.
    """
    s = max(e, math.isqrt(shape[0] * shape[1] // max(len(pu), _CHUNK_CELLS)))
    cw, ch = -(-shape[0] // s) + 2, -(-shape[1] // s) + 2
    cell = (pu // s + 1) * ch + (pv // s + 1)
    counts = np.bincount(cell, weights=mult, minlength=cw * ch)
    may_core = _box3(counts.reshape(cw, ch)) >= min_samples
    return _box3(may_core).ravel()[cell]


def _stack(lo_u, hi_u, lo_v, hi_v):
    """Stack the boxes [lo_u, hi_u] x [lo_v, hi_v] along u in one image:
    the shifts du and dv that take each box into it, and its shape."""
    w = hi_u + 1 - lo_u
    return (np.cumsum(w) - w - lo_u, -lo_v,
            (int(w.sum()), int((hi_v + 1 - lo_v).max())))


def _dbscan_pixel_grid(offsets, boxes, params: DbscanParams):
    """Exact DBSCAN labels of integral point sets, each phase run once
    over tiles of one image (see :func:`_tile_pixels` and the module
    docstring)."""
    ends = np.cumsum([len(du) for du, _ in offsets])
    if not ends[-1]:
        return [np.zeros(0, dtype=np.int64) for _ in offsets]
    offs, _, _, disk, e = _disk(params.eps)
    pu, pv, tile, inverse, mult, first_index, shape = _tile_pixels(
        offsets, boxes, e)
    labels = np.full(len(pu), NOISE, dtype=np.int64)
    kept = np.flatnonzero(_density_bound(pu, pv, mult, shape, e,
                                         params.min_samples))
    if not len(kept):
        return np.split(labels[inverse], ends[:-1])

    # re-lay each set's kept pixels in a tile of their box +- e; the
    # pixels run in (set, u, v) order
    pu, pv, tile, mult = pu[kept], pv[kept], tile[kept], mult[kept]
    starts = np.flatnonzero(np.diff(tile, prepend=-1))
    per_tile = np.diff(starts, append=len(kept))
    du, dv, shape = _stack(pu[starts] - e, pu[starts + per_tile - 1] + e,
                           np.minimum.reduceat(pv, starts) - e,
                           np.maximum.reduceat(pv, starts) + e)
    pu = pu + np.repeat(du, per_tile)
    pv = pv + np.repeat(dv, per_tile)
    tile_hi_u = pu[starts + per_tile - 1] + e
    tile_hi_v = np.maximum.reduceat(pv, starts) + e

    # core counts: a point whose inscribed square of half side
    # a = floor(eps / sqrt(2)) holds min_samples points is core, and only
    # the rest pay the sum over the disk; images are indexed [u, v], and
    # int32 counts halve the table
    counts = mult.astype(np.int32 if ends[-1] < 2**31 else np.int64)
    table = _summed_area(pu, pv, counts, shape)
    a = math.isqrt(int(params.eps * params.eps / 2))
    core = _box_sum(table, pu, pv, np.array([[-a, a, -a, a]])) \
        >= params.min_samples
    rest = np.flatnonzero(~core)
    if len(rest):
        core[rest] = _box_sum(table, pu[rest], pv[rest], disk) \
            >= params.min_samples
    del table
    if not np.any(core):
        return np.split(labels[inverse], ends[:-1])

    # crop each tile with cores to its core box +- 2e, inside the tile, and
    # stack the crops: non-core points beyond +- e of their core box are
    # noise, and the disks of the rest stay inside their crop
    ci = np.flatnonzero(core)
    cstarts = np.flatnonzero(np.diff(tile[ci], prepend=-1))
    per_crop = np.diff(cstarts, append=len(ci))
    cu, cv = pu[ci], pv[ci]
    box = (cu[cstarts], cu[cstarts + per_crop - 1],
           np.minimum.reduceat(cv, cstarts), np.maximum.reduceat(cv, cstarts))
    of = np.searchsorted(starts, ci[cstarts], side="right") - 1  # its tile
    du, dv, shape = _stack(np.maximum(box[0] - 2 * e, pu[starts[of]] - e),
                           np.minimum(box[1] + 2 * e, tile_hi_u[of]),
                           np.maximum(box[2] - 2 * e, 0),
                           np.minimum(box[3] + 2 * e, tile_hi_v[of]))
    height = shape[1]
    # border candidates: non-core points within e of their core box
    crop_of = np.full(len(offsets), -1)
    crop_of[tile[ci[cstarts]]] = np.arange(len(cstarts))
    cand = np.flatnonzero(~core)
    c = crop_of[tile[cand]]
    cand, c = cand[c >= 0], c[c >= 0]
    near = ((pu[cand] >= box[0][c] - e) & (pu[cand] <= box[1][c] + e)
            & (pv[cand] >= box[2][c] - e) & (pv[cand] <= box[3][c] + e))
    cand, c = cand[near], c[near]
    bu, bv = pu[cand] + du[c], pv[cand] + dv[c]
    cu = cu + np.repeat(du, per_crop)
    cv = cv + np.repeat(dv, per_crop)
    core_img = np.zeros(shape, dtype=bool)
    core_img[cu, cv] = True

    # pre-merge: cores whose radius-r disks touch or are 8-adjacent lie
    # at most 2r + sqrt(2) <= eps apart, so they share a cluster
    r = int(math.floor((params.eps - _GRID_MIN_EPS) / 2))
    grown = _dilate(core_img, r) if r else core_img
    lab_img, n_lab = _label8(grown)
    lab = lab_img[cu, cv]
    comp = lab - 1
    # labels run in raster order, so each crop holds a run of them; only
    # crops with more than one label can have cores to join
    multi = np.repeat(np.maximum.reduceat(lab, cstarts)
                      > np.minimum.reduceat(lab, cstarts), per_crop)
    if np.any(multi):
        # frontier: cores with a core of another label L' within eps, where
        # sum (L' - L)^2 = S2 - 2 L S1 + L^2 N over the disk is nonzero; if
        # that sum could leave int64, every such core is on the frontier
        front = np.flatnonzero(multi)
        if len(offs) * n_lab ** 2 < 2**63:
            fl = lab[front]
            planes = np.column_stack([np.ones_like(fl), fl, fl * fl])
            n, s1, s2 = _box_sum(_summed_area(cu[front], cv[front], planes,
                                              shape),
                                 cu[front], cv[front], disk).T
            front = front[s2 - 2 * fl * s1 + fl * fl * n != 0]
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
    full = np.full(len(kept), -1, dtype=np.int64)
    full[core] = comp
    sub = _renumber(full, core, first_index[kept], len(kept))
    # first indices grow with the set, so each set's clusters hold a run
    # of the numbers; start every run at 0
    sub[ci] -= np.repeat(np.minimum.reduceat(sub[ci], cstarts), per_crop)

    # border: each candidate gathers every disk offset in (d^2, du, dv)
    # order, so the first hit is the nearest core with the canonical
    # tie-break
    label_img = np.full(shape, NOISE, dtype=np.int64)
    label_img[cu, cv] = sub[ci]
    for i, hit in _gather_rows(label_img.ravel(), bu * height + bv,
                               offs[1:, 1] * height + offs[1:, 2]):
        found = hit != NOISE
        first = found.argmax(axis=1)
        rows = np.arange(len(hit))
        got = found[rows, first]
        sub[cand[i:i + len(hit)][got]] = hit[rows, first][got]
    labels[kept] = sub
    return np.split(labels[inverse], ends[:-1])


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

    # never empty: the (0, 0) block pairs each point with itself
    pi = np.concatenate(pair_i)
    pj = np.concatenate(pair_j)
    pd2 = np.concatenate(pair_d2)

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


def _dbscan_sets(uv_sets, params: DbscanParams):
    """:func:`dbscan` labels of each ``(u, v)`` pair, in order.

    Runs of integral sets whose padded span fits ``_GRID_MAX_CELLS`` go
    to the pixel path together, in chunks of at most ``_CHUNK_CELLS``
    first-image cells and ``_CHUNK_EVENTS`` points (a set over either
    budget runs alone); every other set takes the bucket path alone.
    Integer columns go straight to int64 offsets, with no float copy and
    no finite or integrality test.
    """
    e = int(math.floor(params.eps))
    offsets, boxes = [], []
    rows = height = events = 0
    for u, v in map(_columns, uv_sets):
        integer = u.dtype != np.float64
        if not (integer or np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("points must be finite")
        u0 = v0 = 0
        pixel, w, h = True, 0, 0
        if len(u):
            bounds = u.min(), u.max(), v.min(), v.max()
            u0, u1, v0, v1 = map(int, bounds) if integer else bounds
            w, h = u1 - u0, v1 - v0
            # the test gives the same answer on the points as on their
            # unique rows
            span = (w + 2 * params.eps + 2) * (h + 2 * params.eps + 2)
            pixel = (params.eps >= _GRID_MIN_EPS and span <= _GRID_MAX_CELLS
                     and (integer or np.all(np.rint(u) == u)
                          and np.all(np.rint(v) == v)))
            w, h = int(w) + 1, int(h) + 1
        tile_rows = w + 2 * e if w else 0
        if offsets and (not pixel or events + len(u) > _CHUNK_EVENTS
                        or (rows + tile_rows) * max(height, h + 2 * e)
                        > _CHUNK_CELLS):
            yield from _dbscan_pixel_grid(offsets, boxes, params)
            offsets, boxes = [], []
            rows = height = events = 0
        if not pixel:
            pts = np.column_stack([u, v]).astype(np.float64)
            uniq, inverse, mult, first_index = _compress(pts)
            yield _dbscan_bucket_grid(uniq, mult, first_index, params)[inverse]
            continue
        if integer:
            offsets.append((np.subtract(u, u0, dtype=np.int64),
                            np.subtract(v, v0, dtype=np.int64)))
        else:
            offsets.append(((u - u0).astype(np.int64),
                            (v - v0).astype(np.int64)))
        boxes.append((w, h))
        rows += tile_rows
        height = max(height, h + 2 * e)
        events += len(u)
    if offsets:
        yield from _dbscan_pixel_grid(offsets, boxes, params)


def _columns(uv):
    """A ``(u, v)`` pair as 1-D arrays of equal length: integer columns
    that cast safely to int64 as they are, any other as float64."""
    u, v = (np.asarray(x) for x in uv)
    if not all(x.dtype.kind in "iu" and np.can_cast(x.dtype, np.int64)
               for x in (u, v)):
        u, v = (np.asarray(x, dtype=np.float64) for x in (u, v))
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("u and v must be 1-D arrays of equal length")
    return u, v


def dbscan(points, params: DbscanParams) -> np.ndarray:
    """Density-based clustering of 2D points; returns per-point labels."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    return next(_dbscan_sets([(pts[:, 0], pts[:, 1])], params))


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


def extract_centroids(uv_pairs, params: DbscanParams):
    """:func:`extract_centroid` of each ``(u, v)`` pair in a sequence,
    yielded in order; the sets are clustered together in chunks (see
    :func:`_dbscan_sets`), and only one chunk's labels are held at a
    time."""
    def mean_u(u, members):
        return u[members].astype(np.float64).mean()

    for (u, _), labels in zip(uv_pairs, _dbscan_sets(uv_pairs, params)):
        u = np.asarray(u)
        if labels.max(initial=NOISE) == NOISE:
            yield ClusterResult(labels, 0, float("nan"), False)
            continue
        sizes = np.bincount(labels[labels >= 0])
        best = np.flatnonzero(sizes == sizes.max())
        if len(best) > 1:
            mean_us = [mean_u(u, labels == c) for c in best]
            best = [best[int(np.argmin(mean_us))]]
        c = int(best[0])
        size = int(sizes[c])
        valid = size >= params.min_cluster_points
        yield ClusterResult(labels, size,
                            float(mean_u(u, labels == c)) if valid
                            else float("nan"), valid)


def extract_centroid(u, v, params: DbscanParams) -> ClusterResult:
    """Cluster one camera's (u, v) events and take the dominant centroid.

    The largest cluster (ties broken toward the lower mean u) provides
    the centroid; the result is invalid when no cluster reaches
    ``min_cluster_points``.
    """
    return next(extract_centroids([(u, v)], params))


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
