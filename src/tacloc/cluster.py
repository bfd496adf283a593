"""DBSCAN over per-trial pixel coordinates, dominant-cluster centroids,
and the both-camera press exclusion rule.

Clustering semantics (shared by ``dbscan`` and ``dbscan_brute``):

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

One pixel-grid path implements these semantics, over whole pixel
coordinates: integer columns go straight to int64 keys, with no float
copy, and any other column must be finite and whole (see ``_columns``).
``eps`` lies in [``MIN_EPS_PX``, ``MAX_EPS_PX``], and a set whose padded
span is over ``MAX_SPAN_CELLS`` image cells is refused, so the work is
linear in the points at a cost bounded by eps^2 each.

The path clusters weighted pixel sets (``WeightedPixels``): a set's
unique pixels, as offsets from its minimum corner, with their
multiplicities. ``weigh`` compresses a set once, and duplicates then
count as weights, which keeps every step below exact. ``dbscan``
clusters one set and maps the pixel labels back to its points;
``extract_centroids`` clusters many, and runs of consecutive sets share
one pass in chunks of at most ``_CHUNK_CELLS`` first-image cells (a set
over the budget runs alone, as ``dbscan`` runs its one set).
``dbscan_brute`` is the independent O(n^2) reference used in tests; it
takes any float points.

The path has no Python loop over sets, components or points, in the
spirit of de Berg, Gunawan & Roeloffzen (2017): merge what is surely
connected, then test distances only where components may touch. Each
phase runs once over the tiles of all sets in a chunk, and its cost
follows the occupied pixels, from phase 2 on only those near dense
cells, not the raw events or the empty cells of a set's span.

1. Tile: each set gets its own tile of one image, with an empty margin
   of e = floor(eps) around its box, so no disk reaches another tile.
   A set's pixels are unique and in (du, dv) order, so the image pixels
   are unique and run in (set, u, v) order with no sort.
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
6. Frontier: in a crop with more than one label, every core gathers
   the labels of the cores in its half disk; the pairs of different
   labels are the ones to join, and connected components close them.
   A cluster is numbered by the pre-merge label that roots it; ``dbscan``
   renumbers its clusters by first input index.
7. Border: each non-core point near its set's cores gathers every disk
   offset in (d^2, du, dv) order at once; the first core hit is the
   nearest, with the canonical tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .events import sort_packed

NOISE = -1

# the pre-merge needs 8-adjacent pixels to be eps-neighbors; the disk of
# offsets, and each border point's gather over it, grow as eps^2
MIN_EPS_PX = math.sqrt(2.0)
MAX_EPS_PX = 100.0
# a set's tile, its span padded by floor(eps) on each side, holds at most
# this many cells; events (u < 640, v < 480) stay far below it
MAX_SPAN_CELLS = 8_000_000
# point sets clustered together share images of at most this many
# first-image cells; a larger set runs alone
_CHUNK_CELLS = 1 << 19
# gathers over image cells run in blocks of about this many cells, so
# their int64 indices and gathered values stay a fixed size
_GATHER_CELLS = 1 << 16


@dataclass(frozen=True)
class DbscanParams:
    eps: float = 10.0
    min_samples: int = 10
    min_cluster_points: int | None = None  # validity threshold; defaults to min_samples

    def __post_init__(self):
        if not MIN_EPS_PX <= self.eps <= MAX_EPS_PX:
            raise ValueError(f"eps must lie in [MIN_EPS_PX sqrt(2), "
                             f"MAX_EPS_PX {MAX_EPS_PX:g}] px, got "
                             f"{self.eps:.15g}")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_cluster_points is None:
            object.__setattr__(self, "min_cluster_points", self.min_samples)


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of clustering one camera's events for one press."""

    largest_cluster_size: int
    centroid_u: float  # nan when invalid
    valid: bool


class WeightedPixels(NamedTuple):
    """A point set as whole pixels with multiplicities (see :func:`weigh`):
    the unique int64 offsets ``du``, ``dv`` from ``origin`` (u0, v0), in
    ascending (du, dv) order, their positive int64 multiplicities
    ``mult``, and a ``box`` (w, h) that holds every offset."""

    du: np.ndarray
    dv: np.ndarray
    mult: np.ndarray
    box: tuple[int, int]
    origin: tuple[int, int]


def weigh(u, v, return_inverse: bool = False):
    """The :class:`WeightedPixels` of whole pixel coordinates (u, v), as
    :func:`dbscan` takes them, with the origin at their minimum corner
    and the tight box; with ``return_inverse``, also the index of each
    point's pixel.

    One int64 key per point, ``du * h + dv``, orders the pixels. A small
    box with many points bins the keys; otherwise one sort of
    ``key << b | index``, b the bit width of the point count, gives the
    unique keys and their counts, and the inverse map when asked. A box
    over ``MAX_SPAN_CELLS`` cells raises ValueError.
    """
    u, v = _columns((u, v))
    n = len(u)
    if not n:
        none = np.zeros(0, dtype=np.int64)
        ws = WeightedPixels(none, none, none, (0, 0), (0, 0))
        return (ws, none) if return_inverse else ws
    u0, u1, v0, v1 = map(int, (u.min(), u.max(), v.min(), v.max()))
    w, h = u1 - u0 + 1, v1 - v0 + 1
    _check_span(w, h, 0)
    keys = np.subtract(u, u0, dtype=np.int64)
    keys *= h
    keys += np.subtract(v, v0, dtype=np.int64)
    if w * h <= min(4 * n, _CHUNK_CELLS):
        counts = np.bincount(keys, minlength=w * h)
        uniq = np.flatnonzero(counts)
        mult = counts[uniq]
        inverse = (np.cumsum(counts > 0) - 1)[keys] if return_inverse else None
    else:
        uniq, inverse, mult = _packed_unique(keys, return_inverse)
    du, dv = np.divmod(uniq, h)
    ws = WeightedPixels(du, dv, mult.astype(np.int64, copy=False), (w, h),
                        (u0, v0))
    return (ws, inverse) if return_inverse else ws


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
    """Summed-area table of the image of ``shape`` holding the point
    counts ``values`` at (pu, pv): entry [u, v] sums the rows before u
    and the columns before v."""
    w, h = shape
    table = np.zeros((w + 1, h + 1), dtype=values.dtype)
    table[pu + 1, pv + 1] = values
    np.cumsum(table, axis=0, out=table, dtype=table.dtype)
    np.cumsum(table, axis=1, out=table, dtype=table.dtype)
    return table


def _box_sum(table, pu, pv, boxes):
    """Each point's sum over the union of ``boxes`` ``(du0, du1, dv0,
    dv1)`` shifted to (pu, pv), from a summed-area table: four gathers
    per box, in blocks of about ``_GATHER_CELLS`` cells. Every box must
    lie inside the image."""
    h = table.shape[1]
    flat = table.ravel()
    du0, du1, dv0, dv1 = boxes.T
    # the corners to add, then those to subtract; a gather with one row
    # per corner sums over its first axis fast
    steps = np.concatenate([(du1 + 1) * h + dv1 + 1, du0 * h + dv0,
                            du0 * h + dv1 + 1, (du1 + 1) * h + dv0])[:, None]
    k = 2 * len(boxes)
    at = pu * h + pv
    total = np.empty(len(pu), dtype=np.int64)
    chunk = max(1, _GATHER_CELLS // len(steps))
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
    """``flat[at[i] + steps]`` for each i, in blocks of about
    ``_GATHER_CELLS`` cells."""
    chunk = max(1, _GATHER_CELLS // len(steps))
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
    1..n in raster order of their first pixel (0 is background), and n.
    The labels are int32: n stays below the image's cells, which
    ``MAX_SPAN_CELLS`` caps."""
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
    flat = np.zeros(w * (h + 1), dtype=np.int32)
    flat[start] = ids
    flat[end] = -ids
    np.cumsum(flat, out=flat)
    return flat.reshape(w, h + 1)[:, :h], int(ids.max(initial=0))


def _packed_unique(keys, return_inverse=True):
    """Unique values of non-negative int64 ``keys``, the inverse map
    (None without ``return_inverse``) and the multiplicities, from one
    ``sort_packed``."""
    n = len(keys)
    assert int(keys.max()) < 1 << (63 - n.bit_length()), \
        "packed keys overflow int64"
    ordered, index = sort_packed(keys)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    mult = np.diff(starts, append=n)
    inverse = None
    if return_inverse:
        inverse = np.empty(n, dtype=np.int64)
        inverse[index] = np.repeat(np.arange(len(starts)), mult)
    return ordered[starts], inverse, mult


def _tile_pixels(sets, e):
    """Lay weighted pixel sets out as tiles of one image.

    Set s takes the w + 2e rows from ``row0[s]`` of the image, its box
    (w, h) padded by a margin of e that keeps every disk inside the tile,
    and its pixel (du, dv) the image pixel (row0[s] + e + du, e + dv). A
    set's pixels are unique and in (du, dv) order, so the image pixels
    run in (set, u, v) order with no sort. Returns the pixels (pu, pv),
    the set of each, their multiplicities, and the image shape.
    """
    sizes = np.array([len(ws.mult) for ws in sets])
    w, h = np.array([ws.box for ws in sets], dtype=np.int64).reshape(-1, 2).T
    rows = np.where(sizes > 0, w + 2 * e, 0)
    row0 = np.cumsum(rows) - rows
    set_of = np.repeat(np.arange(len(sets)), sizes)
    pu = np.concatenate([ws.du for ws in sets]) + (row0 + e)[set_of]
    pv = np.concatenate([ws.dv for ws in sets]) + e
    mult = np.concatenate([ws.mult for ws in sets])
    return (pu, pv, set_of, mult,
            (int(rows.sum()), int(h[sizes > 0].max(initial=0)) + 2 * e))


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


def _dbscan_pixel_grid(sets, params: DbscanParams):
    """Exact DBSCAN of weighted pixel sets, each phase run once over tiles
    of one image (see :func:`_tile_pixels` and the module docstring).

    Returns the label of each pixel of the sets in turn, with clusters
    numbered apart across the sets but in no set order (NOISE for noise),
    and the mask of core pixels.
    """
    offs, _, _, disk, e = _disk(params.eps)
    pu, pv, tile, mult, shape = _tile_pixels(sets, e)
    labels = np.full(len(pu), NOISE, dtype=np.int64)
    is_core = np.zeros(len(pu), dtype=bool)
    if not len(pu):
        return labels, is_core
    kept = np.flatnonzero(_density_bound(pu, pv, mult, shape, e,
                                         params.min_samples))
    if not len(kept):
        return labels, is_core

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
    counts = mult.astype(np.int32 if mult.sum() < 2**31 else np.int64)
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
        return labels, is_core

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
    crop_of = np.full(len(sets), -1)
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
    r = int(math.floor((params.eps - MIN_EPS_PX) / 2))
    grown = _dilate(core_img, r) if r else core_img
    lab_img, n_lab = _label8(grown)
    lab = lab_img[cu, cv]
    comp = lab - 1
    # labels run in raster order, so each crop holds a run of them; only
    # crops with more than one label can have cores to join
    multi = np.repeat(np.maximum.reduceat(lab, cstarts)
                      > np.minimum.reduceat(lab, cstarts), per_crop)
    if np.any(multi):
        # frontier: every core of such a crop gathers its half disk, so
        # each cross pair is seen from its first end
        front = np.flatnonzero(multi)
        half = offs[(offs[:, 1] > 0) | ((offs[:, 1] == 0) & (offs[:, 2] > 0))]
        lab_flat = (lab_img * core_img).ravel()
        src, dst = [], []
        for i, hit in _gather_rows(lab_flat, cu[front] * height + cv[front],
                                   half[:, 1] * height + half[:, 2]):
            own = lab[front[i:i + len(hit)], None]
            cross = (hit != 0) & (hit != own)
            src.append(np.broadcast_to(own, hit.shape)[cross])
            dst.append(hit[cross])
            # so the next block is gathered without this one alive
            del hit, cross
        del lab_flat
        comp = _components(n_lab, np.concatenate(src) - 1,
                           np.concatenate(dst) - 1)[comp]
    # the border pass reads none of the pre-merge images
    del grown, lab_img
    # a cluster is numbered by the pre-merge label that roots it
    sub = np.full(len(kept), NOISE, dtype=np.int64)
    sub[ci] = comp

    # border: each candidate gathers every disk offset in (d^2, du, dv)
    # order, so the first hit is the nearest core with the canonical
    # tie-break
    label_img = np.full(shape, NOISE, dtype=np.int32)
    label_img[cu, cv] = sub[ci]
    for i, hit in _gather_rows(label_img.ravel(), bu * height + bv,
                               offs[1:, 1] * height + offs[1:, 2]):
        found = hit != NOISE
        first = found.argmax(axis=1)
        rows = np.arange(len(hit))
        got = found[rows, first]
        sub[cand[i:i + len(hit)][got]] = hit[rows, first][got]
    labels[kept] = sub
    is_core[kept[ci]] = True
    return labels, is_core


def _check_span(w: int, h: int, margin: int) -> None:
    if (w + 2 * margin) * (h + 2 * margin) > MAX_SPAN_CELLS:
        raise ValueError(
            f"points span {w} x {h} pixels, more than MAX_SPAN_CELLS "
            f"{MAX_SPAN_CELLS} cells with a margin of {margin}")


def _dbscan_sets(sets, params: DbscanParams):
    """Runs of consecutive weighted pixel sets, each with the
    :func:`_dbscan_pixel_grid` labels and core mask of its pixels.

    A run holds at most ``_CHUNK_CELLS`` first-image cells, and a set
    over that budget runs alone. A set whose tile, its box plus
    ``floor(eps)`` on each side, has more than ``MAX_SPAN_CELLS`` cells
    raises ValueError.
    """
    e = int(math.floor(params.eps))
    run = []
    rows = height = 0
    for ws in sets:
        tile_rows = tile_height = 0
        if len(ws.mult):
            w, h = ws.box
            _check_span(w, h, e)
            tile_rows, tile_height = w + 2 * e, h + 2 * e
        if run and (rows + tile_rows) * max(height, tile_height) > _CHUNK_CELLS:
            yield run, *_dbscan_pixel_grid(run, params)
            run = []
            rows = height = 0
        run.append(ws)
        rows += tile_rows
        height = max(height, tile_height)
    if run:
        yield run, *_dbscan_pixel_grid(run, params)


def _columns(uv):
    """A ``(u, v)`` pair as integer 1-D arrays of equal length: integer
    columns that cast safely to int64 as they are; any other column must
    hold whole numbers of magnitude at most 2^53 (float64 holds those
    exactly), and is cast to int64."""
    u, v = (np.asarray(x) for x in uv)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("u and v must be 1-D arrays of equal length")
    cols = []
    for x in (u, v):
        if not (x.dtype.kind in "iu" and np.can_cast(x.dtype, np.int64)):
            x = np.asarray(x, dtype=np.float64)
            # NaN fails the bound too
            if not (np.all(np.abs(x) <= 2.0**53) and np.all(np.rint(x) == x)):
                raise ValueError("points must be whole pixel coordinates")
            x = x.astype(np.int64)
        cols.append(x)
    return cols


def dbscan(points, params: DbscanParams) -> np.ndarray:
    """Density-based clustering of 2D whole pixel coordinates; returns
    per-point labels. Fractional or non-finite coordinates, and a set whose
    padded span is over ``MAX_SPAN_CELLS`` cells, raise ValueError."""
    pts = np.asarray(points)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    ws, inverse = weigh(pts[:, 0], pts[:, 1], return_inverse=True)
    _, labels, core = next(_dbscan_sets([ws], params))
    # number the clusters by the first input index of their core points
    n = len(inverse)
    first = np.full(len(ws.mult), n)
    np.minimum.at(first, inverse, np.arange(n))
    first_core = np.full(labels.max(initial=NOISE) + 1, n)
    np.minimum.at(first_core, labels[core], first[core])
    found = np.flatnonzero(first_core < n)
    # one slot more, left NOISE, for the noise label -1
    rank = np.full(len(first_core) + 1, NOISE, dtype=np.int64)
    rank[found[np.argsort(first_core[found])]] = np.arange(len(found))
    return rank[labels][inverse]


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


def extract_centroids(sets, params: DbscanParams):
    """:func:`extract_centroid` of each :class:`WeightedPixels` set in a
    sequence, yielded in order; the sets are clustered together in runs
    (see :func:`_dbscan_sets`), and only one run's labels are held at a
    time.

    A cluster's size is the sum of its multiplicities, and its centroid
    is the exact sum of u times multiplicity over its pixels, divided
    once by the size: bit for bit the mean of its members' u in float64
    whenever that sum is exact, as it is for any sensor column. Among
    the largest clusters of a set, the lowest sum of u has the lowest
    mean u.
    """
    for run, labels, _ in _dbscan_sets(sets, params):
        member = np.flatnonzero(labels >= 0)
        cluster = labels[member]
        set_of = np.repeat(np.arange(len(run)),
                           [len(ws.mult) for ws in run])[member]
        mult = np.concatenate([ws.mult for ws in run])[member]
        du = np.concatenate([ws.du for ws in run])[member]
        n_clusters = labels.max(initial=NOISE) + 1
        size = np.zeros(n_clusters, dtype=np.int64)
        np.add.at(size, cluster, mult)
        sum_du = np.zeros(n_clusters, dtype=np.int64)
        np.add.at(sum_du, cluster, du * mult)
        set_of_cluster = np.zeros(n_clusters, dtype=np.int64)
        set_of_cluster[cluster] = set_of
        # each set's first cluster by (largest size, lowest sum of u)
        order = np.flatnonzero(size)
        order = order[np.lexsort((sum_du[order], -size[order],
                                  set_of_cluster[order]))]
        owner = set_of_cluster[order]
        lead = np.diff(owner, prepend=-1) != 0
        best_size = np.zeros(len(run), dtype=np.int64)
        best_sum = np.zeros(len(run), dtype=np.int64)
        best_size[owner[lead]] = size[order[lead]]
        best_sum[owner[lead]] = sum_du[order[lead]]
        for ws, n, total in zip(run, best_size.tolist(), best_sum.tolist()):
            valid = n > 0 and n >= params.min_cluster_points
            # Python ints: the sum stays exact and the division rounds once
            yield ClusterResult(n, (ws.origin[0] * n + total) / n if valid
                                else float("nan"), valid)


def extract_centroid(u, v, params: DbscanParams) -> ClusterResult:
    """Cluster one camera's (u, v) events, whole pixel coordinates as
    :func:`dbscan` takes them, and take the dominant centroid.

    The largest cluster (ties broken toward the lower mean u) provides
    the centroid; the result is invalid when no cluster reaches
    ``min_cluster_points``.
    """
    return next(extract_centroids([weigh(u, v)], params))


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
