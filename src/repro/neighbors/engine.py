"""The shared-neighborhood scoring engine: one distance pass for all subspaces.

Scoring every object in *each* high-contrast subspace is the dominant cost of
the pipeline once the contrast search is vectorised.  The
:class:`SharedNeighborEngine` answers every subspace of one data matrix
through one object: it assembles a subspace's squared distances straight
from the data columns, in cache-sized row bands
(:func:`~repro.utils.chunks.row_chunks`), adding the attributes' terms
``(x_id - x_jd)^2`` left to right in the caller's attribute order.  LOF and
the other density scores need only each object's k nearest neighbours, and
each row's k nearest depend on that row alone, so the dense kNN pass selects
them band by band (:func:`~repro.neighbors.topk.top_k_smallest`, with the
library-wide stable index tie-break).  Nothing outlives a call: the engine
holds its data and no other state, so concurrent callers need no lock.

Past :data:`_DENSE_MAX_ROWS` rows, :meth:`~SharedNeighborEngine.kneighbors`
stops doing ``O(n^2)`` work: an exact branch-and-bound search over a k-d
partition of the subspace's points (Friedman, Bentley & Finkel, ACM TOMS
1977) scores each leaf of a few dozen queries only against the leaves its
float lower bounds cannot rule out, so peak memory per block is
``O(leaf * n)``.  :meth:`~SharedNeighborEngine.iter_distance_rows` yields the
row bands themselves.  An asymmetric query-vs-reference mode scores new
points against the fitted reference without Python-level per-object loops.

Because the per-subspace reference path (:func:`~repro.neighbors.distance.pairwise_distances`)
accumulates the very same :func:`~repro.neighbors.distance.squared_difference_block`
floats in the very same order, every distance, neighbour index and downstream
outlier score the engine produces is **bit-for-bit identical** to the
per-subspace path — the equivalence the golden suite in
``tests/test_shared_engine.py`` pins.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DataError, ParameterError
from ..utils.chunks import row_chunks
from ..utils.validation import check_data_matrix, check_positive_int
from .base import KNNResult, NearestNeighborSearcher
from .distance import squared_difference_block
from .topk import merge_top_k, top_k_smallest

__all__ = [
    "SharedNeighborEngine",
    "SharedEngineKNN",
    "normalise_engine_mode",
]

#: Most points per leaf of the pruned kNN search; leaves hold between half
#: this and this many.  Leaves of about 47 points (this value at n = 6000)
#: beat leaves of about 23 on data shaped like the ``rank-tall`` benchmark
#: workload (n = 6000, 2-6 attributes, k = 10), and at n = 100,000 they
#: halved the time of a 2- and a 3-attribute subspace.
_LEAF_SIZE = 64

#: Most rows for which :meth:`SharedNeighborEngine.kneighbors` scores every
#: pair; taller data takes the pruned search.  3344 is the tallest matrix
#: whose dense pass fitted the engine's former 256 MiB budget at 24 bytes a
#: cell, so the crossover is where it was.
_DENSE_MAX_ROWS = 3344

#: Canonical engine-mode names accepted everywhere an engine switch appears
#: (pipeline, ranker, config, spec grammar, CLI).  ``per-subspace`` is the
#: reference path that rebuilds every subspace's distances from scratch.
ENGINE_MODES = ("shared", "per-subspace")

#: Retired engine names and the mode that now computes the same scores.
#: ``streaming`` was a row-blocked variant of ``shared``; the shared engine
#: assembles row bands and leaves the dense pass by itself on tall data.
LEGACY_ENGINE_MODES = {"streaming": "shared"}


def normalise_engine_mode(value: object) -> str:
    """Validate an engine-mode name, accepting ``per_subspace`` as an alias.

    Saved pipelines and spec strings that name a retired mode keep loading:
    the name maps to its survivor through :data:`LEGACY_ENGINE_MODES`.
    """
    if not isinstance(value, str):
        raise ParameterError(f"engine must be a string, got {type(value).__name__}")
    key = value.strip().lower().replace("_", "-")
    key = LEGACY_ENGINE_MODES.get(key, key)
    if key not in ENGINE_MODES:
        raise ParameterError(
            f"unknown scoring engine {value!r}; expected one of {ENGINE_MODES}"
        )
    return key


def _leaf_partition(points: np.ndarray) -> List[np.ndarray]:
    """Rows of ``points`` split into leaves of at most ``_LEAF_SIZE`` rows.

    k-d style: a node's rows are cut at their median along the attribute of
    widest spread until a node fits one leaf.  Each leaf lists its rows in
    ascending order.
    """
    leaves = []
    stack = [np.arange(points.shape[0])]
    while stack:
        rows = stack.pop()
        if rows.size <= _LEAF_SIZE:
            leaves.append(np.sort(rows))
            continue
        members = points[rows]
        axis = int(np.argmax(members.max(axis=0) - members.min(axis=0)))
        half = rows.size // 2
        cut = np.argpartition(members[:, axis], half)
        stack.append(rows[cut[half:]])
        stack.append(rows[cut[:half]])
    return leaves


def _lower_bounds(gaps: np.ndarray) -> np.ndarray:
    """Euclidean lower bounds from per-attribute gaps (last axis, caller order).

    Negative gaps (no separation along that attribute) count as zero.  The
    terms are squared, summed left to right and square-rooted exactly like
    the canonical distance, which is what makes the bound sound (see
    :func:`_pruned_kneighbors`).  ``gaps`` is overwritten.
    """
    np.maximum(gaps, 0.0, out=gaps)
    gaps *= gaps
    total = gaps[..., 0].copy()
    for term in range(1, gaps.shape[-1]):
        total += gaps[..., term]
    return np.sqrt(total, out=total)


def _scored_top_k(
    columns: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int, exclude_self: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical distances of ``rows`` to ``cols`` reduced to each row's top-k.

    ``cols`` must be ascending, so the block's column order is the index
    order of the tie-break.  With ``exclude_self`` every row must be among
    ``cols``, and its own distance is set to ``inf``.  Returns global
    indices and distances.
    """
    block = squared_difference_block(columns[0][rows], columns[0][cols])
    for column in columns[1:]:
        block += squared_difference_block(column[rows], column[cols])
    np.sqrt(block, out=block)
    if exclude_self:
        block[np.arange(rows.size), np.searchsorted(cols, rows)] = np.inf
    local, values = top_k_smallest(block, min(k, cols.size))
    return cols[local], values


def _pruned_kneighbors(
    points: np.ndarray, k: int, exclude_self: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact kNN of every row of ``points`` without scoring every pair.

    ``points`` holds the subspace's attributes in the caller's order.  The
    rows are split into leaves (:func:`_leaf_partition`) and each leaf keeps
    its tight box, the min and max of its members per attribute.  For every
    query leaf the search

    1. scores the query leaf itself plus the leaves nearest to it by
       box-to-box lower bound until they hold at least ``k + 1`` points,
       which gives each query a current k-th distance ``kth``;
    2. scores every unvisited leaf whose lower bound is ``<= kth`` for at
       least one query of the leaf: candidates are chosen by box-to-box
       bounds, and point-to-box bounds are computed only for the leaves that
       survive.

    Every block is the canonical recipe of the dense path: the
    :func:`squared_difference_block` terms summed in the caller's attribute
    order, then ``sqrt``, with a query's own distance set to ``inf`` when
    ``exclude_self`` and candidate columns in ascending index order.  Blocks
    are reduced with :func:`top_k_smallest` and :func:`merge_top_k`, whose
    ``(distance, index)`` order is the tie-break of ``BruteForceKNN``.

    Why the result is ``np.array_equal`` to brute force, for any leaf layout:

    * A lower bound is built from a box's faces with the float operations of
      the distance.  For a query ``q`` and a point ``p`` with
      ``lo <= p <= hi`` along an attribute, the distance squares
      ``fl(q - p) = -fl(p - q)``; ``fl(lo - q) <= fl(p - q)`` when
      ``q < lo`` and ``fl(q - hi) <= fl(q - p)`` when ``q > hi``, because
      rounding is monotone; otherwise the gap term is zero.  Squaring,
      left-to-right addition and ``sqrt`` are monotone too, so the bound
      never exceeds the canonical distance to any point in the box, even
      when a square overflows to ``inf``.  The same holds for box-to-box
      gaps ``fl(lo_c - hi_q)`` and ``fl(lo_q - hi_c)``, which never exceed a
      point-to-box gap.
    * The k-th distance of step 1 is the k-th smallest over a subset of the
      candidates, so it is at least the final k-th distance; it can only
      fall.  A leaf is skipped only when its bound is *strictly* above it, so
      every skipped point is strictly farther than the final k-th neighbour
      and cannot be among the k smallest ``(distance, index)`` pairs, ties
      included.  Two rounds are therefore enough.
    * With ``kth == inf`` nothing is skipped, so rows whose neighbours are
      all at ``inf`` (or whose own ``inf`` self-distance ranks among them)
      see every candidate, as the dense path does.

    Peak memory is one ``leaf x n`` block.
    """
    n = points.shape[0]
    columns = np.ascontiguousarray(points.T)
    leaves = _leaf_partition(points)
    sizes = np.array([leaf.size for leaf in leaves])
    lo = np.array([points[leaf].min(axis=0) for leaf in leaves])
    hi = np.array([points[leaf].max(axis=0) for leaf in leaves])
    need = min(k + 1, n)
    indices = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for leaf, rows in enumerate(leaves):
        box = _lower_bounds(np.maximum(lo - hi[leaf], lo[leaf] - hi))
        visited = np.zeros(len(leaves), dtype=bool)
        visited[leaf] = True
        if sizes[leaf] < need:
            near = np.argsort(box, kind="stable")
            near = near[near != leaf]
            held = np.cumsum(sizes[near]) + sizes[leaf]
            visited[near[: np.searchsorted(held, need) + 1]] = True
        cols = np.sort(np.concatenate([leaves[j] for j in np.flatnonzero(visited)]))
        idx, vals = _scored_top_k(columns, rows, cols, k, exclude_self)
        kth = vals[:, -1]
        ahead = np.flatnonzero(~visited & (box <= kth.max()))
        if ahead.size:
            queries = points[rows][:, None, :]
            point = _lower_bounds(np.maximum(lo[ahead] - queries, queries - hi[ahead]))
            ahead = ahead[(point <= kth[:, None]).any(axis=0)]
        if ahead.size:
            cols = np.sort(np.concatenate([leaves[j] for j in ahead]))
            # The query leaf was scored in step 1: no own column here.
            idx, vals = merge_top_k(
                idx, vals, *_scored_top_k(columns, rows, cols, k, False), k
            )
        indices[rows] = idx
        distances[rows] = vals
    return indices, distances


class SharedNeighborEngine:
    """Shared distance/neighbour substrate over one fixed data matrix.

    Parameters
    ----------
    data:
        Data matrix of shape ``(n_objects, n_dims)``.  The engine keeps a
        reference and never mutates it; it holds nothing else between calls.
    """

    def __init__(self, data: np.ndarray):
        self._data = check_data_matrix(data, name="data", min_objects=2)

    # ------------------------------------------------------------- basics

    @property
    def n_objects(self) -> int:
        return self._data.shape[0]

    @property
    def n_dims(self) -> int:
        return self._data.shape[1]

    @property
    def data(self) -> np.ndarray:
        """The underlying data matrix (do not mutate)."""
        return self._data

    @property
    def cache_bytes(self) -> int:
        """Bytes held across calls: always 0, every call allocates its own."""
        return 0

    def _attributes(self, attributes: Optional[Iterable[int]]) -> Tuple[int, ...]:
        if attributes is None:
            return tuple(range(self.n_dims))
        attrs = tuple(int(a) for a in attributes)
        if not attrs:
            raise ParameterError("attributes must not be empty")
        if min(attrs) < 0 or max(attrs) >= self.n_dims:
            raise DataError(
                f"attributes {attrs} out of range for {self.n_dims}-dimensional data"
            )
        return attrs

    def _bands(
        self, attrs: Tuple[int, ...], own: float, out: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, rows)``: distances of rows ``[start, stop)`` to every object.

        The rows are walked in cache-sized bands (:func:`row_chunks`, a row
        of ``n`` float64 cells counting its bytes).  In each band every
        attribute's term ``(x_i - x_j)^2`` is computed from a contiguous copy
        of its column, made once per call, and added left to right in
        ``attrs`` order: the floats of :func:`squared_difference_block`
        summed as ``pairwise_distances`` sums them.  The band is then
        square-rooted and each row's distance to itself set to ``own``.
        Bands are views of ``out`` when given; otherwise one band buffer is
        reused, so a consumer must finish with a band before advancing.
        """
        n = self.n_objects
        columns = np.ascontiguousarray(self._data[:, list(attrs)].T)
        bands = row_chunks(n, 8 * n)
        height = bands[0][1] - bands[0][0]
        scratch = np.empty((height, n))
        reused = np.empty((height, n)) if out is None else None
        for start, stop in bands:
            band = reused[: stop - start] if out is None else out[start:stop]
            term = scratch[: stop - start]
            for position, column in enumerate(columns):
                target = term if position else band
                np.subtract(column[start:stop, None], column, out=target)
                np.multiply(target, target, out=target)
                if position:
                    np.add(band, term, out=band)
            np.sqrt(band, out=band)
            rows = np.arange(start, stop)
            band[rows - start, rows] = own
            yield start, stop, band

    # ------------------------------------------------------------ queries

    def distance_matrix(self, attributes: Optional[Iterable[int]] = None) -> np.ndarray:
        """Subspace distance matrix, bit-for-bit equal to ``pairwise_distances``.

        Returns a fresh array the caller may mutate.
        """
        distances = np.empty((self.n_objects, self.n_objects))
        for _ in self._bands(self._attributes(attributes), 0.0, out=distances):
            pass
        return distances

    def iter_distance_rows(self, attributes: Optional[Iterable[int]] = None):
        """Yield ``(start, stop, rows)`` full-width distance bands in order.

        ``rows`` has shape ``(stop - start, n_objects)`` and holds exactly the
        floats of ``distance_matrix(attributes)[start:stop]``, including the
        exact ``0.0`` diagonal — but only one cache-sized band
        (:func:`row_chunks`) is alive at a time.  The yielded band is reused
        internally: consumers must finish with (or copy) a band before
        advancing the iterator.
        """
        return self._bands(self._attributes(attributes), 0.0)

    def kneighbors(
        self,
        k: int,
        attributes: Optional[Iterable[int]] = None,
        *,
        exclude_self: bool = True,
    ) -> KNNResult:
        """k nearest neighbours of every object in the given subspace.

        Identical (indices and distances) to
        ``BruteForceKNN(data, attributes).kneighbors(k, exclude_self=...)``.
        Up to :data:`_DENSE_MAX_ROWS` rows, each distance band is reduced to
        its rows' top-k as soon as it is assembled; past it, the pruned
        search (:func:`_pruned_kneighbors`) answers.
        """
        k = check_positive_int(k, name="k")
        attrs = self._attributes(attributes)
        n = self.n_objects
        max_k = n - 1 if exclude_self else n
        if k > max_k:
            raise ParameterError(
                f"k={k} is too large for {n} objects (max {max_k} with exclude_self={exclude_self})"
            )
        if n > _DENSE_MAX_ROWS:
            indices, distances = _pruned_kneighbors(
                self._data[:, list(attrs)], k, exclude_self
            )
            return KNNResult(indices=indices, distances=distances)
        indices = np.empty((n, k), dtype=np.intp)
        distances = np.empty((n, k))
        own = np.inf if exclude_self else 0.0
        for start, stop, rows in self._bands(attrs, own):
            indices[start:stop], distances[start:stop] = top_k_smallest(rows, k)
        return KNNResult(indices=indices, distances=distances)

    def query_squared_distances(
        self, queries: np.ndarray, attributes: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Asymmetric squared distances of query points to every reference object.

        Shape ``(n_queries, n_objects)``.  Blocks are accumulated in the same
        attribute order as the symmetric case, so each row is bit-for-bit what
        the row of a combined ``[reference; queries]`` matrix would hold.
        """
        attrs = self._attributes(attributes)
        queries = check_data_matrix(queries, name="queries", min_objects=1)
        if queries.shape[1] != self.n_dims:
            raise DataError(
                f"queries have {queries.shape[1]} dimensions, expected {self.n_dims}"
            )
        squared = np.zeros((queries.shape[0], self.n_objects))
        for attribute in attrs:
            squared += squared_difference_block(
                queries[:, attribute], self._data[:, attribute]
            )
        return squared

    def query_distances(
        self, queries: np.ndarray, attributes: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Asymmetric distances (see :meth:`query_squared_distances`)."""
        return np.sqrt(self.query_squared_distances(queries, attributes))

    def query_kneighbors(
        self,
        queries: np.ndarray,
        k: int,
        attributes: Optional[Iterable[int]] = None,
    ) -> KNNResult:
        """k nearest *reference* objects of each query point (asymmetric mode).

        Queries are never their own neighbours by construction; ties are
        broken on the reference index as everywhere else.
        """
        k = check_positive_int(k, name="k")
        if k > self.n_objects:
            raise ParameterError(
                f"k={k} is too large for {self.n_objects} reference objects"
            )
        distances = self.query_distances(queries, attributes)
        indices, values = top_k_smallest(distances, k)
        return KNNResult(indices=indices, distances=values)


class SharedEngineKNN(NearestNeighborSearcher):
    """:class:`NearestNeighborSearcher` adapter over a :class:`SharedNeighborEngine`.

    What ``create_knn_searcher(..., algorithm="auto")`` returns for data
    taller than :data:`_DENSE_MAX_ROWS`, so a scorer without an engine of
    its own still gets the pruned search.  The adapter always builds its
    engine over ``data``.
    """

    def __init__(self, data: np.ndarray, attributes: Optional[Sequence[int]] = None):
        self.engine = SharedNeighborEngine(data)
        self._attributes = None if attributes is None else tuple(int(a) for a in attributes)
        # Fail fast on bad attribute selections, like the other backends.
        self.engine._attributes(self._attributes)

    @property
    def n_objects(self) -> int:
        return self.engine.n_objects

    def kneighbors(self, k: int, *, exclude_self: bool = True) -> KNNResult:
        return self.engine.kneighbors(k, self._attributes, exclude_self=exclude_self)
