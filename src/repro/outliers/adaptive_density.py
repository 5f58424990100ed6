"""OUTRES-style adaptive kernel-density outlier scoring (Müller et al., CIKM 2010).

The paper's conclusion names OUTRES as a second promising instantiation of the
outlier-ranking step: instead of LOF's reachability construction it scores
objects by an *adaptive density* in the (subspace-projected) neighbourhood.
This module implements the core of that idea:

* the local density of an object is estimated with an Epanechnikov kernel over
  a dimensionality-adaptive bandwidth ``h(d)`` (wider for higher-dimensional
  projections, countering the loss of neighbours),
* the object's density is compared to the densities of its local
  neighbourhood,
* the outlier score is the ratio of the neighbourhood's mean density to the
  object's own density, so objects in locally sparse regions receive large
  scores.

The full OUTRES algorithm couples this scoring with its own subspace
processing; here the scoring half is exposed as an :class:`OutlierScorer` so
that HiCS can drive it through the decoupled pipeline — exactly the combination
the paper proposes as future work.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ParameterError
from ..neighbors.distance import pairwise_distances
from ..neighbors.engine import SharedNeighborEngine
from ..neighbors.topk import top_k_smallest
from ..types import Subspace
from ..utils.validation import check_data_matrix, check_positive_int
from .base import OutlierScorer

__all__ = ["AdaptiveDensityScorer", "adaptive_kernel_density"]


def _adaptive_bandwidth(n_objects: int, n_dims: int, scale: float) -> float:
    """Dimensionality-adaptive bandwidth.

    Follows the OUTRES recipe of growing the bandwidth with the projection
    dimensionality (a Scott-style ``n^(-1/(d+4))`` factor times ``sqrt(d)``),
    so that higher-dimensional projections keep a comparable expected number
    of kernel neighbours.
    """
    return float(scale * np.sqrt(n_dims) * n_objects ** (-1.0 / (n_dims + 4)))


def _density_from_distances(
    distances: np.ndarray, n_dims: int, bandwidth_scale: float
) -> np.ndarray:
    """Epanechnikov kernel densities from a (zero-diagonal) distance matrix.

    Used by the per-subspace reference path and independent scoring; the
    engine-backed batch path computes the same floats band by band.
    """
    n = distances.shape[0]
    bandwidth = _adaptive_bandwidth(n, n_dims, bandwidth_scale)
    scaled = distances / bandwidth
    kernel = np.maximum(0.0, 1.0 - scaled**2)
    np.fill_diagonal(kernel, 0.0)
    return kernel.sum(axis=1) / (n - 1)


def adaptive_kernel_density(
    data: np.ndarray,
    subspace: Optional[Subspace] = None,
    *,
    bandwidth_scale: float = 0.5,
) -> np.ndarray:
    """Epanechnikov kernel density of every object with an adaptive bandwidth.

    Parameters
    ----------
    data:
        Matrix of shape ``(n_objects, n_dims)``.
    subspace:
        Optional projection; densities are computed in the projected space.
    bandwidth_scale:
        Multiplier on the adaptive bandwidth; larger values smooth more.

    Returns
    -------
    numpy.ndarray
        Per-object density estimates (not normalised to integrate to one — only
        relative magnitudes matter for outlier ranking).
    """
    data = check_data_matrix(data, name="data", min_objects=2)
    if bandwidth_scale <= 0:
        raise ParameterError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
    attributes = None
    if subspace is not None:
        subspace.validate_against_dimensionality(data.shape[1])
        attributes = subspace.attributes
    distances = pairwise_distances(data, attributes=attributes)
    d = len(attributes) if attributes else data.shape[1]
    return _density_from_distances(distances, d, bandwidth_scale)


class AdaptiveDensityScorer(OutlierScorer):
    """Outlier scorer based on adaptive-density deviation from the neighbourhood.

    The score of object ``o`` is the ratio ``mu_N(o) / dens(o)`` where
    ``mu_N(o)`` is the mean adaptive kernel density of the ``n_neighbors``
    nearest objects of ``o`` (in the projected space) and ``dens(o)`` is the
    object's own density.  Clustered objects score near 1, objects whose
    density falls below that of their local neighbourhood score high — the
    same "low density compared to the local neighbourhood" assumption LOF
    relies on, evaluated on the OUTRES-style adaptive kernel densities instead
    of reachability distances.
    """

    name = "OUTRES-density"

    def __init__(self, n_neighbors: int = 20, *, bandwidth_scale: float = 0.5):
        self.n_neighbors = check_positive_int(n_neighbors, name="n_neighbors")
        if bandwidth_scale <= 0:
            raise ParameterError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
        self.bandwidth_scale = float(bandwidth_scale)

    def score(self, data: np.ndarray, subspace: Optional[Subspace] = None) -> np.ndarray:
        data = check_data_matrix(data, name="data", min_objects=3)
        attributes = None
        if subspace is not None:
            subspace.validate_against_dimensionality(data.shape[1])
            attributes = subspace.attributes

        densities = adaptive_kernel_density(
            data, subspace, bandwidth_scale=self.bandwidth_scale
        )
        distances = pairwise_distances(data, attributes=attributes)
        np.fill_diagonal(distances, np.inf)
        k = min(self.n_neighbors, data.shape[0] - 1)
        neighbours = np.argsort(distances, axis=1, kind="stable")[:, :k]

        neighbour_densities = densities[neighbours]
        mu = neighbour_densities.mean(axis=1)
        # Floor the own density to a small fraction of the global mean density
        # so that isolated objects (kernel density 0) receive a large but
        # finite score instead of a division by zero.
        floor = max(float(densities.mean()) * 1e-6, np.finfo(float).tiny)
        ratio = mu / np.maximum(densities, floor)
        return np.maximum(0.0, ratio)

    def score_batch(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[SharedNeighborEngine] = None,
    ) -> List[np.ndarray]:
        """Engine-backed batch scoring: one pass over distance bands per subspace.

        The reference :meth:`score` computes the pairwise matrix twice per
        subspace (once for the densities, once for the neighbourhoods) and
        full-sorts every row.  Here one pass over
        :meth:`~repro.neighbors.engine.SharedNeighborEngine.iter_distance_rows`
        computes both the kernel-density row sums and the per-row top-k, so
        no ``n x n`` matrix is alive, only one band of rows at a time.
        The scores are identical: the kernel is elementwise, the density is a
        per-row sum over the same full-width floats, and the band-local top-k
        sees complete rows.
        """
        if engine is None:
            return super().score_batch(data, subspaces, engine=engine)
        data = check_data_matrix(data, name="data", min_objects=3)
        self._check_engine(engine, data)
        n = data.shape[0]
        k = min(self.n_neighbors, n - 1)
        scores = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            n_dims = len(attributes) if attributes else data.shape[1]
            bandwidth = _adaptive_bandwidth(n, n_dims, self.bandwidth_scale)
            densities = np.empty(n)
            neighbours = np.empty((n, k), dtype=np.intp)
            for start, stop, rows in engine.iter_distance_rows(attributes):
                band = np.arange(start, stop)
                scaled = rows / bandwidth
                kernel = np.maximum(0.0, 1.0 - scaled**2)
                kernel[band - start, band] = 0.0
                densities[start:stop] = kernel.sum(axis=1) / (n - 1)
                rows[band - start, band] = np.inf
                neighbours[start:stop] = top_k_smallest(rows, k)[0]
            mu = densities[neighbours].mean(axis=1)
            floor = max(float(densities.mean()) * 1e-6, np.finfo(float).tiny)
            scores.append(np.maximum(0.0, mu / np.maximum(densities, floor)))
        return scores

    def score_samples_independent(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Independent scoring on per-query combined matrices assembled once.

        The reference-to-reference distance matrix of each subspace is
        assembled a single time by the shared engine; every query only adds
        its own asymmetric distance row, instead of recomputing the full
        ``(n+1) x (n+1)`` matrix (twice) and full-sorting all rows per object.
        """
        data = self._check_reference(data)
        mode = self._resolve_engine_mode(engine)
        if mode != "shared":
            return super().score_samples_independent(data, subspaces, engine=engine)
        shared = self._shared_reference_engine()
        n = self.reference_data_.shape[0]
        n_queries = data.shape[0]
        k = min(self.n_neighbors, n)  # the combined dataset has n + 1 objects
        results = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            reference_matrix = shared.distance_matrix(attributes)
            query_rows = shared.query_distances(data, attributes)
            query_neighbours = top_k_smallest(query_rows, k)[0]
            n_dims = len(attributes) if attributes else data.shape[1]
            combined = np.empty((n + 1, n + 1))
            combined[:n, :n] = reference_matrix
            scores = np.empty(n_queries)
            for qi in range(n_queries):
                combined[:n, n] = query_rows[qi]
                combined[n, :n] = query_rows[qi]
                combined[n, n] = 0.0
                densities = _density_from_distances(
                    combined, n_dims, self.bandwidth_scale
                )
                neighbours = query_neighbours[qi]
                mu = densities[neighbours].mean()
                floor = max(float(densities.mean()) * 1e-6, np.finfo(float).tiny)
                scores[qi] = max(0.0, mu / max(densities[n], floor))
            results.append(scores)
        return results
