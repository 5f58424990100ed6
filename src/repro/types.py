"""Core value types shared across the :mod:`repro` library.

The library keeps algorithm state out of these objects: they are immutable
(or effectively immutable) records that travel between the subspace-search
step and the outlier-ranking step, mirroring the decoupled two-step
processing the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .exceptions import SubspaceError

__all__ = [
    "Subspace",
    "ScoredSubspace",
    "best_first",
    "ContrastResult",
    "RankingResult",
]


@dataclass(frozen=True, order=True)
class Subspace:
    """An axis-parallel subspace projection: a sorted tuple of attribute indices.

    The paper denotes a subspace as ``S = {s1, ..., sd} ⊆ A`` where ``A`` is the
    set of all attributes.  Instances are hashable and ordered, so they can be
    used as dictionary keys and sorted deterministically.

    Parameters
    ----------
    attributes:
        The attribute indices.  They are normalised to a sorted tuple of unique
        non-negative integers.
    """

    attributes: Tuple[int, ...]

    def __init__(self, attributes: Iterable[int]) -> None:
        attrs = tuple(sorted({int(a) for a in attributes}))
        if len(attrs) == 0:
            raise SubspaceError("a subspace must contain at least one attribute")
        if any(a < 0 for a in attrs):
            raise SubspaceError(f"attribute indices must be non-negative, got {attrs}")
        object.__setattr__(self, "attributes", attrs)

    @property
    def dimensionality(self) -> int:
        """Number of attributes in the subspace (``d`` in the paper)."""
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.attributes)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self.attributes

    def union(self, other: Subspace) -> Subspace:
        """Return the subspace spanned by the attributes of both subspaces."""
        return Subspace(self.attributes + other.attributes)

    def without(self, attribute: int) -> Subspace:
        """Return a copy of this subspace with ``attribute`` removed."""
        if attribute not in self.attributes:
            raise SubspaceError(f"attribute {attribute} not in subspace {self.attributes}")
        remaining = tuple(a for a in self.attributes if a != attribute)
        if not remaining:
            raise SubspaceError("removing the attribute would leave an empty subspace")
        return Subspace(remaining)

    def is_subset_of(self, other: Subspace) -> bool:
        """True if every attribute of this subspace is contained in ``other``."""
        return set(self.attributes).issubset(other.attributes)

    def is_superset_of(self, other: Subspace) -> bool:
        """True if this subspace contains every attribute of ``other``."""
        return set(self.attributes).issuperset(other.attributes)

    def validate_against_dimensionality(self, n_dims: int) -> None:
        """Raise :class:`SubspaceError` if any attribute exceeds ``n_dims - 1``."""
        if self.attributes[-1] >= n_dims:
            raise SubspaceError(
                f"subspace {self.attributes} references attribute "
                f"{self.attributes[-1]} but the data has only {n_dims} dimensions"
            )

    def as_array(self) -> np.ndarray:
        """Return the attribute indices as an integer NumPy array."""
        return np.asarray(self.attributes, dtype=np.intp)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Subspace({list(self.attributes)})"


@dataclass(frozen=True)
class ScoredSubspace:
    """A subspace together with the contrast (or other quality) it was assigned."""

    subspace: Subspace
    score: float

    @property
    def dimensionality(self) -> int:
        return self.subspace.dimensionality

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ScoredSubspace({list(self.subspace.attributes)}, score={self.score:.4f})"


def best_first(item: ScoredSubspace) -> Tuple[bool, float, Tuple[int, ...]]:
    """Sort key of scored subspaces: highest score first, NaN scores last.

    Ties are broken by the attribute tuple.  ``(-score, attributes)`` alone
    is no total order once a score is NaN, and would leave the order of the
    whole list arbitrary.
    """
    unscored = bool(np.isnan(item.score))
    return unscored, 0.0 if unscored else -item.score, item.subspace.attributes


@dataclass(frozen=True)
class ContrastResult:
    """Detailed result of a Monte Carlo contrast estimation for one subspace.

    Attributes
    ----------
    subspace:
        The evaluated subspace.
    contrast:
        The averaged deviation over all *valid* Monte Carlo iterations
        (Definition 5).  Iterations whose slice stayed degenerate after all
        retries are excluded from the mean rather than contributing a fake
        deviation of zero; when every iteration is degenerate the contrast
        is 0.0 by convention.
    deviations:
        The individual deviation values of the valid iterations.
    n_iterations:
        Number of Monte Carlo iterations requested (``M``).
    n_degenerate:
        Number of iterations excluded because their conditional sample stayed
        below the minimum size even after all slice redraws
        (``len(deviations) == n_iterations - n_degenerate``).
    subsample:
        ``None`` for a full-database estimate.  For a subsampled estimate,
        the ``(subsample_size, child_entropy)`` pair that reproduces it: the
        reference rows were drawn deterministically from the estimator's
        root entropy and the subspace's attributes, and ``child_entropy``
        seeded the Monte Carlo iterations over the subsample.  Recording the
        pair keeps cached and parallel subsampled runs replayable.
    """

    subspace: Subspace
    contrast: float
    deviations: Tuple[float, ...]
    n_iterations: int
    n_degenerate: int = 0
    subsample: Optional[Tuple[int, int]] = None

    @property
    def std(self) -> float:
        """Standard deviation of the per-iteration deviations."""
        if not self.deviations:
            return 0.0
        return float(np.std(np.asarray(self.deviations)))


class RankingResult:
    """The output of an outlier ranking: per-object scores plus provenance.

    Parameters
    ----------
    scores:
        Array of shape ``(n_objects,)``; larger means more outlying.
    subspaces:
        The subspaces in which the scores were computed (may be empty for
        full-space methods).
    method:
        Human-readable name of the producing method.
    metadata:
        Free-form dictionary of run information (runtimes, parameters, ...).
    """

    def __init__(
        self,
        scores: np.ndarray,
        subspaces: Sequence[Subspace] = (),
        method: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError("scores must be a one-dimensional array")
        self._scores = scores
        self._subspaces = tuple(subspaces)
        self.method = method
        self.metadata: Dict[str, object] = dict(metadata or {})

    @property
    def scores(self) -> np.ndarray:
        """Outlier scores; higher means more outlying."""
        return self._scores

    @property
    def subspaces(self) -> Tuple[Subspace, ...]:
        """The subspaces that contributed to the ranking."""
        return self._subspaces

    @property
    def n_objects(self) -> int:
        return self._scores.shape[0]

    def ranking(self) -> np.ndarray:
        """Return object indices sorted from most to least outlying."""
        return np.argsort(-self._scores, kind="stable")

    def top(self, n: int) -> np.ndarray:
        """Return the indices of the ``n`` most outlying objects."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.ranking()[:n]

    def __len__(self) -> int:
        return self.n_objects

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RankingResult(method={self.method!r}, n_objects={self.n_objects}, "
            f"n_subspaces={len(self._subspaces)})"
        )
