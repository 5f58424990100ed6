"""Per-attribute sorted index structures.

``SortedDatabaseIndex`` holds, for every attribute of a data matrix, the
permutation that sorts the objects by that attribute.  Selecting a contiguous
block ``order[start:start + block]`` of that permutation yields the set of
objects whose attribute value lies in a data-adaptive interval containing an
exact number of objects — the building block of the HiCS subspace slices.

The slice sampler reads the inverse of each permutation, a per-attribute
*rank column* (:meth:`SortedDatabaseIndex.rank_column`): an object lies in
the block exactly when ``start <= rank < start + block``.  Rank columns are
the index's one rank layout, in memory and out of core alike, stored as
``int32`` (an index holds at most ``2**31 - 1`` rows); worker processes
rebuild an index from published columns without sorting or copying them
(:meth:`SortedDatabaseIndex.from_rank_columns`).

The attribute values are held once, as one read-only, C-contiguous
``(d, n)`` matrix (:attr:`SortedDatabaseIndex.columns`): every
:attr:`AttributeIndex.values` is a row of it, and the contrast search
gathers its conditional samples from it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..dataset.memmap import (
    ScratchDirectory,
    StorageSpec,
    check_storage_spec,
    open_memmap_readonly,
)
from ..exceptions import DataError, ParameterError, SubspaceError
from ..utils.validation import check_data_matrix

__all__ = ["AttributeIndex", "SortedDatabaseIndex", "chunked_argsort"]

#: Rank columns are ``int32``, so an index holds at most this many rows.
_MAX_ROWS = int(np.iinfo(np.int32).max)


def _stable_merge(left: np.ndarray, right: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Merge two stable sorted runs of object indices into one.

    ``left`` and ``right`` are index arrays sorted by ``values`` with every
    index in ``left`` smaller than every index in ``right`` (they cover
    adjacent row ranges).  ``searchsorted`` with ``side="left"`` for the left
    run and ``side="right"`` for the right run places equal values
    left-run-first — exactly the tie order of a global stable mergesort.
    """
    left_values = values[left]
    right_values = values[right]
    out = np.empty(left.size + right.size, dtype=np.intp)
    pos_left = np.arange(left.size, dtype=np.intp) + np.searchsorted(
        right_values, left_values, side="left"
    )
    pos_right = np.arange(right.size, dtype=np.intp) + np.searchsorted(
        left_values, right_values, side="right"
    )
    out[pos_left] = left
    out[pos_right] = right
    return out


def chunked_argsort(values: np.ndarray, chunk_rows: int) -> np.ndarray:
    """Stable argsort built from bounded row chunks (argsort-merge).

    Each ``chunk_rows`` block is argsorted independently (stable mergesort),
    then adjacent runs are merged pairwise with :func:`_stable_merge`.  The
    result is bit-for-bit identical to ``np.argsort(values,
    kind="mergesort")`` — the chunking only bounds how much of a memmapped
    column is materialised per step, it never changes the permutation.
    """
    if chunk_rows < 2:
        raise ParameterError(f"chunk_rows must be >= 2, got {chunk_rows}")
    n = values.shape[0]
    if n <= chunk_rows:
        return np.argsort(np.asarray(values), kind="mergesort")
    runs = []
    for start in range(0, n, chunk_rows):
        block = np.ascontiguousarray(values[start : start + chunk_rows])
        runs.append(np.argsort(block, kind="mergesort") + start)
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs) - 1, 2):
            merged.append(_stable_merge(runs[i], runs[i + 1], values))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def _invert_rank_column(column: np.ndarray, n: int, attribute: int) -> np.ndarray:
    """Recover a sorting permutation from one rank column in O(n).

    Scatters into a -1-filled array: a column that is not a permutation
    (duplicate ranks) leaves unwritten slots behind, which must fail loudly
    instead of indexing uninitialised memory.
    """
    order = np.full(n, -1, dtype=np.intp)
    order[column] = np.arange(n, dtype=np.intp)
    if n and order.min() < 0:
        raise ParameterError(
            f"rank column {attribute} is not a permutation of 0..{n - 1}"
        )
    return order


class AttributeIndex:
    """Sorted index of a single attribute.

    Parameters
    ----------
    values:
        One-dimensional array of the attribute values of all objects; a
        contiguous ``float64`` array (such as a row of
        :attr:`SortedDatabaseIndex.columns`) is kept as it is, not copied.
    attribute:
        Attribute (column) number, kept for error messages and provenance.
    order:
        Optional precomputed sorting permutation (object indices in ascending
        value order).  Worker processes rebuilding an index from published
        rank columns pass it to skip the argsort; it must equal the stable
        mergesort order this class would compute itself.
    """

    def __init__(self, values: np.ndarray, attribute: int = 0, *, order: np.ndarray = None):
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ParameterError("cannot index an empty attribute")
        self.attribute = int(attribute)
        self._values = values
        if order is None:
            # mergesort => deterministic, stable ordering for tied values.
            order = np.argsort(values, kind="mergesort")
        elif order.shape != values.shape:
            raise ParameterError(
                f"order has shape {order.shape}, expected {values.shape}"
            )
        self._order = order
        self._sorted_values = values[self._order]

    @property
    def n_objects(self) -> int:
        return self._values.shape[0]

    @property
    def order(self) -> np.ndarray:
        """Object indices sorted by ascending attribute value."""
        return self._order

    @property
    def values(self) -> np.ndarray:
        """The attribute values in original (object index) order."""
        return self._values

    @property
    def sorted_values(self) -> np.ndarray:
        """The attribute values in ascending order."""
        return self._sorted_values


class SortedDatabaseIndex:
    """Sorted indices for every attribute of a data matrix.

    The index is immutable once built and can be shared between the contrast
    estimations of all candidate subspaces, which is exactly how the paper
    amortises the pre-processing cost.

    Parameters
    ----------
    data:
        Data matrix; canonicalised through :func:`check_data_matrix` (a
        memmap already in canonical layout passes through zero-copy).
    storage:
        ``None`` (default) keeps everything resident.  A memmap
        :class:`~repro.dataset.memmap.StorageSpec` (or its spec string)
        switches to the **out-of-core mode**: sorting permutations are built
        by chunked argsort-merge in ``chunk_rows`` blocks, every rank column
        is spilled to a per-index :class:`ScratchDirectory` as a memmapped
        ``.npy`` file, so only the columns being read are resident.  Call
        :meth:`close` (out-of-core only) to remove the scratch files.
        Bit-for-bit: every rank served in either mode is identical.  The
        value matrix :attr:`columns` is resident in both modes.

    Raises
    ------
    DataError
        If ``data`` has more than ``2**31 - 1`` rows (ranks are ``int32``).
    """

    def __init__(self, data: np.ndarray, *, storage=None):
        self._data = check_data_matrix(data, name="data")
        if self._data.shape[0] > _MAX_ROWS:
            raise DataError(
                f"the sorted index stores int32 ranks and holds at most {_MAX_ROWS} "
                f"rows, got {self._data.shape[0]}"
            )
        self._storage: Optional[StorageSpec] = check_storage_spec(storage)
        self._scratch: Optional[ScratchDirectory] = (
            ScratchDirectory(self._storage.scratch_dir)
            if self._storage is not None
            else None
        )
        # One contiguous row per attribute: the values every attribute index
        # serves and the source the contrast search gathers samples from.
        columns = np.ascontiguousarray(self._data.T)
        columns.setflags(write=False)
        self._columns = columns
        self._indices: Dict[int, AttributeIndex] = {}
        self._rank_columns: Dict[int, np.ndarray] = {}

    @property
    def out_of_core(self) -> bool:
        """True when rank columns are built chunked and spilled to scratch."""
        return self._storage is not None

    @property
    def storage(self) -> Optional[StorageSpec]:
        return self._storage

    def close(self) -> None:
        """Release the scratch directory of an out-of-core index (idempotent).

        After closing, spilled rank columns are gone — the index must not be
        used for further slicing.  In-memory indices are unaffected.
        """
        if self._scratch is not None:
            self._rank_columns.clear()
            self._scratch.close()

    def __enter__(self) -> SortedDatabaseIndex:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def columns(self) -> np.ndarray:
        """The data as a read-only, C-contiguous ``(n_dims, n_objects)`` matrix.

        Row ``a`` holds attribute ``a`` in object order; it is the array
        :attr:`AttributeIndex.values` and :meth:`values` serve (row views, no
        copies).  Built once with the index, in memory for an out-of-core
        index too.
        """
        return self._columns

    @property
    def n_objects(self) -> int:
        return self._data.shape[0]

    @property
    def n_dims(self) -> int:
        return self._data.shape[1]

    def attribute_index(self, attribute: int) -> AttributeIndex:
        """Return (building lazily) the sorted index of one attribute."""
        attribute = int(attribute)
        if attribute < 0 or attribute >= self.n_dims:
            raise SubspaceError(
                f"attribute {attribute} out of range for {self.n_dims}-dimensional data"
            )
        if attribute not in self._indices:
            values = self._columns[attribute]
            if self._storage is not None:
                order = chunked_argsort(values, self._storage.chunk_rows)
                self._indices[attribute] = AttributeIndex(values, attribute, order=order)
            else:
                self._indices[attribute] = AttributeIndex(values, attribute)
        return self._indices[attribute]

    def build_all(self) -> SortedDatabaseIndex:
        """Eagerly build the index of every attribute; returns ``self``."""
        for attribute in range(self.n_dims):
            self.attribute_index(attribute)
        return self

    @classmethod
    def from_rank_columns(
        cls, data: np.ndarray, columns: Dict[int, np.ndarray]
    ) -> SortedDatabaseIndex:
        """Rebuild a fully-built index from per-attribute rank columns.

        The sorting permutations are recovered by inverting each rank column
        in O(n) instead of re-running the O(n log n) argsorts, so a worker
        process attaching to a publication of ``data`` and the columns
        (shared memory, or the memmapped scratch files of an out-of-core
        index) reconstructs the parent's index bit for bit without sorting
        anything.  ``columns`` must map *every* attribute to the column the
        parent's :meth:`rank_column` produced for the same ``data``.  An
        ``int32`` column is kept as it is (a read-only view, never a copy);
        other integer columns are converted to ``int32``.
        """
        index = cls(data)
        n, d = index._data.shape
        if sorted(columns) != list(range(d)):
            raise ParameterError(
                f"rank columns must cover attributes 0..{d - 1}, got "
                f"{sorted(columns)}"
            )
        for attribute in range(d):
            column = np.asarray(columns[attribute])
            if column.shape != (n,):
                raise ParameterError(
                    f"rank column {attribute} has shape {column.shape}, "
                    f"expected ({n},)"
                )
            if column.dtype.kind not in "iu":
                raise ParameterError(
                    f"rank column {attribute} must hold integers, got {column.dtype}"
                )
            if column.size and (column.min() < 0 or column.max() >= n):
                raise ParameterError(
                    f"rank column {attribute} entries must lie in [0, {n})"
                )
            order = _invert_rank_column(column, n, attribute)
            index._indices[attribute] = AttributeIndex(
                index._columns[attribute], attribute, order=order
            )
            column = column.astype(np.int32, copy=False)
            if column.flags.writeable:
                column = column.view()
                column.setflags(write=False)
            index._rank_columns[attribute] = column
        return index

    def rank_column(self, attribute: int) -> np.ndarray:
        """Rank of every object under one attribute, built lazily (read-only).

        ``rank_column(a)[i]`` is the position of object ``i`` in the sorted
        order of attribute ``a`` (``order[rank_column(a)[i]] == i``), so the
        ``int32`` column is a permutation of ``0..n_objects-1`` and an index block
        ``[start, stop)`` selects exactly the objects with ``start <= rank <
        stop``.  Ties inherit the stable (mergesort) ordering of
        :class:`AttributeIndex`.  Only the requested attribute is argsorted
        and only its ``(n_objects,)`` column is allocated, so sparse attribute
        access over a wide or very tall matrix stays linear in the attributes
        actually touched.
        """
        attribute = int(attribute)
        if attribute < 0 or attribute >= self.n_dims:
            raise SubspaceError(
                f"attribute {attribute} out of range for {self.n_dims}-dimensional data"
            )
        if attribute not in self._rank_columns:
            column = np.empty(self.n_objects, dtype=np.int32)
            column[self.attribute_index(attribute).order] = np.arange(
                self.n_objects, dtype=np.int32
            )
            if self._scratch is not None:
                # Spill to scratch and serve a read-only memmap view: the
                # shared plane can then publish the column by path and the
                # resident footprint stays one column, not d of them.
                column = self._spill_column(attribute, column)
            else:
                column.setflags(write=False)
            self._rank_columns[attribute] = column
        return self._rank_columns[attribute]

    def _spill_column(self, attribute: int, column: np.ndarray) -> np.memmap:
        """Write one rank column to the scratch directory; reopen read-only."""
        from ..dataset.memmap import _atomic_save

        path = self._scratch.file(f"rank_{attribute:05d}.npy")
        _atomic_save(path, column)
        return open_memmap_readonly(path)

    def ranks(self, attribute: int) -> np.ndarray:
        """Sorted-order rank of every object under one attribute (read-only)."""
        return self.rank_column(attribute)

    def values(self, attribute: int) -> np.ndarray:
        """Raw (unsorted) values of an attribute: a row of :attr:`columns`."""
        if attribute < 0 or attribute >= self.n_dims:
            raise SubspaceError(
                f"attribute {attribute} out of range for {self.n_dims}-dimensional data"
            )
        return self._columns[attribute]

    def __contains__(self, attribute: int) -> bool:
        return 0 <= int(attribute) < self.n_dims
