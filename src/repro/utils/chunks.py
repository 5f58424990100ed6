"""Row chunks under one cell budget.

The contrast search streams every ``(rows, n)`` matrix it builds or reduces —
slice masks, the gather of conditional samples, the sample moments and the
KS cumulative counts — in chunks of whole rows whose cells fit in cache, so a
search over tall data never holds a temporary the size of a whole group.
All of those stages share :data:`_CHUNK_CELLS`, counted in one-byte mask
cells: a stage that reduces wider items (the float64 moments) passes a row's
bytes, so its chunk and its temporaries stay as small as a mask chunk.  Each
row is computed on its own, so the chunking never changes a result.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["row_chunks"]

#: Cell budget of one row chunk; a chunk always holds at least one row.  At
#: n=1000 one chunk holds every slice of a subspace, at n=150,000 one slice.
_CHUNK_CELLS = 1 << 18


def row_chunks(n_rows: int, row_cells: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` bounds of consecutive chunks of rows of ``row_cells`` cells.

    Each chunk holds as many rows as fit in :data:`_CHUNK_CELLS`, and at least
    one.  A row of wider items counts its bytes.
    """
    step = max(1, _CHUNK_CELLS // max(1, row_cells))
    return [(lo, min(n_rows, lo + step)) for lo in range(0, n_rows, step)]
