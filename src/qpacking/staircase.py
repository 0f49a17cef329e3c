"""Lattice windows of sectors.

``lattice_window`` lists the sector's lattice points with x <= x_max, column by
column.  Every lattice point of the sector of slope n/m lies on exactly one line
of slope n/(m-1) (vertical for m = 1, anti-diagonal for the first quadrant):
the i-th staircase, whose arithmetic (its step spacing and its lowest step) is
the record ``geometry.Staircases`` that ``classify.sector_arithmetic`` builds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .geometry import SectorSpec


def column_heights(s: SectorSpec, x_max: int) -> Iterator[int]:
    """The number of window points in each column x = 0..x_max, lazily: n x // m + 1, or x_max + 1 for the quadrant.

    The heights are exact Python ints.
    """
    for x in range(x_max + 1):
        yield x_max + 1 if s.m == 0 else s.n * x // s.m + 1


def lattice_window(s: SectorSpec, x_max: int) -> np.ndarray:
    """All lattice points of the sector with x <= x_max (>= 0): an (N, 2) int64 array of rows (x, y), lexicographic.

    For the first quadrant the window is the box 0 <= x, y <= x_max, so that
    enumeration stays finite.  Column x holds ``column_heights`` points.  The
    array is a view of one C-contiguous (2, N) block, the x row over the y row,
    so its ``.T`` gives both rows without a copy.
    """
    heights = np.fromiter(column_heights(s, x_max), dtype=np.int64, count=x_max + 1)
    ends = np.cumsum(heights)
    # each row is the running sum of its steps from point to point, summed in place: x steps
    # by 1 into a new column, and y by 1 up a column and down to 0 into the next one
    block = np.zeros((2, int(ends[-1])), dtype=np.int64)
    block[1, 1:] = 1
    block[0, ends[:-1]] = 1
    block[1, ends[:-1]] -= heights[:-1]
    np.cumsum(block, axis=1, out=block)
    return block.T
