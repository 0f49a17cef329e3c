"""Lattice windows of sectors, and the lowest steps of their staircases.

``lattice_window`` lists the sector's lattice points with x <= x_max.  Every
lattice point of the sector of slope n/m lies on exactly one line of slope
n/(m-1) (vertical for m = 1, anti-diagonal for the first quadrant).  With
l = gcd(m-1, n), the i-th such line carries the i-th staircase: the points
with (m-1) y = n x - l i, spaced ((m-1)/l, n/l) apart.  The skew
(x, y) -> (x - ((m-1)/n) y, y) straightens staircase i to the vertical line
x = i/(n/l), where its steps are the y with ((m-1)/l) y = -i (mod n/l);
``first_step_y`` gives the lowest of them.
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
    """All lattice points of the sector with x <= x_max: an (N, 2) int64 array of rows (x, y), lexicographic.

    For the first quadrant the window is the box 0 <= x, y <= x_max, so that
    enumeration stays finite.  Column x holds ``column_heights`` points.  The
    array is a view of one C-contiguous (2, N) block, the x row over the y row,
    so its ``.T`` gives both rows without a copy.
    """
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
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


def first_step_y(s: SectorSpec, i: int) -> int:
    """y-coordinate of the lowest step of staircase i.

    The unique y in [0, n/l) with ((m-1)/l) y = -i (mod n/l); identically 0
    for integral sectors, periodic in i with period n/l.
    """
    if i < 0:
        raise ValueError(f"staircase index must be >= 0, got {i}")
    l, v = s.l, s.n_over_l
    if v == 1:
        return 0
    u = (s.m - 1) // l
    return (-i * pow(u, -1, v)) % v
