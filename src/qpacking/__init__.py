"""Quadratic packing polynomials on rational sectors, in exact rational arithmetic.

Each name has one import path, the module that defines it:

- ``geometry``: sectors (``SectorSpec``, ``make_sector``), unimodular maps and the reduction of a two-ray cone to a sector.
- ``poly``: ``QuadPoly``, the alpha form, the closed forms and the text rendering.
- ``classify``: the decision procedure ``classify`` and the sector arithmetic behind it.
- ``staircase``: lattice windows and the lowest step of each staircase.
- ``verify``: certified window checks, the exact tail floor and the coefficient search.
- ``atlas``: classification tables over slope ranges, as JSON or CSV.
- ``render``: labeled lattice figures, as SVG or ASCII.
- ``cli``: the ``qpacking`` command, also run by ``python -m qpacking``.
"""

__version__ = "0.1.0"
