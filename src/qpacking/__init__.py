"""Quadratic packing polynomials on rational sectors, in exact rational arithmetic.

Each name has one import path, the module that defines it:

- ``geometry``: sectors (``SectorSpec``, ``make_sector``) and the unimodular maps between them.
- ``poly``: ``QuadPoly``, the alpha form, the closed forms and the text rendering.
- ``classify``: the decision procedure ``classify`` and the sector arithmetic behind it.
- ``staircase``: lattice windows and the staircase decomposition.
- ``verify``: certified window checks, the exact tail floor and the coefficient search.
- ``atlas``: classification tables over slope ranges, as JSON or CSV.
- ``render``: labeled lattice figures, as SVG or ASCII.
- ``cli``: the ``qpacking`` command, also run by ``python -m qpacking``.
"""

__version__ = "0.1.0"
