"""Quadratic packing polynomials on rational sectors, in exact rational arithmetic.

Each name has one import path, the module that defines it:

- ``geometry``: sectors and their staircase record ``Staircases``.
- ``poly``: ``QuadPoly``, the alpha form, the closed forms and the text rendering.
- ``classify``: ``sector_arithmetic``, the one builder of ``Staircases``, and the decision procedure ``classify``.
- ``staircase``: lattice windows.
- ``verify``: certified window checks, the exact tail floor and the coefficient search.
- ``atlas``: classification tables over slope ranges, as JSON or CSV.
- ``render``: labeled lattice figures, as SVG or ASCII.
- ``cli``: the ``qpacking`` command, also run by ``python -m qpacking``.

Only ``staircase``, ``verify`` and ``render`` need numpy.  Every record is a ``typing.NamedTuple``.
"""

__version__ = "0.1.0"
