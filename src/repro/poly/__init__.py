"""Small exact integer-set library (ISL substitute).

Public surface:

* :class:`Polyhedron` -- conjunction of affine constraints over Z^d.
* :class:`Space`, :class:`ISet` -- named finite unions of polyhedra.
* :class:`AffineExpr`, :class:`AffineFunction` -- exact affine forms.
* :class:`IMap` -- piecewise-affine relations (dependence relations).
* :func:`fit_affine`, :func:`fit_affine_many`, :func:`fit_affine_function`
  -- exact fitting.
"""

from .affine import (
    AffineExpr,
    AffineFunction,
    fit_affine,
    fit_affine_function,
    fit_affine_many,
)
from .pmap import IMap
from .polyhedron import Polyhedron
from .pset import ISet, Space

__all__ = [
    "AffineExpr",
    "AffineFunction",
    "IMap",
    "ISet",
    "Polyhedron",
    "Space",
    "fit_affine",
    "fit_affine_function",
    "fit_affine_many",
]
