"""Exact tooling for maximal k-wise intersecting set families.

Families over a ground set {1..n} are bitmaps over the 2^n subset masks,
so every check here is integer arithmetic and every reported number is
exact.  The package constructs the reference cube families, verifies
k-wise intersection and maximality, searches exhaustively for the
minimum maximal-family size at small n, and audits the counting and
stability arguments that bound those sizes in general.

The package exports the family-level API; each name is declared in the
__all__ of the module that defines it.  The bit primitives on raw
bitmaps and masks are imported from kwise.bitops.
"""

from .constructions import *
from .core import *
from .disjointness import *
from .generator import *
from .search import *

__version__ = "0.1.0"

__all__ = (
    constructions.__all__ + core.__all__ + disjointness.__all__ + generator.__all__ + search.__all__
)
