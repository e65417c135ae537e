"""Exact enumeration of marked floor diagrams, their refined counts, and the
generating series of higher-genus relative and log Gromov-Witten invariants
they compute for the plane and for Hirzebruch surfaces.

All arithmetic is exact (integers and rationals); see ``floorgw.algebra``
for the series types, ``floorgw.diagrams`` for enumeration,
``floorgw.gw`` for the invariant series and identity checkers, and
``floorgw.oracle`` for the independent brute-force cross-check.  Each
module's ``__all__`` declares its public names; the package re-exports them.
"""

from . import algebra, diagrams, gw, oracle
from .algebra import *
from .diagrams import *
from .gw import *
from .oracle import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + diagrams.__all__ + gw.__all__ + oracle.__all__
