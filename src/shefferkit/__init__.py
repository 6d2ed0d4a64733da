"""Sheffer groupoids and directed relational systems with involution.

Finite-model toolkit: check the defining axioms and the law catalog,
convert between operations and relational systems in both directions,
build twist-products and their admissible-pair subsystems, transfer
operations along homomorphisms, and enumerate small models.
"""

from . import bridge, morphisms, relcore, search, sheffer, terms, twistkleene
from .bridge import *
from .morphisms import *
from .relcore import *
from .search import *
from .sheffer import *
from .terms import *
from .twistkleene import *

__version__ = "0.1.0"

__all__ = ["__version__", *relcore.__all__, *terms.__all__, *sheffer.__all__, *bridge.__all__,
           *morphisms.__all__, *twistkleene.__all__, *search.__all__]
