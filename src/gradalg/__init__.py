"""Exact engine for graded-simple algebra presentations.

Decides graded embeddability between presentations of graded-simple
algebras over small groups, constructs machine-verified embedding maps, and
cross-checks decisions against bounded-degree graded-identity spaces, all in
exact cyclotomic arithmetic.

The package exports the classes a caller builds and the functions that do
what the commands do; result types, internal steps and cross-check routes
are imported from their modules.
"""

from .cocycles import Cocycle, enumerate_cocycle_classes
from .embed import construct, decide
from .envelope import alpha_envelope
from .galg import (DirectSumAlgebra, GradedHom, GradedPresentation,
                   verify_hom)
from .groups import FiniteGroup, GTuple, Subgroup, build_group, dihedral_table
from .identities import (MultilinearPoly, evaluate, identity_space,
                         inclusion_bounded, is_identity, standard_poly)
from .scalars import CyclotomicScalar
from .semisimple import embed_into_power, minimal_set

__version__ = "0.1.0"

__all__ = [
    "Cocycle", "CyclotomicScalar", "DirectSumAlgebra", "FiniteGroup",
    "GTuple", "GradedHom", "GradedPresentation", "MultilinearPoly",
    "Subgroup", "alpha_envelope", "build_group", "construct", "decide",
    "dihedral_table", "embed_into_power", "enumerate_cocycle_classes",
    "evaluate", "identity_space", "inclusion_bounded", "is_identity",
    "minimal_set", "standard_poly", "verify_hom",
]
