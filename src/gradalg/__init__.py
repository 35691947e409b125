"""Exact engine for graded-simple algebra presentations.

Decides graded embeddability between presentations of graded-simple
algebras over small groups, constructs machine-verified embedding maps, and
cross-checks decisions against bounded-degree graded-identity spaces, all in
exact cyclotomic arithmetic.
"""

from .cocycles import (Bicharacter, Cocycle, enumerate_cocycle_classes,
                       smallest_irrep)
from .embed import (EmbedDecision, construct, decide, decide_part1,
                    decide_part2)
from .envelope import alpha_envelope, falpha, genvelope, round_trip_iso
from .galg import (AlgebraElement, DirectSumAlgebra, GradedHom,
                   GradedPresentation, HomCertificate, sub_presentation,
                   verify_hom)
from .groups import FiniteGroup, GTuple, Subgroup, build_group, dihedral_table
from .identities import (IdentitySpace, MultilinearPoly, ProductPoly, evaluate,
                         identity_space, inclusion_bounded, is_identity,
                         standard_poly)
from .scalars import CyclotomicScalar
from .semisimple import (embed_into_power, match_components, minimal_set,
                         pair_inclusion)
from .tuples import exists_shift, exists_shift_bruteforce

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "Bicharacter", "Cocycle", "CyclotomicScalar",
    "DirectSumAlgebra", "EmbedDecision", "FiniteGroup", "GTuple",
    "GradedHom", "GradedPresentation", "HomCertificate", "IdentitySpace",
    "MultilinearPoly", "ProductPoly", "Subgroup", "alpha_envelope",
    "build_group", "construct", "decide", "decide_part1", "decide_part2",
    "dihedral_table", "embed_into_power", "enumerate_cocycle_classes",
    "evaluate", "exists_shift", "exists_shift_bruteforce", "falpha",
    "genvelope", "identity_space", "inclusion_bounded", "is_identity",
    "match_components", "minimal_set", "pair_inclusion", "round_trip_iso",
    "smallest_irrep", "standard_poly", "sub_presentation", "verify_hom",
]
