"""Exact engine for graded-simple algebra presentations.

Decides graded embeddability between presentations of graded-simple
algebras over small groups, constructs machine-verified embedding maps, and
cross-checks decisions against bounded-degree graded-identity spaces, all in
exact cyclotomic arithmetic.
"""

from .cocycles import (Bicharacter, Cocycle, IrrepData, coboundary_solve,
                       enumerate_cocycle_classes, smallest_irrep,
                       transversal_normalize)
from .embed import (EmbedDecision, construct, decide, decide_part1,
                    decide_part2, transversal_action)
from .envelope import (alpha_envelope, falpha, genvelope, round_trip_iso,
                       transport_hom_through_envelope)
from .galg import (AlgebraElement, DirectSumAlgebra, GradedHom,
                   GradedPresentation, HomCertificate, StructureAlgebra,
                   block_decompose, conjugate_presentation, permute_tuple,
                   replace_representative, sub_presentation,
                   to_structure_algebra, verify_hom)
from .groups import FiniteGroup, GTuple, Subgroup, build_group, dihedral_table
from .identities import (IdentitySpace, MultilinearPoly, ProductPoly, evaluate,
                         identity_space, inclusion_bounded, is_identity,
                         standard_poly)
from .scalars import CyclotomicScalar
from .semisimple import (SemisimplePresentation, embed_into_power,
                         match_components, match_permutation, minimal_set,
                         pair_inclusion)
from .tuples import (CosetMultiset, coset_decompose, equiv_mod, exists_shift,
                     exists_shift_bruteforce, subsume_mod)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "Bicharacter", "Cocycle", "CosetMultiset",
    "CyclotomicScalar", "DirectSumAlgebra", "EmbedDecision", "FiniteGroup",
    "GTuple", "GradedHom", "GradedPresentation", "HomCertificate",
    "IdentitySpace", "IrrepData", "MultilinearPoly", "ProductPoly",
    "SemisimplePresentation", "StructureAlgebra", "Subgroup",
    "alpha_envelope", "block_decompose",
    "build_group", "coboundary_solve", "conjugate_presentation", "construct",
    "coset_decompose", "decide", "decide_part1", "decide_part2",
    "dihedral_table", "embed_into_power", "enumerate_cocycle_classes",
    "equiv_mod", "evaluate", "exists_shift", "exists_shift_bruteforce",
    "falpha", "genvelope", "identity_space", "inclusion_bounded",
    "is_identity", "match_components", "match_permutation", "minimal_set",
    "pair_inclusion", "permute_tuple",
    "replace_representative", "round_trip_iso", "smallest_irrep",
    "standard_poly", "sub_presentation", "subsume_mod",
    "to_structure_algebra", "transport_hom_through_envelope",
    "transversal_action", "transversal_normalize", "verify_hom",
]
