"""The package's public surface."""

import gradalg

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    """Internal steps (IrrepData, coboundary_solve, StructureAlgebra, ...)
    stay importable from their modules, not from the package."""
    assert sorted(gradalg.__all__) == PUBLIC
    assert all(getattr(gradalg, name, None) is not None for name in PUBLIC)
