"""The package's public surface."""

import gradalg

PUBLIC = [
    "Cocycle", "CyclotomicScalar", "DirectSumAlgebra", "FiniteGroup",
    "GTuple", "GradedHom", "GradedPresentation", "MultilinearPoly",
    "Subgroup", "alpha_envelope", "build_group", "construct", "decide",
    "dihedral_table", "embed_into_power", "enumerate_cocycle_classes",
    "evaluate", "identity_space", "inclusion_bounded", "is_identity",
    "minimal_set", "standard_poly", "verify_hom",
]

# names the package no longer exports, by the module they stay in
MODULE_ONLY = {
    "cocycles": ["Bicharacter", "smallest_irrep"],
    "embed": ["EmbedDecision", "decide_part1", "decide_part2"],
    "envelope": ["falpha", "round_trip_iso"],
    "galg": ["AlgebraElement", "HomCertificate", "sub_presentation"],
    "identities": ["IdentitySpace", "ProductPoly"],
    "semisimple": ["match_components", "pair_inclusion"],
    "tuples": ["exists_shift", "exists_shift_bruteforce"],
}


def test_public_names_are_pinned_and_resolve():
    """The package exports what a caller builds and runs; result types,
    internal steps, cross-check routes and conveniences stay importable
    from their modules, not from the package."""
    import importlib
    assert sorted(gradalg.__all__) == PUBLIC
    assert all(getattr(gradalg, name, None) is not None for name in PUBLIC)
    for modname, names in MODULE_ONLY.items():
        module = importlib.import_module(f"gradalg.{modname}")
        for name in names:
            assert name not in gradalg.__all__, name
            assert getattr(module, name, None) is not None, (modname, name)


def _load_bench_module(name):
    """Import a benchmark script by path; its gradalg imports run then."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_binds_resolves():
    """The tracer wraps engine functions and methods by name and the
    workloads import engine names; each must still exist."""
    import importlib
    tracer = _load_bench_module("tracer")
    for _, modname, attr, _ in tracer._TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            (modname, attr)
    for _, modname, clsname, method, _ in tracer._METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert cls is not None, (modname, clsname)
        assert method in vars(cls), (modname, clsname, method)
    _load_bench_module("workloads")


def test_every_error_type_is_raised():
    """Each exception type of gradalg.errors but the base names one thing
    the caller can do, and something in the package raises it; nothing
    raises a bare ArithmeticError, which `run`'s per-job handler, catching
    GradAlgError, does not see."""
    import ast
    import inspect
    from pathlib import Path

    from gradalg import errors
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    raised = set()
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert "ArithmeticError" not in raised
    assert defined - {"GradAlgError"} <= raised, \
        sorted(defined - {"GradAlgError"} - raised)
