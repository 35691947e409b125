import sys

import pytest

from gradalg import galg
from gradalg.cocycles import enumerate_cocycle_classes
from gradalg.groups import FiniteGroup, build_group, dihedral_table
from gradalg.scalars import CyclotomicScalar


def random_coboundary(sub, rng, max_order: int = 4) -> dict:
    """A random rescaling mu with mu(e) = 1, for cohomology-invariance tests."""
    mu = {}
    for g in sub:
        if g == sub.parent.identity:
            mu[g] = CyclotomicScalar.one()
        else:
            m = rng.randrange(1, max_order + 1)
            mu[g] = CyclotomicScalar.zeta(m, rng.randrange(m))
    return mu


@pytest.fixture(scope="session")
def z4():
    return FiniteGroup.cyclic(4)


@pytest.fixture(scope="session")
def z6():
    return FiniteGroup.cyclic(6)


@pytest.fixture(scope="session")
def z10():
    return FiniteGroup.cyclic(10)


@pytest.fixture(scope="session")
def klein():
    return FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])


@pytest.fixture(scope="session")
def klein_classes(klein):
    return enumerate_cocycle_classes(klein.full_subgroup())


@pytest.fixture(scope="session")
def d4():
    return build_group({"kind": "table", "table": dihedral_table(4),
                        "name": "D4"})


@pytest.fixture
def sweeps(monkeypatch):
    """Replaces every gradalg binding of verify_hom with a wrapper that logs
    each call; returns the list of swept homs."""
    calls = []
    original = galg.verify_hom

    def counted(hom):
        calls.append(hom)
        return original(hom)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gradalg" \
                and getattr(module, "verify_hom", None) is original:
            monkeypatch.setattr(module, "verify_hom", counted)
    return calls
