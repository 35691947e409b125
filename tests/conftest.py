import sys
from itertools import combinations_with_replacement

import pytest

from gradalg import galg
from gradalg.cocycles import Bicharacter, enumerate_cocycle_classes
from gradalg.galg import GradedPresentation
from gradalg.groups import FiniteGroup, GTuple, build_group, dihedral_table
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


def class_key(p) -> tuple:
    """The graded-isomorphism class of a presentation (N, alpha, s) over an
    abelian group G: N, the index in enumerate_cocycle_classes(N) of the
    class of alpha (read off its alternating bicharacter, which fixes the
    class over an abelian N), and the least over g in G of the sorted right
    coset representatives of g*s.  Two such presentations are isomorphic iff
    they share N, their cocycles are cohomologous and their tuples agree as
    multisets of N-cosets up to one translation by G (Bahturin, Sehgal and
    Zaicev, Sb. Math. 199, 2008)."""
    form = Bicharacter.from_cocycle(p.alpha).values
    index = next(i for i, c in enumerate(enumerate_cocycle_classes(p.H))
                 if Bicharacter.from_cocycle(c).values == form)
    cosets = min(tuple(sorted(p.H.coset_rep(x) for x in p.s.shift(g).entries))
                 for g in p.group.elements())
    return p.H.sorted_members, index, cosets


def small_presentations(group):
    """Every (N, alpha, s) over `group`: N a subgroup, alpha a class of
    enumerate_cocycle_classes(N), s a sorted tuple of length 1 or 2."""
    tuples = [GTuple(group, s) for n in (1, 2)
              for s in combinations_with_replacement(group.elements(), n)]
    return [GradedPresentation(group, n, alpha, s)
            for n in group.all_subgroups()
            for alpha in enumerate_cocycle_classes(n) for s in tuples]


def class_representatives(group) -> list:
    """The first of small_presentations(group) in each class_key class, in
    order of first appearance."""
    reps = {}
    for p in small_presentations(group):
        reps.setdefault(class_key(p), p)
    return list(reps.values())


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
