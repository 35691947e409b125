"""Finite groups as Cayley tables, with subgroup, coset and tuple services.

Elements are dense indices 0..n-1; all products go through the table.
A group keeps one Subgroup object per member set: `Subgroup(group, m)`
checks m the first time it is seen and hands out that object every time
after, so subgroups compare by identity.
"""

from __future__ import annotations

from .errors import (ElementOutsideGroup, MismatchedParent, NotAGroup,
                     NotSubgroup)


class FiniteGroup:
    """A finite group given by its multiplication table."""

    def __init__(self, table, name: str = "G"):
        self._keep(table, name, None)

    def _keep(self, table, name: str, spec: dict | None) -> FiniteGroup:
        """Every FiniteGroup's table is a group table.  With no `spec` the
        table is checked (_validate).  `cyclic` and `product` write a cyclic
        table and a direct product of group tables and build through here
        with `spec`, the normalized specification group_to_json writes back
        (a cyclic order or a flat product of cyclic and table
        specifications): the one path that skips the check."""
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        if spec is None:
            self._validate()
            spec = {"kind": "table", "table": self.table, "name": name}
        self._spec = spec
        self._subgroups: dict[frozenset, Subgroup] = {}
        # (subgroup, within) -> GTuple, filled by Subgroup.transversal
        self._transversals: dict[tuple, GTuple] = {}
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self.abelian = all(self.table[a][b] == self.table[b][a]
                           for a in range(self.order)
                           for b in range(a + 1, self.order))
        return self

    # -- construction --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls.__new__(cls)._keep(table, f"Z{n}",
                                      {"kind": "cyclic", "n": n})

    @classmethod
    def product(cls, factors: list[FiniteGroup]) -> FiniteGroup:
        if not factors:
            raise ValueError("product needs at least one factor")
        sizes = [g.order for g in factors]
        n = 1
        for s in sizes:
            n *= s

        def decode(x):
            out = []
            for s in reversed(sizes):
                x, r = divmod(x, s)
                out.append(r)
            return list(reversed(out))

        def encode(parts):
            x = 0
            for s, p in zip(sizes, parts):
                x = x * s + p
            return x

        table = [[0] * n for _ in range(n)]
        for a in range(n):
            pa = decode(a)
            for b in range(n):
                pb = decode(b)
                table[a][b] = encode([g.table[x][y]
                                      for g, x, y in zip(factors, pa, pb)])
        name = "x".join(g.name for g in factors)
        # a nested product encodes its elements as the flat product of its
        # factors does (mixed radix), so it is written flat; one factor is
        # written as itself
        flat = []
        for g in factors:
            spec = g._spec
            flat.extend(spec["factors"] if spec["kind"] == "product"
                        else (spec,))
        spec = flat[0] if len(flat) == 1 else {"kind": "product",
                                               "factors": tuple(flat)}
        return cls.__new__(cls)._keep(table, name, spec)

    # -- validation --------------------------------------------------------

    def _validate(self):
        """A Latin square whose product is associative is a group table: a
        nonempty associative quasigroup is a group (Clifford & Preston, The
        Algebraic Theory of Semigroups, vol. I, section 1.2)."""
        n = self.order
        idx = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != idx:
                raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {row[j] for row in self.table} != idx:
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
        t = self.table
        for a in self._generators():
            at = t[a]
            for x in range(n):
                xa, tx = t[t[x][a]], t[x]
                for y in range(n):
                    if xa[y] != tx[at[y]]:
                        raise NotAGroup(
                            f"({x}*{a})*{y} != {x}*({a}*{y})")

    def _generators(self) -> list[int]:
        """Elements from which right products reach the whole table.

        Light's associativity test (Clifford & Preston, vol. I, section 1.2):
        the elements a with (x*a)*y == x*(a*y) for all x, y are closed under
        the product, so the operation is associative once this holds for
        every element of a set whose products reach the whole table.  The
        check is exact and costs n^2 per generator, where all triples cost
        n^3.  Each element not yet reached becomes a generator; in a group
        table each new generator at least doubles the reached subgroup, so
        there are at most 1 + log2(n) of them.
        """
        gens: list[int] = []
        reached: set = set()
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = _reach(self.table, gens, gens)
        return gens

    def _find_identity(self) -> int:
        """The table's one idempotent, x*x == x.

        The table is a group table (see _keep), where x*x == x gives
        x == e by cancelling x, so the identity is the one idempotent, and
        a*b == e gives b*a == e.  An empty table has no idempotent.
        """
        for e in range(self.order):
            if self.table[e][e] == e:
                return e
        raise NotAGroup("no two-sided identity element")

    def _find_inverses(self):
        """The inverse of a is the column where row a holds the identity
        (see _find_identity)."""
        return tuple(row.index(self.identity) for row in self.table)

    # -- queries --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, a: int) -> int:
        """a, if it is an element: an int (not a bool) from 0 to order - 1.
        Nothing is coerced, so 1.0, True and "1" are refused."""
        if type(a) is not int or not 0 <= a < self.order:
            raise ElementOutsideGroup(
                f"{a!r} outside group of order {self.order}")
        return a

    # -- subgroups --------------------------------------------------------

    def subgroup(self, elements) -> Subgroup:
        return Subgroup(self, elements)

    def closure(self, generators) -> Subgroup:
        """The subgroup generated: in a finite group every element the
        generators reach from the identity by right products."""
        gens = list(generators)
        for g in gens:
            self.check_element(g)
        return Subgroup(self, _reach(self.table, [self.identity], gens))

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, range(self.order))

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, [self.identity])

    def all_subgroups(self) -> list[Subgroup]:
        """All subgroups, by closing generator sets (fine at table scale)."""
        found = {self.trivial_subgroup()}
        frontier = list(found)
        while frontier:
            base = frontier.pop()
            for g in range(self.order):
                if g not in base:
                    new = self.closure([*base.sorted_members, g])
                    if new not in found:
                        found.add(new)
                        frontier.append(new)
        return sorted(found, key=lambda s: (s.order, s.sorted_members))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _reach(table, start, gens) -> set:
    """Every element reached from `start` by right products by `gens`, in
    one breadth-first walk."""
    reached = set(start)
    queue = list(reached)
    for x in queue:
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return reached


class Subgroup:
    """A subgroup of a FiniteGroup, stored as its member set.

    Subgroup(parent, elements) checks each element (check_element) and
    returns the parent's one object for that member set, whose closure is
    checked when the set is first seen; a set that fails the check is not
    kept."""

    def __new__(cls, parent: FiniteGroup, elements):
        # each element is checked before the lookup: 0.0 == 0 as a set member
        members = frozenset(map(parent.check_element, elements))
        sub = parent._subgroups.get(members)
        if sub is None:
            sub = super().__new__(cls)
            sub.parent = parent
            sub.members = members
            sub.sorted_members = tuple(sorted(members))
            sub._validate()
            parent._subgroups[members] = sub
        return sub

    def _validate(self):
        g = self.parent
        if g.identity not in self.members:
            raise NotSubgroup("missing identity")
        for a in self.members:
            if g.inverses[a] not in self.members:
                raise NotSubgroup(f"missing inverse of {a}")
            for b in self.members:
                if g.table[a][b] not in self.members:
                    raise NotSubgroup(f"not closed: {a}*{b}")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.sorted_members)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"Subgroup({sorted(self.members)})"

    def is_abelian(self) -> bool:
        t = self.parent.table
        return all(t[a][b] == t[b][a] for a in self.members for b in self.members)

    def is_trivial(self) -> bool:
        return self.order == 1

    def same_parent(self, other: Subgroup):
        if self.parent is not other.parent:
            raise MismatchedParent("subgroups of different groups")

    # -- lattice operations ----------------------------------------------

    def intersection(self, other: Subgroup) -> Subgroup:
        self.same_parent(other)
        return Subgroup(self.parent, self.members & other.members)

    def product_subgroup(self, other: Subgroup) -> Subgroup:
        """Subgroup generated by the set product (equals it when closed)."""
        self.same_parent(other)
        t = self.parent.table
        prod = {t[a][b] for a in self.members for b in other.members}
        return self.parent.closure(prod)

    def contains_subgroup(self, other: Subgroup) -> bool:
        self.same_parent(other)
        return other.members <= self.members

    # -- cosets and transversals -------------------------------------------

    def coset_rep(self, x: int) -> int:
        """Minimal index in the right coset H*x."""
        t = self.parent.table
        return min(t[h][x] for h in self.members)

    def transversal(self, within: Subgroup) -> GTuple:
        """Canonical transversal: minimal representative of each right coset
        H*x for x in `within`, the identity's coset first and the rest
        ascending by representative.

        Remembered on the group: a GTuple is immutable, and the group has
        one Subgroup object per member set, so each decision over the same
        pair of subgroups shares one tuple."""
        cache = self.parent._transversals
        tr = cache.get((self, within))
        if tr is None:
            if not within.contains_subgroup(self):
                raise NotSubgroup("cosets requested inside a non-superset")
            first = self.coset_rep(self.parent.identity)
            reps = {self.coset_rep(x) for x in within.sorted_members}
            tr = GTuple(self.parent,
                        sorted(reps, key=lambda r: (r != first, r)))
            cache[(self, within)] = tr
        return tr


class GTuple:
    """An ordered tuple of group elements."""

    __slots__ = ("group", "entries")

    def __init__(self, group: FiniteGroup, entries):
        entries = tuple(map(group.check_element, entries))
        if not entries:
            raise ValueError("tuple must be nonempty")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):
        raise AttributeError("GTuple is immutable")

    @classmethod
    def const(cls, group: FiniteGroup, length: int) -> GTuple:
        """The length-d tuple (e, ..., e)."""
        return cls(group, [group.identity] * length)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (isinstance(other, GTuple) and self.group is other.group
                and self.entries == other.entries)

    def __hash__(self):
        return hash((id(self.group), self.entries))

    def __repr__(self):
        return f"GTuple{self.entries}"

    def same_parent(self, other):
        if self.group is not (other.group if isinstance(other, GTuple) else other.parent):
            raise MismatchedParent("tuples over different groups")

    def product(self, other: GTuple) -> GTuple:
        """Row-major pointwise product: entry (i,j) is self[i]*other[j]."""
        self.same_parent(other)
        t = self.group.table
        return GTuple(self.group,
                      [t[a][b] for a in self.entries for b in other.entries])

    def shift(self, g: int) -> GTuple:
        """Left multiplication: (g*t_1, ..., g*t_n)."""
        self.group.check_element(g)
        t = self.group.table
        return GTuple(self.group, [t[g][x] for x in self.entries])

    def sub(self, indices) -> GTuple:
        return GTuple(self.group, [self.entries[i] for i in indices])


# The largest group a document may name.  A cyclic table of order n holds
# n^2 entries, so a short document could otherwise ask for any amount of
# memory.  The corpus and the fixtures use orders of at most 12.
MAX_GROUP_ORDER = 256

# The largest conductor a document may write a value at, and the largest
# lcm at which two values in fields that do not nest may meet
# (scalars.common_conductor): 251 and 241 would meet at 60,491.  A value's
# root-of-unity test builds at most the table at 1,018 (m = 509): 4.2 MB,
# 0.06 s on CPython 3.11.  Derived conductors (coboundary_solve's
# lcm(2, m) * |L|) are not capped; they grow with the values a cocycle lists.
MAX_CONDUCTOR = 512


def json_ints(values, what: str) -> list:
    """values, if it is a list of JSON integers.  type(...) is int: true,
    0.9 and "1" are refused, where int() would read them as 1, 0 and 1."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise ValueError(f"{what} must be a list of integers")
    return values


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from its JSON specification, whose numbers must be
    JSON integers (see json_ints) and whose table names, if given, JSON
    strings.  A group of order above MAX_GROUP_ORDER is refused before any
    table is built."""
    order = _spec_order(spec)
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} exceeds {MAX_GROUP_ORDER}")
    return _build(spec)


def _spec_order(spec: dict) -> int:
    """The order of the group a specification names, its numbers checked,
    from the specification alone."""
    kind = spec.get("kind")
    if kind == "cyclic":
        n = spec["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"cyclic group order must be a positive "
                             f"integer, got {n!r}")
        return n
    if kind == "product":
        factors = spec["factors"]
        if not isinstance(factors, list):
            raise ValueError("factors must be a list")
        order = 1
        for f in factors:
            order *= _spec_order(f)
        return order
    if kind == "table":
        table = spec["table"]
        if not isinstance(table, list):
            raise ValueError("table must be a list of rows")
        if not isinstance(spec.get("name", "G"), str):
            raise ValueError("table group name must be a string")
        for row in table:
            json_ints(row, "each table row")
        return len(table)
    raise ValueError(f"unknown group kind: {kind!r}")


def _build(spec: dict) -> FiniteGroup:
    kind = spec["kind"]
    if kind == "cyclic":
        return FiniteGroup.cyclic(spec["n"])
    if kind == "product":
        return FiniteGroup.product([_build(f) for f in spec["factors"]])
    return FiniteGroup(spec["table"], name=spec.get("name", "G"))


def group_to_json(group: FiniteGroup) -> dict:
    """The specification the group was built from, normalized: a cyclic
    order, a table with its name, or a product of those (nested products
    flattened, a one-factor product written as its factor), so build_group
    rebuilds the same table.  A fresh dict on each call, since it goes into
    reports: no caller shares the group's own."""
    return _spec_json(group._spec)


def _spec_json(spec: dict) -> dict:
    kind = spec["kind"]
    if kind == "cyclic":
        return {"kind": "cyclic", "n": spec["n"]}
    if kind == "product":
        return {"kind": "product",
                "factors": [_spec_json(f) for f in spec["factors"]]}
    return {"kind": "table", "table": [list(r) for r in spec["table"]],
            "name": spec["name"]}


def dihedral_table(n: int) -> list[list[int]]:
    """Cayley table of the dihedral group of order 2n; index = rot + n*flip."""
    def mul(a, b):
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        rot = (ra + (rb if fa == 0 else -rb)) % n
        return rot + n * ((fa + fb) % 2)
    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
