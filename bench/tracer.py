"""Spans and counters around gradalg's public functions, from outside it.

The traced run installs a wrapper around each function listed in `_TARGETS`
and `_METHODS`.  A function imported by value (`from .galg import verify_hom`)
has one binding per importing module, and a method can be aliased inside its
class (`__rmul__ = __mul__`); `Tracer.install` replaces every binding that
refers to the original object, in every loaded `gradalg` module, and
`Tracer.uninstall` puts each one back.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls made directly inside it,
so self times partition the traced wall time.  Coarse boundaries are also
recorded as spans (operation id, name, start, end, parent span); hot leaf
calls are aggregated only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer name, module, attribute, recorded as a span)
_TARGETS = [
    ("corpus.generate", "gradalg.corpus", "generate_corpus", True),
    ("corpus.run_instance", "gradalg.corpus", "run_instance", True),
    ("cli.main", "gradalg.cli", "main", True),
    ("cli.parse_doc", "gradalg.cli", "parse_doc", True),
    ("embed.decide", "gradalg.embed", "decide", True),
    ("embed.fastpath", "gradalg.embed", "decide_part1", True),
    ("embed.fastpath", "gradalg.embed", "decide_part2", True),
    ("embed.construct", "gradalg.embed", "construct", True),
    ("semisimple.embed_into_power", "gradalg.semisimple", "embed_into_power",
     True),
    ("galg.verify_hom", "gradalg.galg", "verify_hom", True),
    ("envelope.alpha_envelope", "gradalg.envelope", "alpha_envelope", True),
    ("identities.inclusion_bounded", "gradalg.identities", "inclusion_bounded",
     True),
    ("identities.identity_space", "gradalg.identities", "identity_space", True),
    ("identities.is_identity", "gradalg.identities", "is_identity", True),
    ("identities.separate", "gradalg.identities", "separate_part1", True),
    ("identities.separate", "gradalg.identities", "separate_elementary", True),
    ("identities.separate", "gradalg.identities", "separate_bounded", True),
    ("cocycles.smallest_irrep", "gradalg.cocycles", "smallest_irrep", True),
    ("cocycles.coboundary_solve", "gradalg.cocycles", "coboundary_solve",
     False),
    ("tuples.exists_shift", "gradalg.tuples", "exists_shift", True),
    ("linalg.invert_matrix", "gradalg.linalg", "invert_matrix", False),
    ("linalg.rank", "gradalg.linalg", "rank", False),
]

# (layer name, module, class, method, timed); untimed methods only count calls
_METHODS = [
    ("scalars.mul", "gradalg.scalars", "CyclotomicScalar", "__mul__", True),
    ("scalars.add", "gradalg.scalars", "CyclotomicScalar", "__add__", True),
    ("scalars.inverse", "gradalg.scalars", "CyclotomicScalar", "inverse", True),
    ("linalg.add_row", "gradalg.linalg", "Echelon", "add_row", True),
    ("cocycles.validate", "gradalg.cocycles", "Cocycle", "verify_and_normalize",
     True),
    ("galg.mul_basis", "gradalg.galg", "GradedPresentation", "mul_basis", False),
    ("galg.mul_basis", "gradalg.galg", "StructureAlgebra", "mul_basis", False),
    ("galg.mul_basis", "gradalg.galg", "DirectSumAlgebra", "mul_basis", False),
    ("galg.mul_basis", "gradalg.envelope", "EnvelopeCarrier", "mul_basis", False),
]


def _gradalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradalg"
                                  or name.startswith("gradalg."))]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.op = None                 # id of the operation in progress
        self.spans: list[list] = []    # [op, name, start, end, parent index]
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()   # counters derived from arguments
        self._stack: list[list] = []   # frames: [child_s, nearest span index]
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _frame(self, name, fn, record, before=None, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if record:
                span = len(spans)
                spans.append([self.op, name, 0.0, 0.0, parent_span])
                frame = [0.0, span]
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[span][2] = t0
                    spans[span][3] = t1
            if after:
                after(state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn):
        """Wrap a harness callable so that it is recorded as a span."""
        return self._frame(name, fn, True)

    # -- derived counters ----------------------------------------------------

    def _mul_before(self, args, kwargs):
        if args[0].conductor == 1 and getattr(args[1], "conductor", 1) == 1:
            self.counts["scalars.mul.conductor1"] += 1

    def _add_row_before(self, args, kwargs):
        ech = args[0]
        if ech.rank == ech.ncols:
            self.counts["linalg.add_row.after_full_rank"] += 1

    def _add_row_after(self, state, result):
        if result:
            self.counts["linalg.add_row.useful"] += 1

    def _space_before(self, args, kwargs):
        from gradalg.identities import get_budget
        algebra, degrees = args[0], tuple(args[1])
        if degrees in getattr(algebra, "_idspace_cache", {}):
            self.counts["identities.identity_space.cache_hits"] += 1
            return 0
        count = 1
        for g in degrees:
            count *= len(algebra.component(g))
        budget = args[2] if len(args) > 2 else kwargs.get("budget")
        return count if count <= get_budget(budget) else 0

    def _space_after(self, count, result):
        self.counts["identities.identity_space.assignments"] += count

    def _verify_before(self, args, kwargs):
        n = len(list(args[0].source.basis_keys()))
        self.counts["galg.verify_hom.pairs_swept"] += n * n

    # -- install / uninstall -------------------------------------------------

    def _hooks(self, name):
        return {
            "scalars.mul": (self._mul_before, None),
            "linalg.add_row": (self._add_row_before, self._add_row_after),
            "identities.identity_space": (self._space_before,
                                          self._space_after),
            "galg.verify_hom": (self._verify_before, None),
        }.get(name, (None, None))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import gradalg  # noqa: F401  (loads every module that holds a binding)
        modules = _gradalg_modules()
        for name, modname, attr, record in _TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._frame(name, original, record, *self._hooks(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, modname, clsname, method, timed in _METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._frame(name, raw.__func__, False))
            elif timed:
                wrapped = self._frame(name, raw, False, *self._hooks(name))
            else:
                wrapped = self._counter(name, raw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._undo.append((cls, key, value))
                    setattr(cls, key, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures by `<module>.<function>.<quantity>` name."""
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        def per(num, den):
            return num / den if den else 0.0

        certifications = sum(
            1 for s in self.spans
            if s[1] == "galg.verify_hom" and s[4] is not None
            and self.spans[s[4]][1] == "envelope.alpha_envelope")
        c = self.counts
        return {
            "scalars.mul.calls": calls("scalars.mul"),
            "scalars.mul.us_per_call": 1e6 * per(total("scalars.mul"),
                                                 calls("scalars.mul")),
            "scalars.mul.conductor1_share": per(c["scalars.mul.conductor1"],
                                                calls("scalars.mul")),
            "scalars.add.calls": calls("scalars.add"),
            "scalars.inverse.calls": calls("scalars.inverse"),
            "scalars.inverse.us_per_call": 1e6 * per(total("scalars.inverse"),
                                                     calls("scalars.inverse")),
            "scalars.self_s": sum(self_s(n) for n in
                                  ("scalars.mul", "scalars.add",
                                   "scalars.inverse")),
            "linalg.add_row.calls": calls("linalg.add_row"),
            "linalg.add_row.self_s": self_s("linalg.add_row"),
            "linalg.add_row.useful_ratio": per(c["linalg.add_row.useful"],
                                               calls("linalg.add_row")),
            "linalg.add_row.after_full_rank":
                c["linalg.add_row.after_full_rank"],
            "linalg.invert_matrix.calls": calls("linalg.invert_matrix"),
            "linalg.invert_matrix.self_s": self_s("linalg.invert_matrix"),
            "linalg.rank.calls": calls("linalg.rank"),
            "identities.identity_space.calls":
                calls("identities.identity_space"),
            "identities.identity_space.self_s":
                self_s("identities.identity_space"),
            "identities.identity_space.assignments":
                c["identities.identity_space.assignments"],
            "identities.identity_space.cache_hit_ratio":
                per(c["identities.identity_space.cache_hits"],
                    calls("identities.identity_space")),
            "identities.inclusion_bounded.self_s":
                self_s("identities.inclusion_bounded"),
            "identities.is_identity.calls": calls("identities.is_identity"),
            "identities.is_identity.self_s": self_s("identities.is_identity"),
            "identities.separate.self_s": self_s("identities.separate"),
            "galg.verify_hom.calls": calls("galg.verify_hom"),
            "galg.verify_hom.self_s": self_s("galg.verify_hom"),
            "galg.verify_hom.pairs_swept": c["galg.verify_hom.pairs_swept"],
            "galg.verify_hom.per_map": per(calls("galg.verify_hom"),
                                           calls("embed.construct")),
            "galg.mul_basis.calls": calls("galg.mul_basis"),
            "envelope.alpha_envelope.calls": calls("envelope.alpha_envelope"),
            "envelope.alpha_envelope.self_s":
                self_s("envelope.alpha_envelope"),
            "envelope.alpha_envelope.certifications": certifications,
            "embed.decide.calls": calls("embed.decide"),
            "embed.decide.self_s": self_s("embed.decide"),
            "embed.construct.self_s": self_s("embed.construct"),
            "embed.fastpath.self_s": self_s("embed.fastpath"),
            "cocycles.validate.calls": calls("cocycles.validate"),
            "cocycles.validate.self_s": self_s("cocycles.validate"),
            "cocycles.smallest_irrep.self_s": self_s("cocycles.smallest_irrep"),
            "cocycles.coboundary_solve.calls":
                calls("cocycles.coboundary_solve"),
            "tuples.exists_shift.calls": calls("tuples.exists_shift"),
            "tuples.exists_shift.self_s": self_s("tuples.exists_shift"),
            "semisimple.embed_into_power.self_s":
                self_s("semisimple.embed_into_power"),
            "cli.parse_doc.self_s": self_s("cli.parse_doc"),
            "cli.main.self_s": self_s("cli.main"),
            "corpus.generate.self_s": self_s("corpus.generate"),
        }

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        return {
            "spans": [{"op": op, "name": name, "start": start, "end": end,
                       "parent": parent}
                      for op, name, start, end, parent in self.spans],
            "stats": {name: {"calls": n, "total_s": tot, "self_s": slf}
                      for name, (n, tot, slf) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counts.items())),
        }
