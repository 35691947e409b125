"""Batch front door: parse instance documents, run jobs, emit JSON reports.

Machine-readable reports go to stdout (deterministic: sorted keys, no
timings); a short human summary goes to stderr.  Exit codes: 0 success,
2 when the requested verdict is false, 1 on any error.

The argument parser is built once per process, on the first call to `main`,
and every later call reuses it, so a process that serves many requests pays
for it once.  Each report is encoded by one `json.dumps` call (which runs
the C encoder) and written in one piece; its bytes equal what `json.dump`
with the same options writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .cocycles import Cocycle
from .corpus import run_corpus
from .embed import construct, decide
from .envelope import alpha_envelope
from .errors import GradAlgError, ValidationError
from .galg import GradedHom, GradedPresentation, verify_hom
from .groups import MAX_GROUP_ORDER, build_group, group_to_json, json_ints
from .identities import MAX_MULTIDEGREE_LEN, get_budget, inclusion_bounded
from .scalars import CyclotomicScalar
from .semisimple import SemisimplePresentation, embed_into_power


class InstanceDoc:
    """A parsed and fully validated instance document."""

    SUPPORTED_VERSIONS = (1,)

    def __init__(self, version, group, presentations, cocycles, jobs):
        self.version = version
        self.group = group
        self.presentations = presentations
        self.cocycles = cocycles
        self.jobs = jobs


def _section(raw: dict, key: str, kind: type, root: str = "$"):
    """The optional entry `key` of the object at `root`, of type `kind`."""
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ValidationError(f"{root}.{key}", f"{key} must be {what}")
    return value


def _json(text: str):
    """The JSON value of a document or report; invalid JSON is a
    ValidationError at `$`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("$", f"invalid JSON: {exc}") from None


def parse_doc(text: str) -> InstanceDoc:
    return _doc_from_json(_json(text), "$")


def _doc_from_json(raw, root: str) -> InstanceDoc:
    """Validate a decoded document found at JSON path `root`."""
    if not isinstance(raw, dict):
        raise ValidationError(root, "document must be an object")
    version = raw.get("version", 1)
    # type(...) is int: True == 1 and 1.0 == 1, but neither is a version
    if (type(version) is not int
            or version not in InstanceDoc.SUPPORTED_VERSIONS):
        raise ValidationError(f"{root}.version",
                              f"unsupported version {version}")
    try:
        group = build_group(raw["group"])
    except KeyError:
        raise ValidationError(f"{root}.group", "missing group spec") from None
    except Exception as exc:
        raise ValidationError(f"{root}.group", str(exc)) from None
    presentations = {}
    for name, spec in _section(raw, "presentations", dict, root).items():
        try:
            presentations[name] = GradedPresentation.from_json(group, spec)
        except Exception as exc:
            raise ValidationError(f"{root}.presentations.{name}",
                                  str(exc)) from None
    cocycles = {}
    for name, spec in _section(raw, "cocycles", dict, root).items():
        try:
            cocycles[name] = Cocycle.from_json(group, spec)
        except Exception as exc:
            raise ValidationError(f"{root}.cocycles.{name}",
                                  str(exc)) from None
    doc = InstanceDoc(version, group, presentations, cocycles,
                      _section(raw, "jobs", list, root))
    for k, job in enumerate(doc.jobs):
        if not isinstance(job, dict):
            raise ValidationError(f"{root}.jobs[{k}]", "job must be an object")
        args, where = job.get("args", {}), f"{root}.jobs[{k}].args"
        if not isinstance(args, dict):
            raise ValidationError(where, "args must be an object")
        cmd = job.get("command")
        if not isinstance(cmd, str) or cmd not in _JOBS:
            raise ValidationError(f"{root}.jobs[{k}].command",
                                  f"unknown: {cmd!r}")
        _check(cmd, args, f"{where}.{{}}".format, doc)
    return doc


def _load_doc(path: str) -> InstanceDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_doc(fh.read())


def _doc_slice(doc: InstanceDoc, names) -> dict:
    return {"version": doc.version,
            "group": group_to_json(doc.group),
            "presentations": {n: doc.presentations[n].to_json() for n in names}}


def _check(command: str, given: dict, where, doc=None):
    """Check the options `given` to `command` against its row of _COMMANDS,
    each error at the path `where(key)`: every key must be an option of the
    command, each required option given, and each value given of its kind.
    Once the document is read (`doc`), every name an option holds or
    defaults to must be one the document holds."""
    options = _COMMANDS[command][3]
    for key in given:
        if key not in options:
            raise ValidationError(where(key), f"{command} takes no {key}")
    for key, (default, kind) in options.items():
        if key not in given:
            if default is _REQUIRED:
                raise ValidationError(where(key), f"{command} needs {key}")
            continue
        value = given[key]
        if isinstance(kind, tuple):
            least, largest = kind
            # type(...) is int: a JSON true is a bool, which Python reads as 1
            if type(value) is not int:
                raise ValidationError(where(key), f"must be an integer, "
                                                  f"got {value!r}")
            if least is not None and value < least:
                raise ValidationError(where(key), f"must be an integer >= "
                                                  f"{least}, got {value}")
            if largest is not None and value > largest:
                raise ValidationError(where(key), f"must be an integer <= "
                                                  f"{largest}, got {value}")
        elif not isinstance(value, str):
            raise ValidationError(where(key), f"{key} must be a string")
    if doc is None:
        return
    for key, (default, kind) in options.items():
        if isinstance(kind, tuple):
            continue
        value = given.get(key, default)
        noun = _COCYCLE if kind == _COCYCLE else _NAME
        known = doc.cocycles if kind == _COCYCLE else doc.presentations
        for name in value.split(",") if kind == _NAMES else [value]:
            if name not in known:
                raise ValidationError(where(key), f"unknown {noun} {name!r}")


def _emit(report: dict, human: str, verdict_false: bool) -> int:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                     + "\n")
    print(human, file=sys.stderr)
    return 2 if verdict_false else 0


def _cmd_decide(args, doc: InstanceDoc) -> int:
    a, b = doc.presentations[args.a], doc.presentations[args.b]
    t0 = time.time()
    decision = decide(a, b)
    report = {"command": "decide", "a": args.a, "b": args.b,
              "decision": decision.to_json()}
    human = (f"decide {args.a} -> {args.b}: {decision.verdict} "
             f"(case {decision.case}, {time.time() - t0:.3f}s)")
    return _emit(report, human, not decision.verdict)


def _cmd_construct(args, doc: InstanceDoc) -> int:
    a, b = doc.presentations[args.a], doc.presentations[args.b]
    t0 = time.time()
    decision = decide(a, b)
    if not decision.verdict:
        report = {"command": "construct", "a": args.a, "b": args.b,
                  "decision": decision.to_json(), "hom": None}
        return _emit(report, "no embedding exists; nothing to construct", True)
    hom = construct(a, b, decision)
    cert = hom.certificate
    report = {"command": "construct", "a": args.a, "b": args.b,
              "decision": decision.to_json(), "hom": hom.to_json(),
              "certificate": cert.to_json(),
              "doc": _doc_slice(doc, [args.a, args.b])}
    human = (f"construct {args.a} -> {args.b}: certified "
             f"graded={cert.graded} multiplicative={cert.multiplicative} "
             f"injective={cert.injective} ({time.time() - t0:.3f}s)")
    return _emit(report, human, False)


def _basis_key(value) -> tuple:
    """A presentation basis key (h, i, j) from a list of three JSON
    integers (see json_ints)."""
    if len(json_ints(value, "a basis key")) != 3:
        raise ValueError(f"a basis key has three entries, not {value!r}")
    return tuple(value)


def _hom_from_report(report: dict):
    """The map a construct report carries, with its document slice checked
    like an instance document and every image entry checked against the
    bases; a malformed report is a ValidationError at its JSON path."""
    if "doc" not in report:
        raise ValidationError("$.doc", "missing document slice")
    doc = _doc_from_json(report["doc"], "$.doc")
    # the map's ends are named as the construct command names them
    _check("construct", {"a": report.get("a"), "b": report.get("b")},
           "$.{}".format, doc)
    a, b = doc.presentations[report["a"]], doc.presentations[report["b"]]
    src_keys, tgt_keys = set(a.basis_keys()), set(b.basis_keys())
    hom = report["hom"]
    entries = hom.get("images") if isinstance(hom, dict) else None
    if not isinstance(entries, list):
        raise ValidationError("$.hom.images", "images must be a list")
    images = {}
    for n, entry in enumerate(entries):
        try:
            key = _basis_key(entry["key"])
            terms = {}
            for t in entry["terms"]:
                target = _basis_key(t["key"])
                if target in terms:
                    raise ValueError(f"second term for basis key {target}")
                terms[target] = CyclotomicScalar.from_json(t["coeff"])
            known = key in src_keys and terms.keys() <= tgt_keys
        except (GradAlgError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise ValidationError(f"$.hom.images[{n}]",
                                  f"malformed image: {exc!r}") from None
        if not known:
            raise ValidationError(f"$.hom.images[{n}]",
                                  "basis key outside the algebra")
        if key in images:
            raise ValidationError(f"$.hom.images[{n}]",
                                  f"second image for basis key {key}")
        images[key] = b.element(terms)
    missing = src_keys - images.keys()
    if missing:
        raise ValidationError("$.hom.images",
                              f"no image for basis key {min(missing)}")
    return GradedHom(a, b, images)


def _cmd_verify(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = _json(fh.read())
    if not isinstance(report, dict):
        raise ValidationError("$", "report must be an object")
    if report.get("hom") is None:
        raise ValidationError("$.hom",
                              "report carries no homomorphism to verify")
    hom = _hom_from_report(report)
    cert = verify_hom(hom)
    out = {"command": "verify", "a": report["a"], "b": report["b"],
           "certificate": cert.to_json()}
    human = f"verify: {cert!r}"
    return _emit(out, human, not cert.is_embedding)


def _cmd_inclusion(args, doc: InstanceDoc) -> int:
    a, b = doc.presentations[args.a], doc.presentations[args.b]
    t0 = time.time()
    rep = inclusion_bounded(b, a, args.max_len, get_budget(args.budget))
    violation = None
    if not rep.holds:
        degrees, poly, witness = rep.violation
        violation = {"multidegree": list(degrees), "separator": poly.to_json(),
                     "witness": [list(k) for k in witness]}
    report = {"command": "identity-inclusion", "a": args.a, "b": args.b,
              "max_len": args.max_len, "holds": rep.holds,
              "multidegrees_checked": len(rep.checked),
              "violation": violation}
    human = (f"identity-inclusion Id({args.b}) <= Id({args.a}) up to length "
             f"{args.max_len}: {rep.holds} ({time.time() - t0:.3f}s)")
    return _emit(report, human, not rep.holds)


def _cmd_envelope(args, doc: InstanceDoc) -> int:
    env = alpha_envelope(doc.presentations[args.b], doc.cocycles[args.cocycle])
    cert = verify_hom(env.iso)
    report = {"command": "envelope", "b": args.b, "cocycle": args.cocycle,
              "presentation": env.presentation.to_json(),
              "certificate": cert.to_json()}
    human = f"envelope of {args.b}: iso certified {cert.is_embedding}"
    return _emit(report, human, not cert.is_embedding)


def _cmd_semisimple(args, doc: InstanceDoc) -> int:
    a_names = args.a.split(",")
    b_names = args.b.split(",")
    a = SemisimplePresentation([doc.presentations[n] for n in a_names])
    b = SemisimplePresentation([doc.presentations[n] for n in b_names])
    t0 = time.time()
    copies, hom, cert = embed_into_power(a, b)
    report = {"command": "semisimple-embed", "a": a_names, "b": b_names,
              "N": copies, "certificate": cert.to_json(),
              "dims": {"a": a.dim, "b": b.dim}}
    human = (f"semisimple-embed: N={copies}, certified={cert.is_embedding} "
             f"({time.time() - t0:.3f}s)")
    return _emit(report, human, not cert.is_embedding)


def _cmd_corpus(args) -> int:
    t0 = time.time()
    result = run_corpus(args.seed, args.order_bound, args.count,
                        args.max_len, get_budget(args.budget), args.workers)
    report = {"command": "corpus-run", **result}
    human = (f"corpus-run seed={args.seed}: {result['count']} instances, "
             f"{result['true_decisions']} true / "
             f"{result['false_decisions']} false, "
             f"{result['separators_verified']} separators verified, "
             f"{result['separators_inconclusive']} inconclusive "
             f"({time.time() - t0:.1f}s)")
    return _emit(report, human, False)


def _cmd_run(args, doc: InstanceDoc) -> int:
    """Run each job of the document as read and checked once, with the
    options its args give and the defaults of _COMMANDS for the rest.  A
    job that raises a GradAlgError is reported as `error: job k: ...` with
    code 1, and the next job runs.  Returns 1 if any job erred, else the
    largest code."""
    codes = []
    for k, job in enumerate(doc.jobs):
        handler, _, _, options = _COMMANDS[job["command"]]
        values = {key: default for key, (default, _) in options.items()}
        values.update(job.get("args", {}))
        try:
            codes.append(handler(argparse.Namespace(**values), doc))
        except GradAlgError as exc:
            print(f"error: job {k}: {exc}", file=sys.stderr)
            codes.append(1)
    print(f"run: {len(codes)} jobs, exit codes {codes}", file=sys.stderr)
    return 1 if 1 in codes else max(codes, default=0)


# The kind of an option's value: a name of a presentation (_NAME), a
# comma-separated list of them (_NAMES) or a name of a cocycle (_COCYCLE),
# each of which the document must hold; or an integer from least to largest,
# written (least, largest) with None for no bound.  _REQUIRED stands for the
# default of an option that has none.
_NAME, _NAMES, _COCYCLE = "presentation", "presentations", "cocycle"
_REQUIRED = object()
_PAIR = {"a": ("A", _NAME), "b": ("B", _NAME)}
_SWEEP = {"max_len": (3, (1, MAX_MULTIDEGREE_LEN)),
          "budget": (None, (1, None))}

# Every command: its handler, its help line, its positional argument and its
# options, each option mapped to its default and its kind.  The parser,
# _check and `run` all read this one table.  A command whose positional
# argument is `doc` gets the document as read and checked; each but `run`
# may be named by a job of a document, whose args may hold exactly the
# command's options.
_COMMANDS = {
    "decide": (_cmd_decide, "decide embeddability", "doc", _PAIR),
    "construct": (_cmd_construct, "build and certify an embedding", "doc",
                  _PAIR),
    "verify": (_cmd_verify, "re-verify a construct report", "report", {}),
    "identity-inclusion": (_cmd_inclusion,
                           "bounded identity-space inclusion check", "doc",
                           {**_PAIR, **_SWEEP}),
    "envelope": (_cmd_envelope, "cocycle twist with certified iso", "doc",
                 {"b": _PAIR["b"], "cocycle": (_REQUIRED, _COCYCLE)}),
    "semisimple-embed": (_cmd_semisimple,
                         "embed a direct sum into a power of the target",
                         "doc", {"a": (_REQUIRED, _NAMES),
                                 "b": (_REQUIRED, _NAMES)}),
    "corpus-run": (_cmd_corpus, "seeded corpus sweep", None,
                   {"seed": (0, (None, None)),
                    "order_bound": (6, (2, MAX_GROUP_ORDER)),
                    "count": (220, (0, None)), **_SWEEP,
                    "workers": (1, (1, None))}),
    "run": (_cmd_run, "execute the jobs listed in a document", "doc", {}),
}
_JOBS = {name for name, (_, _, arg, _) in _COMMANDS.items()
         if arg == "doc"} - {"run"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use.  Parsing reads it and
    never changes it: each call gets a fresh Namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="gradalg",
        description="decide, build and verify graded embeddings of "
                    "graded-simple algebra presentations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, arg, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if arg is not None:
            p.add_argument(arg)
        for key, (default, kind) in options.items():
            p.add_argument(
                _flag(key), type=int if isinstance(kind, tuple) else str,
                default=None if default is _REQUIRED else default,
                required=default is _REQUIRED,
                help="comma-separated presentation names"
                     if kind == _NAMES else None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, _, arg, options = _COMMANDS[args.command]
    # on the command line an option is None only when it is left unset
    given = {key: getattr(args, key) for key in options
             if getattr(args, key) is not None}
    try:
        _check(args.command, given, _flag)
        if arg != "doc":
            return handler(args)
        doc = _load_doc(args.doc)
        _check(args.command, given, _flag, doc)
        return handler(args, doc)
    except (GradAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
