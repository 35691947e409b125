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
from .errors import GradAlgError, ParseError, ValidationError
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


def parse_doc(text: str) -> InstanceDoc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return _doc_from_json(raw, "$")


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
    jobs = _section(raw, "jobs", list, root)
    for k, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise ValidationError(f"{root}.jobs[{k}]", "job must be an object")
        args, where = job.get("args", {}), f"{root}.jobs[{k}].args"
        if not isinstance(args, dict):
            raise ValidationError(where, "args must be an object")
        cmd = job.get("command")
        if not isinstance(cmd, str) or cmd not in _JOB_COMMANDS:
            raise ValidationError(f"{root}.jobs[{k}].command",
                                  f"unknown: {cmd!r}")
        max_len = args.get("max_len", 3)
        if type(max_len) is not int or not 1 <= max_len <= MAX_MULTIDEGREE_LEN:
            raise ValidationError(f"{where}.max_len", "max_len must be an "
                                  f"integer from 1 to {MAX_MULTIDEGREE_LEN}")
        if not isinstance(args.get("cocycle", ""), str):
            raise ValidationError(f"{where}.cocycle",
                                  "cocycle must be a string")
        if cmd == "envelope" and args.get("cocycle") not in cocycles:
            raise ValidationError(f"{where}.cocycle", "unknown cocycle "
                                  f"{args.get('cocycle')!r}")
        # semisimple-embed needs a and b, each a comma-separated list of
        # names; envelope reads one name in b, and every other command one
        # in a and one in b, each defaulting to its key in capitals
        for key in ("b",) if cmd == "envelope" else ("a", "b"):
            if cmd == "semisimple-embed":
                names = args.get(key)
                if not isinstance(names, str):
                    raise ValidationError(f"{where}.{key}",
                                          f"{cmd} needs a list of names")
                names = names.split(",")
            else:
                names = [args.get(key, key.upper())]
            for name in names:
                if not isinstance(name, str) or name not in presentations:
                    raise ValidationError(f"{where}.{key}",
                                          f"unknown presentation {name!r}")
    return InstanceDoc(version, group, presentations, cocycles, jobs)


def _load_doc(path: str) -> InstanceDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_doc(fh.read())


def _presentation(doc: InstanceDoc, name, option: str):
    """The presentation a command-line option or report field names, which
    the doc must hold."""
    if not isinstance(name, str) or name not in doc.presentations:
        raise ValidationError(option, f"unknown presentation {name!r}")
    return doc.presentations[name]


def _doc_slice(doc: InstanceDoc, names) -> dict:
    return {"version": doc.version,
            "group": group_to_json(doc.group),
            "presentations": {n: doc.presentations[n].to_json() for n in names}}


# the least and the largest value of each numeric option, None for no
# bound; the corpus cycles through the cyclic groups of order 2..order_bound
_RANGES = {"order_bound": (2, MAX_GROUP_ORDER), "count": (0, None),
           "max_len": (1, MAX_MULTIDEGREE_LEN), "limit": (0, None),
           "budget": (1, None), "workers": (1, None)}


def _check_ranges(args):
    """Reject a numeric option outside its range before any work starts;
    None means unset."""
    for attr, (least, largest) in _RANGES.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        option = "--" + attr.replace("_", "-")
        if value < least:
            raise ValidationError(option, f"must be an integer >= {least}, "
                                          f"got {value}")
        if largest is not None and value > largest:
            raise ValidationError(option, f"must be an integer <= "
                                          f"{largest}, got {value}")


def _emit(report: dict, human: str, verdict_false: bool) -> int:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":"))
                     + "\n")
    print(human, file=sys.stderr)
    return 2 if verdict_false else 0


def _cmd_decide(args, doc: InstanceDoc) -> int:
    a, b = _presentation(doc, args.a, "--a"), _presentation(doc, args.b, "--b")
    t0 = time.time()
    decision = decide(a, b)
    report = {"command": "decide", "a": args.a, "b": args.b,
              "decision": decision.to_json()}
    human = (f"decide {args.a} -> {args.b}: {decision.verdict} "
             f"(case {decision.case}, {time.time() - t0:.3f}s)")
    return _emit(report, human, not decision.verdict)


def _cmd_construct(args, doc: InstanceDoc) -> int:
    a, b = _presentation(doc, args.a, "--a"), _presentation(doc, args.b, "--b")
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
    a = _presentation(doc, report.get("a"), "$.a")
    b = _presentation(doc, report.get("b"), "$.b")
    src_keys, tgt_keys = set(a.basis_keys()), set(b.basis_keys())
    hom = report["hom"]
    entries = hom.get("images") if isinstance(hom, dict) else None
    if not isinstance(entries, list):
        raise ValidationError("$.hom.images", "images must be a list")
    images = {}
    for n, entry in enumerate(entries):
        try:
            key = _basis_key(entry["key"])
            terms = {_basis_key(t["key"]):
                     CyclotomicScalar.from_json(t["coeff"])
                     for t in entry["terms"]}
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
        text = fh.read()
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("$", f"invalid JSON: {exc}") from None
    if not isinstance(report, dict):
        raise ValidationError("$", "report must be an object")
    if report.get("hom") is None:
        raise ParseError("report carries no homomorphism to verify")
    hom = _hom_from_report(report)
    cert = verify_hom(hom)
    out = {"command": "verify", "a": report["a"], "b": report["b"],
           "certificate": cert.to_json()}
    human = f"verify: {cert!r}"
    return _emit(out, human, not cert.is_embedding)


def _cmd_inclusion(args, doc: InstanceDoc) -> int:
    a, b = _presentation(doc, args.a, "--a"), _presentation(doc, args.b, "--b")
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
    b = _presentation(doc, args.b, "--b")
    if args.cocycle not in doc.cocycles:
        raise ValidationError("--cocycle", f"unknown cocycle {args.cocycle!r}")
    alpha = doc.cocycles[args.cocycle]
    env = alpha_envelope(b, alpha)
    cert = verify_hom(env.iso)
    report = {"command": "envelope", "b": args.b, "cocycle": args.cocycle,
              "presentation": env.presentation.to_json(),
              "certificate": cert.to_json()}
    human = f"envelope of {args.b}: iso certified {cert.is_embedding}"
    return _emit(report, human, not cert.is_embedding)


def _cmd_semisimple(args, doc: InstanceDoc) -> int:
    a_names = args.a.split(",")
    b_names = args.b.split(",")
    a = SemisimplePresentation([_presentation(doc, n, "--a") for n in a_names])
    b = SemisimplePresentation([_presentation(doc, n, "--b") for n in b_names])
    t0 = time.time()
    copies, hom, cert = embed_into_power(a, b)
    report = {"command": "semisimple-embed", "a": a_names, "b": b_names,
              "N": copies, "certificate": cert.to_json(),
              "dims": {"a": a.dim, "b": b.dim}}
    human = (f"semisimple-embed: N={copies}, certified={cert.is_embedding} "
             f"({time.time() - t0:.3f}s)")
    return _emit(report, human, not cert.is_embedding)


# the commands a document's jobs may name: the validator, `run` and the
# parser all read this one table
_JOB_COMMANDS = {"decide": _cmd_decide, "construct": _cmd_construct,
                 "identity-inclusion": _cmd_inclusion,
                 "envelope": _cmd_envelope,
                 "semisimple-embed": _cmd_semisimple}


def _cmd_corpus(args) -> int:
    t0 = time.time()
    result = run_corpus(args.seed, args.order_bound, args.count,
                        args.max_len, get_budget(args.budget), args.limit,
                        args.workers)
    report = {"command": "corpus-run", **result}
    human = (f"corpus-run seed={args.seed}: {result['count']} instances, "
             f"{result['true_decisions']} true / "
             f"{result['false_decisions']} false, "
             f"{result['separators_verified']} separators verified, "
             f"{result['separators_inconclusive']} inconclusive "
             f"({time.time() - t0:.1f}s)")
    return _emit(report, human, False)


def _cmd_run(args) -> int:
    """Run each job of the document on the document as read once, with the
    options its args give (checked by _doc_from_json)."""
    doc = _load_doc(args.doc)
    codes = []
    for job in doc.jobs:
        given = job.get("args", {})
        job_args = argparse.Namespace(
            a=given.get("a", "A"), b=given.get("b", "B"),
            max_len=given.get("max_len", 3), cocycle=given.get("cocycle"),
            budget=None)
        codes.append(_JOB_COMMANDS[job["command"]](job_args, doc))
    print(f"run: {len(codes)} jobs, exit codes {codes}", file=sys.stderr)
    return max(codes, default=0)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use.  Parsing reads it and
    never changes it: each call gets a fresh Namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="gradalg",
        description="decide, build and verify graded embeddings of "
                    "graded-simple algebra presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    def job(name, about):
        command = _JOB_COMMANDS[name]
        p = sub.add_parser(name, help=about)
        p.add_argument("doc")
        p.set_defaults(func=lambda args: command(args, _load_doc(args.doc)))
        return p

    p = job("decide", "decide embeddability")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")

    p = job("construct", "build and certify an embedding")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")

    p = sub.add_parser("verify", help="re-verify a construct report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    p = job("identity-inclusion", "bounded identity-space inclusion check")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)

    p = job("envelope", "cocycle twist with certified iso")
    p.add_argument("--b", default="B")
    p.add_argument("--cocycle", required=True)

    p = job("semisimple-embed",
            "embed a direct sum into a power of the target")
    p.add_argument("--a", required=True, help="comma-separated component names")
    p.add_argument("--b", required=True, help="comma-separated component names")

    p = sub.add_parser("corpus-run", help="seeded corpus sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order-bound", type=int, default=6)
    p.add_argument("--count", type=int, default=220)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("run", help="execute the jobs listed in a document")
    p.add_argument("doc")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except GradAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
