"""Batch front door: parse instance documents, run jobs, emit JSON reports.

Machine-readable reports go to stdout (deterministic: sorted keys, no
timings); a short human summary goes to stderr.  Exit codes: 0 success,
2 when the requested verdict is false, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cocycles import Cocycle
from .corpus import run_corpus
from .embed import construct, decide
from .envelope import alpha_envelope
from .errors import GradAlgError, ParseError, ValidationError
from .galg import GradedHom, GradedPresentation, verify_hom
from .groups import build_group, group_to_json
from .identities import get_budget, inclusion_bounded
from .scalars import CyclotomicScalar
from .semisimple import SemisimplePresentation, embed_into_power


class InstanceDoc:
    """A parsed and fully validated instance document."""

    SUPPORTED_VERSIONS = (1,)

    def __init__(self, version, group, presentations, cocycles, jobs, raw):
        self.version = version
        self.group = group
        self.presentations = presentations
        self.cocycles = cocycles
        self.jobs = jobs
        self.raw = raw


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
        if cmd not in ("decide", "construct", "identity-inclusion",
                       "envelope", "semisimple-embed"):
            raise ValidationError(f"{root}.jobs[{k}].command",
                                  f"unknown: {cmd!r}")
        max_len = args.get("max_len", 3)
        if type(max_len) is not int or max_len < 1:
            raise ValidationError(f"{where}.max_len",
                                  "max_len must be an integer >= 1")
        if not isinstance(args.get("cocycle", ""), str):
            raise ValidationError(f"{where}.cocycle",
                                  "cocycle must be a string")
        for key in ("a", "b"):
            name = args.get(key)
            if name is not None:
                for part in str(name).split(","):
                    if part not in presentations:
                        raise ValidationError(f"{where}.{key}",
                                              f"unknown presentation {part!r}")
    return InstanceDoc(version, group, presentations, cocycles, jobs, raw)


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


def _at_least(args, **minimums):
    """Reject a numeric option below its minimum; None means unset."""
    for attr, minimum in minimums.items():
        value = getattr(args, attr)
        if value is not None and value < minimum:
            raise ValidationError("--" + attr.replace("_", "-"),
                                  f"must be an integer >= {minimum}, "
                                  f"got {value}")


def _emit(report: dict, human: str, verdict_false: bool) -> int:
    json.dump(report, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")
    print(human, file=sys.stderr)
    return 2 if verdict_false else 0


def _cmd_decide(args) -> int:
    doc = _load_doc(args.doc)
    a, b = _presentation(doc, args.a, "--a"), _presentation(doc, args.b, "--b")
    t0 = time.time()
    decision = decide(a, b)
    report = {"command": "decide", "a": args.a, "b": args.b,
              "decision": decision.to_json()}
    human = (f"decide {args.a} -> {args.b}: {decision.verdict} "
             f"(case {decision.case}, {time.time() - t0:.3f}s)")
    return _emit(report, human, not decision.verdict)


def _cmd_construct(args) -> int:
    doc = _load_doc(args.doc)
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
            key = tuple(entry["key"])
            terms = {tuple(t["key"]): CyclotomicScalar.from_json(t["coeff"])
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


def _cmd_inclusion(args) -> int:
    _at_least(args, max_len=1, budget=1)
    doc = _load_doc(args.doc)
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


def _cmd_envelope(args) -> int:
    doc = _load_doc(args.doc)
    b = _presentation(doc, args.b, "--b")
    if args.cocycle not in doc.cocycles:
        raise ValidationError("$.cocycles", f"unknown cocycle {args.cocycle!r}")
    alpha = doc.cocycles[args.cocycle]
    env = alpha_envelope(b, alpha)
    cert = verify_hom(env.iso)
    report = {"command": "envelope", "b": args.b, "cocycle": args.cocycle,
              "presentation": env.presentation.to_json(),
              "certificate": cert.to_json()}
    human = f"envelope of {args.b}: iso certified {cert.is_embedding}"
    return _emit(report, human, not cert.is_embedding)


def _cmd_semisimple(args) -> int:
    doc = _load_doc(args.doc)
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


def _cmd_corpus(args) -> int:
    # the corpus cycles through the cyclic groups of order 2..order_bound
    _at_least(args, order_bound=2, count=0, max_len=1, limit=0, budget=1,
              workers=1)
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
    doc = _load_doc(args.doc)
    worst = 0
    outputs = []
    for job in doc.jobs:
        cmd = job["command"]
        job_args = argparse.Namespace(doc=args.doc, budget=None, **{
            "a": job.get("args", {}).get("a", "A"),
            "b": job.get("args", {}).get("b", "B"),
            "max_len": job.get("args", {}).get("max_len", 3),
            "cocycle": job.get("args", {}).get("cocycle"),
        })
        handler = {"decide": _cmd_decide, "construct": _cmd_construct,
                   "identity-inclusion": _cmd_inclusion,
                   "envelope": _cmd_envelope,
                   "semisimple-embed": _cmd_semisimple}[cmd]
        code = handler(job_args)
        worst = max(worst, code)
        outputs.append(code)
    print(f"run: {len(outputs)} jobs, exit codes {outputs}", file=sys.stderr)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradalg",
        description="decide, build and verify graded embeddings of "
                    "graded-simple algebra presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide embeddability")
    p.add_argument("doc")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("construct", help="build and certify an embedding")
    p.add_argument("doc")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-verify a construct report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identity-inclusion",
                       help="bounded identity-space inclusion check")
    p.add_argument("doc")
    p.add_argument("--a", default="A")
    p.add_argument("--b", default="B")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_inclusion)

    p = sub.add_parser("envelope", help="cocycle twist with certified iso")
    p.add_argument("doc")
    p.add_argument("--b", default="B")
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("semisimple-embed",
                       help="embed a direct sum into a power of the target")
    p.add_argument("doc")
    p.add_argument("--a", required=True, help="comma-separated component names")
    p.add_argument("--b", required=True, help="comma-separated component names")
    p.set_defaults(func=_cmd_semisimple)

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

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GradAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
