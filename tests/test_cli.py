"""Document parsing, CLI reports, determinism and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradalg import cli, linalg, scalars
from gradalg.cli import main, parse_doc
from gradalg.corpus import ambient_groups, generate_corpus, run_corpus
from gradalg.errors import ValidationError
from gradalg.groups import (MAX_CONDUCTOR, MAX_GROUP_ORDER, FiniteGroup,
                            build_group, dihedral_table)
from gradalg.identities import MAX_MULTIDEGREE_LEN

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_python(args, **kwargs):
    """`python *args` in a child that imports gradalg from src/."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    # a caller that keeps bytecode out of the source tree keeps it out of
    # the child's imports too
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=env, **kwargs,
    )


def run_cli(args):
    return run_python(["-m", "gradalg.cli", *args])


def test_parse_minimal_doc():
    doc = parse_doc(json.dumps({
        "version": 1,
        "group": {"kind": "cyclic", "n": 3},
        "presentations": {
            "A": {"H": {"elements": [0]},
                  "alpha": {"subgroup": {"elements": [0]},
                            "values": [[{"conductor": 1, "coeffs": [["1", "1"]]}]]},
                  "s": {"entries": [0]}}},
    }))
    assert doc.group.order == 3
    assert "A" in doc.presentations


def test_parse_rejects_bad_json():
    with pytest.raises(ValidationError, match="invalid JSON") as err:
        parse_doc("{not json")
    assert err.value.path == "$"


def test_parse_rejects_bad_cocycle():
    bad = {
        "version": 1,
        "group": {"kind": "cyclic", "n": 2},
        "presentations": {
            "A": {"H": {"elements": [0, 1]},
                  "alpha": {"subgroup": {"elements": [0, 1]},
                            "values": [
                                [{"conductor": 1, "coeffs": [["1", "1"]]},
                                 {"conductor": 1, "coeffs": [["-1", "1"]]}],
                                [{"conductor": 1, "coeffs": [["1", "1"]]},
                                 {"conductor": 1, "coeffs": [["1", "1"]]}]]},
                  "s": {"entries": [0]}}},
    }
    with pytest.raises(ValidationError) as err:
        parse_doc(json.dumps(bad))
    assert "presentations.A" in str(err.value)


def test_parse_rejects_unknown_job_reference():
    doc = {
        "version": 1,
        "group": {"kind": "cyclic", "n": 2},
        "presentations": {},
        "jobs": [{"command": "decide", "args": {"a": "X", "b": "Y"}}],
    }
    with pytest.raises(ValidationError):
        parse_doc(json.dumps(doc))


_GROUP = {"kind": "cyclic", "n": 2}
_TRIVIAL = {"H": {"elements": [0]},
            "alpha": {"subgroup": {"elements": [0]},
                      "values": [[{"conductor": 1, "coeffs": [["1", "1"]]}]]},
            "s": {"entries": [0]}}


def _klein_with_job(job):
    """The klein_twisted fixture with its last job replaced."""
    doc = json.loads((FIXTURES / "klein_twisted.json").read_text())
    doc["jobs"][-1] = job
    return doc


_INCLUSION = {"command": "identity-inclusion", "args": {"a": "A", "b": "B2"}}


# group specs whose numbers are not JSON integers: an order of 2.5, true or
# "6" once built Z2, Z1 or Z6 under int(), and a table of booleans Z2
_NOT_INTEGER_GROUPS = [
    {"kind": "cyclic", "n": 2.5},
    {"kind": "cyclic", "n": True},
    {"kind": "cyclic", "n": "6"},
    {"kind": "product", "factors": {"kind": "cyclic", "n": 2}},
    {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                    {"kind": "cyclic", "n": True}]},
    {"kind": "table", "table": [[True, False], [False, True]]},
    {"kind": "table", "table": [[0, 1.0], [1.0, 0]]},
]
_NOT_INTEGER_IDS = ["float-order", "bool-order", "string-order",
                    "object-factors", "bool-factor-order", "bool-table",
                    "float-table"]
# groups above MAX_GROUP_ORDER = 256, refused before any table is built:
# each once built and decided like any other
_TOO_LARGE_GROUPS = [
    {"kind": "cyclic", "n": 257},
    {"kind": "product", "factors": [{"kind": "cyclic", "n": 16},
                                    {"kind": "cyclic", "n": 17}]},
    {"kind": "table", "table": [[(a + b) % 257 for b in range(257)]
                                for a in range(257)]},
]
_TOO_LARGE_IDS = ["large-cyclic", "large-product", "large-table"]


# No parametrized test here takes its ids from case positions, so a case
# added anywhere renames no other.  Cases that once had positional ids keep
# them as written ids, which other records name; new cases get descriptive
# names.
_MALFORMED_DOC_IDS = [
    "doc0-argv0-$.presentations",
    "doc1-argv1-$.jobs[0]",
    "doc2-argv2---b",
    "doc3-argv3-$.jobs[2].args.max_len",
    "doc4-argv4-$.jobs[2].args.max_len",
    "doc5-argv5-$.jobs[2].args.cocycle",
    "doc6-argv6-$.version",
    "doc7-argv7-$.version",
    "doc8-argv8-$.group",
    "doc9-argv9-$.group",
    "doc10-argv10-$.group",
    "doc11-argv11-$.group",
    "doc12-argv12-$.group",
    "doc13-argv13-$.group",
    "doc14-argv14-$.group",
    "doc15-argv15-$.group",
    "doc16-argv16-$.group",
    "doc17-argv17-$.group",
    "doc18-argv18-$.jobs[2].args.a",
    "doc19-argv19-$.jobs[2].args.cocycle",
    "doc20-argv20-$.jobs[2].args.a",
    "doc21-argv21-$.jobs[2].args.max_len",
    "doc22-argv22-$.jobs[2].args.max_len",
    "doc23-argv23-$.jobs[2].args.budget",
    "doc24-argv24-$.jobs[2].args.max_len",
    "{not json-argv25-$",
    "table-name-not-string",
]


@pytest.mark.parametrize("doc, argv, path", [
    ({"group": _GROUP, "presentations": [_TRIVIAL]}, ["decide"],
     "$.presentations"),
    ({"group": _GROUP, "presentations": {"A": _TRIVIAL}, "jobs": ["decide"]},
     ["run"], "$.jobs[0]"),
    ({"group": _GROUP, "presentations": {"A": _TRIVIAL}}, ["decide"], "--b"),
    (_klein_with_job({**_INCLUSION, "args": {"a": "A", "max_len": "3"}}),
     ["run"], "$.jobs[2].args.max_len"),
    (_klein_with_job({**_INCLUSION, "args": {"a": "A", "max_len": None}}),
     ["run"], "$.jobs[2].args.max_len"),
    (_klein_with_job({"command": "envelope",
                      "args": {"b": "A", "cocycle": ["x"]}}),
     ["run"], "$.jobs[2].args.cocycle"),
    ({**_klein_with_job(_INCLUSION), "version": True}, ["run"], "$.version"),
    ({**_klein_with_job(_INCLUSION), "version": 1.0}, ["run"], "$.version"),
    *[({"group": group, "presentations": {"A": _TRIVIAL}}, ["decide"],
       "$.group") for group in _NOT_INTEGER_GROUPS + _TOO_LARGE_GROUPS],
    # each job is checked against what its command reads before any job
    # runs; these once failed as `--b`, as `$.cocycles` and, after two jobs
    # had run, as `--a`, and the last one ran a length-7 sweep
    (_klein_with_job({"command": "semisimple-embed"}), ["run"],
     "$.jobs[2].args.a"),
    (_klein_with_job({"command": "envelope", "args": {"b": "B2"}}), ["run"],
     "$.jobs[2].args.cocycle"),
    (_klein_with_job({"command": "decide", "args": {"a": "A,B2", "b": "B2"}}),
     ["run"], "$.jobs[2].args.a"),
    (_klein_with_job({**_INCLUSION, "args": {
        "a": "A", "b": "B2", "max_len": MAX_MULTIDEGREE_LEN + 1}}),
     ["run"], "$.jobs[2].args.max_len"),
    # a job takes exactly its command's options: decide reads no max_len,
    # which was once range-checked and dropped, and an inclusion's budget,
    # once dropped unchecked, is checked as `--budget` is
    (_klein_with_job({"command": "decide", "args": {"a": "A", "b": "B2",
                                                    "max_len": 3}}),
     ["run"], "$.jobs[2].args.max_len"),
    (_klein_with_job({**_INCLUSION, "args": {"a": "A", "b": "B2",
                                             "budget": 0}}),
     ["run"], "$.jobs[2].args.budget"),
    (_klein_with_job({**_INCLUSION, "args": {"a": "A", "b": "B2",
                                             "max_len": True}}),
     ["run"], "$.jobs[2].args.max_len"),
    # invalid JSON was once reported with no path, unlike in a verify report
    ("{not json", ["run"], "$"),
    # a table group's name was once any JSON value, copied into reports
    ({"group": {"kind": "table", "table": [[0, 1], [1, 0]], "name": 5},
      "presentations": {"A": _TRIVIAL}}, ["decide"], "$.group"),
], ids=_MALFORMED_DOC_IDS)
def test_parse_rejects_malformed_doc_without_traceback(tmp_path, capsys, doc,
                                                        argv, path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([*argv, str(doc_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: {path}: " in captured.err


@pytest.mark.parametrize("command", ["x", ["decide"], None],
                         ids=["x", "command1", "None"])
def test_run_rejects_unknown_job_command(tmp_path, capsys, command):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_klein_with_job({"command": command})))
    assert main(["run", str(doc_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: $.jobs[2].command: unknown: {command!r}" in err


def test_run_reads_its_document_once(tmp_path, capsys, monkeypatch):
    """A `run` parses its document once (it once parsed it four times,
    re-validating every cocycle each time), and writes the reports each job
    writes as a command of its own, with the same options.  A job's budget
    was once dropped, so the fourth job here, whose sweep exceeds it, ran.
    A job that errs once ended the run: the job after it never ran and no
    summary was printed."""
    monkeypatch.delenv("GRADALG_BUDGET", raising=False)
    doc = json.loads(Path(_KLEIN).read_text())
    doc["jobs"] += [{"command": "identity-inclusion", "args": {
        "a": "B2", "b": "A", "max_len": 2, "budget": budget}}
        for budget in (5, 5000)]
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    expected, codes = "", []
    for job in doc["jobs"]:
        argv = [job["command"], str(doc_path)]
        for key, value in job["args"].items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        codes.append(main(argv))
        expected += capsys.readouterr().out
    assert codes == [2, 0, 0, 1, 2]
    calls = []
    original = cli.parse_doc

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(cli, "parse_doc", counted)
    assert main(["run", str(doc_path)]) == 1
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    assert json.loads(captured.out.splitlines()[-1])["holds"] is False
    assert "error: job 3: assignment enumeration exceeds 5\n" in captured.err
    assert "run: 5 jobs, exit codes [2, 0, 0, 1, 2]" in captured.err


def test_run_survives_an_engine_fault(capsys, monkeypatch):
    """A failed engine self-check is the error of the job that reaches it.
    With linalg.rank patched to 0, IrrepData._verify refuses every minimal
    representation, so the decide and construct jobs err and the
    identity-inclusion job, which builds none, still runs.  The check once
    raised a bare ArithmeticError, which ended the run in a traceback with
    no summary line."""
    monkeypatch.delenv("GRADALG_BUDGET", raising=False)
    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: 0)
    assert main(["run", str(FIXTURES / "klein_twisted.json")]) == 1
    captured = capsys.readouterr()
    for k in (0, 1):
        assert (f"error: job {k}: matrix images do not span a full matrix "
                f"algebra\n") in captured.err
    assert json.loads(captured.out)["command"] == "identity-inclusion"
    assert "run: 3 jobs, exit codes [1, 1, 0]" in captured.err


# paths into the klein_twisted fixture: "*" stands for any presentation
# name and "k" for any job index
_FUZZ_PATHS = [
    ("version",), ("group",), ("presentations", "*", "H"),
    ("presentations", "*", "alpha"), ("presentations", "*", "s"),
    ("cocycles",), ("jobs",), ("jobs", "k", "command"), ("jobs", "k", "args"),
    ("jobs", "k", "args", "a"), ("jobs", "k", "args", "max_len"),
    ("jobs", "k", "args", "cocycle"),
]
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4)
    | st.sampled_from(["A", "B2", "twist"]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_survives_fuzzed_documents(tmp_path, monkeypatch, data):
    """One value of a fixture document replaced by a small JSON value: `run`
    ends with an exit code, never an exception."""
    monkeypatch.setenv("GRADALG_BUDGET", "50")
    doc = json.loads((FIXTURES / "klein_twisted.json").read_text())
    path = data.draw(st.sampled_from(_FUZZ_PATHS))
    node = doc
    for part in path[:-1]:
        if part == "*":
            part = data.draw(st.sampled_from(sorted(node)))
        elif part == "k":
            part = data.draw(st.integers(0, len(node) - 1))
        node = node[part]
    node[path[-1]] = data.draw(_SMALL_JSON)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert main(["run", str(doc_path)]) in (0, 1, 2)


_ONE = {"conductor": 1, "coeffs": [["1", "1"]]}
_STRAY_IMAGE = {
    "a": "A", "b": "A",
    "doc": {"version": 1, "group": _GROUP, "presentations": {"A": _TRIVIAL}},
    "hom": {"images": [{"key": [0, 0, 0],
                        "terms": [{"key": [1, 0, 0], "coeff": _ONE}]}]}}


_IDENTITY_IMAGE = {"key": [0, 0, 0],
                   "terms": [{"key": [0, 0, 0], "coeff": _ONE}]}
_DUPLICATE_IMAGE = {**_STRAY_IMAGE,
                    "hom": {"images": [_IDENTITY_IMAGE, _IDENTITY_IMAGE]}}
_DUPLICATE_TERM = {**_STRAY_IMAGE, "hom": {"images": [
    {**_IDENTITY_IMAGE, "terms": _IDENTITY_IMAGE["terms"] * 2}]}}


@pytest.mark.parametrize("text, path", [
    ("{not json", "$"),
    ("[]", "$"),
    (json.dumps({"a": "A", "b": "A", "hom": {"images": []}}), "$.doc"),
    (json.dumps({**_STRAY_IMAGE, "hom": None}), "$.hom"),
    (json.dumps(_STRAY_IMAGE), "$.hom.images[0]"),
    (json.dumps(_DUPLICATE_IMAGE), "$.hom.images[1]"),
    *[(json.dumps({**_STRAY_IMAGE,
                   "doc": {**_STRAY_IMAGE["doc"], "group": group}}),
       "$.doc.group") for group in _NOT_INTEGER_GROUPS + _TOO_LARGE_GROUPS],
    (json.dumps(_DUPLICATE_TERM), "$.hom.images[0]"),
], ids=["invalid-json", "top-level-list", "no-doc", "null-hom",
        "stray-image-key", "duplicate-image-key",
        *("group-" + i for i in _NOT_INTEGER_IDS + _TOO_LARGE_IDS),
        "duplicate-term-key"])
def test_verify_rejects_malformed_report_without_traceback(tmp_path, capsys,
                                                           text, path):
    report_path = tmp_path / "report.json"
    report_path.write_text(text)
    assert main(["verify", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path}: " in err


def _scalar_doc(value):
    """A one-presentation document whose only cocycle value is `value`."""
    alpha = {"subgroup": {"elements": [0]}, "values": [[value]]}
    return {"group": _GROUP, "presentations": {"A": {**_TRIVIAL,
                                                     "alpha": alpha}}}


@pytest.mark.parametrize("value", [
    {"conductor": 1, "coeffs": [[1.5, "1"]]},
    {"conductor": 1, "coeffs": [[True, "1"]]},
    {"conductor": 1, "coeffs": [["1", " 1"]]},
    {"conductor": True, "coeffs": [["1", "1"]]},
    {"conductor": 1.0, "coeffs": [["1", "1"]]},
], ids=["float-numerator", "bool-numerator", "padded-denominator",
        "bool-conductor", "float-conductor"])
def test_doc_rejects_scalars_that_are_not_written_exactly(tmp_path, capsys,
                                                          value):
    """Each of these reads as the scalar 1 under int(); none is the to_json
    form of a scalar, so the document is refused at its path."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_scalar_doc(value)))
    assert main(["decide", str(doc_path), "--a", "A", "--b", "A"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: $.presentations.A: " in err


def _one_at(conductor):
    """The scalar 1 written at `conductor`."""
    return {"conductor": conductor, "coeffs": [["1", "1"]] + [["0", "1"]]
            * (scalars.euler_phi(conductor) - 1)}


@pytest.mark.parametrize("doc, refused", [
    (_scalar_doc(_one_at(MAX_CONDUCTOR + 1)), MAX_CONDUCTOR + 1),
    ({"group": _GROUP, "presentations": {"A": {
        "H": {"elements": [0, 1]}, "s": {"entries": [0]},
        "alpha": {"subgroup": {"elements": [0, 1]},
                  "values": [[_one_at(1), _one_at(31)],
                             [_one_at(37), _one_at(1)]]}}}}, 31 * 37),
], ids=["above-the-cap", "lcm-above-the-cap"])
def test_doc_rejects_conductors_above_the_cap(tmp_path, capsys, monkeypatch,
                                              doc, refused):
    """A value at a conductor above MAX_CONDUCTOR is refused as it is
    read, and two values whose product lives at the lcm 31 * 37 = 1147 of
    theirs when the product is asked for; both at the document's path and
    before the power table of that conductor is built.  Building a
    table starts with its cyclotomic polynomial, which is made to fail
    above the cap here."""
    built = []
    original = scalars.cyclotomic_polynomial

    def guarded(m):
        if m > MAX_CONDUCTOR:
            built.append(m)
            raise AssertionError(f"power table built at conductor {m}")
        return original(m)

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", guarded)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert main(["decide", str(doc_path), "--a", "A", "--b", "A"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"error: $.presentations.A: conductor {refused} exceeds "
            f"{MAX_CONDUCTOR}") in err
    assert built == []


def _trivial_at(n, conductor):
    """Z/n with one presentation A: H = G, s = (0) and the trivial cocycle,
    each value written as 1 at `conductor`."""
    one = _one_at(conductor)
    alpha = {"subgroup": {"elements": list(range(n))},
             "values": [[one] * n for _ in range(n)]}
    return {"group": {"kind": "cyclic", "n": n}, "presentations": {"A": {
        "H": {"elements": list(range(n))}, "s": {"entries": [0]},
        "alpha": alpha}}}


@pytest.mark.parametrize("n, conductor", [
    (8, 33), (4, 129), (2, 509),
    pytest.param(64, 5, marks=pytest.mark.slow),
])
def test_doc_decides_past_the_cap_at_derived_conductors(tmp_path, capsys,
                                                        n, conductor):
    """The cap bounds conductors a document writes, not those the engine
    derives: splitting the trivial cocycle on Z/n at conductor m takes
    coboundary_solve to lcm(2, m) * n, above MAX_CONDUCTOR here, and the
    document decides as it did before there was a cap.  The Z/64 case
    takes about 14 s and 25 MB of peak RSS (CPython 3.11, one core of a
    2-core x86-64 VM); most of that time is validating its 64^3 triples."""
    assert (2 * conductor) * n > MAX_CONDUCTOR
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_trivial_at(n, conductor)))
    assert main(["decide", str(doc_path), "--a", "A", "--b", "A"]) == 0
    decision = json.loads(capsys.readouterr().out)["decision"]
    assert (decision["verdict"], decision["case"], decision["d"],
            decision["shift"]) == (True, "part23", 1, 0)


_DECIDE_PEAK_RSS = """
import contextlib, io, json, resource, sys
from gradalg.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["decide", sys.argv[1], "--a", "A", "--b", "A"])
print(json.dumps({"code": code,
                  "decision": json.loads(out.getvalue())["decision"],
                  "max_rss_kb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss}))
"""


@pytest.mark.slow
def test_large_admitted_doc_decides_in_bounded_memory(tmp_path):
    """Splitting the trivial cocycle on Z/64 solves a 4,097 x 64 exponent
    system.  The solver keeps no square matrix over the system's rows (one
    would hold 4,097^2 entries), so the decide, run in a child process that
    reports its own peak RSS, stays under 100 MB."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_trivial_at(64, 5)))
    proc = run_python(["-c", _DECIDE_PEAK_RSS, str(doc_path)], check=True)
    child = json.loads(proc.stdout)
    assert child["code"] == 0
    assert child["decision"]["verdict"] is True
    assert child["max_rss_kb"] < 100 * 1024


@pytest.mark.parametrize("coeff", [
    {"conductor": 1, "coeffs": [[1.5, "1"]]},
    {"conductor": 1, "coeffs": [["1", True]]},
    {"conductor": 4.7, "coeffs": [["1", "1"], ["0", "1"]]},
], ids=["float-numerator", "bool-denominator", "float-conductor"])
def test_verify_rejects_scalars_that_are_not_written_exactly(tmp_path, capsys,
                                                             coeff):
    """A report whose identity-map coefficient was edited to a value that
    int() would truncate is refused, not certified as the map it does not
    carry."""
    image = {"key": [0, 0, 0], "terms": [{"key": [0, 0, 0], "coeff": coeff}]}
    report = {**_STRAY_IMAGE, "hom": {"images": [image]}}
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: $.hom.images[0]: " in err


_KLEIN = str(FIXTURES / "klein_twisted.json")


def _klein_edited(edit):
    """The klein_twisted fixture after `edit(doc)`."""
    doc = json.loads((FIXTURES / "klein_twisted.json").read_text())
    edit(doc)
    return doc


def _append(items, value):
    items.append(value)


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["presentations"]["A"]["s"].update(entries=[True, 0.9, "1"]),
     "$.presentations.A"),
    (lambda d: d["presentations"]["A"]["H"].update(elements=[0, 1, 2, 3.0]),
     "$.presentations.A"),
    (lambda d: d["presentations"]["A"]["alpha"]["subgroup"].update(
        elements=["0", 1, 2, 3]), "$.presentations.A"),
    (lambda d: _append(d["presentations"]["A"]["alpha"]["values"],
                       ["garbage"]), "$.presentations.A"),
    (lambda d: _append(d["presentations"]["A"]["alpha"]["values"][0],
                       "garbage"), "$.presentations.A"),
    (lambda d: d["cocycles"]["twist"]["subgroup"].update(
        elements=[False, 1, 2, 3]), "$.cocycles.twist"),
    (lambda d: _append(d["cocycles"]["twist"]["values"], ["garbage"]),
     "$.cocycles.twist"),
], ids=["tuple-entries", "subgroup-elements", "cocycle-subgroup-elements",
        "extra-values-row", "long-values-row", "named-cocycle-elements",
        "named-cocycle-extra-row"])
def test_doc_rejects_group_elements_and_tables_that_are_not_exact(
        tmp_path, capsys, edit, path):
    """A group element must be a JSON integer, not a value int() reads as
    one, and a cocycle table exactly |H| rows of |H| values; each of these
    documents once decided with exit 0."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_klein_edited(edit)))
    assert main(["decide", str(doc_path), "--a", "A", "--b", "B2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path}: " in err


def _reorder_cocycle(cocycle, order):
    """List the cocycle's elements in `order`, its table written to match."""
    rows = cocycle["values"]
    cocycle["subgroup"]["elements"] = order
    cocycle["values"] = [[rows[a][b] for b in order] for a in order]


@pytest.mark.parametrize("edit, path", [
    (lambda d: _reorder_cocycle(d["presentations"]["A"]["alpha"],
                                [0, 2, 1, 3]), "$.presentations.A"),
    (lambda d: d["cocycles"]["twist"]["subgroup"].update(
        elements=[0, 1, 1, 2, 3]), "$.cocycles.twist"),
], ids=["reordered-elements", "duplicate-elements"])
def test_doc_rejects_cocycle_elements_out_of_order(tmp_path, capsys, edit,
                                                   path):
    """A table's rows and columns are read in increasing element order, so
    its elements must be listed strictly increasing; the reordered table
    once parsed and read alpha(1,2) as -1 where 1 was written."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_klein_edited(edit)))
    assert main(["decide", str(doc_path), "--a", "A", "--b", "B2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path}: " in err


@pytest.mark.parametrize("where, rewrite", [
    ("image", lambda key: [True, 0.0, 0.0]),
    ("image", lambda key: [float(x) for x in key]),
    ("term", lambda key: [x if x > 1 else bool(x) for x in key]),
    ("term", lambda key: [float(x) for x in key]),
], ids=["bool-image-key", "float-image-key", "bool-term-key",
        "float-term-key"])
def test_verify_rejects_basis_keys_that_are_not_integers(tmp_path, capsys,
                                                         where, rewrite):
    """A construct report whose key (1, 0, 0), or a term key of its image,
    is rewritten as values equal to those integers is refused at its path;
    each was once read as the original key and certified."""
    assert main(["construct", _KLEIN, "--a", "A", "--b", "B2"]) == 0
    report = json.loads(capsys.readouterr().out)
    n, entry = next((n, e) for n, e in enumerate(report["hom"]["images"])
                    if e["key"] == [1, 0, 0])
    held = entry if where == "image" else entry["terms"][0]
    held["key"] = rewrite(held["key"])
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: $.hom.images[{n}]: " in err


@pytest.mark.parametrize("argv, flag", [
    (["corpus-run", "--order-bound", "1"], "--order-bound"),
    (["corpus-run", "--order-bound", "0"], "--order-bound"),
    (["corpus-run", "--max-len", "0"], "--max-len"),
    (["corpus-run", "--max-len", "-1"], "--max-len"),
    (["corpus-run", "--workers", "2", "--order-bound", "1"], "--order-bound"),
    (["corpus-run", "--count", "-1"], "--count"),
    (["corpus-run", "--budget", "0"], "--budget"),
    (["corpus-run", "--workers", "0"], "--workers"),
    (["identity-inclusion", _KLEIN, "--b", "B2", "--max-len", "0"],
     "--max-len"),
    (["identity-inclusion", _KLEIN, "--b", "B2", "--budget", "0"],
     "--budget"),
], ids=["argv0---order-bound", "argv1---order-bound", "argv2---max-len",
        "argv3---max-len", "argv4---order-bound", "argv5---count",
        "argv6---budget", "argv7---workers", "argv8---max-len",
        "argv9---budget"])
def test_cli_rejects_out_of_range_numbers(capsys, argv, flag):
    """Each value is rejected before any work starts (and so before any
    worker process could)."""
    if argv[0] == "corpus-run" and "--count" not in argv:
        argv = [*argv, "--count", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: {flag}: must be an integer >= " in captured.err


def _refuse_cyclic(cls, n):
    raise AssertionError(f"cyclic group of order {n} built")


@pytest.mark.parametrize("argv, flag, bound", [
    (["identity-inclusion", _KLEIN, "--b", "B2", "--max-len", "7"],
     "--max-len", MAX_MULTIDEGREE_LEN),
    (["corpus-run", "--count", "2", "--max-len", "7"], "--max-len",
     MAX_MULTIDEGREE_LEN),
    (["corpus-run", "--count", "1", "--order-bound", "257"], "--order-bound",
     MAX_GROUP_ORDER),
], ids=["inclusion-max-len", "corpus-max-len", "corpus-order-bound"])
def test_cli_rejects_numbers_above_their_bound(capsys, monkeypatch, argv,
                                               flag, bound):
    """A sweep longer than MAX_MULTIDEGREE_LEN and a corpus over groups
    larger than MAX_GROUP_ORDER are refused before any group is built
    (FiniteGroup.cyclic is made to fail here).  `--order-bound 5000` once
    built every cyclic table up to 5000 and ended in a MemoryError."""
    monkeypatch.setattr(FiniteGroup, "cyclic", classmethod(_refuse_cyclic))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: {flag}: must be an integer <= {bound}, " in captured.err


@pytest.mark.parametrize("order_bound", [1, MAX_GROUP_ORDER + 1])
def test_corpus_refuses_order_bounds_outside_its_groups(monkeypatch,
                                                        order_bound):
    """A library caller meets the corpus's order bound too, before any group
    is built: ambient_groups(400) once built every cyclic table up to order
    400 (3.9 s, 296 MB), and generate_corpus(0, 1, 3) drew from no group and
    ended in a ZeroDivisionError."""
    monkeypatch.setattr(FiniteGroup, "cyclic", classmethod(_refuse_cyclic))
    for call in (lambda: ambient_groups(order_bound),
                 lambda: generate_corpus(0, order_bound, 3),
                 lambda: run_corpus(0, order_bound, 3)):
        with pytest.raises(ValueError, match=f"order bound {order_bound} "):
            call()


def _refused_construct_doc():
    """Over Z/4: A = (Z/4, alpha, (0)) with alpha = d(mu), mu(1) = zeta_509,
    mu(3) = zeta_509^508 and mu(0) = mu(2) = 1, its values on H = {0, 2}
    (all 1) written at conductor 1 and the others at 509; and B = ({0, 2},
    1, (0, 1))."""
    mu = {0: 0, 1: 1, 2: 0, 3: 508}
    alpha = [[_one_at(1) if a % 2 == b % 2 == 0 else
              scalars.CyclotomicScalar.zeta(
                  509, (mu[a] + mu[b] - mu[(a + b) % 4]) % 509).to_json()
              for b in range(4)] for a in range(4)]
    return {"group": {"kind": "cyclic", "n": 4}, "presentations": {
        "A": {"H": {"elements": [0, 1, 2, 3]}, "s": {"entries": [0]},
              "alpha": {"subgroup": {"elements": [0, 1, 2, 3]},
                        "values": alpha}},
        "B": {"H": {"elements": [0, 2]}, "s": {"entries": [0, 1]},
              "alpha": {"subgroup": {"elements": [0, 2]},
                        "values": [[_one_at(1)] * 2] * 2}}}}


def test_true_decision_may_be_refused_at_construction(tmp_path, capsys):
    """The decision reads alpha only on H, at conductor 1, and is true.
    Construction rescales along the transversal by zeta_509 values, which
    meet the splitting's conductor 4 at lcm(509, 4) = 2036, above
    MAX_CONDUCTOR: the map is refused with ConductorTooLarge, exit 1 and
    no traceback."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_refused_construct_doc()))
    assert main(["decide", str(doc_path)]) == 0
    decision = json.loads(capsys.readouterr().out)["decision"]
    assert (decision["verdict"], decision["d"], decision["shift"]) == (
        True, 1, 0)
    assert main(["construct", str(doc_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: conductor 2036 exceeds {MAX_CONDUCTOR}" in captured.err


def test_decide_exit_codes():
    fixture = str(FIXTURES / "klein_twisted.json")
    ok = run_cli(["decide", fixture, "--a", "A", "--b", "B2"])
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["decision"]["verdict"] is True
    false = run_cli(["decide", fixture, "--a", "A", "--b", "B1"])
    assert false.returncode == 2
    assert json.loads(false.stdout)["decision"]["verdict"] is False


def test_reports_are_deterministic():
    fixture = str(FIXTURES / "zmod10_block_sum.json")
    first = run_cli(["decide", fixture, "--a", "A1", "--b", "B"])
    second = run_cli(["decide", fixture, "--a", "A1", "--b", "B"])
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith("{")


def test_construct_then_verify_round_trip(tmp_path):
    fixture = str(FIXTURES / "klein_twisted.json")
    built = run_cli(["construct", fixture, "--a", "A", "--b", "B2"])
    assert built.returncode == 0
    report = json.loads(built.stdout)
    assert report["certificate"]["injective"] is True
    report_path = tmp_path / "report.json"
    report_path.write_text(built.stdout)
    verified = run_cli(["verify", str(report_path)])
    assert verified.returncode == 0
    assert json.loads(verified.stdout)["certificate"] == report["certificate"]


def test_construct_sweeps_once_and_matches_verify(tmp_path, capsys, sweeps):
    fixture = str(FIXTURES / "klein_twisted.json")
    assert main(["construct", fixture, "--a", "A", "--b", "B2"]) == 0
    built = capsys.readouterr().out
    assert len(sweeps) == 1
    report_path = tmp_path / "report.json"
    report_path.write_text(built)
    assert main(["verify", str(report_path)]) == 0
    assert len(sweeps) == 2
    verified = json.loads(capsys.readouterr().out)
    assert verified["certificate"] == json.loads(built)["certificate"]


def test_construct_report_keeps_a_table_factor(tmp_path, capsys):
    """A report over D3 x Z2 names that group, not the abelian Z6 x Z2 of
    the same order, so verify re-certifies the map over the input group."""
    group = {"kind": "product", "factors": [
        {"kind": "table", "table": dihedral_table(3), "name": "D3"}, _GROUP]}
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps({"version": 1, "group": group,
                                    "presentations": {"A": {
                                        **_TRIVIAL, "s": {"entries": [0, 1]}}}}))
    assert main(["construct", str(doc_path), "--a", "A", "--b", "A"]) == 0
    built = capsys.readouterr().out
    rebuilt = build_group(json.loads(built)["doc"]["group"])
    assert rebuilt.table == build_group(group).table
    report_path = tmp_path / "report.json"
    report_path.write_text(built)
    assert main(["verify", str(report_path)]) == 0


def test_identity_inclusion_command():
    fixture = str(FIXTURES / "klein_twisted.json")
    out = run_cli(["identity-inclusion", fixture, "--a", "A", "--b", "B2",
                   "--max-len", "3"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["holds"] is True
    # reversed direction fails and reports a separator
    rev = run_cli(["identity-inclusion", fixture, "--a", "B2", "--b", "A",
                   "--max-len", "3"])
    assert rev.returncode == 2
    vi = json.loads(rev.stdout)["violation"]
    assert vi is not None and vi["separator"]["terms"]


def test_envelope_command():
    fixture = str(FIXTURES / "klein_twisted.json")
    out = run_cli(["envelope", fixture, "--b", "B2", "--cocycle", "twist"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["certificate"]["multiplicative"] is True


def test_semisimple_command():
    fixture = str(FIXTURES / "zmod10_block_sum.json")
    out = run_cli(["semisimple-embed", fixture, "--a", "A1,A2", "--b", "B"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["N"] == 2
    assert report["certificate"]["injective"] is True


def test_run_document_jobs():
    fixture = str(FIXTURES / "dihedral_regular.json")
    out = run_cli(["run", fixture])
    # the job list ends with a false decide, so the pipeline exit code is 2
    assert out.returncode == 2
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert lines[0]["command"] == "construct"
    assert lines[0]["certificate"]["injective"] is True
    assert lines[1]["decision"]["verdict"] is False


def test_corpus_run_limited():
    out = run_cli(["corpus-run", "--seed", "7", "--count", "12"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["count"] == 12
    assert report["true_decisions"] + report["false_decisions"] == 12
    again = run_cli(["corpus-run", "--seed", "7", "--count", "12"])
    assert again.stdout == out.stdout


def test_corpus_workers_give_identical_records():
    serial = run_corpus(20250809, count=8, max_len=2, workers=1)
    pooled = run_corpus(20250809, count=8, max_len=2, workers=2)
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial,
                                                            sort_keys=True)


def test_main_error_exit():
    assert main(["decide", "/nonexistent/doc.json"]) == 1


# the positional ids of these cases (see _MALFORMED_DOC_IDS)
_FIXTURE_REPORT_IDS = [
    "argv0-0-2d0b4058617340bdac8751519d83fcde6d78db77705e2032e997984f132a1999"
    "-None",
    "argv1-2-a4007d163afef2c059bc108f40d77c268f22d087b6ea5114b8990127888c0e79"
    "-None",
    "argv2-0-65ef58cd0740beba282412643abb382b0e7322bc19d88757c0d6b5e5fdf113dc"
    "-f653b5c41595c55222a59f60b89fae1049b84c7f6dac68eeee96ebd2ca0a5db6",
    "argv3-2-95bdaad96a39de21f4890dac1598e24c4aa43b43d9fbde27d45f5af05df301a8"
    "-None",
    "argv4-0-1857d4988df23f14ae0b6753a7aa3c4845bdf54fc34991d4fd1116674abb0329"
    "-None",
    "argv5-2-02e6590c26487ddeb37a3b8fe31d59b9a939a040869946f075bc770c8a22c3f6"
    "-None",
    "argv6-0-dc33f48e7c65fa99023ff6e2a7a1218ab1730ef05bc51fc234b54dbf8f345cb2"
    "-None",
    "argv7-0-9a77875543c200608a53418bc9eeca2e60bcd8cb43586c438843706653b086ce"
    "-d21dd2b6f5ce295559de9598f47271748009b62975244bbb7a7bc5569d2b0173",
    "argv8-0-2d4b1e8fec01a3051885047bae474dc211234143290d3e0d8b5747a30032785a"
    "-None",
    "argv9-2-ff5727faa4546bfe4b2d2473fa254c93ec0210a072361f06de7470e28394d383"
    "-None",
    "argv10-0-d34eff403406faa0ae9a599b726229ffb6c937175f8b2a76a7bda2bef109949c"
    "-None",
]


@pytest.mark.parametrize("argv, code, digest, verify_digest", [
    (["decide", "klein_twisted", "--a", "A", "--b", "B2"], 0,
     "2d0b4058617340bdac8751519d83fcde6d78db77705e2032e997984f132a1999", None),
    (["decide", "klein_twisted", "--a", "A", "--b", "B1"], 2,
     "a4007d163afef2c059bc108f40d77c268f22d087b6ea5114b8990127888c0e79", None),
    (["construct", "klein_twisted", "--a", "A", "--b", "B2"], 0,
     "65ef58cd0740beba282412643abb382b0e7322bc19d88757c0d6b5e5fdf113dc",
     "f653b5c41595c55222a59f60b89fae1049b84c7f6dac68eeee96ebd2ca0a5db6"),
    (["construct", "klein_twisted", "--a", "A", "--b", "B1"], 2,
     "95bdaad96a39de21f4890dac1598e24c4aa43b43d9fbde27d45f5af05df301a8", None),
    (["identity-inclusion", "klein_twisted", "--a", "A", "--b", "B2"], 0,
     "1857d4988df23f14ae0b6753a7aa3c4845bdf54fc34991d4fd1116674abb0329", None),
    (["identity-inclusion", "klein_twisted", "--a", "B2", "--b", "A"], 2,
     "02e6590c26487ddeb37a3b8fe31d59b9a939a040869946f075bc770c8a22c3f6", None),
    (["decide", "dihedral_regular", "--a", "A", "--b", "Breg"], 0,
     "dc33f48e7c65fa99023ff6e2a7a1218ab1730ef05bc51fc234b54dbf8f345cb2", None),
    (["construct", "dihedral_regular", "--a", "A", "--b", "Breg"], 0,
     "9a77875543c200608a53418bc9eeca2e60bcd8cb43586c438843706653b086ce",
     "d21dd2b6f5ce295559de9598f47271748009b62975244bbb7a7bc5569d2b0173"),
    (["identity-inclusion", "dihedral_regular", "--a", "A", "--b", "Breg"], 0,
     "2d4b1e8fec01a3051885047bae474dc211234143290d3e0d8b5747a30032785a", None),
    (["identity-inclusion", "dihedral_regular", "--a", "Breg", "--b", "A"], 2,
     "ff5727faa4546bfe4b2d2473fa254c93ec0210a072361f06de7470e28394d383", None),
    (["semisimple-embed", "zmod10_block_sum", "--a", "A1,A2", "--b", "B"], 0,
     "d34eff403406faa0ae9a599b726229ffb6c937175f8b2a76a7bda2bef109949c", None),
], ids=_FIXTURE_REPORT_IDS)
def test_fixture_reports_are_byte_identical(tmp_path, capsys, argv, code,
                                            digest, verify_digest):
    """The stdout bytes of each request on a fixture are pinned by a digest,
    and so is the `verify` of each construct report that carries a map:
    however a report is encoded, its bytes stay these."""
    argv = [argv[0], str(FIXTURES / f"{argv[1]}.json"), *argv[2:]]
    assert main(argv) == code
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == digest
    if verify_digest is not None:
        report_path = tmp_path / "report.json"
        report_path.write_text(report)
        assert main(["verify", str(report_path)]) == 0
        verified = capsys.readouterr().out
        assert hashlib.sha256(verified.encode()).hexdigest() == verify_digest


def test_corpus_report_is_byte_identical(capsys, monkeypatch):
    """The stdout bytes of the 220-instance corpus run are pinned by a
    digest, recorded before the scalar core became integer-only."""
    monkeypatch.delenv("GRADALG_BUDGET", raising=False)
    assert main(["corpus-run", "--seed", "20250809", "--count", "220"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "f4676be410d18235c66b7f3755ad2ba0ffe1b402e45cbaf40a3b54d31b5bd89e")


def test_repeated_calls_share_no_parser_state(capsys, monkeypatch):
    """Requests served in one process see only their own options: defaults
    come back after a call that overrode them, and a rejected call leaves
    the next one unharmed."""
    monkeypatch.delenv("GRADALG_BUDGET", raising=False)
    fixture = str(FIXTURES / "klein_twisted.json")
    inclusion = ["identity-inclusion", fixture, "--b", "B2"]
    assert main([*inclusion, "--max-len", "2", "--budget", "5"]) == 1
    assert "exceeds 5" in capsys.readouterr().err
    # the default budget and length again: the sweep fits and runs to 3
    assert main(inclusion) == 0
    assert json.loads(capsys.readouterr().out)["max_len"] == 3
    with pytest.raises(SystemExit) as exc:
        main(["decide", fixture, "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["decide", fixture, "--a", "A", "--b", "B2"]) == 0
    assert json.loads(capsys.readouterr().out)["decision"]["verdict"] is True
    corpus = ["corpus-run", "--count", "4", "--max-len", "1"]
    assert main([*corpus, "--order-bound", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["order_bound"] == 3
    assert main(corpus) == 0
    assert json.loads(capsys.readouterr().out)["order_bound"] == 6


def test_readme_command_lines_parse():
    """Each `gradalg` line of the README's "Command line" block, its `#`
    comment and `>` redirection dropped, parses with the parser the command
    table builds, so the documented commands stay in step with the table."""
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split(">")[0].split()
             for line in block.splitlines() if line.startswith("gradalg ")]
    assert len(lines) == 8
    for words in lines:
        try:
            cli._parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")
