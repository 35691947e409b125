"""Document parsing, CLI reports, determinism and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradalg.cli import main, parse_doc
from gradalg.corpus import run_corpus
from gradalg.errors import ParseError, ValidationError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "gradalg.cli", *args],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    return proc


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
    with pytest.raises(ParseError):
        parse_doc("{not json")


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
])
def test_parse_rejects_malformed_doc_without_traceback(tmp_path, capsys, doc,
                                                        argv, path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert main([*argv, str(doc_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {path}: " in err


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


@pytest.mark.parametrize("text, path", [
    ("{not json", "$"),
    ("[]", "$"),
    (json.dumps({"a": "A", "b": "A", "hom": {"images": []}}), "$.doc"),
    (json.dumps(_STRAY_IMAGE), "$.hom.images[0]"),
    (json.dumps(_DUPLICATE_IMAGE), "$.hom.images[1]"),
], ids=["invalid-json", "top-level-list", "no-doc", "stray-image-key",
        "duplicate-image-key"])
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


@pytest.mark.parametrize("argv, flag", [
    (["corpus-run", "--order-bound", "1"], "--order-bound"),
    (["corpus-run", "--order-bound", "0"], "--order-bound"),
    (["corpus-run", "--max-len", "0"], "--max-len"),
    (["corpus-run", "--max-len", "-1"], "--max-len"),
    (["corpus-run", "--limit", "-1"], "--limit"),
    (["corpus-run", "--count", "-1"], "--count"),
    (["corpus-run", "--budget", "0"], "--budget"),
    (["corpus-run", "--workers", "0"], "--workers"),
    (["identity-inclusion", _KLEIN, "--b", "B2", "--max-len", "0"],
     "--max-len"),
    (["identity-inclusion", _KLEIN, "--b", "B2", "--budget", "0"],
     "--budget"),
])
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
    out = run_cli(["corpus-run", "--seed", "7", "--count", "12",
                   "--limit", "12"])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["count"] == 12
    assert report["true_decisions"] + report["false_decisions"] == 12
    again = run_cli(["corpus-run", "--seed", "7", "--count", "12",
                     "--limit", "12"])
    assert again.stdout == out.stdout


def test_corpus_workers_give_identical_records():
    serial = run_corpus(20250809, count=8, max_len=2, workers=1)
    pooled = run_corpus(20250809, count=8, max_len=2, workers=2)
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial,
                                                            sort_keys=True)


def test_main_error_exit():
    assert main(["decide", "/nonexistent/doc.json"]) == 1
