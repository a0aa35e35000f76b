"""Every benchmark corpus instance reaches its known status.

The benchmark's certify and refute workloads (perfbench/corpus/manifest.json)
are run here once each, in the benchmark's three modes, and each CLI call of
its verify workload once, so a status or exit-code regression fails the test
suite and not only the benchmark.
"""

import json
from pathlib import Path

import pytest

from sosconvex.biquadratic import biquadratic_from_text
from sosconvex.cli import main
from sosconvex.forms import form_from_text
from sosconvex import search
from sosconvex.search import check_sos, check_sos_convexity

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
ENTRIES = [entry for workload in ("certify", "refute") for entry in MANIFEST["workloads"][workload]]
CALLS = MANIFEST["workloads"]["verify"]
EXPECTED = {"sos": "ExactCertificate", "not_sos": "Refuted"}
BY_ID = {e["id"]: e for e in ENTRIES}


def load(rel):
    text = (CORPUS / rel).read_text(encoding="utf-8")
    return biquadratic_from_text(text) if rel.endswith(".biq") else form_from_text(text)


def test_corpus_has_every_search_instance():
    assert [e["expect"] for e in ENTRIES].count("sos") == 10
    assert [e["expect"] for e in ENTRIES].count("not_sos") == 4
    assert len(CALLS) == 28


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_corpus_status(entry):
    target = load(entry["target"])
    if entry["mode"] == "sos-convex":
        outcome = check_sos_convexity(target)
    elif entry["mode"] == "nonneg-mult":
        outcome = check_sos(target, multiplier=load(entry["multiplier"]))
    else:
        outcome = check_sos(target)
    assert outcome.status == EXPECTED[entry["expect"]], outcome.diagnostics


@pytest.mark.parametrize("entry", CALLS, ids=[e["id"] for e in CALLS])
def test_corpus_verify_call(entry, capsys):
    files = set(entry["files"])
    argv = [str(CORPUS / a) if a in files else a for a in entry["argv"]]
    assert main(argv) == entry["expect_exit"], capsys.readouterr()


@pytest.fixture
def chunks(monkeypatch):
    """The DR evaluations of each chunk the search runs, in order."""
    evaluations = []
    run = search.douglas_rachford

    def counted(*args):
        for report in run(*args):
            evaluations.append(report.iterations)
            yield report

    monkeypatch.setattr(search, "douglas_rachford", counted)
    return evaluations


def test_face_forms_at_the_bound_certify_in_tens_of_evaluations(chunks):
    # the Anderson step reaches the face: plain DR spent 259 and 600
    # evaluations on these two
    for ident in ("face_T11_at", "face_T23_at"):
        assert check_sos_convexity(load(BY_ID[ident]["target"])).is_certified()
    assert sum(chunks) <= 100


@pytest.mark.parametrize("ident", ["face_T11_below", "face_T23_below"])
def test_face_forms_below_the_bound_refuted_from_the_first_chunk(ident, chunks):
    # the gap of the first chunk does not separate (the Anderson run's does
    # from evaluation 51 and 76 on), but a witness point, where the Hessian
    # form is negative, refutes right after it
    outcome = check_sos_convexity(load(BY_ID[ident]["target"]))
    assert outcome.status == "Refuted"
    assert outcome.diagnostics.startswith("y^T H(x) y = -")
    assert chunks == [25]
