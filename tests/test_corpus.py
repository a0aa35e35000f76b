"""Every benchmark corpus instance reaches its known status.

The benchmark's certify and refute workloads (perfbench/corpus/manifest.json)
are run here once each, in the benchmark's three modes, and each CLI call of
its verify workload once, so a status or exit-code regression fails the test
suite and not only the benchmark.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sosconvex.biquadratic import biquadratic_from_text, hessian_form
from sosconvex.certificates import sos_basis
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
    # the gaps of the start point and of the first chunk do not separate (the
    # Anderson run's does from evaluation 51 and 76 on), but a witness point,
    # where the Hessian form is negative, refutes right after the first chunk
    outcome = check_sos_convexity(load(BY_ID[ident]["target"]))
    assert outcome.status == "Refuted"
    assert outcome.diagnostics.startswith("y^T H(x) y = -")
    assert chunks == [0, 25]


def test_choi_refuted_at_the_start_point(chunks):
    # the gap at the least-norm fiber point already separates Choi's form
    outcome = check_sos(load(BY_ID["choi_sos"]["target"]))
    assert outcome.status == "Refuted"
    assert chunks == [0]


def test_power_sum_certified_from_the_start_report(chunks):
    # the least-norm fiber point of pow4_n4's Hessian form rounds to a
    # certificate, so no DR evaluation runs
    assert check_sos_convexity(load(BY_ID["pow4_n4"]["target"])).is_certified()
    assert chunks == [0]


def test_witness_search_stops_at_its_first_step(monkeypatch):
    # face_T23_below is refuted at a point of the first alternating step:
    # one eigh for y and one for x, not the 2 * WITNESS_STEPS of a full run
    hessian = hessian_form(load(BY_ID["face_T23_below"]["target"]))
    pz = search.parameterize(hessian, sos_basis(hessian))
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
    outcome = search.witness_refutation(hessian, pz)
    assert outcome.status == "Refuted" and outcome.point is not None
    assert len(eighs) == 2
