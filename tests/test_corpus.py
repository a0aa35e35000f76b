"""Every benchmark corpus instance reaches its known status.

The benchmark's certify and refute workloads (perfbench/corpus/manifest.json)
are run here once each, in the benchmark's three modes, and each CLI call of
its verify workload once, so a status or exit-code regression fails the test
suite and not only the benchmark. TestHarnessContract checks what the
benchmark scripts take from the package.
"""

import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from sosconvex.biquadratic import biquadratic_from_text, builtin, hessian_biquadratic, hessian_form
from sosconvex.certificates import (
    SymRationalMatrix,
    certificate_from_text,
    sos_basis,
    verify_sos_certificate,
)
from sosconvex.cli import main
from sosconvex.dual import verify_refutation
from sosconvex.forms import Form, form_from_text
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


def test_search_certificate_keeps_one_triangle():
    # the 36 x 36 Gram matrix of pow4_n6 is one tuple of its 666 upper-triangle
    # entries, with no per-row lists and no instance dict beside it
    q = check_sos_convexity(load(BY_ID["pow4_n6"]["target"])).certificate.q
    assert SymRationalMatrix.__slots__ == ("dim", "upper")
    assert type(q.upper) is tuple and len(q.upper) == 666
    assert not hasattr(q, "__dict__")


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


class TestHarnessContract:
    """What the benchmark scripts use of the package, read without running
    them: perfbench/harness.py and perfbench/gen_corpus.py stay as they are
    between benchmark changes, so the package keeps what they import and the
    BiquadraticForm targets they pass."""

    @pytest.mark.parametrize("script", ["harness.py", "gen_corpus.py"])
    def test_every_imported_name_exists(self, script):
        tree = ast.parse((CORPUS.parent / script).read_text(encoding="utf-8"))
        imports = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sosconvex"
            for alias in node.names
        ]
        assert imports
        for module, name in imports:
            # an attribute of the module, or else one of its submodules
            if not hasattr(importlib.import_module(module), name):
                importlib.import_module(f"{module}.{name}")

    def test_a_biq_target_is_not_a_form(self):
        # the harness's refute gate converts every Form target with
        # BiquadraticForm.from_form(target, w.ordering.n), and a
        # DualCertificate has no ordering: a biq target that were a Form
        # would end that gate with an AttributeError
        p = Form.linear([1, -2, 3]) ** 4
        assert not isinstance(builtin("b_thm22"), Form)
        assert not isinstance(hessian_biquadratic(p), Form)

    @pytest.mark.parametrize("source", ["search", "parsed"])
    def test_the_gram_reads_work(self, source):
        # the oracle's key and sum, gen_corpus.py's tampered copy and the
        # gate's denominator bits read rows and dim of a certificate's matrix
        if source == "search":
            cert = check_sos_convexity(load(BY_ID["pow4_n3"]["target"])).certificate
        else:
            text = (CORPUS / "verify" / "pow4_n3.cert").read_text(encoding="utf-8")
            cert = certificate_from_text(text)
        q = cert.q
        assert q.dim == len(cert.z) == len(q.rows)
        for r in range(q.dim):
            for s in range(q.dim):
                assert q.rows[r][s] == q.rows[s][r] == q[r + 1, s + 1]
        hash(tuple(map(tuple, q.rows)))  # the oracle's cache key
        rows = [list(r) for r in q.rows]
        rows[0][0] += 1
        assert q.rows[0][0] == rows[0][0] - 1
        assert SymRationalMatrix(rows) != q

    def test_the_entry_points_accept_a_biq_target(self):
        b = builtin("b_thm22")
        assert check_sos(b).status == "Refuted"
        assert verify_refutation(builtin("c_dual"), b)
        assert verify_sos_certificate(b, builtin("q22_cert"))
        p = Form.linear([1, -2, 3]) ** 4
        assert verify_sos_certificate(hessian_biquadratic(p), check_sos_convexity(p).certificate)
