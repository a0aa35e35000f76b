"""Tests for exact LDL^T, Gram expansion, and SOS certificate verification."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sosconvex.biquadratic import builtin
from sosconvex.certificates import (
    SosCertificate,
    SymRationalMatrix,
    Verdict,
    builtin_certificate,
    certificate_from_text,
    certificate_to_text,
    gram_expand,
    is_even_power_sum,
    ldlt_psd_check,
    unit_multiplier,
    verify_sos_certificate,
)
from sosconvex.forms import Form, FormatError


class TestLdlt:
    def test_identity_positive_definite(self):
        assert ldlt_psd_check(SymRationalMatrix.identity(4)).verdict is Verdict.POSITIVE_DEFINITE

    def test_zero_positive_semidefinite(self):
        assert ldlt_psd_check(SymRationalMatrix.zero(3)).verdict is Verdict.POSITIVE_SEMIDEFINITE

    def test_negative_pivot_rejected(self):
        m = SymRationalMatrix([[F(1), F(2)], [F(2), F(1)]])
        report = ldlt_psd_check(m)
        assert report.verdict is Verdict.NOT_PSD
        assert report.failure_index == 2

    def test_zero_pivot_nonzero_row_rejected(self):
        m = SymRationalMatrix([[F(0), F(1)], [F(1), F(0)]])
        report = ldlt_psd_check(m)
        assert report.verdict is Verdict.NOT_PSD and report.failure_index == 1

    def test_rank_one_psd(self):
        v = [F(2), F(-3), F(5)]
        m = SymRationalMatrix([[a * b for b in v] for a in v])
        assert ldlt_psd_check(m).verdict is Verdict.POSITIVE_SEMIDEFINITE

    def test_agrees_with_sympy_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(30):
            a = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            s = [[sum(a[i][k] * a[j][k] for k in range(4)) for j in range(4)] for i in range(4)]
            # s = A A^T is PSD; s - shift*I may not be
            shift = F(rng.randint(0, 4))
            rows = [[s[i][j] - (shift if i == j else 0) for j in range(4)] for i in range(4)]
            ours = ldlt_psd_check(SymRationalMatrix(rows)).is_psd()
            theirs = sympy.Matrix(4, 4, lambda i, j: sympy.Rational(rows[i][j])).is_positive_semidefinite
            assert ours == theirs


def reference_ldlt(rows):
    """Textbook LDL^T in Fractions: (verdict, pivots, failure index)."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots = []
    saw_zero = False
    for k in range(n):
        piv = a[k][k]
        pivots.append(piv)
        if piv < 0 or (piv == 0 and any(a[k][k:])):
            return Verdict.NOT_PSD, pivots, k + 1
        if piv == 0:
            saw_zero = True
            continue
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return (Verdict.POSITIVE_SEMIDEFINITE if saw_zero else Verdict.POSITIVE_DEFINITE), pivots, None


def assert_matches_reference(m):
    report = ldlt_psd_check(m)
    assert (report.verdict, report.pivots, report.failure_index) == reference_ldlt(m.rows)


rationals = st.fractions(-5, 5, max_denominator=12)


@st.composite
def symmetric_matrices(draw):
    """Low-rank sums of weighted rational outer products, optionally with one
    row and column zeroed or with a signed diagonal shift."""
    d = draw(st.integers(1, 8))
    rank = draw(st.integers(0, d))
    vectors = draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=rank, max_size=rank))
    weights = draw(st.lists(st.fractions(F(1, 9), 3, max_denominator=9), min_size=rank, max_size=rank))
    rows = [
        [sum((w * v[i] * v[j] for w, v in zip(weights, vectors)), F(0)) for j in range(d)]
        for i in range(d)
    ]
    kind = draw(st.sampled_from(["psd", "zeroed", "shifted"]))
    if kind == "zeroed":
        z = draw(st.integers(0, d - 1))
        for i in range(d):
            rows[i][z] = rows[z][i] = F(0)
    elif kind == "shifted":
        for i, shift in enumerate(draw(st.lists(rationals, min_size=d, max_size=d))):
            rows[i][i] += shift
    return SymRationalMatrix(rows)


class TestLdltAgainstReference:
    """The fraction-free elimination reports what textbook LDL^T reports."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(symmetric_matrices())
    def test_generated_matrices(self, m):
        assert_matches_reference(m)

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parents[1] / "perfbench" / "corpus" / "verify").glob("*.cert")),
        ids=lambda p: p.stem,
    )
    def test_corpus_certificates(self, path):
        assert_matches_reference(certificate_from_text(path.read_text()).q)

    def test_shipped_certificate(self):
        assert_matches_reference(builtin_certificate().q)


class TestGramExpand:
    def test_single_monomial(self):
        f = gram_expand([(1, 0)], SymRationalMatrix([[F(12)]]))
        assert f == Form(2, 2, {(2, 0): F(12)})

    def test_off_diagonal_doubles(self):
        z = [(1, 0), (0, 1)]
        q = SymRationalMatrix([[F(0), F(3)], [F(3), F(0)]])
        assert gram_expand(z, q) == Form(2, 2, {(1, 1): F(6)})

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            gram_expand([(1, 0)], SymRationalMatrix.identity(2))


class TestVerification:
    def test_builtin_certificate_accepted(self):
        b = builtin("b_thm22")
        result = verify_sos_certificate(b, builtin_certificate())
        assert result.accepted

    def test_builtin_q_positive_definite(self):
        report = ldlt_psd_check(builtin_certificate().q)
        assert report.verdict is Verdict.POSITIVE_DEFINITE

    def test_builtin_identity_via_sympy(self):
        # independent oracle: 384 (x1^2 + x2^2) b == z^T Q z symbolically
        cert = builtin_certificate()
        b = builtin("b_thm22")
        xs = sympy.symbols("v1:7")
        z = [sympy.prod(s**e for s, e in zip(xs, m)) for m in cert.z]
        lhs = 384 * sympy.Rational(1) * sympy.expand(
            (xs[0] ** 2 + xs[1] ** 2)
            * sum(sympy.Rational(c) * sympy.prod(s**e for s, e in zip(xs, m))
                  for m, c in b.to_form().terms.items())
        )
        rhs = sympy.expand(
            sum(sympy.Rational(cert.q.rows[r][s]) * z[r] * z[s]
                for r in range(15) for s in range(15))
        )
        assert sympy.simplify(lhs - rhs) == 0

    def test_tampered_entry_rejected_with_mismatch(self):
        cert = builtin_certificate()
        rows = [list(r) for r in cert.q.rows]
        rows[0][0] += 1
        bad = SosCertificate(cert.z, SymRationalMatrix(rows), cert.multiplier, cert.scale)
        result = verify_sos_certificate(builtin("b_thm22"), bad)
        assert not result.accepted
        assert result.mismatch_monomial is not None
        assert result.expected != result.actual

    def test_non_psd_gram_rejected(self):
        z = [(2, 0), (0, 2)]
        q = SymRationalMatrix([[F(0), F(1)], [F(1), F(0)]])
        target = Form(2, 4, {(2, 2): F(2)})
        assert not verify_sos_certificate(target, SosCertificate(z, q, unit_multiplier(2), F(1)))

    def test_basis_and_q_sizes_must_agree(self):
        # a malformed certificate is an input error even when Q is not PSD
        z = [(2, 0)]
        q = SymRationalMatrix([[F(0), F(1)], [F(1), F(0)]])
        target = Form(2, 4, {(4, 0): F(1)})
        with pytest.raises(ValueError):
            verify_sos_certificate(target, SosCertificate(z, q, unit_multiplier(2), F(1)))

    def test_bad_multiplier_rejected(self):
        z = [(1, 0)]
        q = SymRationalMatrix([[F(1)]])
        mult = Form(2, 1, {(1, 0): F(1)})  # odd power: not admissible
        target = Form(2, 3, {(3, 0): F(1)})
        assert not verify_sos_certificate(target, SosCertificate(z, q, mult, F(1)))

    def test_even_power_sum_predicate(self):
        assert is_even_power_sum(Form(2, 2, {(2, 0): F(1), (0, 2): F(1)}))
        assert not is_even_power_sum(Form(2, 2, {(1, 1): F(1)}))
        assert not is_even_power_sum(Form(2, 2, {(2, 0): F(-1)}))


class TestSerialization:
    def test_roundtrip(self):
        cert = builtin_certificate()
        text = certificate_to_text(cert, block=3)
        again = certificate_from_text(text)
        assert again.z == cert.z and again.q == cert.q
        assert again.multiplier == cert.multiplier and again.scale == cert.scale

    def test_missing_section(self):
        with pytest.raises(FormatError):
            certificate_from_text("Z:\n1 0\n")

    def test_asymmetric_q_rejected(self):
        with pytest.raises(FormatError):
            certificate_from_text("Z:\n1 0\n0 1\nQ:\n2\n1/1 2/1\n3/1 1/1\nSCALE: 1/1\n")
