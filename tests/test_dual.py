"""Tests for dual certificates, moment matrices, and refutation verification."""

from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings, strategies as st

from sosconvex.biquadratic import BiquadraticForm, _monomials, builtin, hessian_form, key_exponents
from sosconvex.certificates import Verdict, ldlt_psd_check, sos_basis
from sosconvex.dual import (
    DualCertificate,
    dual_from_text,
    moment_matrix,
    pairing,
    verify_refutation,
)
from sosconvex.forms import Form, FormatError

# reference 9x9 localized moment matrix for the shipped functional, rows over
# x1y1..x3y3, which is b_thm22's pruned basis in the same order
REFERENCE_MOMENT = [
    [61, 0, -48, 0, -15, -7, -48, -7, 34],
    [0, 64, 35, -15, -37, -1, -7, -5, 1],
    [-48, 35, 66, -7, -1, -1, 34, 1, -23],
    [0, -15, -7, 64, -37, -5, 35, -1, 1],
    [-15, -37, -1, -37, 96, -15, -1, -15, 12],
    [-7, -1, -1, -5, -15, 18, 1, 12, -18],
    [-48, -7, 34, 35, -1, 1, 66, -1, -23],
    [-7, -5, 1, -1, -15, 12, -1, 18, -18],
    [34, 1, -23, 1, 12, -18, -23, -18, 37],
]


class TestPairing:
    def test_reference_pairing_value(self):
        assert pairing(builtin("c_dual"), builtin("b_thm22")) == -37

    def test_pairing_is_linear(self):
        cert = builtin("c_dual")
        b = builtin("b_thm22")
        assert pairing(cert, b.scale(F(3))) == -111

    def test_block_size_mismatch(self):
        # a functional on quartics in 4 variables cannot pair with one in 6
        cert = DualCertificate(_monomials(4, 4), [F(0)] * 35)
        with pytest.raises(ValueError):
            pairing(cert, builtin("b_thm22"))


@st.composite
def bases_and_functionals(draw):
    """A basis of 1-7 distinct monomials of one degree in 1-3 variables, and a
    functional with small rational values on some of its products and on
    monomials no product reaches."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    z = draw(st.lists(st.sampled_from(_monomials(n, d)), min_size=1, max_size=7, unique=True))
    pool = _monomials(n, 2 * d)
    monomials = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    c = draw(st.lists(values, min_size=len(monomials), max_size=len(monomials)))
    return z, DualCertificate(monomials, c)


class TestMomentMatrix:
    def test_matches_reference(self):
        z = sos_basis(builtin("b_thm22"))
        mm = moment_matrix(builtin("c_dual"), z)
        assert [[int(v) for v in row] for row in mm.rows] == REFERENCE_MOMENT

    def test_positive_definite(self):
        z = sos_basis(builtin("b_thm22"))
        report = ldlt_psd_check(moment_matrix(builtin("c_dual"), z))
        assert report.verdict is Verdict.POSITIVE_DEFINITE

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(bases_and_functionals())
    def test_equals_the_textbook_moment_matrix(self, case):
        z, cert = case
        values = dict(zip(cert.monomials, cert.c))
        textbook = [[values.get(tuple(a + b for a, b in zip(u, v)), 0) for v in z] for u in z]
        assert moment_matrix(cert, z).rows == textbook


class TestRefutation:
    def test_builtin_refutes_b(self):
        result = verify_refutation(builtin("c_dual"), builtin("b_thm22"))
        assert result.accepted
        assert result.pairing_value == -37
        assert "pairing = -37" in result.reason

    def test_nonnegative_pairing_rejected(self):
        cert = builtin("c_dual")
        result = verify_refutation(cert, builtin("b_thm22").scale(F(-1)))
        assert not result.accepted and result.pairing_value == 37

    def test_non_psd_moment_rejected(self):
        cert = builtin("c_dual")
        flipped = DualCertificate(cert.monomials, [-v for v in cert.c])
        result = verify_refutation(flipped, builtin("b_thm22"))
        assert not result.accepted
        assert "not PSD" in result.reason

    def test_empty_basis_admits_only_the_zero_form(self):
        # no square x_i^2 y_j^2 of x1 x2 y1 y2 is reachable, so pruning
        # empties the basis and any negative pairing refutes
        b = BiquadraticForm(2, {(1, 2, 1, 2): F(1)})
        assert sos_basis(b) == []
        cert = dual_from_text("ORDER: lex\nC:\n" + "0\n" * 4 + "-1\n" + "0\n" * 4)
        result = verify_refutation(cert, b)
        assert result and result.pairing_value == -1

    def test_rank_one_point_evaluation_is_valid_dual(self):
        # evaluating every monomial of the target's degree at a point gives a
        # rank-1, hence PSD, moment matrix; it refutes exactly when t(point) < 0
        nonconvex = Form(3, 4, {(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1, (0, 0, 4): 1})
        sextic = Form(2, 6, {(6, 0): 1, (0, 6): 1, (2, 4): -4})
        motzkin = Form(3, 6, {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1})
        cases = [
            (builtin("b_thm22").to_form(), [1, 2, -1, 3, -1, 1], False),
            (sextic, [1, 1], True),
            (sextic, [F(1, 2), 3], False),
            (motzkin, [1, 1, 1], False),  # a zero of Motzkin's form
            (hessian_form(nonconvex), [1, 0, 0, 0, 1, 0], True),
            (hessian_form(nonconvex), [1, 0, 0, 1, 0, 0], False),
        ]
        for t, point, refutes in cases:
            point = [F(v) for v in point]
            monomials = _monomials(t.n_vars, t.degree)
            values = [math.prod(v**e for v, e in zip(point, m)) for m in monomials]
            cert = DualCertificate(monomials, values)
            assert ldlt_psd_check(moment_matrix(cert, sos_basis(t))).is_psd()
            assert (t.evaluate(point) < 0) is refutes
            assert bool(verify_refutation(cert, t)) is refutes


class TestSerialization:
    def test_parse_builtin36(self):
        # the builtin36 ordering starts at x3^2 y3^2, then x3^2 y2 y3
        cert = builtin("c_dual")
        assert len(cert.monomials) == len(cert.c) == 36
        assert cert.monomials[:2] == [(0, 0, 2, 0, 0, 2), (0, 0, 2, 0, 1, 1)]
        assert cert.monomials[-1] == (2, 0, 0, 2, 0, 0)
        assert all(v.denominator == 1 for v in cert.c)
        assert pairing(cert, builtin("b_thm22")) == -37

    def test_parse_lex_infers_block_size(self):
        text = "ORDER: lex\nC:\n" + "".join(f"{i}/3\n" for i in range(9))
        cert = dual_from_text(text)
        # nine values: block size 2, pairs (1,1) (1,2) (2,2) in each block
        assert cert.c == [F(i, 3) for i in range(9)]
        assert cert.monomials[:4] == [(2, 0, 2, 0), (2, 0, 1, 1), (2, 0, 0, 2), (1, 1, 2, 0)]
        assert cert.monomials[-1] == (0, 2, 0, 2)

    def test_missing_order_line(self):
        with pytest.raises(FormatError):
            dual_from_text("C:\n1/1\n")

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            dual_from_text("ORDER: builtin36\nC:\n1/1\n")

    def test_unknown_ordering_name(self):
        with pytest.raises(FormatError):
            dual_from_text("ORDER: nope\nC:\n" + "0\n" * 36)

    def test_c_dual_in_lex_order(self):
        # lex lists the pairs (1,1) (1,2) (1,3) (2,2) (2,3) (3,3) in each
        # block, x-block pairs outermost
        pairs = [(i, j) for i in range(1, 4) for j in range(i, 4)]
        lex = [key_exponents(3, (*p, *q)) for p in pairs for q in pairs]
        shipped = builtin("c_dual")
        values = dict(zip(shipped.monomials, shipped.c))
        cert = dual_from_text("ORDER: lex\nC:\n" + "".join(f"{values[m]}\n" for m in lex))
        assert cert.monomials == lex
        assert dict(zip(cert.monomials, cert.c)) == values
        b = builtin("b_thm22")
        assert pairing(cert, b) == -37
        result = verify_refutation(cert, b)
        assert result.accepted and result.pairing_value == -37
