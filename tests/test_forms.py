"""Tests for exact sparse forms, calculus, and serialization."""

import random
import re
from fractions import Fraction as F

import pytest

from sosconvex.biquadratic import biquadratic_from_text
from sosconvex.certificates import certificate_from_text
from sosconvex.dual import dual_from_text
from sosconvex.forms import (
    Form,
    FormatError,
    PolyMatrix,
    RationalTokens,
    complement_basis,
    differentiate,
    euler_recover,
    fmt_frac,
    form_from_text,
    form_to_text,
    hessian,
    is_valid_hessian,
    polymatrix_from_text,
    polymatrix_to_text,
)


def x(i, n=3):
    return Form.variable(n, i)


def random_form(rng, n=3, d=4, terms=6):
    f = Form.zero(n, d)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        c = F(rng.randint(-9, 9), rng.randint(1, 5))
        f = f + Form(n, d, {tuple(exps): c}) if c != 0 else f
    return f


class TestArithmetic:
    def test_zero_form_keeps_degree(self):
        z = Form.zero(3, 4)
        assert z.degree == 4 and z.is_zero()

    def test_add_cancellation_drops_term(self):
        f = x(1) ** 2
        g = f.scale(-1)
        assert (f + g).is_zero()

    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError):
            Form(2, 2, {(2, 0): F(1), (1, 0): F(1)})

    def test_mul_degrees_add(self):
        f = (x(1) + x(2)) * (x(1) - x(2))
        assert f == x(1) ** 2 - x(2) ** 2
        assert f.degree == 2

    def test_pow_matches_repeated_mul(self):
        f = x(1) + x(2).scale(2)
        assert f**3 == f * f * f

    def test_evaluate_exact(self):
        f = (x(1) + x(2) + x(3)) ** 4
        assert f.evaluate([F(1), F(1), F(1)]) == 81

    def test_evaluate_float(self):
        f = x(1) ** 2
        assert f.evaluate([0.5, 0, 0]) == pytest.approx(0.25)


class TestCalculus:
    def test_differentiate_power(self):
        assert differentiate(x(1) ** 4, 1) == (x(1) ** 3).scale(4)

    def test_hessian_symmetric(self):
        h = hessian((x(1) ** 2 * x(2) ** 2))
        assert h[1, 2] == h[2, 1]

    def test_euler_roundtrip(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_form(rng)
            if p.is_zero():
                continue
            assert euler_recover(hessian(p), 4) == p

    def test_choi_matrix_is_not_a_hessian(self):
        from sosconvex.biquadratic import builtin

        verdict = is_valid_hessian(builtin("choi_matrix"))
        assert not verdict
        assert verdict.witness == (1, 1, 3)
        assert verdict.lhs.is_zero()
        assert verdict.rhs == x(3).scale(-1)

    def test_real_hessian_is_valid(self):
        p = (x(1) + x(2) + x(3)) ** 4
        assert is_valid_hessian(hessian(p))


class TestSubstitution:
    def test_complement_basis_solves_for_the_largest_coordinate(self):
        c = [F(1, 2), F(-3), F(2)]
        basis = complement_basis(c)
        assert basis == [[F(1), F(1, 6), F(0)], [F(0), F(2, 3), F(1)]]
        assert all(sum(a * b for a, b in zip(v, c)) == 0 for v in basis)
        with pytest.raises(ValueError, match="must be nonzero"):
            complement_basis([0, 0, 0])


class TestSerialization:
    def test_fmt_frac_always_num_den(self):
        assert fmt_frac(F(3)) == "3/1"
        assert fmt_frac(F(-1, 2)) == "-1/2"

    def test_form_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_form(rng)
            assert form_from_text(form_to_text(p)) == p

    def test_polymat_roundtrip(self):
        h = hessian((x(1) + x(2) + x(3)) ** 4)
        assert polymatrix_from_text(polymatrix_to_text(h)) == h

    def test_bad_header_raises_format_error(self):
        with pytest.raises(FormatError):
            form_from_text("not a form\n")

    @pytest.mark.parametrize(
        "body, line",
        [
            ("entry 1 1\n1/0 2 0\n", "1/0 2 0"),
            ("entry 3 1\n1 2 0\n", "entry 3 1"),
            ("entry 0 1\n1 2 0\n", "entry 0 1"),
            ("entry 1 1\n1 1.5 0.5\n", "1 1.5 0.5"),
            ("entry 1 1\n1 1 1\n2 1 1\n", "2 1 1"),
            ("entry 1 1\n1 2 0\nentry 1 1\n3 0 2\n", "entry 1 1"),
            ("entry 1 2\n1 2 0\nentry 2 1\n3 0 2\n", "entry 2 1"),
        ],
        ids=[
            "zero_denominator",
            "index_above_dim",
            "index_zero",
            "fractional_exponent",
            "duplicate_term",
            "duplicate_entry",
            "transposed_entry",
        ],
    )
    def test_bad_polymat_line_raises_format_error(self, body, line):
        with pytest.raises(FormatError, match=re.escape(repr(line))):
            polymatrix_from_text("polymat n=2 dim=2 d=2\n" + body)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("entry 1 1\n1 3 0\n", "monomial (3, 0) is not of degree 2"),
            ("entry 1 2\n1 4 -2\n", "negative exponent in (4, -2)"),
            # each entry is built when its block closes: the first fault in
            # file order is the one reported
            ("entry 1 1\n1 4 -2\nentry 2 2\n1 3 0\n", "negative exponent in (4, -2)"),
        ],
        ids=["wrong_degree", "negative_exponent", "first_fault_in_file_order"],
    )
    def test_bad_polymat_term_raises_format_error(self, body, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            polymatrix_from_text("polymat n=2 dim=2 d=2\n" + body)

    def test_polymat_without_variables_raises_format_error(self):
        with pytest.raises(FormatError, match="n_vars must be positive"):
            polymatrix_from_text("polymat n=0 dim=1 d=2\n")

    @pytest.mark.parametrize(
        "parse, kind, header",
        [
            (form_from_text, "form", "form n=2"),
            (polymatrix_from_text, "polymat", "polymat n=2 dim=x d=2"),
            (biquadratic_from_text, "biq", "form n=2"),
        ],
    )
    def test_empty_file_and_bad_header(self, parse, kind, header):
        with pytest.raises(FormatError, match=f"^empty {kind} file$"):
            parse("# only a comment\n")
        with pytest.raises(FormatError, match=re.escape(f"bad {kind} header: {header!r}")):
            parse(header + "\n")

    def test_bad_rational_raises_format_error(self):
        with pytest.raises(FormatError):
            form_from_text("form n=2 d=2\n1/0 2 0\n")


def parse_in_every_format(token):
    """The token read as a form coefficient, a biquadratic coefficient, a Q
    entry and a dual value."""
    form = form_from_text(f"form n=1 d=2\n{token} 2\n")
    biq = biquadratic_from_text(f"biq n=1\n{token} 1 1 1 1\n")
    cert = certificate_from_text(f"Z:\n1\nQ:\n1\n{token}\n")
    dual = dual_from_text(f"ORDER: lex\nC:\n{token}\n")
    return [form.coefficient((2,)), biq.coefficient(1, 1, 1, 1), cert.q[1, 1], dual.c[0]]


class TestRationalTokens:
    # the int reading of signed digits over digits meets Fraction(str) at its edges
    @pytest.mark.parametrize("token", ["1.5", "-3/4", "+2", "7", "2e-1", "00012/0006", "-0", "١٢"])
    def test_accepts_what_fraction_accepts(self, token):
        assert RationalTokens()[token] == F(token)
        assert parse_in_every_format(token) == [F(token)] * 4
        if F(token) > 0:
            assert certificate_from_text(f"Z:\n1\nQ:\n1\n1\nSCALE: {token}\n").scale == F(token)

    @pytest.mark.parametrize(
        "token", ["1/0", "x", "nan", "inf", "1/2/3", "0x10", "--1", "+-1/2", "1/+2", "1/", "/2"]
    )
    def test_rejects_what_fraction_rejects(self, token):
        with pytest.raises((ValueError, ZeroDivisionError)):
            F(token)
        with pytest.raises((ValueError, ZeroDivisionError)):
            RationalTokens()[token]
        for parse, text in [
            (form_from_text, f"form n=1 d=2\n{token} 2\n"),
            (biquadratic_from_text, f"biq n=1\n{token} 1 1 1 1\n"),
            (certificate_from_text, f"Z:\n1\nQ:\n1\n{token}\n"),
            (certificate_from_text, f"Z:\n1\nQ:\n1\n1\nSCALE: {token}\n"),
            (dual_from_text, f"ORDER: lex\nC:\n{token}\n"),
        ]:
            with pytest.raises(FormatError):
                parse(text)

    def test_equal_entries_share_one_object(self):
        cert = certificate_from_text(
            "Z:\n2 0\n1 1\n0 2\nQ:\n3\n1/2 -1 1/2\n-1 1/2 -1\n1/2 -1 1/2\n"
        )
        rows = cert.q.rows
        assert len({id(v) for row in rows for v in row}) == 2
        assert rows[0][1] is rows[1][0] and rows[0][0] is rows[2][2]
