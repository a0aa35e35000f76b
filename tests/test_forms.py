"""Tests for exact sparse forms, calculus, and serialization."""

import random
import re
from fractions import Fraction as F

import pytest

from sosconvex.forms import (
    Form,
    FormatError,
    PolyMatrix,
    differentiate,
    euler_recover,
    fmt_frac,
    form_from_text,
    form_to_text,
    hessian,
    is_valid_hessian,
    linear_change,
    polymatrix_from_text,
    polymatrix_to_text,
    restrict_to_complement,
    substitute_linear,
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
    def test_substitute_identity(self):
        p = random_form(random.Random(3))
        ident = [[F(i == j) for j in range(3)] for i in range(3)]
        assert substitute_linear(p, ident) == p

    def test_linear_change_composition(self):
        p = x(1) ** 2
        # x1 -> x1 + x2
        b = [[F(1), F(1)], [F(0), F(1)]]
        q = substitute_linear(Form.variable(2, 1) ** 2, b)
        assert q == (Form.variable(2, 1) + Form.variable(2, 2)) ** 2
        assert linear_change(Form.variable(2, 1) ** 2, b) == q

    def test_restrict_to_complement_kills_pivot(self):
        # restricting x1^2 to the complement of x1 + x2 eliminates x1
        f = Form.variable(2, 1) ** 2
        g = restrict_to_complement(f, [F(1), F(1)])
        assert g.n_vars == 1
        assert g == Form.variable(1, 1) ** 2  # x1 = -x2 on the hyperplane


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
        ],
        ids=["zero_denominator", "index_above_dim", "index_zero", "fractional_exponent"],
    )
    def test_bad_polymat_line_raises_format_error(self, body, line):
        with pytest.raises(FormatError, match=re.escape(repr(line))):
            polymatrix_from_text("polymat n=2 dim=2 d=2\n" + body)

    def test_bad_rational_raises_format_error(self):
        with pytest.raises(FormatError):
            form_from_text("form n=2 d=2\n1/0 2 0\n")
