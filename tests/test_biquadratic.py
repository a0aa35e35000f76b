"""Tests for biquadratic forms, dimensions, and the corpus."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sosconvex.biquadratic import (
    BUILTIN_FILES,
    BiquadraticForm,
    _monomials,
    antisymmetric_dimension,
    biquadratic_from_text,
    biquadratic_to_text,
    builtin,
    dim_hessian,
    dim_nary,
    dim_symmetric,
    hessian_biquadratic,
    hessian_form,
    hessian_map_rank,
    is_symmetric,
    key_exponents,
    swap_xy,
)
from sosconvex.certificates import SosCertificate
from sosconvex.cli import main
from sosconvex.dual import DualCertificate
from sosconvex.forms import Form, FormatError, PolyMatrix, hessian


def random_quartic(rng, n=3):
    p = Form.zero(n, 4)
    for _ in range(8):
        exps = [0] * n
        for _ in range(4):
            exps[rng.randrange(n)] += 1
        p = p + Form(n, 4, {tuple(exps): F(rng.randint(-9, 9), rng.randint(1, 4))})
    return p


def quadratic_in_y(a):
    """y^T A(x) y as a Form over the x-variables of A's entries, then y,
    summed entry by entry over the pairs i <= j: the reference that
    hessian_form(p) is checked against, term order included."""
    n, m = a.n_vars, a.dim
    terms = {}
    for i in range(m):
        for j in range(i, m):
            # A is symmetric: entries (i, j) and (j, i) both feed y_i y_j
            y = [0] * m
            y[i] += 1
            y[j] += 1
            weight = 1 if i == j else 2
            for exps, c in a[i + 1, j + 1].terms.items():
                terms[exps + tuple(y)] = weight * c
    return Form(n + m, a.entry_degree + 2, terms)


def same_view(b, c):
    """Two views of one bidegree-(2, 2) form at one block size."""
    return b.n == c.n and b.to_form() == c.to_form()


def keyed_value(b, x, y):
    """b(x, y) summed over its biq terms: c x_i x_j y_k y_l per key (i, j, k, l)."""
    total = F(0)
    for exps, c in b.to_form().terms.items():
        xs = [i for i, e in enumerate(exps[: b.n]) for _ in range(e)]
        ys = [k for k, e in enumerate(exps[b.n :]) for _ in range(e)]
        total += c * x[xs[0]] * x[xs[1]] * y[ys[0]] * y[ys[1]]
    return total


def sympy_hessian_form(p):
    """y^T H_p(x) y from sympy's own Hessian, as a Form in 2n variables."""
    xs = sympy.symbols(f"x1:{p.n_vars + 1}")
    ys = sympy.symbols(f"y1:{p.n_vars + 1}")
    poly = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, m))
        for m, c in p.terms.items()
    )
    y = sympy.Matrix(ys)
    expr = sympy.expand((y.T * sympy.hessian(poly, xs) * y)[0])
    terms = sympy.Poly(expr, *xs, *ys).terms()
    return Form(2 * p.n_vars, p.degree, {m: F(int(c.p), int(c.q)) for m, c in terms})


class TestForms:
    def test_coefficient_key_normalization(self):
        b = BiquadraticForm(3, {(1, 2, 1, 3): F(5)})
        assert b.to_form().coefficient(key_exponents(3, (2, 1, 3, 1))) == 5

    def test_unnormalized_key_rejected(self):
        with pytest.raises(ValueError):
            BiquadraticForm(3, {(2, 1, 3, 1): F(5)})

    def test_evaluate_matches_form(self):
        # the Form puts the x-block first: its value at x + y is b(x, y)
        rng = random.Random(2)
        b = hessian_biquadratic(random_quartic(rng))
        x = [F(1), F(-2), F(3)]
        y = [F(2), F(1), F(-1)]
        assert keyed_value(b, x, y) == b.to_form().evaluate(x + y)

    def test_form_roundtrip(self):
        b = builtin("b_thm22")
        assert same_view(BiquadraticForm.from_form(b.to_form(), 3), b)

    def test_text_roundtrip(self):
        b = builtin("b_thm22")
        assert same_view(biquadratic_from_text(biquadratic_to_text(b)), b)

    def test_malformed_text(self):
        with pytest.raises(FormatError):
            biquadratic_from_text("biq n=3\n1/2 1 2 3\n")  # wrong index count


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def biquadratics(draw):
    """A BiquadraticForm with n = 1..3 from normalized keys and rational coefficients."""
    n = draw(st.integers(1, 3))
    pairs = st.sampled_from(_pairs(n))
    keys = st.tuples(pairs, pairs).map(lambda pq: (*pq[0], *pq[1]))
    return BiquadraticForm(n, draw(st.dictionaries(keys, rationals, max_size=12)))


view_settings = settings(derandomize=True, deadline=None, max_examples=60)


class TestView:
    """The biquadratic view agrees with its Form on generated inputs."""

    @view_settings
    @given(biquadratics())
    def test_form_and_text_roundtrip(self, b):
        assert b.to_form() is b.to_form()
        assert same_view(BiquadraticForm.from_form(b.to_form(), b.n), b)
        assert same_view(biquadratic_from_text(biquadratic_to_text(b)), b)

    @view_settings
    @given(biquadratics(), st.data())
    def test_evaluate_matches_form(self, b, data):
        point = st.lists(rationals, min_size=b.n, max_size=b.n)
        x, y = data.draw(point), data.draw(point)
        assert keyed_value(b, x, y) == b.to_form().evaluate(x + y)

    @view_settings
    @given(biquadratics())
    def test_coefficient_ignores_order_within_pairs(self, b):
        f = b.to_form()
        for (i, j), (k, l) in ((p, q) for p in _pairs(b.n) for q in _pairs(b.n)):
            c = f.coefficient(key_exponents(b.n, (i, j, k, l)))
            assert c == f.coefficient(key_exponents(b.n, (j, i, k, l)))
            assert c == f.coefficient(key_exponents(b.n, (i, j, l, k)))
            assert c == f.coefficient(key_exponents(b.n, (j, i, l, k)))

    @view_settings
    @given(biquadratics())
    def test_swap_is_involution_and_symmetrizes(self, b):
        f = b.to_form()
        assert swap_xy(swap_xy(f)) == f
        assert is_symmetric(f + swap_xy(f))


class TestHessian:
    def test_hessian_biquadratic_symmetric(self):
        rng = random.Random(7)
        for _ in range(25):
            assert is_symmetric(hessian_form(random_quartic(rng)))

    def test_hessian_form_agrees_for_quartics(self):
        p = random_quartic(random.Random(9))
        assert hessian_form(p) == hessian_biquadratic(p).to_form()
        # and with sympy's Hessian, for the quartic and for a sextic
        for q in (p, p * Form.linear([1, -2, 3]) ** 2):
            assert hessian_form(q) == sympy_hessian_form(q)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.integers(2, 6).flatmap(
                lambda d: st.dictionaries(
                    st.sampled_from(_monomials(n, d)),
                    st.fractions(-7, 7, max_denominator=6),
                    max_size=8,
                ).map(lambda terms: Form(n, d, terms))
            )
        )
    )
    def test_one_pass_matches_the_hessian_matrix(self, p):
        # the one-pass build against y^T H y from the PolyMatrix of second
        # partials, term order included: evaluation in floats sums in it
        expected = quadratic_in_y(hessian(p))
        got = hessian_form(p)
        assert got == expected and got.degree == expected.degree
        assert list(got.terms.items()) == list(expected.terms.items())
        if p.degree == 4:
            b = hessian_biquadratic(p)
            assert b.n == p.n_vars and b.to_form() == expected

    def test_choi_matrix_gives_choi_biquadratic(self):
        choi = builtin("choi_biquadratic")
        assert quadratic_in_y(builtin("choi_matrix")) == choi.to_form() and choi.n == 3

    def test_choi_biquadratic_not_symmetric(self):
        verdict = is_symmetric(builtin("choi_biquadratic").to_form())
        assert not verdict
        key, c1, swapped, c2 = verdict.witness
        assert {key, swapped} == {(1, 1, 2, 2), (2, 2, 1, 1)}
        assert {c1, c2} == {F(0), F(2)}

    def test_symmetry_needs_bidegree_two_two(self):
        # the witness names monomials by key, which only bidegree (2, 2) has
        sextic = Form.linear([1, -2, 3]) ** 6
        with pytest.raises(ValueError, match="bidegree"):
            is_symmetric(hessian_form(sextic))

    def test_swap_is_involution(self):
        b = builtin("choi_biquadratic").to_form()
        assert swap_xy(b) != b and swap_xy(swap_xy(b)) == b


class TestDimensions:
    def test_ternary_counts(self):
        assert (dim_nary(3), dim_symmetric(3), dim_hessian(3)) == (36, 21, 15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formulas(self, n):
        pairs = n * (n + 1) // 2
        assert dim_nary(n) == pairs * pairs
        assert dim_symmetric(n) == pairs * (pairs + 1) // 2
        assert dim_hessian(n) == math.comb(n + 3, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hessian_map_rank_is_dim_hessian(self, n):
        assert hessian_map_rank(n) == dim_hessian(n)

    @pytest.mark.parametrize("n, line", [(2, "9 6 5"), (3, "36 21 15"), (4, "100 55 35"),
                                         (5, "225 120 70")])
    def test_cli_dims_match_the_hessian_map(self, n, line, capsys):
        assert main(["dims", str(n)]) == 0
        assert capsys.readouterr().out == line + "\n"
        assert int(line.split()[2]) == hessian_map_rank(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_space_decomposition(self, n):
        # every biquadratic splits into symmetric + antisymmetric parts
        assert dim_nary(n) == dim_symmetric(n) + antisymmetric_dimension(n)

    def test_symmetric_gap(self):
        # 21-dimensional symmetric space, 15-dimensional
        # Hessian subspace, 6-dimensional gap
        assert dim_symmetric(3) - dim_hessian(3) == 6


class TestCorpus:
    def test_b_thm22_is_symmetric(self):
        assert is_symmetric(builtin("b_thm22").to_form())

    def test_b_thm22_spot_values(self):
        b = builtin("b_thm22").to_form()

        def coefficient(*key):
            return b.coefficient(key_exponents(3, key))

        assert coefficient(3, 3, 3, 3) == coefficient(1, 1, 1, 1) == 12
        assert coefficient(2, 2, 1, 2) == 23

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin("nope")

    @pytest.mark.parametrize("name", sorted(BUILTIN_FILES))
    def test_each_name_loads_to_its_type(self, name):
        # read by from_text, certificates included; a new name needs a kind
        kinds = {
            "b_thm22": BiquadraticForm,
            "c_dual": DualCertificate,
            "choi_biquadratic": BiquadraticForm,
            "choi_matrix": PolyMatrix,
            "f_lemma32": Form,
            "q_reduction": Form,
            "q22_cert": SosCertificate,
        }
        assert type(builtin(name)) is kinds[name]
