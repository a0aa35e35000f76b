"""Tests for biquadratic forms, orderings, dimensions, and the corpus."""

import math
import random
from fractions import Fraction as F

import pytest

from sosconvex.biquadratic import (
    BUILTIN36,
    BiquadraticForm,
    antisymmetric_dimension,
    biquadratic_from_polymatrix,
    biquadratic_from_text,
    biquadratic_to_text,
    builtin,
    canonical_ordering,
    coefficient_vector,
    dim_hessian,
    dim_nary,
    dim_symmetric,
    from_coefficient_vector,
    hessian_biquadratic,
    hessian_form,
    hessian_map_rank,
    is_symmetric,
    ordering_by_name,
    swap_xy,
)
from sosconvex.forms import Form, FormatError


def random_quartic(rng, n=3):
    p = Form.zero(n, 4)
    for _ in range(8):
        exps = [0] * n
        for _ in range(4):
            exps[rng.randrange(n)] += 1
        p = p + Form(n, 4, {tuple(exps): F(rng.randint(-9, 9), rng.randint(1, 4))})
    return p


class TestForms:
    def test_coefficient_key_normalization(self):
        b = BiquadraticForm(3, {(1, 2, 1, 3): F(5)})
        assert b.coefficient(2, 1, 3, 1) == 5

    def test_unnormalized_key_rejected(self):
        with pytest.raises(ValueError):
            BiquadraticForm(3, {(2, 1, 3, 1): F(5)})

    def test_evaluate_matches_form(self):
        rng = random.Random(2)
        b = hessian_biquadratic(random_quartic(rng))
        x = [F(1), F(-2), F(3)]
        y = [F(2), F(1), F(-1)]
        assert b.evaluate(x, y) == b.to_form().evaluate(x + y)

    def test_form_roundtrip(self):
        b = builtin("b_thm22")
        assert BiquadraticForm.from_form(b.to_form(), 3) == b

    def test_text_roundtrip(self):
        b = builtin("b_thm22")
        assert biquadratic_from_text(biquadratic_to_text(b)) == b

    def test_malformed_text(self):
        with pytest.raises(FormatError):
            biquadratic_from_text("biq n=3\n1/2 1 2 3\n")  # wrong index count


class TestHessian:
    def test_hessian_biquadratic_symmetric(self):
        rng = random.Random(7)
        for _ in range(25):
            assert is_symmetric(hessian_biquadratic(random_quartic(rng)))

    def test_hessian_form_agrees_for_quartics(self):
        p = random_quartic(random.Random(9))
        assert hessian_form(p) == hessian_biquadratic(p).to_form()

    def test_choi_matrix_gives_choi_biquadratic(self):
        assert biquadratic_from_polymatrix(builtin("choi_matrix")) == builtin("choi_biquadratic")

    def test_choi_biquadratic_not_symmetric(self):
        verdict = is_symmetric(builtin("choi_biquadratic"))
        assert not verdict
        key, c1, swapped, c2 = verdict.witness
        assert {key, swapped} == {(1, 1, 2, 2), (2, 2, 1, 1)}
        assert {c1, c2} == {F(0), F(2)}

    def test_swap_is_involution(self):
        b = builtin("choi_biquadratic")
        assert swap_xy(swap_xy(b)) == b


class TestOrderings:
    def test_builtin36_length_and_block(self):
        assert len(BUILTIN36) == 36 and BUILTIN36.n == 3

    def test_builtin36_first_entry_is_x2x3_y2y3(self):
        # the builtin36 ordering starts at the (3,3)(3,3) corner: index of
        # alpha_{3,3,3,3} is 0, alpha_{1,1,1,1} is 35
        assert BUILTIN36.index(3, 3, 3, 3) == 0
        assert BUILTIN36.index(1, 1, 1, 1) == 35

    def test_vector_roundtrip(self):
        b = builtin("b_thm22")
        vec = coefficient_vector(b, BUILTIN36)
        assert from_coefficient_vector(vec, BUILTIN36) == b

    def test_lex_ordering_roundtrip(self):
        b = builtin("b_thm22")
        lex = canonical_ordering(3)
        assert from_coefficient_vector(coefficient_vector(b, lex), lex) == b

    def test_canonical_ordering_shared_per_block_size(self):
        assert canonical_ordering(3) is canonical_ordering(3)
        assert ordering_by_name("lex", 2) is canonical_ordering(2)

    def test_unknown_ordering_name(self):
        with pytest.raises(ValueError):
            ordering_by_name("nope")


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
        assert is_symmetric(builtin("b_thm22"))

    def test_b_thm22_spot_values(self):
        b = builtin("b_thm22")
        vec = coefficient_vector(b, BUILTIN36)
        assert vec[0] == 12 and vec[-1] == 12
        assert vec[16] == 23

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin("nope")

    @pytest.mark.parametrize("name", ["c_dual", "q22_cert"])
    def test_certificates_are_not_parsed_as_forms(self, name):
        with pytest.raises(ValueError):
            builtin(name)
