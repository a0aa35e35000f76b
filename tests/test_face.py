"""Tests for the face geometry: bases, L_{a,b}, Gram matrix M, zeros."""

import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from sosconvex import face
from sosconvex.biquadratic import builtin, hessian_form
from sosconvex.certificates import Verdict, ldlt_psd_check, rank
from sosconvex.face import (
    FaceParams,
    additional_zero_quadratic,
    alpha5_lower_bound,
    det_M_closed,
    face_form,
    find_additional_zero,
    gram_M,
    gram_identity_holds,
    kernel_vector,
    l_ab_dimension,
    membership_T,
    q_basis,
    s_basis,
    tangent_hessian_check,
    witness_evaluations,
)
from sosconvex.forms import Form


def random_face(rng):
    fp = FaceParams(
        F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)),
        F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)),
    )
    alphas = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)]
    return fp, alphas


class TestBases:
    def test_q5_at_unit_params(self):
        x1, x2, x3 = (Form.variable(3, i) for i in (1, 2, 3))
        q5 = q_basis(FaceParams(1, 1))[4]
        assert q5 == x3**2 * (x1 - x2) ** 2

    def test_q_basis_rank_five(self):
        rng = random.Random(1)
        for _ in range(5):
            fp, _ = random_face(rng)
            rows = [[q.coefficient(m) for m in sorted({m for p in q_basis(fp) for m in p.terms})]
                    for q in q_basis(fp)]
            assert rank(rows) == 5

    def test_s_normalization_hq_is_12_s_squared(self):
        fp = FaceParams(F(2), F(3))
        for q, s in zip(q_basis(fp)[:4], s_basis(fp)[:4]):
            assert hessian_form(q) == (s * s).scale(12)

    def test_all_s_vanish_at_u1_and_u2(self):
        fp = FaceParams(F(3, 2), F(-2))
        u1 = [F(1), F(0), F(0), F(0), F(1), F(0)]
        u2 = [F(0), F(0), F(1), fp.a, fp.b, F(1)]
        for s in s_basis(fp):
            assert s.evaluate(u1) == 0 and s.evaluate(u2) == 0

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            q_basis(FaceParams(0, 0))
        with pytest.raises(ValueError):
            s_basis(FaceParams(1, 0))


class TestLab:
    def test_unit_params_dimension_count(self):
        assert l_ab_dimension(FaceParams(1, 1)) == (5, 10)

    def test_one_zero_param_still_dim_five(self):
        assert l_ab_dimension(FaceParams(1, 0))[0] == 5
        assert l_ab_dimension(FaceParams(0, 1))[0] == 5

    def test_random_params_dim_five(self):
        rng = random.Random(4)
        for _ in range(20):
            fp, _ = random_face(rng)
            assert l_ab_dimension(fp) == (5, 10)

    def test_q_basis_satisfies_the_constraints(self):
        from sosconvex.biquadratic import _monomials
        from sosconvex.face import l_ab_constraint_matrix

        fp = FaceParams(F(2, 3), F(5))
        mat = l_ab_constraint_matrix(fp)

        monos = _monomials(3, 4)
        for q in q_basis(fp):
            vec = [q.coefficient(m) for m in monos]
            for row in mat:
                assert sum(r * v for r, v in zip(row, vec)) == 0


class TestGramM:
    def test_alpha5_zero_gives_diagonal(self):
        m = gram_M([F(1), F(2), F(3), F(4), F(0)], FaceParams(F(5), F(7)))
        assert m.rows == [
            [12, 0, 0, 0, 0],
            [0, 24, 0, 0, 0],
            [0, 0, 36, 0, 0],
            [0, 0, 0, 48, 0],
            [0, 0, 0, 0, 0],
        ]

    def test_corner_entry(self):
        m = gram_M([1, 1, 1, 1, F(-1, 3)], FaceParams(2, 5))
        assert m.rows[4][4] == F(4, 3)

    def test_gram_identity_random(self):
        rng = random.Random(8)
        for _ in range(25):
            fp, alphas = random_face(rng)
            alphas.append(F(-rng.randint(0, 6), 7))
            assert gram_identity_holds(alphas, fp)

    def test_det_closed_matches_brute(self):
        rng = random.Random(9)
        for _ in range(25):
            fp, alphas = random_face(rng)
            alphas.append(F(rng.randint(-9, 9), rng.randint(1, 5)) or F(1))
            assert det_M_closed(alphas, fp) == gram_M(alphas, fp).det()

    def test_bound_examples(self):
        fp = FaceParams(1, 1)
        assert alpha5_lower_bound([1, 1, 1, 1], fp) == -1
        # homogeneity: scaling all alphas by t scales the bound by t
        assert alpha5_lower_bound([F(3), F(3), F(3), F(3)], fp) == -3

    def test_psd_profile_around_the_bound(self):
        rng = random.Random(10)
        for _ in range(10):
            fp, alphas = random_face(rng)
            bound = alpha5_lower_bound(alphas, fp)
            at = gram_M(alphas + [bound], fp)
            assert ldlt_psd_check(at).verdict is Verdict.POSITIVE_SEMIDEFINITE
            assert det_M_closed(alphas + [bound], fp) == 0
            inside = gram_M(alphas + [bound / 2], fp)
            assert ldlt_psd_check(inside).verdict is Verdict.POSITIVE_DEFINITE
            below = gram_M(alphas + [bound - F(1, 10)], fp)
            assert ldlt_psd_check(below).verdict is Verdict.NOT_PSD

    def test_kernel_vector_annihilated(self):
        rng = random.Random(11)
        for _ in range(10):
            fp, alphas = random_face(rng)
            bound = alpha5_lower_bound(alphas, fp)
            v = kernel_vector(alphas + [bound], fp)
            assert [sum(map(mul, row, v)) for row in gram_M(alphas + [bound], fp).rows] == [0] * 5
            assert v[4] > 0

    def test_kernel_vector_unit_case(self):
        fp = FaceParams(1, 1)
        assert kernel_vector([1, 1, 1, 1, -1], fp) == [2, -2, -2, 2, 4]

    def test_kernel_vector_requires_bound(self):
        with pytest.raises(ValueError):
            kernel_vector([1, 1, 1, 1, F(-1, 2)], FaceParams(1, 1))


class TestMembership:
    def test_boundary_and_outside(self):
        fp = FaceParams(1, 1)
        assert membership_T([1, 1, 1, 1, -1], fp)
        assert not membership_T([1, 1, 1, 1, -2], fp)

    def test_zero_alpha_forces_alpha5_zero(self):
        fp = FaceParams(1, 1)
        assert not membership_T([0, 1, 1, 1, F(-1, 10)], fp)
        assert membership_T([0, 1, 1, 1, 0], fp)

    def test_positive_alpha5_rejected(self):
        assert not membership_T([1, 1, 1, 1, F(1, 10)], FaceParams(1, 1))


class TestAdditionalZero:
    def test_discriminant_positive_random(self):
        rng = random.Random(12)
        for _ in range(20):
            fp, alphas = random_face(rng)
            alphas = [abs(v) for v in alphas]
            fp = FaceParams(abs(fp.a), abs(fp.b))
            bound = alpha5_lower_bound(alphas, fp)
            aa, bb, cc = additional_zero_quadratic(alphas + [bound], fp)
            if aa == bb == cc == 0:
                continue  # degenerate symmetric case, handled separately
            assert bb * bb - 4 * aa * cc > 0

    def test_point_residual_and_nonzero_coordinates(self):
        rng = random.Random(13)
        for _ in range(10):
            fp, alphas = random_face(rng)
            fp = FaceParams(abs(fp.a), abs(fp.b))
            alphas = [abs(v) for v in alphas]
            bound = alpha5_lower_bound(alphas, fp)
            pt = find_additional_zero(alphas + [bound], fp)
            assert pt.residual <= face.ZERO_TOL
            assert pt.x[0] * pt.x[1] * pt.y[0] * pt.y[1] != 0

    def test_degenerate_symmetric_case_is_exact(self):
        fp = FaceParams(1, 1)
        pt = find_additional_zero([1, 1, 1, 1, -1], fp)
        # the point is exact; only the unit normalization is floating
        assert pt.residual <= 1e-25

    def test_residual_shrinks_with_precision(self, monkeypatch):
        fp = FaceParams(F(3, 2), F(2))
        alphas = [F(1), F(2), F(1), F(3)]
        bound = alpha5_lower_bound(alphas, fp)
        monkeypatch.setattr(face, "ZERO_DPS", 16)
        lo = find_additional_zero(alphas + [bound], fp)
        monkeypatch.setattr(face, "ZERO_DPS", 40)
        hi = find_additional_zero(alphas + [bound], fp)
        assert lo.residual == 0 or hi.residual <= lo.residual / 100


class TestTangentCheck:
    def test_hf_positive_definite_at_u1(self):
        f = builtin("f_lemma32")
        hf = hessian_form(f)
        e1, e2 = [1, 0, 0], [0, 1, 0]
        assert hf.evaluate([F(1), F(0), F(0), F(0), F(1), F(0)]) == 0
        _, report = tangent_hessian_check(hf, e1, e2)
        assert report.verdict is Verdict.POSITIVE_DEFINITE

    def test_hq_identically_zero_at_u1(self):
        q = builtin("q_reduction")
        hq = hessian_form(q)
        mat, _ = tangent_hessian_check(hq, [1, 0, 0], [0, 1, 0])
        assert all(v == 0 for row in mat.rows for v in row)

    def test_x1_fourth_at_e2_e2(self):
        x1 = Form.variable(3, 1)
        h = hessian_form(x1**4)
        mat, report = tangent_hessian_check(h, [0, 1, 0], [0, 1, 0])
        assert report.is_psd()
        # brute-force eigen-sign oracle: the matrix is PSD but not PD
        assert mat.det() == 0

    def test_nonzero_point_rejected(self):
        hf = hessian_form(builtin("f_lemma32"))
        with pytest.raises(ValueError):
            tangent_hessian_check(hf, [1, 0, 0], [1, 0, 0])

    def test_blocks_of_unequal_length_rejected(self):
        # six coordinates in all, split 4 + 2 instead of 3 + 3
        hf = hessian_form(builtin("f_lemma32"))
        with pytest.raises(ValueError, match="same length"):
            tangent_hessian_check(hf, [1, 0, 0, 0], [1, 0])


class TestWitnesses:
    def test_v1_values(self):
        fp = FaceParams(F(3, 2), F(5, 7))
        rows = {(w.point_label, w.q_index): w for w in witness_evaluations(fp)}
        for i in range(1, 5):
            assert rows[("v1", i)].value == 0
        assert rows[("v1", 5)].value == -4 * fp.a**2 * fp.b**2

    def test_v2_q4_value(self):
        import math

        fp = FaceParams(F(2), F(3))
        rows = {(w.point_label, w.q_index): w for w in witness_evaluations(fp)}
        expected = (48 + 24 * math.sqrt(3.0)) * float(fp.b) ** 4
        assert abs(rows[("v2", 4)].value - expected) <= 1e-9 * abs(expected)

    def test_v3_values(self):
        fp = FaceParams(F(1, 2), F(4, 3))
        rows = {(w.point_label, w.q_index): w for w in witness_evaluations(fp)}
        assert rows[("v3", 2)].value == 0
        assert rows[("v3", 5)].value > 0


class TestFaceForm:
    def test_face_form_is_the_alpha_combination(self):
        fp = FaceParams(1, 1)
        qs = q_basis(fp)
        p = face_form([1, 0, 0, 0, 0], fp)
        assert p == qs[0]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2), F(3, 4)]), min_size=2, max_size=2)
        .filter(lambda ab: ab != [0, 0]),
        st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 3), F(-2), F(5, 7)]), min_size=5, max_size=5),
    )
    def test_closed_forms_keep_the_term_order_of_form_arithmetic(self, ab, alphas):
        # the residual of the zero search sums h_p's terms in this order, and
        # h_p's order follows p's; a cancelled term leaves and comes back last
        a, b = ab
        x1, x2, x3 = (Form.variable(3, i) for i in (1, 2, 3))
        qs = [
            x1**4,
            x2**4,
            (x1 - x3.scale(a)) ** 4,
            (x2 - x3.scale(b)) ** 4,
            x3**2 * (x1.scale(b) - x2.scale(a)) ** 2,
        ]
        acc = Form.zero(3, 4)
        for v, q in zip(alphas, qs):
            acc = acc + q.scale(v)
        fp = FaceParams(a, b)
        assert [list(q.terms.items()) for q in q_basis(fp)] == [list(q.terms.items()) for q in qs]
        assert list(face_form(alphas, fp).terms.items()) == list(acc.terms.items())
