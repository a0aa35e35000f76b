"""Acceptance suite: the twelve gating criteria, one test per criterion.

Each test prints a `CRITERION <n>: PASS/FAIL` line (visible with pytest -s,
or in captured output on failure) and asserts its runtime budget.
"""

import contextlib
import math
import random
import sys
import time
from fractions import Fraction as F
from operator import mul

from sosconvex.biquadratic import (
    BiquadraticForm,
    antisymmetric_dimension,
    builtin,
    dim_hessian,
    dim_nary,
    dim_symmetric,
    hessian_biquadratic,
    hessian_map_rank,
    is_symmetric,
    _monomials,
)
from sosconvex.certificates import (
    Verdict,
    bidegree_basis,
    ldlt_psd_check,
    sos_basis,
    verify_sos_certificate,
)
from sosconvex.cli import main
from sosconvex.dual import moment_matrix, pairing
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
    s_basis,
    tangent_hessian_check,
    witness_evaluations,
)
from sosconvex.forms import Form, euler_recover, hessian, is_valid_hessian
from sosconvex.search import (
    check_sos_convexity,
    douglas_rachford,
    parameterize,
)


@contextlib.contextmanager
def criterion(number: int, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s)")


def random_quartic(rng, n=3):
    p = Form.zero(n, 4)
    for _ in range(8):
        exps = [0] * n
        for _ in range(4):
            exps[rng.randrange(n)] += 1
        p = p + Form(n, 4, {tuple(exps): F(rng.randint(-9, 9), rng.randint(1, 4))})
    return p


def random_params(rng):
    return FaceParams(
        F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)),
        F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)),
    )


def test_criterion_01_gram_certificate_replication():
    with criterion(1, 1.0):
        cert = builtin("q22_cert")
        b = builtin("b_thm22")
        assert cert.scale == F(1, 384)
        assert len(cert.z) == 15 and cert.q.dim == 15
        assert verify_sos_certificate(b, cert)
        assert ldlt_psd_check(cert.q).verdict is Verdict.POSITIVE_DEFINITE


def test_criterion_02_dual_certificate_replication():
    reference = [
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
    with criterion(2, 1.0):
        c = builtin("c_dual")
        assert pairing(c, builtin("b_thm22")) == -37
        mm = moment_matrix(c, sos_basis(builtin("b_thm22")))
        assert [[int(v) for v in row] for row in mm.rows] == reference
        assert ldlt_psd_check(mm).verdict is Verdict.POSITIVE_DEFINITE


def test_criterion_03_dimension_counts():
    with criterion(3, 5.0):
        assert (dim_nary(3), dim_symmetric(3), dim_hessian(3)) == (36, 21, 15)
        for n in range(1, 5):
            assert dim_nary(n) == len(bidegree_basis(n, 2, 2))
            # symmetric + antisymmetric parts tile the whole space (exact ranks)
            assert dim_symmetric(n) == dim_nary(n) - antisymmetric_dimension(n)
            assert dim_hessian(n) == hessian_map_rank(n)
            assert dim_hessian(n) == math.comb(n + 3, 4)


def test_criterion_04_choi_non_hessian_witness():
    with criterion(4, 1.0):
        verdict = is_valid_hessian(builtin("choi_matrix"))
        assert not verdict
        assert verdict.lhs.is_zero()
        assert verdict.rhs == Form.variable(3, 3).scale(-1)


def test_criterion_05_hessian_symmetry_property():
    with criterion(5, 10.0):
        rng = random.Random(1005)
        for _ in range(200):
            p = random_quartic(rng)
            assert is_symmetric(hessian_biquadratic(p))
            if not p.is_zero():
                assert euler_recover(hessian(p), 4) == p


def test_criterion_06_l_ab_dimension():
    with criterion(6, 5.0):
        assert l_ab_dimension(FaceParams(1, 1)) == (5, 10)
        rng = random.Random(1006)
        for _ in range(20):
            assert l_ab_dimension(random_params(rng)) == (5, 10)


def test_criterion_07_gram_M_identity_and_determinant():
    with criterion(7, 30.0):
        rng = random.Random(1007)
        for _ in range(100):
            fp = random_params(rng)
            alphas = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)]
            bound = alpha5_lower_bound(alphas, fp)
            a5 = bound * F(rng.randint(0, 5), 5)
            assert gram_identity_holds(alphas + [a5], fp)
            if a5 != 0:
                assert det_M_closed(alphas + [a5], fp) == gram_M(alphas + [a5], fp).det()
            at_bound = gram_M(alphas + [bound], fp)
            assert det_M_closed(alphas + [bound], fp) == 0
            assert ldlt_psd_check(at_bound).verdict is Verdict.POSITIVE_SEMIDEFINITE
            v = kernel_vector(alphas + [bound], fp)
            assert [sum(map(mul, row, v)) for row in at_bound.rows] == [0] * 5
            below = gram_M(alphas + [bound - F(1, 10)], fp)
            assert ldlt_psd_check(below).verdict is Verdict.NOT_PSD


def test_criterion_08_additional_zero_reproduction():
    with criterion(8, 30.0):
        rng = random.Random(1008)
        done = 0
        while done < 20:
            fp = FaceParams(F(rng.randint(1, 5), rng.randint(1, 4)),
                            F(rng.randint(1, 5), rng.randint(1, 4)))
            alphas = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)]
            bound = alpha5_lower_bound(alphas, fp)
            aa, bb, cc = additional_zero_quadratic(alphas + [bound], fp)
            if (aa, bb, cc) != (0, 0, 0):
                assert bb * bb - 4 * aa * cc > 0
            pt = find_additional_zero(alphas + [bound], fp)
            assert pt.residual <= 1e-9
            assert pt.x[0] * pt.x[1] * pt.y[0] * pt.y[1] != 0
            done += 1


def test_criterion_09_end_to_end_sos_convexity():
    with criterion(9, 60.0):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        outcome = check_sos_convexity(p)
        assert outcome.is_certified()
        assert outcome.residual <= 1e-6
        rng = random.Random(1009)
        fp = FaceParams(1, 1)
        for _ in range(10):
            alphas = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]
            a5 = alpha5_lower_bound(alphas, fp) * F(rng.randint(0, 4), 4)
            target = face_form(alphas + [a5], fp)
            outcome = check_sos_convexity(target)
            assert outcome.is_certified()
            assert outcome.residual <= 1e-6
            assert verify_sos_certificate(
                hessian_biquadratic(target).to_form(), outcome.certificate
            )
            # cross-check against the explicit M certificate: s^T M s = h_p
            # with M exactly PSD pins the same conclusion independently
            assert gram_identity_holds(alphas + [a5], fp)
            assert ldlt_psd_check(gram_M(alphas + [a5], fp)).is_psd()


def test_criterion_10_non_sos_search_behavior(tmp_path):
    with criterion(10, 60.0):
        b = builtin("b_thm22")
        pz = parameterize(b, bidegree_basis(3, 1, 1))
        reports = list(douglas_rachford(pz))
        assert reports and not any(r.converged for r in reports)  # soundness: no false certificate
        target = tmp_path / "b.biq"
        assert main(["builtin", "b_thm22", str(target)]) == 0
        assert main(["check", str(target), "--sos"]) == 1


def test_criterion_11_tangent_ingredients():
    f = builtin("f_lemma32")
    hf = hessian_biquadratic(f)
    e1 = [F(1), F(0), F(0)]
    e2 = [F(0), F(1), F(0)]
    with criterion(11, 1.0):
        assert hf.evaluate(e1, e2) == 0
        _, report = tangent_hessian_check(hf, e1, e2)
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        hq = hessian_biquadratic(builtin("q_reduction"))
        mat, _ = tangent_hessian_check(hq, e1, e2)
        assert all(v == 0 for row in mat.rows for v in row)

    # Best-effort extension (non-gating): bisect epsilon so that f + eps*g is
    # certified sos-convex, for g ranging over the 10 monomials spanning the
    # complement of the missing monomials. h_f has additional zeros beyond
    # (e1, e2) - for example ((1,1,-1),(1,1,-2)) - and four of the ten
    # monomials have a strictly negative Hessian form there, so no epsilon
    # can succeed for them; they are reported with that exact witness.
    missing = {(3, 1, 0), (2, 2, 0), (2, 1, 1), (1, 3, 0), (1, 2, 1)}
    span = [m for m in _monomials(3, 4) if m not in missing]
    assert len(span) == 10
    extra_x = [F(1), F(1), F(-1)]
    extra_y = [F(1), F(1), F(-2)]
    assert hf.evaluate(extra_x, extra_y) == 0
    for mono in span:
        g = Form(3, 4, {mono: F(1)})
        obstruction = hessian_biquadratic(g).evaluate(extra_x, extra_y)
        if obstruction < 0:
            print(f"  extension {mono}: impossible, h_g = {obstruction} "
                  "at the additional zero")
            continue
        found = None
        eps = F(1)
        for _ in range(6):
            outcome = check_sos_convexity(f + g.scale(eps))
            if outcome.is_certified():
                found = eps
                break
            eps /= 2
        print(f"  extension {mono}: "
              + (f"certified at eps = {found}" if found else "no eps found"))


def test_criterion_12_witness_evaluations():
    with criterion(12, 5.0):
        rng = random.Random(1012)
        for _ in range(10):
            fp = random_params(rng)
            rows = {(w.point_label, w.q_index): w.value for w in witness_evaluations(fp)}
            assert rows[("v1", 5)] == -4 * fp.a**2 * fp.b**2
            for i in range(1, 5):
                assert rows[("v1", i)] == 0
            expected = (48 + 24 * math.sqrt(3.0)) * float(fp.b) ** 4
            assert abs(rows[("v2", 4)] - expected) <= 1e-9 * abs(expected)
