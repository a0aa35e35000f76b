"""Tests for the numeric search, rounding, and end-to-end checkers."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sosconvex import search
from sosconvex.biquadratic import BiquadraticForm, builtin, hessian_biquadratic
from sosconvex.certificates import gram_expand, verify_sos_certificate
from sosconvex.dual import moment_matrix, builtin_dual, verify_refutation
from sosconvex.face import FaceParams, alpha5_lower_bound, face_form
from sosconvex.forms import Form
from sosconvex.search import (
    SearchConfig,
    StallReport,
    _face_roundings,
    _prune_basis,
    bidegree_basis,
    check_sos,
    check_sos_convexity,
    douglas_rachford,
    fiber_roundings,
    parameterize,
    rationalize_and_certify,
    sos_basis_for,
)


def bilinears():
    return bidegree_basis(3, 1, 1)


def fiber_dimension(pz):
    # surjective constraint map: one row per monomial, one column per pair
    d = len(pz.z)
    return d * (d + 1) // 2 - len(pz.counts)


def random_upper(pz, rng):
    d = len(pz.z)
    return [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d * (d + 1) // 2)]


def least_norm_point(pz):
    d = len(pz.z)
    return pz.project(np.zeros((d, d)))


class TestParameterize:
    def test_single_monomial_fiber(self):
        target = BiquadraticForm(1, {(1, 1, 1, 1): F(12)})
        pz = parameterize(target, [(1, 1)])
        assert pz.snap([F(5, 7)]).rows == [[F(12)]]
        assert fiber_dimension(pz) == 0

    def test_nine_bilinear_kernel_dimension(self):
        # 45 Gram parameters, 36 coefficient constraints, surjective map
        pz = parameterize(builtin("b_thm22"), bilinears())
        assert len(pz.counts) == 36
        assert fiber_dimension(pz) == 9

    def test_every_fiber_point_expands_to_target(self):
        target = builtin("b_thm22")
        pz = parameterize(target, bilinears())
        tf = target.to_form()
        rng = random.Random(5)
        base = pz.snap([F(0)] * 45)
        assert gram_expand(pz.z, base) == tf
        for _ in range(3):
            point = pz.snap(random_upper(pz, rng))
            assert gram_expand(pz.z, point) == tf
            # the difference of two fiber points is a kernel direction
            assert gram_expand(pz.z, point + base.scale(-1)).is_zero()

    @pytest.mark.parametrize(
        "target, z",
        [
            (builtin("b_thm22"), bidegree_basis(3, 1, 1)),
            (builtin("choi_biquadratic"), bidegree_basis(3, 1, 1)),
            (Form.linear([1, -2, 3]) ** 4, sos_basis_for(Form.linear([1, -2, 3]) ** 4)),
        ],
        ids=["b_thm22", "choi", "linear_power"],
    )
    def test_projection_matches_dense_least_squares(self, target, z):
        pz = parameterize(target, z)
        d = len(pz.z)
        # one constraint row per monomial over all d*d ordered entries
        a = np.zeros((len(pz.counts), d * d))
        a[pz.index.ravel(), np.arange(d * d)] = 1.0
        b = np.array([float(c) for c in pz.target])
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal((d, d))
            x = x + x.T
            step, *_ = np.linalg.lstsq(a, b - a @ x.ravel(), rcond=None)
            dense = x + step.reshape(d, d)
            assert np.abs(pz.project(x) - dense).max() <= 1e-10

    def test_roundings_expand_exactly_to_target(self):
        # no PSD assumption: a random symmetric matrix far from the cone
        target = builtin("b_thm22")
        pz = parameterize(target, bilinears())
        rng = np.random.default_rng(2)
        g = rng.standard_normal((9, 9))
        candidates = list(fiber_roundings(g + g.T, pz, SearchConfig()))
        assert len(candidates) > 1
        for q in candidates:
            assert gram_expand(pz.z, q) == target.to_form()

    def test_unrepresentable_monomial_reported(self):
        target = Form(2, 4, {(3, 1): F(1), (1, 3): F(1)})
        with pytest.raises(ValueError, match="not representable"):
            parameterize(target, [(2, 0), (0, 2)])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            parameterize(Form(2, 2, {(2, 0): F(1)}), [])


class TestProjections:
    def test_diagonal_target_feasible_quickly(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        h = hessian_biquadratic(p)
        pz = parameterize(h, bilinears())
        result = douglas_rachford(pz, SearchConfig())
        assert not isinstance(result, StallReport)
        g, info = result
        assert info["min_eigenvalue"] >= -1e-8
        assert info["fiber_distance"] <= 1e-8

    def test_multiplier_target_numerically_feasible(self):
        b = builtin("b_thm22")
        mult = Form(6, 2, {(2, 0, 0, 0, 0, 0): F(1), (0, 2, 0, 0, 0, 0): F(1)})
        outcome = check_sos(b, multiplier=mult)
        assert outcome.is_certified()
        assert outcome.residual <= 1e-6

    def test_builtin_b_stalls_on_bilinears(self):
        pz = parameterize(builtin("b_thm22"), bilinears())
        result = douglas_rachford(pz, SearchConfig(max_iterations=10_000))
        assert isinstance(result, StallReport)

    def test_stalled_iterations_skip_the_shadow_spectrum(self, monkeypatch):
        # one eigh per iteration for the PSD projection; the shadow's
        # eigvalsh only when the fiber distance is within tolerance, and
        # once for the report
        b = builtin("b_thm22")
        pz = parameterize(b, _prune_basis(bilinears(), b.to_form()))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        result = search._projection_run(pz, least_norm_point(pz), 200, 1e-8)
        assert isinstance(result, StallReport) and result.iterations == 200
        assert len(calls) <= 1

    def test_deterministic_given_seed(self):
        pz = parameterize(builtin("choi_biquadratic"), bilinears())
        cfg = SearchConfig(max_iterations=500, restarts=2, seed=42)
        r1 = douglas_rachford(pz, cfg)
        r2 = douglas_rachford(pz, cfg)
        assert isinstance(r1, StallReport) and isinstance(r2, StallReport)
        assert r1.min_eigenvalue == r2.min_eigenvalue
        assert r1.fiber_distance == r2.fiber_distance


class TestRounding:
    def test_perturbed_feasible_point_recovers_exact(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        h = hessian_biquadratic(p)
        pz = parameterize(h, bilinears())
        g = least_norm_point(pz)
        rng = np.random.default_rng(3)
        g = g + 1e-7 * rng.standard_normal(g.shape)
        cert = rationalize_and_certify(g, pz, SearchConfig())
        assert verify_sos_certificate(h, cert)

    def test_face_roundings_stay_on_fiber_and_kernel(self):
        forms = ([1, 2, 0], [0, 1, -1], [1, 0, 3])
        p = sum((Form.linear(c) ** 4 for c in forms[1:]), Form.linear(forms[0]) ** 4)
        h = hessian_biquadratic(p)
        pz = parameterize(h, bilinears())
        g, _ = douglas_rachford(pz, SearchConfig())
        vals, vecs = np.linalg.eigh(g)
        kernel = vecs[:, np.abs(vals) <= 1e-6]
        assert kernel.shape[1] == 6
        candidates = list(_face_roundings(g, pz, SearchConfig()))
        assert candidates
        for q in candidates:
            assert gram_expand(pz.z, q) == h.to_form()
            q_float = np.array([[float(v) for v in row] for row in q.rows])
            assert np.abs(q_float @ kernel).max() <= 1e-9

    def test_failure_is_falsy_with_reason(self):
        # the shipped b has no PSD Gram at all, so every rounding must fail
        pz = parameterize(builtin("b_thm22"), bilinears())
        g = least_norm_point(pz)
        result = rationalize_and_certify(g, pz, SearchConfig())
        assert not result
        assert "PSD" in result.reason


def assert_integer_refutation(outcome, b):
    assert outcome.status == "Refuted"
    assert all(v.denominator == 1 for v in outcome.dual.c)
    result = verify_refutation(outcome.dual, b)
    assert result and result.pairing_value < 0


class TestRefutation:
    """Refutations come from the gap of the DR run, not from a shipped file."""

    def test_builtin_b_refuted_exactly(self):
        assert_integer_refutation(check_sos(builtin("b_thm22")), builtin("b_thm22"))

    def test_scaled_b_still_refuted(self):
        scaled = builtin("b_thm22").scale(F(5, 3))
        assert_integer_refutation(check_sos(scaled), scaled)

    @pytest.mark.parametrize("name", ["b_thm22", "choi_biquadratic"])
    def test_refuted_after_first_chunk(self, name, monkeypatch):
        # every stalled chunk is offered to the gap rounding, so the first
        # 200-iteration chunk already refutes
        iterations = []
        run = search._projection_run

        def counted(*args):
            result = run(*args)
            stalled = isinstance(result, StallReport)
            iterations.append(result.iterations if stalled else result[1]["iterations"])
            return result

        monkeypatch.setattr(search, "_projection_run", counted)
        b = builtin(name)
        assert_integer_refutation(check_sos(b), b)
        assert sum(iterations) <= 200

    def test_choi_form_refuted(self):
        # PSD but not SOS; its pruned basis leaves squares the gap never sees
        choi = builtin("choi_biquadratic")
        assert_integer_refutation(check_sos(choi), choi)

    def test_nonconvex_quartic_not_sos_convex(self):
        p = Form(3, 4, {(4, 0, 0): F(1), (2, 2, 0): F(-6), (0, 4, 0): F(1), (0, 0, 4): F(1)})
        assert_integer_refutation(check_sos_convexity(p), hessian_biquadratic(p))

    @pytest.mark.parametrize(
        "a, b, alphas", [(1, 1, [1, 1, 1, 1]), (2, 3, [1, 2, 3, 4])], ids=["T11", "T23"]
    )
    def test_face_form_below_bound_refuted(self, a, b, alphas):
        # the gap is nearly a point evaluation, so only a shift within the
        # pairing's margin keeps the rounded functional separating
        fp = FaceParams(a, b)
        p = face_form(alphas + [alpha5_lower_bound(alphas, fp) - F(1, 10)], fp)
        assert_integer_refutation(check_sos_convexity(p), hessian_biquadratic(p))

    def test_moment_matrix_all_positive(self):
        mm = moment_matrix(builtin_dual()).matrix
        floated = np.array([[float(v) for v in row] for row in mm.rows])
        vals, vecs = np.linalg.eigh(floated)
        assert vals[0] > 0
        assert np.allclose(vecs @ vecs.T, np.eye(9), atol=1e-10)
        assert np.allclose((vecs * vals) @ vecs.T, floated, atol=1e-8)


class TestEndToEnd:
    def test_x4_sum_certified(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        outcome = check_sos_convexity(p)
        assert outcome.is_certified()
        assert verify_sos_certificate(
            hessian_biquadratic(p).to_form(), outcome.certificate
        )

    def test_face_members_certified(self):
        rng = random.Random(21)
        fp = FaceParams(1, 1)
        for _ in range(3):
            alphas = [F(rng.randint(1, 4)) for _ in range(4)]
            bound = alpha5_lower_bound(alphas, fp)
            outcome = check_sos_convexity(face_form(alphas + [bound], fp))
            assert outcome.is_certified()

    def test_builtin_b_is_refuted_not_certified(self):
        outcome = check_sos(builtin("b_thm22"), SearchConfig(max_iterations=10_000))
        assert outcome.status == "Refuted"
        assert verify_refutation(outcome.dual, builtin("b_thm22"))

    def test_certificates_are_never_unsound(self):
        # forms just below the sos-convexity boundary must not certify
        fp = FaceParams(1, 1)
        bound = alpha5_lower_bound([1, 1, 1, 1], fp)
        p = face_form([1, 1, 1, 1, bound - F(1, 10)], fp)
        outcome = check_sos_convexity(p, SearchConfig(max_iterations=2000, restarts=1))
        assert outcome.status in ("Stalled", "Refuted")

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            check_sos_convexity(Form(2, 3, {(3, 0): F(1)}))

    def test_sextic_sos_convexity(self):
        p = sum((Form.variable(2, i) ** 6 for i in (2,)), Form.variable(2, 1) ** 6)
        outcome = check_sos_convexity(p)
        assert outcome.is_certified()


class TestPowerSumProperty:
    """Forms that are sos-convex by construction must certify."""

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.integers(n, n + 3).flatmap(
                lambda k: st.lists(
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any),
                    min_size=k,
                    max_size=k,
                )
            )
        )
    )
    def test_quartic_power_sums_certify(self, forms):
        # sum of (l_i . x)^4 has Hessian form 12 sum (l_i . x)^2 (l_i . y)^2
        p = sum((Form.linear(c) ** 4 for c in forms[1:]), Form.linear(forms[0]) ** 4)
        outcome = check_sos_convexity(p)
        assert outcome.status == "ExactCertificate"
        assert verify_sos_certificate(hessian_biquadratic(p), outcome.certificate)


class TestConfig:
    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(restarts=-1)

    def test_basis_helpers(self):
        assert len(sos_basis_for(Form(3, 4, {(4, 0, 0): F(1)}))) == 6
        assert len(bidegree_basis(3, 1, 1)) == 9
        with pytest.raises(ValueError):
            sos_basis_for(Form(2, 3, {(3, 0): F(1)}))
