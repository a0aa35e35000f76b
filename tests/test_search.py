"""Tests for the numeric search, rounding, and end-to-end checkers."""

import functools
import itertools
import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sosconvex import search
from sosconvex.biquadratic import BiquadraticForm, builtin, hessian_form
from sosconvex.certificates import (
    SosCertificate,
    SymRationalMatrix,
    _prune_basis,
    bidegree_basis,
    gram_index,
    rank,
    sos_basis,
    sos_basis_for,
    verify_sos_certificate,
)
from sosconvex.cli import parse_poly_expression
from sosconvex.dual import RefutationResult, moment_matrix, verify_refutation
from sosconvex.face import FaceParams, alpha5_lower_bound, face_form, gram_M, s_basis
from sosconvex.forms import Form, as_frac
from sosconvex.search import (
    WITNESS_STARTS,
    check_sos,
    check_sos_convexity,
    douglas_rachford,
    parameterize,
    rationalize_and_certify,
    witness_refutation,
)
from test_certificates import gram_expand


def form_of(name):
    """The Form of a builtin biq target: the search works on Forms."""
    return builtin(name).to_form()


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


def snap_fractions(pz, upper):
    return pz.snap([v.numerator for v in upper], [v.denominator for v in upper])


def textbook_snap(pz, upper):
    """Reference exact projection in Fraction arithmetic: subtract each entry
    from its monomial's target coefficient, then add to every entry its
    monomial's residual over its pair count."""
    d = len(pz.z)
    index = pz.index.tolist()
    counts = pz.counts.tolist()
    rows = [[F(0)] * d for _ in range(d)]
    residual = list(pz.target)
    values = iter(upper)
    for r in range(d):
        for s in range(r, d):
            v = rows[r][s] = next(values)
            residual[index[r][s]] -= v if r == s else 2 * v
    for r in range(d):
        for s in range(r, d):
            m = index[r][s]
            rows[r][s] = rows[s][r] = rows[r][s] + residual[m] / counts[m]
    return SymRationalMatrix(rows)


@functools.cache
def snap_fibers():
    # targets with integer and with rational coefficients (T_{3,1} at the
    # alpha5 bound has denominators such as 307), on bases of 9, 6 and 9
    targets = {
        "b_thm22": form_of("b_thm22"),
        "linear_power": Form.linear([1, -2, 3]) ** 4,
        "face_T31": hessian_form(face_at_bound(3, 1, [2, 1, 2, 1])),
    }
    return {name: parameterize(t, sos_basis(t)) for name, t in targets.items()}


def stalled_fiber():
    # b_thm22 over its pruned basis: no PSD Gram matrix, so DR never converges
    b = form_of("b_thm22")
    return parameterize(b, _prune_basis(bilinears(), b))


def face_at_bound(a, b, alphas):
    fp = FaceParams(a, b)
    return face_form(alphas + [alpha5_lower_bound(alphas, fp)], fp)


class TestParameterize:
    def test_single_monomial_fiber(self):
        target = BiquadraticForm(1, {(1, 1, 1, 1): F(12)}).to_form()
        pz = parameterize(target, [(1, 1)])
        assert pz.snap([5], [7]).rows == [[F(12)]]
        assert fiber_dimension(pz) == 0

    def test_nine_bilinear_kernel_dimension(self):
        # 45 Gram parameters, 36 coefficient constraints, surjective map
        pz = parameterize(form_of("b_thm22"), bilinears())
        assert len(pz.counts) == 36
        assert fiber_dimension(pz) == 9

    def test_every_fiber_point_expands_to_target(self):
        target = form_of("b_thm22")
        pz = parameterize(target, bilinears())
        rng = random.Random(5)
        base = snap_fractions(pz, [F(0)] * 45)
        assert gram_expand(pz.z, base) == target
        for _ in range(3):
            point = snap_fractions(pz, random_upper(pz, rng))
            assert gram_expand(pz.z, point) == target
            # the difference of two fiber points is a kernel direction
            diff = [[p - b for p, b in zip(*rows)] for rows in zip(point.rows, base.rows)]
            assert gram_expand(pz.z, SymRationalMatrix(diff)).is_zero()

    @pytest.mark.parametrize(
        "target, z",
        [
            (form_of("b_thm22"), bidegree_basis(3, 1, 1)),
            (form_of("choi_biquadratic"), bidegree_basis(3, 1, 1)),
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
        # no PSD assumption: a random symmetric matrix far from the cone,
        # rounded on the grids 1/(D T), T = 1 for b_thm22 and T > 1 for the
        # T_{3,1} member at the bound
        rng = np.random.default_rng(2)
        for target in (form_of("b_thm22"), hessian_form(face_at_bound(3, 1, [2, 1, 2, 1]))):
            pz = parameterize(target, sos_basis(target))
            d = len(pz.z)
            g = rng.standard_normal((d, d))
            upper = (g + g.T)[np.triu_indices(d)]
            candidates = list(search._roundings(upper, pz._target_den))
            assert 1 < len(candidates) <= len(search.DENOMINATOR_BOUNDS)
            for nums, dens in candidates:
                assert all(pz._target_den * max(search.DENOMINATOR_BOUNDS) % q == 0 for q in dens)
                assert gram_expand(pz.z, pz.snap(nums, dens)) == target
        assert pz._target_den > 1

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.sampled_from(["b_thm22", "linear_power", "face_T31"]),
        st.lists(st.fractions(-50, 50, max_denominator=60), min_size=45, max_size=45),
    )
    def test_integer_snap_matches_fraction_snap(self, name, upper):
        pz = snap_fibers()[name]
        upper = upper[: len(pz.z) * (len(pz.z) + 1) // 2]
        snapped = snap_fractions(pz, upper)
        assert snapped == textbook_snap(pz, upper)
        # one Fraction object per distinct value
        values = [v for row in snapped.rows for v in row]
        assert len({id(v) for v in values}) == len(set(values))

    def test_unrepresentable_monomial_reported(self):
        target = Form(2, 4, {(3, 1): F(1), (1, 3): F(1)})
        with pytest.raises(ValueError, match="not representable"):
            parameterize(target, [(2, 0), (0, 2)])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            parameterize(Form(2, 2, {(2, 0): F(1)}), [])

    def test_basis_helpers(self):
        assert len(sos_basis_for(Form(3, 4, {(4, 0, 0): F(1)}))) == 6
        assert len(bidegree_basis(3, 1, 1)) == 9
        with pytest.raises(ValueError):
            sos_basis_for(Form(2, 3, {(3, 0): F(1)}))


class TestProjections:
    def test_diagonal_target_feasible_quickly(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        h = hessian_form(p)
        pz = parameterize(h, bilinears())
        *earlier, last = douglas_rachford(pz)
        assert last.converged and not any(r.converged for r in earlier)
        assert last.min_eigenvalue >= -1e-8
        assert last.fiber_distance <= 1e-8

    def test_multiplier_target_numerically_feasible(self):
        b = form_of("b_thm22")
        mult = Form(6, 2, {(2, 0, 0, 0, 0, 0): F(1), (0, 2, 0, 0, 0, 0): F(1)})
        outcome = check_sos(b, multiplier=mult)
        assert outcome.is_certified()
        assert outcome.residual <= 1e-6

    def test_builtin_b_stalls_on_bilinears(self):
        pz = parameterize(form_of("b_thm22"), bilinears())
        reports = list(douglas_rachford(pz))
        assert reports and not any(r.converged for r in reports)

    def test_stalled_iterations_skip_the_shadow_spectrum(self, monkeypatch):
        # one eigh per iteration for the PSD projection; the shadow's
        # eigvalsh only when the fiber distance is within tolerance, which
        # it never is on this fiber, and once for each report, the start
        # report included
        pz = stalled_fiber()
        calls = []
        eigvalsh = search._eigvalsh
        monkeypatch.setattr(search, "_eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        reports = list(itertools.islice(douglas_rachford(pz), 5))
        assert not any(r.converged for r in reports)
        assert [r.iterations for r in reports] == [0, 25, 25, 50, 100]
        assert len(calls) == len(reports)

    def test_one_eigh_per_iteration_and_two_projections_per_restart(self, monkeypatch):
        # the start point and its projection; P of every later point is
        # carried, across chunk ends too, and the start report evaluates nothing
        pz = stalled_fiber()
        eighs, projections = [], []
        eigh, project = search._eigh, pz.project
        monkeypatch.setattr(search, "_eigh", lambda a: eighs.append(1) or eigh(a))
        monkeypatch.setattr(pz, "project", lambda x: projections.append(1) or project(x))
        reports = list(itertools.islice(douglas_rachford(pz), 5))
        assert sum(r.iterations for r in reports) == 200
        assert len(eighs) == 200
        assert len(projections) <= 2

    def test_long_run_on_a_stalled_fiber_stays_finite(self, monkeypatch):
        # no PSD point exists, so some Anderson candidates are rejected and
        # the history cleared; a run of 4,000 evaluations in one chunk
        # neither blows up nor raises
        accepted = []
        step = search._Anderson.step

        def traced(self, *args):
            candidate = self.pending
            result = step(self, *args)
            if candidate:
                accepted.append(self.count > 0)
            return result

        monkeypatch.setattr(search._Anderson, "step", traced)
        monkeypatch.setattr(search, "CHUNKS", (4000,))
        reports = list(douglas_rachford(stalled_fiber()))
        assert not any(r.converged for r in reports)
        assert [r.iterations for r in reports] == [0, 4000]
        for r in reports:
            assert np.isfinite(r.fiber_point).all() and math.isfinite(r.min_eigenvalue)
        assert any(accepted) and not all(accepted)

    def test_singular_anderson_solve_takes_the_plain_step(self):
        # a repeated zero residual leaves a zero Gram matrix and no Tikhonov
        # weight: the solve is singular, rejected without raising, and the
        # next point is the plain step with the history cleared
        anderson = search._Anderson(4)
        x, g, shadow = np.eye(2), np.zeros((2, 2)), np.full((2, 2), 3.0)
        for _ in range(2):
            nxt, pnext = anderson.step(x, g, shadow)
            assert np.array_equal(nxt, x + g) and np.array_equal(pnext, shadow)
            assert anderson.count == 0 and not anderson.pending

    def test_non_finite_anderson_candidate_takes_the_plain_step(self):
        # the combination overflows: rejected, and the plain step is taken
        anderson = search._Anderson(4)
        shadow = np.zeros((2, 2))
        anderson.step(np.zeros((2, 2)), np.ones((2, 2)), shadow)
        x, g = np.full((2, 2), 1e308), np.full((2, 2), 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            nxt, _ = anderson.step(x, g, shadow)
        assert np.array_equal(nxt, x + g)
        assert anderson.count == 0 and not anderson.pending

    def test_two_runs_yield_identical_reports(self, monkeypatch):
        # the run starts from the least-norm fiber point and draws nothing
        # at random: two runs yield identical reports
        pz = parameterize(form_of("choi_biquadratic"), bilinears())
        monkeypatch.setattr(search, "CHUNKS", (25, 25, 50, 100, 300))

        def summary(r):
            return r.iterations, r.min_eigenvalue, r.fiber_distance, r.converged

        r1 = list(douglas_rachford(pz))
        r2 = list(douglas_rachford(pz))
        assert r1 and not any(r.converged for r in r1)
        assert [summary(r) for r in r1] == [summary(r) for r in r2]


def symmetric_arrays(shape):
    """Float64 arrays of shape (..., n, n), each matrix symmetric."""
    entries = hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
    return entries.map(lambda a: a + np.swapaxes(a, -1, -2))


def numpy_linalg_solve(a, b):
    # np.linalg.solve, with the NaN that search._solve gives for a singular a
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(len(b), np.nan)


@functools.cache
def kernel_fibers():
    # a stalled fiber, Choi's form, b_thm22 times x1^2 + x2^2 over its
    # 15-monomial basis, and the T_{3,1} member at the bound over 7
    mult = Form(6, 2, {(2, 0, 0, 0, 0, 0): F(1), (0, 2, 0, 0, 0, 0): F(1)})
    targets = {
        "b_thm22_multiplier": mult * form_of("b_thm22"),
        "T31_at_bound": hessian_form(face_at_bound(3, 1, [2, 1, 2, 1])),
    }
    fibers = {name: parameterize(t, sos_basis(t)) for name, t in targets.items()}
    fibers["choi"] = parameterize(form_of("choi_biquadratic"), bilinears())
    fibers["stalled"] = stalled_fiber()
    return fibers


class TestKernels:
    """search's LAPACK kernels give the floats of np.linalg.eigh, eigvalsh
    and solve, bit for bit, on the shapes the search passes them."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 36).flatmap(lambda d: symmetric_arrays((d, d))))
    def test_eigen_kernels_match_numpy_linalg(self, m):
        vals, vecs = search._eigh(m)
        expected = np.linalg.eigh(m)
        assert vals.tobytes() == expected.eigenvalues.tobytes()
        assert vecs.tobytes() == expected.eigenvectors.tobytes()
        assert search._eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 6).flatmap(lambda n: symmetric_arrays((WITNESS_STARTS, n, n))))
    def test_stacked_eigh_matches_numpy_linalg(self, stack):
        # the witness search's stack of one matrix per start
        vals, vecs = search._eigh(stack)
        expected = np.linalg.eigh(stack)
        assert vals.tobytes() == expected.eigenvalues.tobytes()
        assert vecs.tobytes() == expected.eigenvectors.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                hnp.arrays(np.float64, (m, m), elements=st.floats(-1e3, 1e3)),
                hnp.arrays(np.float64, m, elements=st.floats(-1e3, 1e3)),
            )
        )
    )
    def test_solve_matches_numpy_linalg_on_spd_systems(self, system):
        # the Anderson system: a Gram matrix plus a positive diagonal
        b, rhs = system
        a = b @ b.T + np.eye(len(b))
        assert search._solve(a, rhs).tobytes() == np.linalg.solve(a, rhs).tobytes()

    @pytest.mark.parametrize("name", ["stalled", "choi", "b_thm22_multiplier", "T31_at_bound"])
    def test_douglas_rachford_reports_match_numpy_linalg(self, monkeypatch, name):
        pz = kernel_fibers()[name]
        monkeypatch.setattr(search, "CHUNKS", search.CHUNKS[:5])

        def summary(r):
            return (
                r.iterations,
                r.min_eigenvalue,
                r.fiber_distance,
                r.converged,
                r.fiber_point.tobytes(),
            )

        shipped = [summary(r) for r in douglas_rachford(pz)]
        monkeypatch.setattr(search, "_eigh", np.linalg.eigh)
        monkeypatch.setattr(search, "_eigvalsh", np.linalg.eigvalsh)
        monkeypatch.setattr(search, "_solve", numpy_linalg_solve)
        wrapped = [summary(r) for r in douglas_rachford(pz)]
        assert len(shipped) > 1 and shipped == wrapped


class TestSearchLoop:
    """check_sos is one loop over the reports douglas_rachford yields."""

    def test_one_pull_runs_one_chunk(self, monkeypatch):
        pz = stalled_fiber()
        eighs = []
        eigh = search._eigh
        monkeypatch.setattr(search, "_eigh", lambda a: eighs.append(1) or eigh(a))
        reports = douglas_rachford(pz)
        assert eighs == []
        start = next(reports)
        assert eighs == [] and start.iterations == 0 and not start.converged
        first = next(reports)
        assert len(eighs) == 25 and first.iterations == 25 and not first.converged
        next(reports)
        assert len(eighs) == 50

    def test_chunk_ends_on_a_stalled_fiber(self):
        # a run that never converges runs the whole schedule, the four
        # doubling chunks to 200 and then chunks of 50, and no further: one
        # start report evaluates nothing, and no report follows the last chunk
        reports = list(douglas_rachford(stalled_fiber()))
        ends = list(itertools.accumulate(r.iterations for r in reports))
        assert ends == [0, 25, 50, 100, *range(200, 3001, 50)]
        assert [r.iterations for r in reports].count(0) == 1
        assert not any(r.converged for r in reports)

    def test_chunk_ends_within_the_budget(self, monkeypatch):
        # a run that never converges spends its budget of 3,000 in the four
        # doubling chunks to 200, then in chunks of 50; a shorter schedule is
        # honoured to the evaluation, once
        ends = list(itertools.accumulate(search.CHUNKS))
        assert ends == [25, 50, 100, *range(200, 3001, 50)]
        monkeypatch.setattr(search, "CHUNKS", (25, 25, 50, 100, 400, 100))
        reports = list(douglas_rachford(stalled_fiber()))
        assert [r.iterations for r in reports] == [0, 25, 25, 50, 100, 400, 100]
        assert not any(r.converged for r in reports)

    def test_chunk_ends_move_no_iterate(self, monkeypatch):
        # the report at 200 evaluations is the same, bit for bit, whether
        # the restart ran in chunks of 25, 25, 50 and 100 or in one chunk,
        # each after the start report
        fourth = list(itertools.islice(douglas_rachford(stalled_fiber()), 5))[-1]
        monkeypatch.setattr(search, "CHUNKS", (200,))
        whole = list(itertools.islice(douglas_rachford(stalled_fiber()), 2))[-1]
        assert whole.iterations == 200 and fourth.iterations == 100
        assert whole.fiber_point.tobytes() == fourth.fiber_point.tobytes()
        assert (whole.min_eigenvalue, whole.fiber_distance) == (
            fourth.min_eigenvalue,
            fourth.fiber_distance,
        )
        assert not (whole.converged or fourth.converged)

    def test_rank_one_square_ends_numeric_feasible_on_the_converged_report(self):
        # (x1^3 - 2 x1^2 x2 + x1 x2^2 + x2^3)^2 has a rank-1 Gram matrix: DR
        # converges, but no rounding of the point it ends on is exactly PSD
        c = Form(2, 3, {(3, 0): F(1), (2, 1): F(-2), (1, 2): F(1), (0, 3): F(1)})
        target = c * c
        outcome = check_sos(target)
        assert outcome.status == "NumericFeasible"
        assert outcome.diagnostics.startswith("feasible numerically but rounding failed: ")
        reports = list(douglas_rachford(parameterize(target, sos_basis(target))))
        assert reports[-1].converged
        assert outcome.residual == reports[-1].residual

    def test_stalled_outcome_reports_the_smallest_residual(self, monkeypatch):
        # an indefinite target under a multiplier: every square of the product
        # has a positive coefficient or a second pair, so the search runs
        square_sum = Form(2, 2, {(2, 0): F(1), (0, 2): F(1)})
        indefinite = Form(2, 2, {(2, 0): F(1), (1, 1): F(-3), (0, 2): F(1)})
        monkeypatch.setattr(search, "CHUNKS", (25, 25, 50, 100, 400))
        outcome = check_sos(indefinite, multiplier=square_sum)
        assert outcome.status == "Stalled"
        search_form = square_sum * indefinite
        reports = list(douglas_rachford(parameterize(search_form, sos_basis(search_form))))
        assert not any(r.converged for r in reports)
        best = min(reports, key=lambda r: r.residual)
        assert outcome.residual == best.residual
        assert outcome.diagnostics == (
            f"stalled with min eigenvalue {best.min_eigenvalue:.3e}, "
            f"fiber distance {best.fiber_distance:.3e}"
        )

    def test_an_undecided_search_runs_once(self, monkeypatch):
        # no Gram matrix of the indefinite target times x1^2 + x2^2 is PSD,
        # and under a multiplier no refutation is sought: the one run spends
        # the whole schedule, one eigh per evaluation, from one start report
        square_sum = Form(2, 2, {(2, 0): F(1), (0, 2): F(1)})
        indefinite = Form(2, 2, {(2, 0): F(1), (1, 1): F(-3), (0, 2): F(1)})
        calls = []
        project_psd = search._project_psd
        monkeypatch.setattr(search, "_project_psd", lambda x: calls.append(1) or project_psd(x))
        assert check_sos(indefinite, multiplier=square_sum).status == "Stalled"
        assert len(calls) == sum(search.CHUNKS) == 3000
        search_form = square_sum * indefinite
        reports = list(douglas_rachford(parameterize(search_form, sos_basis(search_form))))
        assert [r.iterations for r in reports].count(0) == 1

    @pytest.mark.parametrize(
        "multiplier",
        [Form(2, 2, {(2, 0): F(1), (0, 2): F(-1)}), Form.zero(2, 2), Form(2, 2, {(1, 1): F(1)})],
        ids=["difference", "zero", "odd"],
    )
    def test_multiplier_not_an_even_power_sum_is_rejected_before_search(
        self, multiplier, monkeypatch
    ):
        monkeypatch.setattr(search, "parameterize", lambda *a: pytest.fail("searched"))
        target = Form(2, 2, {(2, 0): F(1), (0, 2): F(1)})
        with pytest.raises(ValueError, match="multiplier must be a sum of even monomial powers"):
            check_sos(target, multiplier=multiplier)


class TestSharedWitnessParts:
    """Witnesses over one basis share their parts, so keeping many is cheap."""

    def test_refutations_of_one_target_share_their_monomials(self):
        b = form_of("choi_biquadratic")
        first, second = check_sos(b), check_sos(b)
        assert first.status == second.status == "Refuted"
        assert first.dual.monomials is second.dual.monomials

    def test_certificates_of_one_target_share_basis_and_entries(self):
        p = face_at_bound(1, 1, [1, 2, 3, 4])
        first, second = check_sos_convexity(p), check_sos_convexity(p)
        assert first.is_certified() and second.is_certified()
        assert first.point is None
        assert first.certificate.z is second.certificate.z
        entries = {}
        for cert in (first.certificate, second.certificate):
            for row in cert.q.rows:
                for v in row:
                    assert entries.setdefault(v, v) is v

    def test_integer_fractions_are_shared(self):
        assert as_frac(7) is as_frac(7)
        assert as_frac(7) == F(7)

    def test_binding_a_target_leaves_the_cache_alone(self):
        z = bilinears()
        b, choi = form_of("b_thm22"), form_of("choi_biquadratic")
        first, second = parameterize(b, z), parameterize(choi, z)
        assert first.z is second.z
        assert first.index is second.index
        assert first.monomials is second.monomials
        # each keeps its own target, and snaps onto its own fiber
        assert first.target != second.target
        upper = [F(0)] * 45
        assert gram_expand(z, snap_fractions(first, upper)) == b
        assert gram_expand(z, snap_fractions(second, upper)) == choi
        assert search._basis_fiber(tuple(z)).target == []

    def test_one_index_per_basis_for_the_search_and_both_verifiers(self):
        for target in (hessian_form(face_at_bound(1, 1, [1, 2, 3, 4])), form_of("b_thm22")):
            z = tuple(sos_basis(target))
            # a fiber outlives no index: once the index is dropped, the fiber
            # built over it is dropped too
            parameterize(target, z)
            gram_index.cache_clear()
            outcome = check_sos(target)
            gram = gram_index(z)
            assert parameterize(target, z).monomials is gram.monomials
            before = gram_index.cache_info()
            if outcome.is_certified():
                assert verify_sos_certificate(target, outcome.certificate)
            else:
                assert verify_refutation(outcome.dual, target)
            after = gram_index.cache_info()
            # the verifier found the search's index: one hit, no new index
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_fiber_index_is_read_only(self):
        pz = stalled_fiber()
        assert pz.index is stalled_fiber().index
        with pytest.raises(ValueError):
            pz.index[0, 0] = 1


class TestRounding:
    def test_perturbed_feasible_point_recovers_exact(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        h = hessian_form(p)
        pz = parameterize(h, bilinears())
        g = least_norm_point(pz)
        rng = np.random.default_rng(3)
        g = g + 1e-7 * rng.standard_normal(g.shape)
        cert = rationalize_and_certify(g, pz, h)
        assert verify_sos_certificate(h, cert)

    def test_failure_is_falsy_with_reason(self):
        # the shipped b has no PSD Gram at all, so every rounding must fail
        b = form_of("b_thm22")
        pz = parameterize(b, bilinears())
        g = least_norm_point(pz)
        result = rationalize_and_certify(g, pz, b)
        assert not result
        assert "PSD" in result.reason
        # every rounding is far from PSD, so the float screen rejects them all
        assert "float screen" in result.reason and "lambda_min" in result.reason

    def test_one_ldlt_per_accepted_certificate(self, monkeypatch):
        # the first rounding is accepted, and verify_sos_certificate is the
        # only exact check it gets; count calls under every name that holds it
        from sosconvex import certificates

        calls = []
        ldlt = certificates.ldlt_psd_check

        def counted(q):
            calls.append(1)
            return ldlt(q)

        for name, module in list(sys.modules.items()):
            if name.startswith("sosconvex") and vars(module).get("ldlt_psd_check") is ldlt:
                monkeypatch.setattr(module, "ldlt_psd_check", counted)
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        assert check_sos_convexity(p).is_certified()
        assert len(calls) == 1

    def test_one_ldlt_per_screened_candidate(self, monkeypatch):
        # (c x)^2 + (x1^6 + x1^4 x2^2 + x1^2 x2^4 + x2^6) / 7 has the Gram
        # matrix c c^T + I / 7; g moves it along a fiber direction n to about
        # 1% inside the PSD boundary, so the coarse roundings land outside
        # the cone and the float screen skips them; every one it passes gets
        # exactly one LDL^T inside rationalize_and_certify
        from sosconvex import certificates

        ldlt_calls, screened = [], []
        ldlt = certificates.ldlt_psd_check
        screen = search._screen

        def counted_ldlt(q):
            ldlt_calls.append(1)
            return ldlt(q)

        def counted_screen(*args):
            value = screen(*args)
            screened.append(value)
            return value

        for name, module in list(sys.modules.items()):
            if name.startswith("sosconvex") and vars(module).get("ldlt_psd_check") is ldlt:
                monkeypatch.setattr(module, "ldlt_psd_check", counted_ldlt)
        monkeypatch.setattr(search, "_screen", counted_screen)
        c = Form(2, 3, {(3, 0): F(1), (2, 1): F(-2), (1, 2): F(1), (0, 3): F(1)})
        squares = Form(2, 6, {(6, 0): F(1), (4, 2): F(1), (2, 4): F(1), (0, 6): F(1)})
        target = c * c + squares.scale(F(1, 7))
        pz = parameterize(target, sos_basis(target))
        v = np.array([1.0, -2.0, 1.0, 1.0])
        # n adds to z_1 z_3 and z_2 z_4 what it takes from z_2^2 and z_3^2
        n = np.zeros((4, 4))
        n[0, 2] = n[2, 0] = n[1, 3] = n[3, 1] = 1
        n[1, 1] = n[2, 2] = -2
        g = np.outer(v, v) + np.eye(4) / 7 + 0.0585 * n
        assert rationalize_and_certify(g, pz, target)
        passed = sum(v >= -search.SCREEN_TOL for v in screened)
        assert 0 < passed < len(screened)
        assert len(ldlt_calls) == passed

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.integers(2, 8).flatmap(
            lambda d: st.integers(1, d - 1).flatmap(
                lambda r: st.lists(
                    st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                    min_size=d,
                    max_size=d,
                ).filter(lambda v: any(map(any, v)))
            )
        )
    )
    def test_singular_psd_gram_survives_the_screen(self, v):
        # Q = V V^T is PSD of rank < d: its float lambda_min reads about -1e-15
        # relative, and the screen must still hand it to the exact check
        d = len(v)
        q = [[sum(a * b for a, b in zip(v[i], v[j])) for j in range(d)] for i in range(d)]
        z = sos_basis_for(Form.variable(3, 1) ** 6)[:d]
        target = gram_expand(z, SymRationalMatrix(q))
        pz = parameterize(target, z)
        cert = rationalize_and_certify(np.array(q, dtype=float), pz, target)
        assert isinstance(cert, SosCertificate)
        assert verify_sos_certificate(target, cert)


def assert_integer_refutation(outcome, b):
    assert outcome.status == "Refuted"
    assert all(v.denominator == 1 for v in outcome.dual.c)
    result = verify_refutation(outcome.dual, b)
    assert result and result.pairing_value < 0


class TestRefutation:
    """Refutations come from the gap of the DR run, not from a shipped file."""

    def test_builtin_b_refuted_exactly(self):
        assert_integer_refutation(check_sos(form_of("b_thm22")), form_of("b_thm22"))

    def test_scaled_b_still_refuted(self):
        scaled = form_of("b_thm22").scale(F(5, 3))
        assert_integer_refutation(check_sos(scaled), scaled)

    @pytest.mark.parametrize("name", ["b_thm22", "choi_biquadratic"])
    def test_refuted_after_first_chunk(self, name, monkeypatch):
        # every stalled chunk is offered to the gap rounding, so the first
        # 25-evaluation chunk already refutes
        iterations = []
        run = search.douglas_rachford

        def counted(*args):
            for report in run(*args):
                iterations.append(report.iterations)
                yield report

        monkeypatch.setattr(search, "douglas_rachford", counted)
        b = form_of(name)
        outcome = check_sos(b)
        assert_integer_refutation(outcome, b)
        assert sum(iterations) <= 25
        # nonnegative forms: the gap refutes, and no witness point exists
        assert outcome.point is None and outcome.diagnostics == ""

    def test_refutation_search_returns_a_refuted_outcome(self):
        # b_thm22's start point is not separated; its first chunk's end is
        b = form_of("b_thm22")
        pz = stalled_fiber()
        first = next(r for r in douglas_rachford(pz) if r.iterations)
        assert first.iterations == 25
        outcome = search.refutation_search(b, pz, first.fiber_point)
        assert_integer_refutation(outcome, b)
        assert outcome.refutation == verify_refutation(outcome.dual, b)
        assert outcome.point is None

    def test_singular_psd_gap_refuted(self):
        # the gap of -(x1^6 + x2^6 + x3^6) has a singular PSD moment matrix;
        # the shift screen takes it unshifted, and it pairs to -3 (check_sos
        # refutes it before any search, by one of its negative squares)
        target = parse_poly_expression("-x1^6-x2^6-x3^6", 3)
        pz = parameterize(target, sos_basis(target))
        start = next(douglas_rachford(pz))
        outcome = search.refutation_search(target, pz, start.fiber_point)
        assert_integer_refutation(outcome, target)
        assert outcome.refutation.pairing_value == -3

    @pytest.mark.parametrize("name", ["b_thm22", "choi_biquadratic"])
    def test_plain_form_target_refuted(self, name):
        # the search form, not the target's type, makes a target refutable:
        # the biq view and its Form give the same refutation
        form = form_of(name)
        outcome, view = check_sos(form), check_sos(builtin(name))
        assert_integer_refutation(outcome, form)
        assert (view.dual.monomials, view.dual.c) == (outcome.dual.monomials, outcome.dual.c)

    def test_choi_form_refuted(self):
        # PSD but not SOS; its pruned basis leaves squares the gap never sees
        choi = form_of("choi_biquadratic")
        assert_integer_refutation(check_sos(choi), choi)

    def test_nonconvex_quartic_not_sos_convex(self):
        p = Form(3, 4, {(4, 0, 0): F(1), (2, 2, 0): F(-6), (0, 4, 0): F(1), (0, 0, 4): F(1)})
        assert_integer_refutation(check_sos_convexity(p), hessian_form(p))

    @pytest.mark.parametrize(
        "a, b, alphas", [(1, 1, [1, 1, 1, 1]), (2, 3, [1, 2, 3, 4])], ids=["T11", "T23"]
    )
    def test_face_form_below_bound_refuted(self, a, b, alphas):
        # the gap is nearly a point evaluation, so only a shift within the
        # pairing's margin keeps the rounded functional separating
        fp = FaceParams(a, b)
        p = face_form(alphas + [alpha5_lower_bound(alphas, fp) - F(1, 10)], fp)
        assert_integer_refutation(check_sos_convexity(p), hessian_form(p))

    @pytest.mark.parametrize(
        "mode, expr, n",
        [
            ("sos", "x1^4*x2^2+x1^2*x2^4-3*x1^2*x2^2*x3^2+x3^6", 3),
            ("sos-convex", "x1^6+x2^6-4*x1^2*x2^4", 2),
            ("sos-convex", "x1^6-5*x1^3*x2^3+x2^6+x3^6", 3),
        ],
        ids=["motzkin", "nonconvex_sextic", "unrepresentable_sextic"],
    )
    def test_refuted_off_bidegree_two_two(self, mode, expr, n):
        # Motzkin's form is nonnegative but not SOS; the sextics are not
        # convex. In the last, pruning drops x2^2 y1, so no basis product
        # reaches the target's x1 x2^3 y1^2 term.
        p = parse_poly_expression(expr, n)
        if mode == "sos":
            outcome, target = check_sos(p), p
        else:
            outcome, target = check_sos_convexity(p), hessian_form(p)
        assert_integer_refutation(outcome, target)

    def test_dual_screen_only_skips(self, monkeypatch):
        # the float screen on each rounded functional's moment matrix skips
        # only candidates the exact check rejects: every one it lets through
        # is accepted, and the refutation is the one found without it
        motzkin = parse_poly_expression("x1^4*x2^2+x1^2*x2^4-3*x1^2*x2^2*x3^2+x3^6", 3)
        sextic = parse_poly_expression("x1^6+x2^6-4*x1^2*x2^4", 2)
        runs = [
            lambda: check_sos(form_of("b_thm22")),
            lambda: check_sos(form_of("choi_biquadratic")),
            lambda: check_sos(motzkin),
            lambda: check_sos_convexity(sextic),
        ]
        verdicts = []
        verify = search.verify_refutation

        def recorded(*args):
            result = verify(*args)
            verdicts.append(bool(result))
            return result

        monkeypatch.setattr(search, "verify_refutation", recorded)
        screened = [run() for run in runs]
        assert all(verdicts) and len(verdicts) == len(runs)
        verdicts.clear()
        monkeypatch.setattr(search, "SCREEN_TOL", math.inf)
        unscreened = [run() for run in runs]
        assert len(verdicts) > len(runs)  # without it, rejected candidates reach the check
        for a, b in zip(screened, unscreened):
            assert a.status == b.status == "Refuted"
            assert (a.dual.monomials, a.dual.c) == (b.dual.monomials, b.dual.c)

    def test_moment_matrix_all_positive(self):
        mm = moment_matrix(builtin("c_dual"), sos_basis(form_of("b_thm22")))
        floated = np.array([[float(v) for v in row] for row in mm.rows])
        vals, vecs = np.linalg.eigh(floated)
        assert vals[0] > 0
        assert np.allclose(vecs @ vecs.T, np.eye(9), atol=1e-10)
        assert np.allclose((vecs * vals) @ vecs.T, floated, atol=1e-8)


def witness_on(target):
    return witness_refutation(target, parameterize(target, sos_basis(target)))


class TestWitness:
    """Refutations at a rational point where the Hessian form is negative."""

    # face forms just below the alpha5 bound whose DR gap never separated:
    # each ended Stalled after 0.3-0.5 s
    @pytest.mark.parametrize(
        "a, b, alphas, delta",
        [
            (1, 1, [1, 2, 3, 4], F(1, 1000)),
            (1, 1, [3, 1, 2, 1], F(1, 1000)),
            (3, 1, [2, 1, 2, 1], F(1, 100)),
        ],
        ids=["T11-1234", "T11-3121", "T31-2121"],
    )
    def test_stalled_face_draw_refuted_at_a_point(self, a, b, alphas, delta):
        fp = FaceParams(a, b)
        p = face_form(alphas + [alpha5_lower_bound(alphas, fp) - delta], fp)
        outcome = check_sos_convexity(p)
        h = hessian_form(p)
        assert_integer_refutation(outcome, h)
        assert rank(moment_matrix(outcome.dual, sos_basis(h)).rows) == 1
        # the point holds the integer (x, y) and the exact value there
        x, y, value = outcome.point
        assert all(isinstance(v, int) for v in x + y)
        assert h.evaluate(x + y) == value < 0
        assert outcome.diagnostics == (
            f"y^T H(x) y = {value} < 0 at x = {x}, y = {y}, so the form is not convex"
        )

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3).filter(bool),
        st.lists(st.fractions(F(1, 4), 4, max_denominator=4), min_size=4, max_size=4),
        st.sampled_from([F(1), F(9, 10), F(1, 2), F(0)]),
    )
    def test_no_witness_on_face_members(self, a, b, alphas, t):
        # T_{a,b} members are convex: the Hessian form is nowhere negative
        fp = FaceParams(a, b)
        p = face_form(alphas + [alpha5_lower_bound(alphas, fp) * t], fp)
        assert witness_on(hessian_form(p)) is None

    @pytest.mark.parametrize("name", ["b_thm22", "choi_biquadratic"])
    def test_no_witness_on_nonnegative_forms(self, name):
        assert witness_on(form_of(name)) is None

    def test_no_witness_off_bidegree_two_two(self):
        sextic = hessian_form(parse_poly_expression("x1^6+x2^6-4*x1^2*x2^4", 2))
        assert witness_on(sextic) is None

    def test_every_witness_passes_verify_refutation(self, monkeypatch):
        # the exact sign check and the float search only skip candidates:
        # with the gate refusing everything, no witness is returned
        fp = FaceParams(1, 1)
        h = hessian_form(face_form([1, 1, 1, 1, alpha5_lower_bound([1, 1, 1, 1], fp) - 1], fp))
        found = witness_on(h)
        x, y, value = found.point
        assert found.diagnostics == f"the target is {value} < 0 at x = {x}, y = {y}"
        calls = []

        def refuse(cert, target):
            calls.append(cert)
            return RefutationResult(False, F(0), None, "refused")

        monkeypatch.setattr(search, "verify_refutation", refuse)
        assert witness_on(h) is None and calls

    def test_starts_drawn_once_per_n(self):
        # every call at one n reads the same read-only array of the seed-0 draws
        first = search._witness_starts(3)
        assert search._witness_starts(3) is first and not first.flags.writeable
        assert np.array_equal(first, np.random.default_rng(0).standard_normal((WITNESS_STARTS, 3)))
        fp = FaceParams(1, 1)
        h = hessian_form(face_form([1, 1, 1, 1, alpha5_lower_bound([1, 1, 1, 1], fp) - 1], fp))
        assert witness_on(h) is not None
        assert search._witness_starts(3) is first

    def test_searched_once_and_not_with_a_multiplier(self, monkeypatch):
        calls = []
        found = search.witness_refutation

        def counted(*args):
            calls.append(args)
            return found(*args)

        monkeypatch.setattr(search, "witness_refutation", counted)
        # a draw with no witness found, so every chunk could try one
        fp = FaceParams(2, 3)
        p = face_form([1, 1, 1, 1, alpha5_lower_bound([1, 1, 1, 1], fp) - F(1, 1000)], fp)
        monkeypatch.setattr(search, "CHUNKS", (25, 25, 50, 100, 200))
        assert check_sos_convexity(p).status == "Stalled"
        assert len(calls) == 1
        calls.clear()
        b = form_of("b_thm22")
        check_sos(b, multiplier=parse_poly_expression("x1^2+x2^2", 6, block=3))
        assert not calls


class TestOneLadder:
    """Gram matrices, gap functionals and witness points all round at the
    bounds of DENOMINATOR_BOUNDS, the one ladder of the search."""

    @pytest.fixture
    def t11_below(self):
        fp = FaceParams(1, 1)
        return hessian_form(face_form([1, 1, 1, 1, alpha5_lower_bound([1, 1, 1, 1], fp) - 1], fp))

    def test_witness_points_round_at_the_bounds(self, t11_below, monkeypatch):
        # at the full ladder the point is x = (-1, 2, -2), y = (2, 0, 1); at
        # 256 alone both vectors are scaled to max |coordinate| 256
        monkeypatch.setattr(search, "DENOMINATOR_BOUNDS", (256,))
        x, y, value = witness_on(t11_below).point
        assert max(abs(v) for v in x + y) == 256
        assert t11_below.evaluate(x + y) == value < 0

    def test_no_bounds_no_refutation(self, t11_below, monkeypatch):
        choi = form_of("choi_biquadratic")
        pz = parameterize(choi, sos_basis(choi))
        start = next(douglas_rachford(pz))
        assert_integer_refutation(search.refutation_search(choi, pz, start.fiber_point), choi)
        assert witness_on(t11_below) is not None
        monkeypatch.setattr(search, "DENOMINATOR_BOUNDS", ())
        assert search.refutation_search(choi, pz, start.fiber_point) is None
        assert witness_on(t11_below) is None


class TestEndToEnd:
    def test_x4_sum_certified(self):
        p = sum((Form.variable(3, i) ** 4 for i in (2, 3)), Form.variable(3, 1) ** 4)
        outcome = check_sos_convexity(p)
        assert outcome.is_certified()
        assert verify_sos_certificate(
            hessian_form(p), outcome.certificate
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
        outcome = check_sos(form_of("b_thm22"))
        assert outcome.status == "Refuted"
        assert verify_refutation(outcome.dual, form_of("b_thm22"))

    def test_certificates_are_never_unsound(self):
        # forms just below the sos-convexity boundary must not certify
        fp = FaceParams(1, 1)
        bound = alpha5_lower_bound([1, 1, 1, 1], fp)
        p = face_form([1, 1, 1, 1, bound - F(1, 10)], fp)
        outcome = check_sos_convexity(p)
        assert outcome.status in ("Stalled", "Refuted")

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            check_sos_convexity(Form(2, 3, {(3, 0): F(1)}))

    def test_sextic_power_sum_with_psd_shadow_certified(self):
        # the third DR chunk ends on a PSD shadow, a feasible point, while its
        # fiber distance is still about 2; rounding it certifies, where
        # waiting for the fiber distance stalled
        forms = [[3, 3, -3], [-3, -3, -1], [3, -2, 2], [3, 2, 3], [-1, -1, 1], [-2, 1, -3]]
        p = sum((Form.linear(c) ** 6 for c in forms[1:]), Form.linear(forms[0]) ** 6)
        outcome = check_sos_convexity(p)
        assert outcome.is_certified()
        assert verify_sos_certificate(hessian_form(p), outcome.certificate)

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
        assert verify_sos_certificate(hessian_form(p), outcome.certificate)


def sextic_power_sum_draw(seed):
    """Sum of (l_i . x)^6 over k = randint(5, 7) ternary l_i with entries in
    -3..3, drawn from Random(seed); an all-zero l becomes e_1. Sos-convex by
    construction: 30 sum w_i w_i^T is a Gram matrix of its Hessian form."""
    rng = random.Random(seed)
    k = rng.randint(5, 7)
    ls = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
    ls = [l if any(l) else [1, 0, 0] for l in ls]
    return k, sum((Form.linear(l) ** 6 for l in ls[1:]), Form.linear(ls[0]) ** 6)


class TestSexticLedger:
    """Ternary sextic power sums are sos-convex by construction, so every
    draw must certify. Of sextic_power_sum_draw(101..140), the 25 seeds of
    CERTIFIED do, the slowest, 118 and 137, at the 1,550th and 1,750th
    evaluation of the 3,000 the search runs; the other 15, 108, 109, 110,
    111, 114, 115, 117, 123, 125, 127, 128, 133, 138, 139 and 140, end
    Stalled, and a search change must not lose any of the 25."""

    CERTIFIED = (*range(101, 108), 112, 113, 116, *range(118, 123), 124, 126,
                 *range(129, 133), *range(134, 138))

    @pytest.mark.parametrize("seed", CERTIFIED)
    def test_draw_certifies(self, seed):
        _, p = sextic_power_sum_draw(seed)
        outcome = check_sos_convexity(p)
        assert outcome.status == "ExactCertificate", outcome.diagnostics
        assert verify_sos_certificate(hessian_form(p), outcome.certificate)
        # the grid 1/(D T) keeps every denominator below 2^20
        assert max(v.denominator for v in outcome.certificate.q.upper) < 2**20


class TestEdgeOfDecision:
    """Draws that certify today from families where many draws stay
    undecided: a search change must not lose them."""

    # T_{a,b} members at the alpha5 bound: two drawn from Random(11) with a, b
    # in +-1..3 and alpha_1..4 = randint(1, 16) / choice(1, 2, 4), and the
    # T_{3,1} member that ended NumericFeasible under an absolute DR tolerance
    @pytest.mark.parametrize(
        "a, b, alphas",
        [
            (-1, -2, [F(15, 2), F(7), F(4), F(6)]),
            (-3, 1, [F(4), F(8), F(1, 2), F(10)]),
            (3, 1, [F(2), F(1), F(2), F(1)]),
        ],
    )
    def test_face_draw_at_the_bound_certifies(self, a, b, alphas):
        p = face_at_bound(a, b, alphas)
        outcome = check_sos_convexity(p)
        assert outcome.status == "ExactCertificate", outcome.diagnostics
        assert verify_sos_certificate(hessian_form(p), outcome.certificate)


# (label, alpha5 as a function of the alpha5 bound): members of T_{a,b} at
# the bound, at the bound + 1/100 and at 0.9 times the (negative) bound, and
# face forms below the bound by 1/10, 1/100 and 1/1000
MEMBER_OFFSETS = (
    ("bound", lambda bound: bound),
    ("+1/100", lambda bound: bound + F(1, 100)),
    ("0.9", lambda bound: bound * F(9, 10)),
)
BELOW_OFFSETS = tuple(
    (f"-{d}", lambda bound, d=d: bound - d) for d in (F(1, 10), F(1, 100), F(1, 1000))
)


def face_member_alphas(seed, draws, offsets=MEMBER_OFFSETS):
    """Face parameters: per draw, a and b = choice(+-1..3) and alpha_1..4 =
    randint(1, 16) / choice(1, 2, 4) from Random(seed), and for each
    (label, alpha5) of offsets, the draw, the label, FaceParams(a, b) and
    alpha_1..4 with alpha5(bound)."""
    rng = random.Random(seed)
    for draw in range(draws):
        a, b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
        alphas = [F(rng.randint(1, 16), rng.choice([1, 2, 4])) for _ in range(4)]
        fp = FaceParams(a, b)
        bound = alpha5_lower_bound(alphas, fp)
        for offset, alpha5 in offsets:
            yield draw, offset, fp, alphas + [alpha5(bound)]


def face_member_draws(seed, draws, offsets=MEMBER_OFFSETS):
    """The face forms of face_member_alphas, as (draw, label, form)."""
    for draw, offset, fp, alpha in face_member_alphas(seed, draws, offsets):
        yield draw, offset, face_form(alpha, fp)


class TestFaceMemberLedger:
    """Every member of T_{a,b} is sos-convex (the paper's theorem), so every
    draw must certify, and it does with the paper's own Gram matrix: the
    certificate's Q is S^T M S, M = gram_M(alpha, fp) over s_1..s_5 of
    s_basis(fp) and S their coefficients over the certificate's basis."""

    def test_random_members_certify(self):
        certified = 0
        for draw, offset, fp, alpha in face_member_alphas(11, 30):
            outcome = check_sos_convexity(face_form(alpha, fp))
            assert outcome.status == "ExactCertificate", (draw, offset, outcome.diagnostics)
            z = [tuple(m) for m in outcome.certificate.z]
            s = [[sk.terms.get(m, 0) for m in z] for sk in s_basis(fp)]
            m = gram_M(alpha, fp).rows
            expected = [
                [sum(s[i][r] * m[i][j] * s[j][c] for i in range(5) for j in range(5))
                 for c in range(len(z))]
                for r in range(len(z))
            ]
            assert outcome.certificate.q == SymRationalMatrix(expected), (draw, offset)
            certified += 1
        assert certified == 90


class TestBelowBoundLedger:
    """Face forms below the alpha5 bound are not sos-convex, so every draw
    must be refuted. Of face_member_draws(18, 60, BELOW_OFFSETS), 171 are:
    60 at -1/10, 60 at -1/100 and 51 at -1/1000. The other 9, which
    KNOWN_UNDECIDED lists, end Stalled: draws 7, 11, 25, 28, 29, 33, 50, 53
    and 59 at -1/1000. A search change must not lose any of the 171, and
    none of the 9 may be certified."""

    KNOWN_UNDECIDED = {(draw, "-1/1000") for draw in (7, 11, 25, 28, 29, 33, 50, 53, 59)}

    def test_decided_draws_are_refuted(self):
        statuses = {
            (draw, offset): check_sos_convexity(p).status
            for draw, offset, p in face_member_draws(18, 60, BELOW_OFFSETS)
        }
        assert len(statuses) == 180
        decided = statuses.keys() - self.KNOWN_UNDECIDED
        counts = [sum(offset == label for _, offset in decided) for label, _ in BELOW_OFFSETS]
        assert counts == [60, 60, 51]
        assert {statuses[key] for key in decided} == {"Refuted"}
        assert all(statuses[key] != "ExactCertificate" for key in self.KNOWN_UNDECIDED)


class TestBelowBoundProperty:
    """Face forms below the alpha5 bound by a factor 1 + delta, delta at
    least 1/100, are not sos-convex: refuted, with a functional
    verify_refutation accepts."""

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3).filter(bool),
        st.lists(st.fractions(F(1, 4), 4, max_denominator=4), min_size=4, max_size=4),
        st.sampled_from([F(1, 100), F(1, 10), F(1, 2)]),
    )
    # no witness point is found; its gap functional is rounded at 2^19
    @example(1, -3, [F(1, 2), F(1, 2), F(4, 3), F(1, 2)], F(1, 100))
    def test_face_forms_below_bound_are_refuted(self, a, b, alphas, delta):
        fp = FaceParams(a, b)
        # the bound is negative, so bound * (1 + delta) lies below it
        alpha5 = alpha5_lower_bound(alphas, fp) * (1 + delta)
        p = face_form(alphas + [alpha5], fp)
        outcome = check_sos_convexity(p)
        assert outcome.status == "Refuted", outcome.diagnostics
        assert verify_refutation(outcome.dual, hessian_form(p))


class TestNegativeSquare:
    """A square z_r^2 that only the pair (r, r) reaches, with a negative
    coefficient, is decided without a search: Q[r, r] is that coefficient in
    every Gram matrix, so none is PSD."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        monkeypatch.setattr(search, "douglas_rachford", lambda pz: pytest.fail("searched"))

    def test_refuted_by_the_functional_on_that_square(self, no_search):
        target = parse_poly_expression("-x1^2+x2^2", 2)
        outcome = check_sos(target)
        assert_integer_refutation(outcome, target)
        assert (outcome.dual.monomials, outcome.dual.c) == ([(2, 0)], [1])
        assert outcome.refutation.pairing_value == -1
        # its moment matrix is e_r e_r^T
        assert moment_matrix(outcome.dual, sos_basis(target)).rows == [[1, 0], [0, 0]]

    @pytest.mark.parametrize(
        "target",
        [Form(1, 0, {(0,): F(-3)}), Form(1, 2, {(2,): F(-1)})],
        ids=["-3", "-x1^2"],
    )
    def test_with_a_multiplier_it_stalls_at_once(self, target, no_search):
        outcome = check_sos(target, multiplier=parse_poly_expression("x1^2", 1))
        assert outcome.status == "Stalled" and outcome.residual is None
        assert outcome.diagnostics.startswith("only z_r^2 reaches ")

    def test_a_square_with_a_second_pair_is_searched(self):
        # x1^2 x2^2 is reached by (x1 x2, x1 x2) and by (x1^2, x2^2), so a
        # negative coefficient there leaves a PSD Gram matrix possible
        target = parse_poly_expression("x1^4-x1^2*x2^2+x2^4", 2)
        assert check_sos(target).is_certified()


class TestEmptyBasis:
    """A target whose pruned basis is empty is decided without a search: only
    the zero form is z^T Q z over no monomial."""

    @pytest.mark.parametrize(
        "target",
        [
            Form(2, 2, {(1, 1): F(1)}),
            Form(2, 4, {(3, 1): F(1)}),
            hessian_form(Form(3, 4, {(2, 1, 1): F(1)})),
        ],
        ids=["x1x2", "x1^3x2", "hessian of x1^2x2x3"],
    )
    def test_nonzero_target_refuted(self, target):
        assert sos_basis(target) == []
        outcome = check_sos(target)
        assert outcome.status == "Refuted"
        assert outcome.refutation.pairing_value < 0
        assert verify_refutation(outcome.dual, target)

    def test_not_convex_form_refuted(self):
        outcome = check_sos_convexity(Form(3, 4, {(2, 1, 1): F(1)}))
        assert outcome.status == "Refuted"

    def test_with_a_multiplier_it_stalls(self):
        # (x1^2 + x2^2) x1 x2 has an empty pruned basis, but the target x1 x2
        # is not refuted by a multiplier search
        multiplier = parse_poly_expression("x1^2+x2^2", 2)
        outcome = check_sos(Form(2, 2, {(1, 1): F(1)}), multiplier=multiplier)
        assert outcome.status == "Stalled"

    @pytest.mark.parametrize("n, degree", [(2, 2), (3, 4), (2, 6)])
    def test_zero_form_certified(self, n, degree):
        zero = Form.zero(n, degree)
        outcome = check_sos(zero)
        assert outcome.is_certified()
        cert = outcome.certificate
        assert cert.z == sos_basis_for(zero)[:1]
        assert cert.q.rows == [[0]]
        assert verify_sos_certificate(zero, cert)

    def test_zero_quartic_sos_convex(self):
        outcome = check_sos_convexity(Form.zero(3, 4))
        assert outcome.is_certified()
        assert verify_sos_certificate(hessian_form(Form.zero(3, 4)), outcome.certificate)
