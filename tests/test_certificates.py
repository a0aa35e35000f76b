"""Tests for exact LDL^T, Gram expansion, and SOS certificate verification."""

import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sosconvex.biquadratic import _monomials, builtin, hessian_form
from sosconvex.certificates import (
    SosCertificate,
    SosVerification,
    SymRationalMatrix,
    Verdict,
    _basis,
    _gram_sums,
    _integer_grid,
    certificate_from_text,
    certificate_to_text,
    det,
    gram_index,
    is_even_power_sum,
    ldlt_psd_check,
    rank,
    sos_basis,
    unit_multiplier,
    verify_sos_certificate,
)
from sosconvex.forms import Form, FormatError, form_from_text


class TestLdlt:
    def test_identity_positive_definite(self):
        identity = SymRationalMatrix([[int(i == j) for j in range(4)] for i in range(4)])
        assert ldlt_psd_check(identity).verdict is Verdict.POSITIVE_DEFINITE

    def test_zero_positive_semidefinite(self):
        zero = SymRationalMatrix([[0] * 3 for _ in range(3)])
        assert ldlt_psd_check(zero).verdict is Verdict.POSITIVE_SEMIDEFINITE

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


@st.composite
def rational_matrices(draw, square=False):
    """Products B C of drawn inner dimension, so rank-deficient ones are common,
    up to 7x7; half of them get a zero top-left entry, which makes the
    elimination look further down the first column for its pivot."""
    n_rows = draw(st.integers(1, 7))
    n_cols = n_rows if square else draw(st.integers(1, 7))
    inner = draw(st.integers(0, min(n_rows, n_cols)))
    b = draw(st.lists(st.lists(rationals, min_size=inner, max_size=inner), min_size=n_rows, max_size=n_rows))
    c = draw(st.lists(st.lists(rationals, min_size=n_cols, max_size=n_cols), min_size=inner, max_size=inner))
    rows = [[sum((x * c[t][j] for t, x in enumerate(bi)), F(0)) for j in range(n_cols)] for bi in b]
    if draw(st.booleans()):
        rows[0][0] = F(0)
    return rows


@st.composite
def symmetric_grids(draw):
    """Full symmetric grids of rationals and ints, up to 7x7, as lists of rows."""
    d = draw(st.integers(1, 7))
    entries = st.one_of(rationals, st.integers(-5, 5))
    upper = iter(draw(st.lists(entries, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2)))
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = next(upper)
    return rows


class TestSymRationalMatrix:
    """The matrix holds its upper triangle; rows and m[i, j] read the full matrix."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(symmetric_grids())
    def test_triangle_holds_the_grid(self, rows):
        m = SymRationalMatrix(rows)
        d = len(rows)
        assert m.rows == rows
        assert m.upper == tuple(rows[i][j] for i in range(d) for j in range(i, d))
        assert SymRationalMatrix.from_upper(d, m.upper) == m
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                assert m[i, j] == m[j, i] == rows[i - 1][j - 1]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(symmetric_grids().filter(lambda rows: len(rows) > 1), st.data())
    def test_asymmetric_grid_names_its_first_position(self, rows, data):
        # entries drawn apart on either side of the diagonal: the error names
        # the first pair in row order, (i, j) with i < j, that differs
        d = len(rows)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for i, j in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)):
            if data.draw(st.booleans()):
                i, j = j, i
            rows[i][j] += data.draw(st.sampled_from([1, F(-1, 3), F(5, 7)]))
        first = next(((i, j) for i, j in pairs if rows[i][j] != rows[j][i]), None)
        if first is None:
            SymRationalMatrix(rows)
            return
        message = f"matrix is not symmetric at ({first[0] + 1},{first[1] + 1})"
        with pytest.raises(ValueError, match=re.escape(message)):
            SymRationalMatrix(rows)

    @pytest.mark.parametrize("ij", [(0, 0), (0, 1), (1, 0), (3, 1), (2, 3), (-1, -1), (-1, 2)])
    def test_index_outside_one_to_dim_raises(self, ij):
        # 1-based: (0, 0) once read the last diagonal entry, rows[-1][-1]
        m = SymRationalMatrix([[1, 2], [2, 3]])
        assert (m[1, 1], m[1, 2], m[2, 1], m[2, 2]) == (1, 2, 2, 3)
        with pytest.raises(IndexError):
            m[ij]

    def test_from_upper_needs_a_whole_triangle(self):
        with pytest.raises(ValueError):
            SymRationalMatrix.from_upper(3, (F(1),) * 5)

    def test_rows_are_built_on_each_read(self):
        m = SymRationalMatrix([[1, 2], [2, 3]])
        rows = m.rows
        rows[0][0] += 1
        assert m.rows == [[1, 2], [2, 3]] and m.rows is not m.rows
        with pytest.raises(AttributeError):
            m.rows = rows


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


class TestIntegerEchelon:
    """det and rank run on one fraction-free elimination of the row-scaled ints."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(rational_matrices())
    def test_rank_agrees_with_sympy(self, rows):
        assert rank(rows) == sympy_matrix(rows).rank()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(rational_matrices(square=True))
    def test_det_agrees_with_sympy(self, rows):
        expected = sympy_matrix(rows).det()
        assert det(rows) == F(int(expected.p), int(expected.q))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(symmetric_matrices())
    def test_symmetric_det_agrees_with_sympy(self, m):
        expected = sympy_matrix(m.rows).det()
        assert m.det() == F(int(expected.p), int(expected.q))

    def test_first_pivot_zero_needs_a_row_swap(self):
        rows = [[F(0), F(2), F(1)], [F(3), F(1, 2), F(0)], [F(1), F(0), F(-1)]]
        assert det(rows) == sympy_matrix(rows).det() == F(11, 2)
        assert rank(rows) == 3
        assert rank([[F(0), F(1)], [F(0), F(2)]]) == 1


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
        assert_matches_reference(builtin("q22_cert").q)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 0]],
            [[2, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
        ],
    )
    def test_row_zero_from_its_diagonal_on_is_still_updated(self, rows):
        # the stored part of the last row is zero, but its column is not
        m = SymRationalMatrix([[F(v) for v in row] for row in rows])
        assert_matches_reference(m)
        assert ldlt_psd_check(m).verdict is Verdict.NOT_PSD


def gram_expand(z, q):
    """The exact polynomial z^T Q z over a monomial basis z, summed on the
    integer grid L Q by the verifier's _gram_sums: the oracle that the
    search's fiber points are checked against."""
    if len(z) != q.dim:
        raise ValueError(f"basis has {len(z)} monomials but Q is {q.dim}x{q.dim}")
    if not z:
        raise ValueError("empty monomial basis")
    nv = len(z[0])
    if any(len(m) != nv for m in z):
        raise ValueError("monomials have mixed variable counts")
    upper, lcd = _integer_grid(q)
    sums = _gram_sums(z, upper)
    return Form(nv, 2 * sum(z[0]), {m: F(c, lcd) for m, c in sums.items()})


def textbook_expand(z, q):
    """z^T Q z summed in Fractions, entry by entry."""
    terms = {}
    for r in range(q.dim):
        for s_ in range(r, q.dim):
            c = q.rows[r][s_]
            if c == 0:
                continue
            if r != s_:
                c = 2 * c
            mono = tuple(a + b for a, b in zip(z[r], z[s_]))
            terms[mono] = terms.get(mono, F(0)) + c
    return Form(len(z[0]), 2 * sum(z[0]), terms)


def textbook_verify(target, cert):
    """The verifier in Fractions: textbook LDL^T, then z^T Q z expanded in
    Fractions and compared with multiplier * target coefficient by
    coefficient in sorted monomial order."""
    verdict, pivots, failure = reference_ldlt(cert.q.rows)
    if verdict is Verdict.NOT_PSD:
        return SosVerification(
            False, f"Gram matrix is not PSD (pivot {pivots[-1]} at step {failure})"
        )
    lhs = target if cert.multiplier == unit_multiplier(target.n_vars) else cert.multiplier * target
    rhs = textbook_expand(cert.z, cert.q)
    if cert.scale != 1:
        rhs = rhs.scale(cert.scale)
    if not (target.is_zero() and rhs.is_zero()):
        if not is_even_power_sum(cert.multiplier):
            return SosVerification(False, "multiplier is not a sum of even monomial powers")
        for m in sorted(set(lhs.terms) | set(rhs.terms)):
            a = lhs.terms.get(m, F(0))
            b = rhs.terms.get(m, F(0))
            if a != b:
                return SosVerification(
                    False,
                    f"coefficient mismatch at monomial {m}: "
                    f"multiplier*target has {a}, scale*z^T Q z has {b}",
                    mismatch_monomial=m,
                    expected=a,
                    actual=b,
                )
    return SosVerification(True, "certificate accepted")


MULTIPLIERS = {
    "one": lambda n: unit_multiplier(n),
    "x1^2+x2^2": lambda n: Form(n, 2, {(2,) + (0,) * (n - 1): F(1), (0, 2) + (0,) * (n - 2): F(1)}),
    "x1*x2": lambda n: Form(n, 2, {(1, 1) + (0,) * (n - 2): F(1)}),
}


@st.composite
def certificate_cases(draw):
    """(target, certificate) pairs around Q = V V^T / den over a basis w.

    The target is scale * w^T Q w. With multiplier 1 the basis is w; with a
    quadratic multiplier x_a^2 + ... the basis is x1 w followed by x2 w and Q
    is doubled block-diagonally, so x1^2 + x2^2 certifies exactly and x1*x2
    (not an even power sum) does not. The case is then kept, or the target
    and Q are zeroed, one entry is tampered with, or a diagonal entry is made
    negative.
    """
    n = draw(st.integers(2, 3))
    w = draw(st.lists(st.sampled_from(_monomials(n, draw(st.integers(1, 2)))),
                      min_size=1, max_size=5, unique=True))
    d = len(w)
    rank = draw(st.integers(0, d))
    v = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                      min_size=d, max_size=d))
    den = draw(st.sampled_from([1, 2, 3, 7, 12]))
    q = [[F(sum(a * b for a, b in zip(v[i], v[j])), den) for j in range(d)] for i in range(d)]
    scale = draw(st.sampled_from([F(1), F(2), F(3, 5), F(7, 4)]))
    mult_name = draw(st.sampled_from(sorted(MULTIPLIERS)))
    multiplier = MULTIPLIERS[mult_name](n)
    target = textbook_expand(w, SymRationalMatrix(q)).scale(scale)
    z = list(w)
    if mult_name != "one":
        z = [tuple(e + (t == k) for t, e in enumerate(m)) for k in (0, 1) for m in w]
        q = [row + [F(0)] * d for row in q] + [[F(0)] * d + row for row in q]
    kind = draw(st.sampled_from(["kept", "zero", "tampered", "not_psd"]))
    if kind == "zero":
        target = Form.zero(n, target.degree)
        q = [[F(0)] * len(z) for _ in z]
    elif kind == "tampered":
        i = draw(st.integers(0, len(z) - 1))
        j = draw(st.integers(0, len(z) - 1))
        # positive on the diagonal, so Q stays PSD and the expansion must catch it
        delta = draw(st.sampled_from([F(1), F(1, 2), F(1, den)]))
        q[i][j] += delta
        if i != j:
            q[j][i] += delta
    elif kind == "not_psd":
        i = draw(st.integers(0, len(z) - 1))
        q[i][i] -= 1 + q[i][i]
    return target, SosCertificate(z, SymRationalMatrix(q), multiplier, scale)


class TestIntegerVerifier:
    """The verifier on integers reports what the Fraction verifier reports."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(certificate_cases())
    def test_matches_textbook_verify(self, case):
        target, cert = case
        ours = verify_sos_certificate(target, cert)
        assert ours == textbook_verify(target, cert)
        assert type(ours.expected) is type(ours.actual)
        assert gram_expand(cert.z, cert.q) == textbook_expand(cert.z, cert.q)

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parents[1] / "perfbench" / "corpus" / "verify").glob("pow*.cert")),
        ids=lambda p: p.stem,
    )
    def test_corpus_certificates(self, path):
        target = hessian_form(form_from_text(path.with_name(path.stem.split("_tampered")[0]
                                                            + ".form").read_text()))
        cert = certificate_from_text(path.read_text())
        assert verify_sos_certificate(target, cert) == textbook_verify(target, cert)


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
            gram_expand([(1, 0)], SymRationalMatrix([[1, 0], [0, 1]]))


def per_entry_gram_sums(z, upper):
    """The textbook expansion: each upper-triangle entry, in row order, adds
    itself (on the diagonal) or twice itself to the monomial z_r z_s, and the
    first nonzero entry whose monomial has the wrong degree raises."""
    degree = 2 * sum(z[0])
    values = iter(upper)
    sums = {}
    for r in range(len(z)):
        for s in range(r, len(z)):
            c = next(values)
            if not c:
                continue
            mono = tuple(a + b for a, b in zip(z[r], z[s]))
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            sums[mono] = sums.get(mono, 0) + (c if r == s else 2 * c)
    return sums


@st.composite
def bases_and_grids(draw):
    """A basis of 1-8 distinct monomials in 1-3 variables, drawn from one
    degree or from two (mixed), and an integer upper triangle over it with
    zeros among its entries."""
    n = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    pool = [m for d in degrees for m in _monomials(n, d)]
    z = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    size = len(z) * (len(z) + 1) // 2
    return z, draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))


class TestGramIndex:
    """Gram sums by monomial id equal the per-entry expansion."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(bases_and_grids())
    def test_sums_match_the_per_entry_expansion(self, case):
        z, upper = case
        try:
            expected = per_entry_gram_sums(z, upper)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _gram_sums(z, upper)
            return
        sums = _gram_sums(z, upper)
        assert {m: v for m, v in sums.items() if v} == {m: v for m, v in expected.items() if v}

    def test_mixed_degrees_raise_at_the_first_nonzero_entry_in_row_order(self):
        z = [(1, 0), (0, 1), (2, 0)]
        # entries (1,1) x1^2, (1,2) x1x2, (1,3) x1^3, (2,2) x2^2, (2,3) x1^2x2, (3,3) x1^4
        with pytest.raises(ValueError, match=re.escape("monomial (2, 1) is not of degree 2")):
            _gram_sums(z, [1, 0, 0, 1, 5, 7])
        assert _gram_sums(z, [1, 3, 0, 1, 0, 0]) == {
            (2, 0): 1, (1, 1): 6, (3, 0): 0, (0, 2): 1, (2, 1): 0, (4, 0): 0
        }

    def test_one_index_per_basis(self):
        z = tuple(_monomials(3, 2))
        gram = gram_index(z)
        assert gram_index(tuple(list(z))) is gram
        assert len(gram.monomials) == len(set(gram.monomials)) == 15
        assert sum(gram.counts) == len(z) ** 2
        assert [gram.upper[p] for p in gram.diagonal] == [gram.rows[r][r] for r in range(6)]


def pair_loop_prune(z, tf, sweeps=None):
    """Basis pruning with a double loop over the pairs z_r z_s (r < s) for
    each monomial, swept to a fixed point or at most `sweeps` times."""
    z = list(z)
    changed = True
    while changed and sweeps != 0:
        changed = False
        sweeps = None if sweeps is None else sweeps - 1
        for m in list(z):
            sq = tuple(2 * e for e in m)
            if tf.terms.get(sq, F(0)) != 0:
                continue
            reachable = any(
                tuple(a + b for a, b in zip(z[r], z[s_])) == sq
                for r in range(len(z))
                for s_ in range(r + 1, len(z))
            )
            if not reachable:
                z.remove(m)
                changed = True
    return z


@st.composite
def pruning_targets(draw):
    """A form in 1-4 variables of degree 2, 4 or 6 with up to eight small
    integer terms, or its Hessian form y^T H(x) y."""
    n = draw(st.integers(1, 4))
    monos = _monomials(n, draw(st.sampled_from([2, 4, 6])))
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
    coeffs = draw(st.lists(st.sampled_from([-3, -1, 1, 2, 5]), min_size=len(support),
                           max_size=len(support)))
    p = Form(n, sum(monos[0]), dict(zip(support, map(F, coeffs))))
    return hessian_form(p) if draw(st.booleans()) else p


class TestSosBasis:
    """sos_basis prunes by reflection as the pair loop over the basis does."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(pruning_targets())
    def test_matches_the_pair_loop(self, target):
        assert sos_basis(target) == pair_loop_prune(_basis(target), target)

    def test_a_removal_can_need_a_second_sweep(self):
        # x1^2 x2^2 is reached only by x1^2 * x2^2, and x2^2 goes later in the
        # first sweep, since no x2^4 is in the target; x1 x2 goes in the second
        target = Form(2, 4, {(4, 0): F(1), (3, 1): F(1)})
        z = _basis(target)
        assert z == [(2, 0), (1, 1), (0, 2)]
        assert pair_loop_prune(z, target, sweeps=1) == [(2, 0), (1, 1)]
        assert sos_basis(target) == pair_loop_prune(z, target) == [(2, 0)]


class TestVerification:
    def test_builtin_certificate_accepted(self):
        b = builtin("b_thm22")
        result = verify_sos_certificate(b, builtin("q22_cert"))
        assert result.accepted

    def test_builtin_q_positive_definite(self):
        report = ldlt_psd_check(builtin("q22_cert").q)
        assert report.verdict is Verdict.POSITIVE_DEFINITE

    def test_builtin_identity_via_sympy(self):
        # independent oracle: 384 (x1^2 + x2^2) b == z^T Q z symbolically
        cert = builtin("q22_cert")
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
        cert = builtin("q22_cert")
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
        cert = builtin("q22_cert")
        text = certificate_to_text(cert, block=3)
        again = certificate_from_text(text)
        assert again.z == cert.z and again.q == cert.q
        assert again.multiplier == cert.multiplier and again.scale == cert.scale

    def test_missing_section(self):
        with pytest.raises(FormatError):
            certificate_from_text("Z:\n1 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("Z:\n1\nQ:\n1\n1\nZ:\n1\n", "Z:"),
            ("Z:\n1\nQ:\n1\n1\nQ:\n1\n2\n", "Q:"),
            ("Z:\n1\nQ:\n1\n1\nMULTIPLIER:\nform n=1 d=0\n1 0\nmultiplier:\nform n=1 d=0\n1 0\n",
             "multiplier:"),
            ("Z:\n1\nQ:\n1\n1\nSCALE: 1\nSCALE: 2\n", "SCALE: 2"),
        ],
        ids=["Z", "Q", "MULTIPLIER", "SCALE"],
    )
    def test_repeated_section_rejected(self, text, line):
        # the last of two Q: blocks would otherwise be the one verified
        with pytest.raises(FormatError, match=f"^duplicate (section|scale): {line!r}$"):
            certificate_from_text(text)

    def test_negative_exponent_in_basis_rejected(self):
        with pytest.raises(FormatError, match="nonnegative"):
            certificate_from_text("Z:\n-1 2\nQ:\n1\n1/1\n")

    def test_asymmetric_q_rejected(self):
        with pytest.raises(FormatError):
            certificate_from_text("Z:\n1 0\n0 1\nQ:\n2\n1/1 2/1\n3/1 1/1\nSCALE: 1/1\n")
