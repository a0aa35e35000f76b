"""Exact SOS certificates: Gram expansion, exact LDL^T, verification.

A certificate asserts multiplier * target = scale * z^T Q z with Q positive
semidefinite, which proves the target nonnegative (and SOS when the
multiplier is 1). All checks are exact; no floating point enters this module.
The PSD decision is a fraction-free LDL^T: symmetric Bareiss elimination on
the integer matrix S Q S, with S the diagonal of per-row denominator lcms,
whose LDL^T pivots are ratios of consecutive Bareiss pivots. The expansion
sums z^T (L Q) z on ints, L the lcm of Q's denominators, by the monomial ids
of gram_index(z), one bounded cache per basis shared with the search's fiber
and the moment matrices; each sum S_m is matched against the coefficient a/b
of multiplier * target as a v L == u S_m b for scale u/v, a Fraction built
only for a reported mismatch. Rank and determinant: one fraction-free echelon.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .biquadratic import BiquadraticForm, _monomials, bidegree_basis
from .forms import (
    Form,
    FormatError,
    RationalTokens,
    _build,
    _content_lines,
    as_frac,
    fmt_frac,
    form_from_text,
    form_to_text,
)


class SymRationalMatrix:
    """Symmetric matrix of exact rationals, held as its upper triangle.

    upper is one tuple of the dim (dim + 1) / 2 entries, row by row from the
    diagonal, in the order of GramIndex.upper: the exact verifiers read only
    the triangle, and an accepted certificate keeps its matrix for as long as
    it is held. SymRationalMatrix(rows) takes a full square grid, checks that
    it is symmetric and keeps its triangle; from_upper takes a triangle as it
    is. m[i, j] is the entry at 1-based (i, j), and rows the full grid, a new
    list of row lists on each read.
    """

    __slots__ = ("dim", "upper")

    def __init__(self, rows: Sequence[Sequence]):
        dim = len(rows)
        if dim < 1 or any(len(r) != dim for r in rows):
            raise ValueError("rows must form a square grid")
        grid = [list(map(as_frac, r)) for r in rows]
        # row i against column i, where equal entries are mostly one object;
        # the first row to differ does so right of its diagonal
        for i, (row, col) in enumerate(zip(grid, zip(*grid))):
            if tuple(row) != col:
                j = next(j for j in range(i + 1, dim) if row[j] != col[j])
                raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")
        self.dim = dim
        self.upper = tuple(v for i, row in enumerate(grid) for v in row[i:])

    @classmethod
    def from_upper(cls, dim: int, upper: Sequence[Fraction]) -> SymRationalMatrix:
        """The matrix whose upper triangle, row by row from the diagonal, is upper."""
        if dim < 1 or len(upper) != dim * (dim + 1) // 2:
            raise ValueError(f"a {dim}x{dim} upper triangle needs {dim * (dim + 1) // 2} entries")
        m = object.__new__(cls)
        m.dim = dim
        m.upper = tuple(upper)
        return m

    def _segments(self) -> list[tuple[Fraction, ...]]:
        """Row r of the triangle, from its diagonal on, for each r."""
        segments, p = [], 0
        for r in range(self.dim):
            segments.append(self.upper[p : p + self.dim - r])
            p += self.dim - r
        return segments

    @property
    def rows(self) -> list[list[Fraction]]:
        rows = []
        for r, segment in enumerate(self._segments()):
            rows.append([row[r] for row in rows] + list(segment))
        return rows

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = sorted(ij)
        if i < 1 or j > self.dim:
            raise IndexError(f"entry ({ij[0]},{ij[1]}) is outside a {self.dim}x{self.dim} matrix")
        # row i - 1 of the triangle starts at (i - 1) dim - (i - 1)(i - 2) / 2
        return self.upper[(i - 1) * self.dim - (i - 1) * (i - 2) // 2 + j - i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymRationalMatrix):
            return NotImplemented
        return self.dim == other.dim and self.upper == other.upper

    def det(self) -> Fraction:
        return det(self.rows)

    def __repr__(self) -> str:
        return f"SymRationalMatrix({self.rows!r})"


def _echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[int, Fraction]:
    """Bareiss elimination with row swaps on the rows times s_i, the lcm of
    their denominators: a column's pivot is its first nonzero entry at or
    below the current row, and each update divides exactly by the previous
    pivot. Returns the rank and the signed last pivot over the product of
    the s_i, the determinant of a square matrix of full rank."""
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    m = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)]
    rank, prev, sign = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        r = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if r is None:
            continue
        if r != rank:
            m[rank], m[r] = m[r], m[rank]
            sign = -sign
        top = m[rank]
        piv = top[c]
        for row in m[rank + 1 :]:
            f = row[c]
            row[c:] = [(piv * x - f * y) // prev for x, y in zip(row[c:], top[c:])]
        prev = piv
        rank += 1
    return rank, Fraction(sign * prev, math.prod(scales))


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """The rank of a rational matrix, given as a list of rows."""
    return _echelon(rows)[0]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The determinant of a square rational matrix, given as a list of rows."""
    full, last = _echelon(rows)
    return last if full == len(rows) else Fraction(0)


class Verdict(enum.Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    NOT_PSD = "NotPSD"


@dataclass
class LdltReport:
    verdict: Verdict
    pivots: list[Fraction]
    failure_index: int | None = None

    def is_psd(self) -> bool:
        return self.verdict is not Verdict.NOT_PSD


def ldlt_psd_check(s: SymRationalMatrix) -> LdltReport:
    """Exact LDL^T positive-semidefiniteness decision, no pivoting.

    At step k: a negative pivot means NotPSD; a zero pivot with a nonzero
    residual row means NotPSD; a zero pivot with a zero row is skipped. Sound
    and complete for PSD on exact input.

    The elimination is fraction-free. Row i is scaled by s_i, the lcm of its
    denominators, so S Q S is an integer matrix congruent to Q, with the same
    verdict, failure step and zero rows. Symmetric Bareiss elimination on it
    keeps every entry an integer (each update divides exactly by the previous
    nonzero pivot, by Sylvester's identity), and the LDL^T pivot of Q at step
    k is the ratio of consecutive Bareiss pivots, bareiss_k / (prev * s_k^2).
    A skipped zero row leaves prev unchanged.

    It reads s.upper alone: row i of the full matrix is column i of the
    triangle above its diagonal, then row segment i, so one pass over the
    triangle gives every s_i, and the working rows are the segments, each
    from its diagonal; the residual stays symmetric, so it needs no more.
    """
    n = s.dim
    segments = s._segments()
    scales = [1] * n
    for i, seg in enumerate(segments):
        for j, v in enumerate(seg, i):
            d = v.denominator
            if d != 1:
                scales[i] = math.lcm(scales[i], d)
                scales[j] = math.lcm(scales[j], d)
    a = [
        [v.numerator * (si // v.denominator) * sj for v, sj in zip(seg, scales[i:])]
        for i, (seg, si) in enumerate(zip(segments, scales))
    ]
    # live[i] is False while row i is zero: a step with f == 0 leaves it zero
    live = [any(row) for row in a]
    pivots: list[Fraction] = []
    prev = 1
    saw_zero = False
    for k, row in enumerate(a):
        piv = row[0]
        pivots.append(Fraction(piv, prev * scales[k] ** 2))
        if piv < 0:
            return LdltReport(Verdict.NOT_PSD, pivots, failure_index=k + 1)
        if piv == 0:
            if live[k] and any(row):
                return LdltReport(Verdict.NOT_PSD, pivots, failure_index=k + 1)
            saw_zero = True
            continue
        for i in range(k + 1, n):
            f = row[i - k]
            if f or live[i]:
                new = [(piv * x - f * y) // prev for x, y in zip(a[i], row[i - k :])]
                a[i] = new
                live[i] = any(new)
        prev = piv
    verdict = Verdict.POSITIVE_SEMIDEFINITE if saw_zero else Verdict.POSITIVE_DEFINITE
    return LdltReport(verdict, pivots)


Monomial = tuple[int, ...]  # exponent vector over the ambient variables


class GramIndex:
    """The monomial bookkeeping of a basis z: monomials lists each product
    z_r z_s once, in the order the upper triangle reaches it row by row, and
    ids is its inverse; rows[r][s] is the id of z_r z_s, upper the ids of the
    upper triangle in row order, diagonal the positions of the z_r^2 in
    upper, off_degree those of the products whose degree differs from that
    of z_0^2, counts[m] the number of ordered pairs reaching m, and fiber the
    search's target-free fiber over z once it is built."""

    def __init__(self, z: tuple[Monomial, ...]):
        products = [[tuple(map(operator.add, u, v)) for v in z] for u in z]
        self.monomials = list(dict.fromkeys(m for r, row in enumerate(products) for m in row[r:]))
        self.ids = {mono: m for m, mono in enumerate(self.monomials)}
        self.rows = [[self.ids[mono] for mono in row] for row in products]
        self.upper = [m for r, row in enumerate(self.rows) for m in row[r:]]
        self.diagonal = [r * len(z) - r * (r - 1) // 2 for r in range(len(z))]
        degree = 2 * sum(z[0]) if z else 0
        self.off_degree = [p for p, m in enumerate(self.upper) if sum(self.monomials[m]) != degree]
        self.counts = self.sums([1] * len(self.upper))
        self.fiber = None

    def sums(self, values: Sequence[int]) -> list[int]:
        """Per monomial id, the sum over the ordered pairs reaching it of the
        symmetric matrix with upper triangle values: twice upper, less diagonal."""
        sums = [0] * len(self.monomials)
        for m, v in zip(self.upper, values):
            sums[m] += v
        sums = [2 * v for v in sums]
        for p in self.diagonal:
            sums[self.upper[p]] -= values[p]
        return sums


# the index of each of the last bases used, shared by the search's fiber and
# by every Gram expansion and moment matrix over the basis
gram_index = functools.lru_cache(maxsize=32)(GramIndex)


def _integer_grid(q: SymRationalMatrix) -> tuple[list[int], int]:
    """The upper triangle of L Q, row by row, on ints, L the lcm of Q's
    denominators: q.upper scaled, in the order of GramIndex.upper."""
    upper = q.upper
    lcd = math.lcm(*{v.denominator for v in upper})
    return [v.numerator * (lcd // v.denominator) for v in upper], lcd


def _gram_sums(z: Sequence[Monomial], upper: list[int]) -> dict[Monomial, int]:
    """The coefficients of z^T (L Q) z on ints, summed by the ids of
    gram_index(z) from the upper triangle of L Q, row by row. Raises
    ValueError, as Form does, at the first nonzero entry in row order that
    reaches a monomial whose degree differs from that of z[0]^2."""
    gram = gram_index(tuple(map(tuple, z)))
    wrong = [gram.monomials[gram.upper[p]] for p in gram.off_degree if upper[p]]
    if wrong:
        raise ValueError(f"monomial {wrong[0]} is not of degree {2 * sum(z[0])}")
    return dict(zip(gram.monomials, gram.sums(upper)))


@dataclass
class SosCertificate:
    """z^T Q z representation with an optional nonnegative multiplier."""

    z: list[Monomial]
    q: SymRationalMatrix
    multiplier: Form  # over the same ambient variables; default is 1-like x^0
    scale: Fraction

    def __post_init__(self):
        if len(self.z) != self.q.dim:
            raise ValueError("certificate basis and Gram matrix size disagree")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if min(map(min, self.z), default=0) < 0:
            raise ValueError("basis monomials must have nonnegative exponents")


@functools.cache
def unit_multiplier(n_vars: int) -> Form:
    """The constant 1 over n_vars variables, one shared object per n_vars."""
    return Form(n_vars, 0, {(0,) * n_vars: Fraction(1)})


def is_even_power_sum(f: Form) -> bool:
    """Syntactic nonnegativity: every exponent even, every coefficient > 0.

    Such a form is a sum of squared monomial multiples; this covers the
    multipliers used here (1 and x1^2 + x2^2) without a recursive SOS call.
    """
    if f.is_zero():
        return False
    return all(c > 0 and all(e % 2 == 0 for e in exps) for exps, c in f.terms.items())


@dataclass
class SosVerification:
    accepted: bool
    reason: str
    mismatch_monomial: Monomial | None = None
    expected: Fraction | None = None
    actual: Fraction | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _as_form(target) -> Form:
    """The Form of a target. The benchmark harness and the corpus generator
    pass a biq file's BiquadraticForm to verify_sos_certificate,
    verify_refutation and search.check_sos, which alone unwrap it."""
    if isinstance(target, BiquadraticForm):
        return target.to_form()
    if isinstance(target, Form):
        return target
    raise TypeError("target must be a Form or BiquadraticForm")


# -- SOS bases -------------------------------------------------------------------


def _prune_basis(z: list[Monomial], tf: Form) -> list[Monomial]:
    """Drop z monomials whose squared monomial cannot appear in any Gram.

    If the target coefficient of 2m is zero and no cross product z_r z_s
    (r != s) reaches 2m, then Q[m,m] = 0 in every Gram and PSD forces the
    whole row to vanish; iterate to a fixed point. A cross product reaches
    2m exactly when some basis monomial w != m has its reflection through m,
    2m - w, in the basis too: one pass over z per monomial, not over pairs.
    """
    z = list(z)
    live = set(z)
    changed = True
    while changed:
        changed = False
        for m in list(z):
            sq = tuple(2 * e for e in m)
            if tf.terms.get(sq, 0) or any(
                w != m and tuple(map(operator.sub, sq, w)) in live for w in z
            ):
                continue
            z.remove(m)
            live.remove(m)
            changed = True
    return z


def sos_basis_for(tf: Form) -> list[Monomial]:
    """All half-degree monomials of a form of even degree, before pruning."""
    if tf.degree % 2 != 0:
        raise ValueError("only even-degree forms can be sums of squares")
    return _monomials(tf.n_vars, tf.degree // 2)


def _bidegree(form: Form) -> tuple[int, int] | None:
    """The (x-degree, y-degree) split at n_vars/2 that every term shares, if any."""
    n, odd = divmod(form.n_vars, 2)
    splits = {(sum(mono[:n]), sum(mono[n:])) for mono in form.terms}
    return splits.pop() if not odd and len(splits) == 1 else None


def _basis(form: Form) -> list[Monomial]:
    """Monomial basis for Gram matrices of the form, before pruning.

    When every term has the same even bidegree (dx, dy), each square of an
    SOS decomposition has its Newton polytope in half the form's, so the
    bidegree (dx/2, dy/2) monomials suffice; otherwise all half-degree ones.
    """
    split = _bidegree(form)
    if split is None or split[0] % 2 or split[1] % 2:
        return sos_basis_for(form)
    return bidegree_basis(form.n_vars // 2, split[0] // 2, split[1] // 2)


def sos_basis(target: Form) -> list[Monomial]:
    """The pruned basis z over which every SOS decomposition of the target
    is z^T Q z with Q PSD; empty when only the zero form qualifies."""
    return _prune_basis(_basis(target), target)


def verify_sos_certificate(target, cert: SosCertificate) -> SosVerification:
    """Exact acceptance check for an SOS certificate.

    Accepts iff Q passes the LDL^T PSD check, the multiplier is a sum of even
    monomial powers (or the target is zero with Q = 0), and multiplier *
    target equals scale * z^T Q z coefficient by coefficient, checked in that
    order: a Q that is not PSD is rejected before z^T Q z is expanded.
    Acceptance proves the target nonnegative; with multiplier 1 it proves
    the target SOS.

    The LDL^T is ldlt_psd_check's. The expansion runs on the integer grid
    L Q, with L the lcm of all of Q's denominators. Coefficient m of
    multiplier * target, a/b, equals scale * z^T Q z at m, u/v times the
    integer sum S_m over L, exactly when a v L == u S_m b, so a Fraction is
    built only for a reported mismatch.
    """
    tf = _as_form(target)
    if cert.multiplier.n_vars != tf.n_vars:
        raise ValueError("multiplier and target variable counts disagree")
    if any(len(m) != tf.n_vars for m in cert.z):
        raise ValueError("certificate basis and target variable counts disagree")
    if len(cert.z) != cert.q.dim:
        raise ValueError(f"basis has {len(cert.z)} monomials but Q is {cert.q.dim}x{cert.q.dim}")
    report = ldlt_psd_check(cert.q)
    if not report.is_psd():
        return SosVerification(
            False,
            f"Gram matrix is not PSD (pivot {report.pivots[-1]} at step {report.failure_index})",
        )
    lhs = tf if cert.multiplier == unit_multiplier(tf.n_vars) else cert.multiplier * tf
    upper, lcd = _integer_grid(cert.q)
    sums = _gram_sums(cert.z, upper)
    if tf.is_zero() and not any(sums.values()):
        return SosVerification(True, "certificate accepted")
    if not is_even_power_sum(cert.multiplier):
        return SosVerification(False, "multiplier is not a sum of even monomial powers")
    num, den = cert.scale.numerator, cert.scale.denominator * lcd
    terms = lhs.terms
    bad = [m for m, s in sums.items() if s and m not in terms]
    bad += [
        m for m, a in terms.items() if a.numerator * den != num * sums.get(m, 0) * a.denominator
    ]
    if bad:
        m = min(bad)
        a = terms.get(m, Fraction(0))
        b = Fraction(num * sums.get(m, 0), den)
        return SosVerification(
            False,
            f"coefficient mismatch at monomial {m}: "
            f"multiplier*target has {a}, scale*z^T Q z has {b}",
            mismatch_monomial=m,
            expected=a,
            actual=b,
        )
    return SosVerification(True, "certificate accepted")


# -- text format ---------------------------------------------------------------
#
# Sections:
#   Z:           one monomial per line, x-exponents "|" y-exponents (or a
#                single exponent list when there is no block split)
#   Q:           dimension line, then row-major rationals, one row per line
#   MULTIPLIER:  a form block in the standard form format
#   SCALE:       NUM/DEN


def certificate_to_text(cert: SosCertificate, block: int | None = None) -> str:
    lines = ["Z:"]
    for m in cert.z:
        if block is not None:
            xs = " ".join(str(e) for e in m[:block])
            ys = " ".join(str(e) for e in m[block:])
            lines.append(f"{xs} | {ys}")
        else:
            lines.append(" ".join(str(e) for e in m))
    lines.append("Q:")
    lines.append(str(cert.q.dim))
    for row in cert.q.rows:
        lines.append(" ".join(fmt_frac(v) for v in row))
    lines.append("MULTIPLIER:")
    lines.append(form_to_text(cert.multiplier).rstrip("\n"))
    lines.append(f"SCALE: {fmt_frac(cert.scale)}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> SosCertificate:
    sections: dict[str, list[str]] = {}
    current = None
    scale = None
    tokens = RationalTokens()
    for ln in _content_lines(text):
        upper = ln.upper()
        if upper.startswith("SCALE:"):
            if scale is not None:
                raise FormatError(f"duplicate scale: {ln!r}")
            try:
                scale = tokens[ln.split(":", 1)[1].strip()]
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad scale: {ln!r}") from exc
            current = None
        elif upper in ("Z:", "Q:", "MULTIPLIER:"):
            current = upper[:-1]
            if current in sections:
                raise FormatError(f"duplicate section: {ln!r}")
            sections[current] = []
        elif current is not None:
            sections[current].append(ln)
        else:
            raise FormatError(f"content outside any section: {ln!r}")
    for required in ("Z", "Q"):
        if required not in sections:
            raise FormatError(f"missing section {required}:")
    z: list[Monomial] = []
    for ln in sections["Z"]:
        parts = ln.replace("|", " ").split()
        try:
            z.append(tuple(map(int, parts)))
        except ValueError as exc:
            raise FormatError(f"bad monomial line: {ln!r}") from exc
    qlines = sections["Q"]
    if not qlines:
        raise FormatError("empty Q section")
    try:
        dim = int(qlines[0])
    except ValueError as exc:
        raise FormatError(f"bad Q dimension line: {qlines[0]!r}") from exc
    if len(qlines) != dim + 1:
        raise FormatError(f"expected {dim} Q rows, got {len(qlines) - 1}")
    rows = []
    for ln in qlines[1:]:
        parts = ln.split()
        if len(parts) != dim:
            raise FormatError(f"bad Q row: {ln!r}")
        try:
            rows.append(list(map(tokens.__getitem__, parts)))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad Q row: {ln!r}") from exc
    q = _build(SymRationalMatrix, rows)
    if "MULTIPLIER" in sections:
        multiplier = form_from_text("\n".join(sections["MULTIPLIER"]))
    else:
        if not z:
            raise FormatError("cannot infer multiplier variable count from empty basis")
        multiplier = unit_multiplier(len(z[0]))
    if scale is None:
        scale = Fraction(1)
    return _build(SosCertificate, z, q, multiplier, scale)
