"""Face geometry of the cone of convex ternary quartics.

For zero points u1 = (e1, e2) and u2 = (e3, [a,b,1]) this module builds the
quartic basis q1..q5 and bilinear basis s1..s5, the 5x5 Gram matrix M with
s^T M s equal to the Hessian form of sum alpha_i q_i, the closed-form
determinant, the alpha5 bound, the kernel vector at the bound, and the
numeric additional-zero construction.

Note on normalization: h_{q_i} = 12 * s_i^2 for i <= 4 (the factor 12 comes
from fourth-power Hessians). The matrix M implemented here is the unique
exact Gram matrix over s1..s5 (verified symbolically); its last row/column
differs from a naive transcription by swapping c and 1/c, where c = a/b.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .biquadratic import _monomials, hessian_form
from .certificates import LdltReport, SymRationalMatrix, ldlt_psd_check, rank
from .forms import Form, as_frac, complement_basis, evaluate_terms, hessian


@dataclass(frozen=True)
class FaceParams:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_frac(self.a))
        object.__setattr__(self, "b", as_frac(self.b))

    def require_nonzero(self) -> None:
        if self.a == 0 or self.b == 0:
            raise ValueError("both a and b must be nonzero for this operation")

    def require_not_both_zero(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("a and b must not both be zero")


@dataclass
class BiquadPoint:
    """Floating-point zero of a Hessian form, with its residual at unit scale."""

    x: tuple[float, float, float]
    y: tuple[float, float, float]
    residual: float


def _alphas(alpha: Sequence) -> list[Fraction]:
    vals = [as_frac(v) for v in alpha]
    if len(vals) != 5:
        raise ValueError("expected five alpha values")
    return vals


def q_basis(fp: FaceParams) -> list[Form]:
    """q1..q5: a basis of the 5-dimensional space L_{a,b} when a, b != 0;
    binomial expansions in Form.__pow__'s term order, zero terms dropped."""
    fp.require_not_both_zero()
    a, b = fp.a, fp.b
    one, comb = Fraction(1), math.comb
    terms = (
        {(4, 0, 0): one},
        {(0, 4, 0): one},
        {(4 - i, 0, i): comb(4, i) * (-a) ** i for i in range(5)},
        {(0, 4 - i, i): comb(4, i) * (-b) ** i for i in range(5)},
        {(2 - i, i, 2): comb(2, i) * b ** (2 - i) * (-a) ** i for i in range(3)},
    )
    return [Form(3, 4, t) for t in terms]


def s_basis(fp: FaceParams) -> list[Form]:
    """Bilinear forms (in the 6 ambient variables) vanishing at u1 and u2."""
    fp.require_nonzero()
    a, b = fp.a, fp.b
    x1, x2, x3, y1, y2, y3 = (Form.variable(6, i) for i in range(1, 7))
    return [
        x1 * y1,
        x2 * y2,
        (x1 - x3.scale(a)) * (y1 - y3.scale(a)),
        (x2 - x3.scale(b)) * (y2 - y3.scale(b)),
        x3 * (y1.scale(b) - y2.scale(a)),
    ]


def _apolar_pairing_row(q: Form, quartic_monomials: list[tuple[int, ...]]) -> list[Fraction]:
    """Row of the functional g -> (differential operator of q applied to g)."""
    row = []
    for mono in quartic_monomials:
        fact = Fraction(math.factorial(mono[0]) * math.factorial(mono[1]) * math.factorial(mono[2]))
        row.append(q.coefficient(mono) * fact)
    return row


def l_ab_constraint_matrix(fp: FaceParams) -> list[list[Fraction]]:
    """The 12x15 system annihilating L_{a,b}.

    Rows are the degree-4 multiples of u~^2 v~ and v~^2 u~ for the two zero
    pairs, acting on quartics through the differential-operator pairing.
    """
    fp.require_not_both_zero()
    a, b = fp.a, fp.b
    x1, x2, x3 = (Form.variable(3, i) for i in (1, 2, 3))
    d = x1.scale(a) + x2.scale(b) + x3
    cubics = [x1 * x1 * x2, x2 * x2 * x1, x3 * x3 * d, d * d * x3]
    monos = _monomials(3, 4)
    rows = []
    for cubic in cubics:
        for mult in (x1, x2, x3):
            rows.append(_apolar_pairing_row(cubic * mult, monos))
    return rows


def l_ab_dimension(fp: FaceParams) -> tuple[int, int]:
    """Returns (dimension of L_{a,b}, rank of the constraint system)."""
    r = rank(l_ab_constraint_matrix(fp))
    return 15 - r, r


def gram_M(alpha: Sequence, fp: FaceParams) -> SymRationalMatrix:
    """The exact 5x5 Gram matrix: s^T M s = h_p for p = sum alpha_i q_i."""
    fp.require_nonzero()
    a1, a2, a3, a4, a5 = _alphas(alpha)
    c = fp.a / fp.b
    # 2 alpha5 times c^-2, c^-1, 1, c, c^2, shared by the symmetric entries
    u = 2 * a5
    ui, uc = u / c, u * c
    uii, ucc = ui / c, uc * c
    nu, nui, nuc, nuii, nucc = -u, -ui, -uc, -uii, -ucc
    rows = [
        [12 * a1 + uii, nu, nuii, u, ui],
        [nu, 12 * a2 + ucc, u, nucc, nuc],
        [nuii, u, 12 * a3 + uii, nu, nui],
        [u, nucc, nu, 12 * a4 + ucc, uc],
        [ui, nuc, nui, uc, -2 * u],
    ]
    return SymRationalMatrix(rows)


def face_form(alpha: Sequence, fp: FaceParams) -> Form:
    """p = sum alpha_i q_i, in the term order of that sum of Forms."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for v, q in zip(_alphas(alpha), q_basis(fp)):
        for e, c in q.terms.items():
            terms[e] = terms.get(e, 0) + v * c
        terms = {e: c for e, c in terms.items() if c}
    return Form(3, 4, terms)


def _bound_denominator(alpha: Sequence[Fraction], fp: FaceParams) -> Fraction:
    a1, a2, a3, a4 = alpha[:4]
    qa, qb = fp.a**4, fp.b**4
    return qb / a1 + qa / a2 + qb / a3 + qa / a4


@dataclass(frozen=True)
class FaceQuery:
    """Membership in T_{a,b}, the alpha5 bound (when alpha1..alpha4 > 0) and
    the closed-form det M (when alpha1..alpha4 are nonzero) of one point."""

    member: bool
    bound: Fraction | None
    det_closed: Fraction | None


def face_query(alpha: Sequence, fp: FaceParams) -> FaceQuery:
    """The FaceQuery of alpha, from one bound denominator D.

    With c = 4 a^2 b^2, the bound is -c / D and det M is
    -20736 alpha1..alpha5 (c + alpha5 D) / (a^2 b^2).
    """
    fp.require_nonzero()
    vals = _alphas(alpha)
    a1, a2, a3, a4, a5 = vals
    bound = det = None
    if 0 not in (a1, a2, a3, a4):
        a, b = fp.a, fp.b
        c, den = 4 * a**2 * b**2, _bound_denominator(vals, fp)
        det = Fraction(-20736) * a1 * a2 * a3 * a4 * a5 * (c + a5 * den) / (a**2 * b**2)
        if all(v > 0 for v in (a1, a2, a3, a4)):
            bound = -c / den
    if any(v < 0 for v in (a1, a2, a3, a4)) or a5 > 0:
        member = False
    elif bound is None:
        member = a5 == 0
    else:
        member = a5 >= bound
    return FaceQuery(member, bound, det)


def det_M_closed(alpha: Sequence, fp: FaceParams) -> Fraction:
    """Closed-form determinant of M; equals the brute-force determinant."""
    det = face_query(alpha, fp).det_closed
    if det is None:
        raise ValueError("closed form requires alpha1..alpha4 nonzero")
    return det


def alpha5_lower_bound(alpha1_4: Sequence, fp: FaceParams) -> Fraction:
    """The smallest alpha5 keeping M PSD, for positive alpha1..alpha4."""
    fp.require_nonzero()
    vals = [as_frac(v) for v in alpha1_4]
    if len(vals) != 4:
        raise ValueError("expected four alpha values")
    if any(v <= 0 for v in vals):
        raise ValueError("alpha1..alpha4 must be positive")
    a, b = fp.a, fp.b
    return -4 * a**2 * b**2 / _bound_denominator(vals, fp)


def membership_T(alpha: Sequence, fp: FaceParams) -> bool:
    """Membership in the face T_{a,b}.

    Requires alpha1..alpha4 >= 0 and lower_bound <= alpha5 <= 0; any zero
    among alpha1..alpha4 forces alpha5 = 0.
    """
    return face_query(alpha, fp).member


def kernel_vector(alpha: Sequence, fp: FaceParams) -> list[Fraction]:
    """Spanning vector of the nullspace of M when alpha5 sits at the bound."""
    fp.require_nonzero()
    vals = _alphas(alpha)
    a1, a2, a3, a4, a5 = vals
    if any(v <= 0 for v in (a1, a2, a3, a4)):
        raise ValueError("alpha1..alpha4 must be positive")
    a, b = fp.a, fp.b
    den = _bound_denominator(vals, fp)
    if a5 != -4 * a**2 * b**2 / den:
        raise ValueError("alpha5 is not at the lower bound")
    return [
        2 * a * b**3 / a1,
        -2 * a**3 * b / a2,
        -2 * a * b**3 / a3,
        2 * a**3 * b / a4,
        den,
    ]


class DegenerateZeroSearch(RuntimeError):
    """Raised when every dehomogenization hits a degenerate division."""


def _zero_system(alpha: Sequence, fp: FaceParams):
    """The kernel vector v, the y3 numerator k and additional_zero_quadratic."""
    fp.require_nonzero()
    v = kernel_vector(_alphas(alpha), fp)
    a, b = fp.a, fp.b
    v1, v2, v3, v4, v5 = v
    k = v5 + a * b * ((v3 - v1) / (a * a) - (v4 - v2) / (b * b))
    # (b v1 x2 - a v5 x2 - a v2 x1)(a v1 x2 - (b v1 + a k) x1)
    #   = v3 (b v1 x2 - a v2 x1)(a x2 - b x1), collected in x1, x2
    p1, q1 = -a * v2, (b * v1 - a * v5)   # p1 x1 + q1 x2
    p2, q2 = -(b * v1 + a * k), a * v1
    p3, q3 = -a * v2, b * v1
    p4, q4 = -b, a
    aa = p1 * p2 - v3 * p3 * p4
    bb = p1 * q2 + q1 * p2 - v3 * (p3 * q4 + q3 * p4)
    cc = q1 * q2 - v3 * q3 * q4
    return v, k, (aa, bb, cc)


def additional_zero_quadratic(alpha: Sequence, fp: FaceParams) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (A, B, C) of the quadratic A x1^2 + B x1 x2 + C x2^2 = 0
    whose roots give the extra zero of h_p at the alpha5 bound.

    Derived by eliminating y1, y2, y3, x3 from the system s_i = v_i.
    """
    return _zero_system(alpha, fp)[2]


def _mpf(q: Fraction):
    """q as an mpmath float at the working precision."""
    import mpmath

    return mpmath.mpf(q.numerator) / q.denominator


def _solve_point(consts, x1, x2):
    """The remaining coordinates from x1, x2 and consts = (a, b, v1, v2, v5, k),
    exact or mpmath floats as x1, x2 are; None on degeneracy."""
    a, b, v1, v2, v5, k = consts
    if x1 == 0 or x2 == 0:
        return None
    den_x3 = b * v1 * x2 - a * v2 * x1
    den_y3 = a * x2 - b * x1
    if den_x3 == 0 or den_y3 == 0:
        return None
    x3 = v5 * x1 * x2 / den_x3
    y1 = v1 / x1
    y2 = v2 / x2
    y3 = k / den_y3
    return (x1, x2, x3), (y1, y2, y3)


# the zero search's largest residual |h_p|, and its mpmath precision in digits
ZERO_TOL = 1e-9
ZERO_DPS = 30


def find_additional_zero(alpha: Sequence, fp: FaceParams) -> BiquadPoint:
    """Additional zero of h_p (alpha5 at the bound) with x1, x2, y1, y2 != 0.

    The quadratic's discriminant is checked positive exactly; the returned
    point is floating (ZERO_DPS digits), normalized so x and y have unit
    length, with |h_p| at that point as the residual, at most ZERO_TOL.

    The kernel vector and k are computed once; the residual is h_p.evaluate's
    sum, with each coefficient converted once by mpmathify, as mpmath
    converts a Fraction operand.
    """
    import mpmath  # not at module level: only the zero search needs it

    v, k, (aa, bb, cc) = _zero_system(alpha, fp)
    exact = (fp.a, fp.b, v[0], v[1], v[4], k)
    hp = hessian_form(face_form(alpha, fp))

    candidates = []
    with mpmath.workdps(ZERO_DPS):
        if aa == 0 and bb == 0 and cc == 0:
            # The quadratic degenerates to the whole line: any generic x1
            # gives an exact rational zero.
            for x1 in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5), Fraction(7, 3)):
                pt = _solve_point(exact, x1, Fraction(1))
                if pt is not None:
                    xr, yr = pt
                    if hp.evaluate([*xr, *yr]) == 0 and 0 not in (xr[0], xr[1], yr[0], yr[1]):
                        candidates.append(pt)
                        break
            if not candidates:
                raise DegenerateZeroSearch("no nondegenerate rational point found")
        else:
            disc = bb * bb - 4 * aa * cc
            if aa != 0 and disc <= 0:
                raise RuntimeError(
                    f"quadratic discriminant {disc} is not positive; "
                    "this contradicts the positivity argument and signals a bug"
                )
            if aa == 0:
                roots = [(-_mpf(cc) / _mpf(bb), mpmath.mpf(1))]
            else:
                sq = mpmath.sqrt(_mpf(disc))
                roots = [
                    ((-_mpf(bb) + sq) / (2 * _mpf(aa)), mpmath.mpf(1)),
                    ((-_mpf(bb) - sq) / (2 * _mpf(aa)), mpmath.mpf(1)),
                ]
                # retry with x1 = 1 if both x2-normalized roots degenerate
                roots += [
                    (mpmath.mpf(1), (-_mpf(bb) + sq) / (2 * _mpf(cc))) if cc != 0 else None,
                    (mpmath.mpf(1), (-_mpf(bb) - sq) / (2 * _mpf(cc))) if cc != 0 else None,
                ]
                roots = [r for r in roots if r is not None]
            floats = tuple(map(_mpf, exact))
            for x1, x2 in roots:
                pt = _solve_point(floats, x1, x2)
                if pt is not None:
                    candidates.append(pt)
            if not candidates:
                raise DegenerateZeroSearch(
                    "every root hit a degenerate division (a x2 - b x1 = 0 or worse)"
                )

        terms = [(e, mpmath.mpmathify(c)) for e, c in hp.terms.items()]
        best = None
        for xr, yr in candidates:
            xf = [_mpf(v) if isinstance(v, Fraction) else v for v in xr]
            yf = [_mpf(v) if isinstance(v, Fraction) else v for v in yr]
            nx = mpmath.sqrt(sum(v * v for v in xf))
            ny = mpmath.sqrt(sum(v * v for v in yf))
            xf = [v / nx for v in xf]
            yf = [v / ny for v in yf]
            res = abs(evaluate_terms(terms, xf + yf))
            if best is None or res < best[2]:
                best = (xf, yf, res)
        xf, yf, res = best
        point = BiquadPoint(
            tuple(float(v) for v in xf), tuple(float(v) for v in yf), float(res)
        )
    if point.residual > ZERO_TOL:
        raise RuntimeError(f"residual {point.residual} exceeds tolerance {ZERO_TOL}")
    if 0.0 in (point.x[0], point.x[1], point.y[0], point.y[1]):
        raise RuntimeError("zero has a vanishing x1, x2, y1 or y2 coordinate")
    return point


def tangent_hessian_check(
    b: Form, x0: Sequence, y0: Sequence
) -> tuple[SymRationalMatrix, LdltReport]:
    """Second-derivative matrix of (x, y) -> b(x, y), a form in 2n variables
    with x-block first, at a rational zero, restricted to the tangent space
    of the bi-sphere at (x0, y0)."""
    x0 = [as_frac(v) for v in x0]
    y0 = [as_frac(v) for v in y0]
    if len(x0) != len(y0):
        raise ValueError("x0 and y0 must have the same length")
    if b.evaluate(x0 + y0) != 0:
        raise ValueError("the form does not vanish at the given point")
    n = len(x0)
    hess = [[as_frac(f.evaluate(x0 + y0)) for f in row] for row in hessian(b).entries]
    zero = [Fraction(0)] * n
    basis = [v + zero for v in complement_basis(x0)] + [zero + v for v in complement_basis(y0)]
    # B H B^T, with the tangent basis vectors as the rows of B
    hb = [[sum(map(operator.mul, row, v), Fraction(0)) for v in basis] for row in hess]
    restricted = [
        [sum(map(operator.mul, v, col), Fraction(0)) for col in zip(*hb)] for v in basis
    ]
    mat = SymRationalMatrix(restricted)
    return mat, ldlt_psd_check(mat)


@dataclass
class WitnessEvaluation:
    point_label: str
    q_index: int
    value: Fraction | float
    exact: bool


def witness_evaluations(fp: FaceParams) -> list[WitnessEvaluation]:
    """Evaluations of h_{q_i} at the sign-pinning witness points.

    v1 = ([0,b,1],[a,0,1]) and v3 = ([a,b,1],[1,0,1]) are rational and
    evaluated exactly; v2 = ([0,(2+sqrt3)b,1],[a,0,1]) is floating point.
    """
    fp.require_nonzero()
    a, b = fp.a, fp.b
    qs = q_basis(fp)
    hqs = [hessian_form(q) for q in qs]
    out: list[WitnessEvaluation] = []
    v1x, v1y = [Fraction(0), b, Fraction(1)], [a, Fraction(0), Fraction(1)]
    v3x, v3y = [a, b, Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)]
    for idx, hq in enumerate(hqs, start=1):
        out.append(WitnessEvaluation("v1", idx, hq.evaluate(v1x + v1y), True))
    s3 = math.sqrt(3.0)
    v2x = [0.0, (2.0 + s3) * float(b), 1.0]
    v2y = [float(a), 0.0, 1.0]
    for idx, hq in enumerate(hqs, start=1):
        out.append(WitnessEvaluation("v2", idx, float(hq.evaluate(v2x + v2y)), False))
    for idx, hq in enumerate(hqs, start=1):
        out.append(WitnessEvaluation("v3", idx, hq.evaluate(v3x + v3y), True))
    return out


def gram_identity_holds(alpha: Sequence, fp: FaceParams) -> bool:
    """Exact check that s^T M s equals the Hessian form of sum alpha_i q_i."""
    vals = _alphas(alpha)
    m = gram_M(vals, fp)
    s = s_basis(fp)
    acc = Form.zero(6, 4)
    for i in range(5):
        for j in range(5):
            if m.rows[i][j] != 0:
                acc = acc + (s[i] * s[j]).scale(m.rows[i][j])
    hp = hessian_form(face_form(vals, fp))
    return acc == hp
