"""Dual-cone refutations: linear functionals proving a form is not SOS.

A dual certificate is a rational functional c on monomials: a value on each
listed exponent vector, 0 on every other monomial. Let z = sos_basis(t), the
pruned Newton basis of the target t, and let M[r, s] = c(z_r z_s) be the
moment matrix over it. If M is PSD and <c, t> = sum_m c(m) t_m < 0, then t
is not a sum of squares: every SOS decomposition of t is z^T Q z with Q PSD
over that same basis (each square's Newton polytope lies in half of t's, and
pruning drops only rows that vanish in every PSD Gram matrix), so
<c, t> = Tr(Q M) >= 0. PSD, not necessarily PD, suffices for the trace
argument, and the check holds for any target, whatever its degree or number
of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certificates import (
    LdltReport,
    Monomial,
    SymRationalMatrix,
    Verdict,
    _as_form,
    gram_index,
    ldlt_psd_check,
    sos_basis,
)
from .forms import Form, FormatError, RationalTokens, _content_lines, as_frac, bidegree_basis


@dataclass
class DualCertificate:
    """The functional with value c[t] on monomials[t] and 0 elsewhere."""

    monomials: list[Monomial]  # kept, not copied: the duals of one basis share it
    c: list[Fraction]

    def __post_init__(self):
        self.c = [as_frac(v) for v in self.c]
        if len(self.c) != len(self.monomials):
            raise ValueError("the functional needs one value per monomial")
        if len(set(self.monomials)) != len(self.monomials):
            raise ValueError("repeated monomial in the functional")


def pairing(cert: DualCertificate, target: Form) -> Fraction:
    """Exact value <c, t> of the functional on a form."""
    if any(len(m) != target.n_vars for m in cert.monomials):
        raise ValueError("functional and target variable counts disagree")
    values = dict(zip(cert.monomials, cert.c))
    return sum((values.get(m, 0) * t for m, t in target.terms.items()), Fraction(0))


def moment_matrix(cert: DualCertificate, z: Sequence[Monomial]) -> SymRationalMatrix:
    """M[r, s] = c(z_r z_s) over the monomial basis z, its upper triangle
    read by the ids of gram_index(z)."""
    values = dict(zip(cert.monomials, cert.c))
    gram = gram_index(tuple(map(tuple, z)))
    zero = Fraction(0)
    by_id = [values.get(m, zero) for m in gram.monomials]
    return SymRationalMatrix.from_upper(len(z), [by_id[m] for m in gram.upper])


@dataclass
class RefutationResult:
    accepted: bool
    pairing_value: Fraction
    moment_report: LdltReport
    reason: str

    def __bool__(self) -> bool:
        return self.accepted


def verify_refutation(cert: DualCertificate, target) -> RefutationResult:
    """Accept iff the moment matrix over sos_basis(target) is PSD and <c, t> < 0.

    The target is a Form or a BiquadraticForm. Acceptance is a sound proof
    that it is not SOS (see the module docstring). An empty basis admits
    only the zero form, so there any negative pairing refutes.
    """
    tf = _as_form(target)
    value = pairing(cert, tf)
    z = sos_basis(tf)
    if z:
        report = ldlt_psd_check(moment_matrix(cert, z))
    else:
        report = LdltReport(Verdict.POSITIVE_DEFINITE, [])
    if not report.is_psd():
        return RefutationResult(False, value, report, "moment matrix is not PSD")
    if value >= 0:
        return RefutationResult(False, value, report, f"pairing {value} is not negative")
    return RefutationResult(True, value, report, f"not SOS, pairing = {value}")


# -- text format ---------------------------------------------------------------
#
# "ORDER: builtin36" or "ORDER: lex", then "C:" with one rational per line: the
# values on a fixed list of exponent vectors that the name stands for. lex is
# bidegree_basis(n, 2, 2) for the block size n the number of values gives;
# builtin36 is the n = 3 list below.

# The order of the published n = 3 functionals, stored verbatim (descending
# pair order, nonstandard); never re-derived.
_PAIRS_36 = [(3, 3), (2, 3), (2, 2), (1, 3), (1, 2), (1, 1)]


def dual_from_text(text: str) -> DualCertificate:
    lines = _content_lines(text)
    if not lines or not lines[0].upper().startswith("ORDER:"):
        raise FormatError("dual certificate must start with an ORDER: line")
    order_name = lines[0].split(":", 1)[1].strip()
    if len(lines) < 2 or lines[1].upper() != "C:":
        raise FormatError("missing C: section")
    values = []
    tokens = RationalTokens()
    for ln in lines[2:]:
        try:
            values.append(tokens[ln])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational: {ln!r}") from exc
    if order_name == "builtin36":
        halves = [tuple(p.count(t) for t in (1, 2, 3)) for p in _PAIRS_36]
        monomials = [x + y for x in halves for y in halves]
    elif order_name == "lex":
        # infer n from the vector length: len = (n(n+1)/2)^2
        n = 1
        while (n * (n + 1) // 2) ** 2 < len(values):
            n += 1
        monomials = bidegree_basis(n, 2, 2)
    else:
        raise FormatError(f"unknown ordering {order_name!r}")
    if len(values) != len(monomials):
        raise FormatError("vector length does not match the ordering")
    return DualCertificate(monomials, values)
