"""Dual-cone refutations: functionals proving a biquadratic form is not SOS.

A dual certificate is a rational vector c over a monomial ordering. If the
localized moment matrix (z~ z~^T)|_c is PSD and <c, b> < 0, then b cannot be
a sum of squares: for any PSD Gram matrix Q of an SOS form w we would have
<c, w> = Tr(Q * moment) >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Sequence

from .biquadratic import (
    BiquadraticForm,
    MonomialOrdering,
    coefficient_vector,
    ordering_by_name,
)
from .certificates import LdltReport, SymRationalMatrix, ldlt_psd_check
from .forms import Form, FormatError, as_frac, fmt_frac


@dataclass
class DualCertificate:
    ordering: MonomialOrdering
    c: list[Fraction]

    def __post_init__(self):
        self.c = [as_frac(v) for v in self.c]
        if len(self.c) != len(self.ordering):
            raise ValueError("vector length does not match the ordering")


def bilinear_basis(n: int) -> list[tuple[int, int]]:
    """The bilinear monomials x_i y_j, ordered x1y1, x1y2, ..., xny_n."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


@dataclass
class MomentMatrix:
    basis: list[tuple[int, int]]  # (i, j) meaning x_i y_j
    matrix: SymRationalMatrix


def pairing(cert: DualCertificate, b: BiquadraticForm) -> Fraction:
    """Exact inner product c . coefficient_vector(b)."""
    if cert.ordering.n != b.n:
        raise ValueError("ordering block size does not match the form")
    vec = coefficient_vector(b, cert.ordering)
    return sum((x * y for x, y in zip(cert.c, vec)), Fraction(0))


def moment_matrix(cert: DualCertificate) -> MomentMatrix:
    """Replace each monomial of z~ z~^T with the matching entry of c."""
    n = cert.ordering.n
    basis = bilinear_basis(n)
    m = len(basis)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        i, jy = basis[r]
        for s in range(r, m):
            k, ly = basis[s]
            v = cert.c[cert.ordering.index(i, k, jy, ly)]
            rows[r][s] = v
            rows[s][r] = v
    return MomentMatrix(basis, SymRationalMatrix(rows))


@dataclass
class RefutationResult:
    accepted: bool
    pairing_value: Fraction
    moment_report: LdltReport
    reason: str

    def __bool__(self) -> bool:
        return self.accepted


def verify_refutation(cert: DualCertificate, b: BiquadraticForm | Form) -> RefutationResult:
    """Accept iff the moment matrix is PSD and <c, b> < 0.

    A Form is read as a biquadratic form at the ordering's block size, so it
    must be of bidegree (2, 2) in twice that many variables. Acceptance is a
    sound proof that b is not SOS. PSD (not necessarily PD) suffices for the
    trace argument.
    """
    if isinstance(b, Form):
        b = BiquadraticForm.from_form(b, cert.ordering.n)
    value = pairing(cert, b)
    report = ldlt_psd_check(moment_matrix(cert).matrix)
    if not report.is_psd():
        return RefutationResult(False, value, report, "moment matrix is not PSD")
    if value >= 0:
        return RefutationResult(False, value, report, f"pairing {value} is not negative")
    return RefutationResult(True, value, report, f"not SOS, pairing = {value}")


# -- text format ---------------------------------------------------------------
#
# "ORDER: builtin36" or "ORDER: lex", then "C:" with one rational per line.


def dual_to_text(cert: DualCertificate) -> str:
    lines = [f"ORDER: {cert.ordering.name}", "C:"]
    lines.extend(fmt_frac(v) for v in cert.c)
    return "\n".join(lines) + "\n"


def dual_from_text(text: str) -> DualCertificate:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].upper().startswith("ORDER:"):
        raise FormatError("dual certificate must start with an ORDER: line")
    order_name = lines[0].split(":", 1)[1].strip()
    if len(lines) < 2 or lines[1].upper() != "C:":
        raise FormatError("missing C: section")
    values = []
    for ln in lines[2:]:
        try:
            values.append(Fraction(ln))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational: {ln!r}") from exc
    if order_name == "builtin36":
        ordering = ordering_by_name("builtin36")
    elif order_name == "lex":
        # infer n from the vector length: len = (n(n+1)/2)^2
        n = 1
        while (n * (n + 1) // 2) ** 2 < len(values):
            n += 1
        ordering = ordering_by_name("lex", n)
    else:
        raise FormatError(f"unknown ordering {order_name!r}")
    try:
        return DualCertificate(ordering, values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def builtin_dual() -> DualCertificate:
    """The shipped separating functional for the b_thm22 form."""
    text = resources.files("sosconvex.data").joinpath("c_dual.dcert").read_text()
    return dual_from_text(text)
