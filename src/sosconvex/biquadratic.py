"""Biquadratic forms in two blocks of n variables.

A biquadratic form is quartic overall and quadratic in each block:
b(x, y) = sum over i<=j, k<=l of alpha_{ijkl} x_i x_j y_k y_l. Coefficients
are stored with the i<=j, k<=l normalization and no factor-of-2 folding: the
stored value is the coefficient of the written monomial.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from importlib import resources
from typing import Sequence

from . import linalg
from .forms import (
    Form,
    FormatError,
    PolyMatrix,
    as_frac,
    fmt_frac,
    form_from_text,
    hessian,
    polymatrix_from_text,
)

Key = tuple[int, int, int, int]  # (i, j, k, l) with 1 <= i <= j, 1 <= k <= l


def _norm_key(i: int, j: int, k: int, l: int) -> Key:
    if i > j:
        i, j = j, i
    if k > l:
        k, l = l, k
    return (i, j, k, l)


class BiquadraticForm:
    """Sparse biquadratic form with exact rational coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[Key, Fraction]):
        if n < 1:
            raise ValueError("block size must be positive")
        clean: dict[Key, Fraction] = {}
        for (i, j, k, l), c in coeffs.items():
            if not (1 <= i <= j <= n and 1 <= k <= l <= n):
                raise ValueError(f"bad monomial key {(i, j, k, l)} for block size {n}")
            c = as_frac(c)
            if c != 0:
                clean[(i, j, k, l)] = c
        self.n = n
        self.coeffs = clean

    @staticmethod
    def zero(n: int) -> "BiquadraticForm":
        return BiquadraticForm(n, {})

    def coefficient(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.coeffs.get(_norm_key(i, j, k, l), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiquadraticForm):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __add__(self, other: "BiquadraticForm") -> "BiquadraticForm":
        if self.n != other.n:
            raise ValueError("block size mismatch")
        c = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c[k] = c.get(k, Fraction(0)) + v
        return BiquadraticForm(self.n, c)

    def scale(self, t) -> "BiquadraticForm":
        t = as_frac(t)
        return BiquadraticForm(self.n, {k: t * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: Sequence, y: Sequence):
        if len(x) != self.n or len(y) != self.n:
            raise ValueError(f"points must have length {self.n}")
        total = Fraction(0)
        for (i, j, k, l), c in self.coeffs.items():
            total = total + c * x[i - 1] * x[j - 1] * y[k - 1] * y[l - 1]
        return total

    def to_form(self) -> Form:
        """As a quartic Form in 2n ambient variables (x-block then y-block)."""
        n = self.n
        terms: dict[tuple[int, ...], Fraction] = {}
        for (i, j, k, l), c in self.coeffs.items():
            e = [0] * (2 * n)
            e[i - 1] += 1
            e[j - 1] += 1
            e[n + k - 1] += 1
            e[n + l - 1] += 1
            terms[tuple(e)] = c
        return Form(2 * n, 4, terms)

    @staticmethod
    def from_form(f: Form, n: int) -> "BiquadraticForm":
        """Inverse of to_form; f must be bidegree (2, 2) in 2n variables."""
        if f.n_vars != 2 * n:
            raise ValueError(f"expected {2 * n} ambient variables")
        coeffs: dict[Key, Fraction] = {}
        for exps, c in f.terms.items():
            xe, ye = exps[:n], exps[n:]
            if sum(xe) != 2 or sum(ye) != 2:
                raise ValueError(f"monomial {exps} is not bidegree (2, 2)")
            xi = [i + 1 for i, e in enumerate(xe) for _ in range(e)]
            yi = [i + 1 for i, e in enumerate(ye) for _ in range(e)]
            coeffs[(xi[0], xi[1], yi[0], yi[1])] = c
        return BiquadraticForm(n, coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"BiquadraticForm(0; n={self.n})"
        parts = []
        for (i, j, k, l) in sorted(self.coeffs):
            parts.append(f"{self.coeffs[(i, j, k, l)]}*x{i}x{j}y{k}y{l}")
        return " + ".join(parts)


class MonomialOrdering:
    """An ordered list of all biquadratic monomials for one block size."""

    __slots__ = ("name", "n", "entries", "_index")

    def __init__(self, name: str, n: int, entries: list[tuple[tuple[int, int], tuple[int, int]]]):
        npairs = n * (n + 1) // 2
        expected = {((i, j), (k, l)) for i in range(1, n + 1) for j in range(i, n + 1)
                    for k in range(1, n + 1) for l in range(k, n + 1)}
        if len(entries) != npairs * npairs or set(entries) != expected:
            raise ValueError("entries are not a permutation of all biquadratic monomials")
        self.name = name
        self.n = n
        self.entries = list(entries)
        self._index = {e: t for t, e in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def index(self, i: int, j: int, k: int, l: int) -> int:
        i, j, k, l = _norm_key(i, j, k, l)
        return self._index[((i, j), (k, l))]


def _pairs_ascending(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


@functools.cache
def canonical_ordering(n: int) -> MonomialOrdering:
    """Graded-lex ordering, x-block pairs before y-block pairs; one shared
    instance per block size, never mutated."""
    pairs = _pairs_ascending(n)
    return MonomialOrdering("lex", n, [(p, q) for p in pairs for q in pairs])


# The 36-entry n=3 ordering used for all published coefficient vectors, stored
# verbatim (descending pair order, nonstandard); never re-derived.
_PAIRS_36 = [(3, 3), (2, 3), (2, 2), (1, 3), (1, 2), (1, 1)]
BUILTIN36 = MonomialOrdering("builtin36", 3, [(p, q) for p in _PAIRS_36 for q in _PAIRS_36])


def ordering_by_name(name: str, n: int = 3) -> MonomialOrdering:
    if name == "builtin36":
        return BUILTIN36
    if name == "lex":
        return canonical_ordering(n)
    raise ValueError(f"unknown ordering {name!r}")


# -- operations ---------------------------------------------------------------


def biquadratic_from_polymatrix(a: PolyMatrix) -> BiquadraticForm:
    """y^T A(x) y for a symmetric polynomial matrix with quadratic entries."""
    n = a.dim
    coeffs: dict[Key, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k0, l0 = (i, j) if i <= j else (j, i)
            for exps, c in a[i, j].terms.items():
                xs = [t + 1 for t, e in enumerate(exps) for _ in range(e)]
                key = (xs[0], xs[1], k0, l0)
                coeffs[key] = coeffs.get(key, Fraction(0)) + c
    return BiquadraticForm(n, coeffs)


def hessian_biquadratic(p: Form) -> BiquadraticForm:
    """The Hessian form y^T H_p(x) y of a quartic p."""
    if p.degree != 4:
        raise ValueError("hessian_biquadratic requires a quartic form")
    return biquadratic_from_polymatrix(hessian(p))


def hessian_form(p: Form) -> Form:
    """y^T H_p(x) y as a Form in 2n variables, for any p of degree >= 2."""
    n = p.n_vars
    h = hessian(p)
    acc = Form.zero(2 * n, p.degree)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = h[i, j]
            lifted_terms = {exps + (0,) * n: c for exps, c in entry.terms.items()}
            lifted = Form(2 * n, entry.degree, lifted_terms)
            yi = Form.variable(2 * n, n + i)
            yj = Form.variable(2 * n, n + j)
            acc = acc + lifted * yi * yj
    return acc


class SymmetryVerdict:
    """Result of an x<->y symmetry check, with one differing pair on failure."""

    __slots__ = ("symmetric", "witness")

    def __init__(self, symmetric: bool, witness=None):
        self.symmetric = symmetric
        # witness: (key, coeff, swapped_key, swapped_coeff)
        self.witness = witness

    def __bool__(self) -> bool:
        return self.symmetric


def swap_xy(b: BiquadraticForm) -> BiquadraticForm:
    return BiquadraticForm(b.n, {(k, l, i, j): c for (i, j, k, l), c in b.coeffs.items()})


def is_symmetric(b: BiquadraticForm) -> SymmetryVerdict:
    keys = set(b.coeffs) | {(k, l, i, j) for (i, j, k, l) in b.coeffs}
    for key in sorted(keys):
        i, j, k, l = key
        swapped = (k, l, i, j)
        c1 = b.coeffs.get(key, Fraction(0))
        c2 = b.coeffs.get(swapped, Fraction(0))
        if c1 != c2:
            return SymmetryVerdict(False, (key, c1, swapped, c2))
    return SymmetryVerdict(True)


def coefficient_vector(b: BiquadraticForm, ordering: MonomialOrdering) -> list[Fraction]:
    if ordering.n != b.n:
        raise ValueError("ordering block size does not match the form")
    vec = [Fraction(0)] * len(ordering)
    for (i, j, k, l), c in b.coeffs.items():
        vec[ordering.index(i, j, k, l)] = c
    return vec


def from_coefficient_vector(vec: Sequence, ordering: MonomialOrdering) -> BiquadraticForm:
    if len(vec) != len(ordering):
        raise ValueError("vector length does not match the ordering")
    coeffs: dict[Key, Fraction] = {}
    for t, ((i, j), (k, l)) in enumerate(ordering.entries):
        c = as_frac(vec[t])
        if c != 0:
            coeffs[(i, j, k, l)] = c
    return BiquadraticForm(ordering.n, coeffs)


def dim_nary(n: int) -> int:
    """Dimension of the space of n-ary biquadratic forms: C(n+1,2)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    npairs = n * (n + 1) // 2
    return npairs * npairs


def dim_symmetric(n: int) -> int:
    """Dimension of the symmetric (x<->y invariant) subspace."""
    if n < 1:
        raise ValueError("n must be >= 1")
    npairs = n * (n + 1) // 2
    return (npairs * npairs + npairs) // 2


def dim_hessian(n: int) -> int:
    """Dimension of the Hessian biquadratic subspace: C(n+3, 4)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 3) * (n + 2) * (n + 1) * n // 24


# -- builtin corpus -----------------------------------------------------------

BUILTIN_FILES = {
    "b_thm22": "b_thm22.biq",
    "c_dual": "c_dual.dcert",
    "choi_biquadratic": "choi_biquadratic.biq",
    "choi_matrix": "choi_matrix.polymat",
    "f_lemma32": "f_lemma32.form",
    "q_reduction": "q_reduction.form",
    "q22_cert": "q22_cert.cert",
}


def corpus_text(filename: str) -> str:
    return resources.files("sosconvex.data").joinpath(filename).read_text()


def builtin(name: str):
    """Load a corpus form or matrix by name.

    Names: choi_matrix (PolyMatrix), choi_biquadratic and b_thm22
    (BiquadraticForm), f_lemma32 and q_reduction (Form). The shipped
    certificates c_dual and q22_cert are loaded by dual.builtin_dual and
    certificates.builtin_certificate.
    """
    filename = BUILTIN_FILES.get(name, "")
    parse = {
        "polymat": polymatrix_from_text,
        "biq": biquadratic_from_text,
        "form": form_from_text,
    }.get(filename.rpartition(".")[2])
    if parse is None:
        raise ValueError(f"unknown builtin {name!r}")
    return parse(corpus_text(filename))


# -- brute-force dimension oracles (used by the verification suites) ----------


def hessian_map_rank(n: int) -> int:
    """Exact rank of p -> hessian_biquadratic(p) over the quartic monomial basis."""
    quartics = _monomials(n, 4)
    ordering = canonical_ordering(n)
    rows = []
    for exps in quartics:
        hb = hessian_biquadratic(Form.monomial(n, exps))
        rows.append(coefficient_vector(hb, ordering))
    return linalg.rank(rows)


def antisymmetric_dimension(n: int) -> int:
    """Dimension of the strictly antisymmetric complement, by basis enumeration."""
    ordering = canonical_ordering(n)
    rows = []
    for (i, j), (k, l) in ordering.entries:
        b = BiquadraticForm(n, {(i, j, k, l): Fraction(1)})
        anti_coeffs: dict[Key, Fraction] = dict(b.coeffs)
        sw = swap_xy(b)
        for key, v in sw.coeffs.items():
            anti_coeffs[key] = anti_coeffs.get(key, Fraction(0)) - v
        anti = BiquadraticForm(n, anti_coeffs)
        rows.append(coefficient_vector(anti, ordering))
    return linalg.rank(rows)


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in _monomials(n - 1, d - e):
            out.append((e,) + rest)
    return out


# -- text format ---------------------------------------------------------------
#
# Header "biq n=<n>", then lines "NUM/DEN i j k l" meaning the coefficient of
# x_i x_j y_k y_l with i<=j, k<=l.


def biquadratic_to_text(b: BiquadraticForm) -> str:
    lines = [f"biq n={b.n}"]
    for (i, j, k, l) in sorted(b.coeffs):
        lines.append(f"{fmt_frac(b.coeffs[(i, j, k, l)])} {i} {j} {k} {l}")
    return "\n".join(lines) + "\n"


def biquadratic_from_text(text: str) -> BiquadraticForm:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty biq file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "biq":
        raise FormatError(f"bad biq header: {lines[0]!r}")
    try:
        n = int(header[1].removeprefix("n="))
    except ValueError as exc:
        raise FormatError(f"bad biq header: {lines[0]!r}") from exc
    coeffs: dict[Key, Fraction] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"bad biq term line: {line!r}")
        try:
            c = Fraction(parts[0])
            i, j, k, l = (int(v) for v in parts[1:])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad biq term line: {line!r}") from exc
        if not (i <= j and k <= l):
            raise FormatError(f"indices must satisfy i<=j, k<=l: {line!r}")
        if (i, j, k, l) in coeffs:
            raise FormatError(f"duplicate monomial: {line!r}")
        coeffs[(i, j, k, l)] = c
    try:
        return BiquadraticForm(n, coeffs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
