"""Biquadratic forms in two blocks of n variables.

A biquadratic form is quartic overall and quadratic in each block:
b(x, y) = sum over i<=j, k<=l of alpha_{ijkl} x_i x_j y_k y_l. A
BiquadraticForm is a bidegree-(2, 2) view of one quartic Form over 2n
variables, x-block first: the Form holds the coefficients, and the block size
n is the only other state. The key (i, j, k, l) with i<=j, k<=l names the
monomial x_i x_j y_k y_l at the boundaries only (the constructor,
`coefficient`, the text format and the symmetry witness); the stored value
is the coefficient of the written monomial, with no factor-of-2 folding.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .forms import (
    Form,
    FormatError,
    PolyMatrix,
    RationalTokens,
    _add_term,
    _build,
    _content_lines,
    _header,
    fmt_frac,
    form_from_text,
    polymatrix_from_text,
)

Key = tuple[int, int, int, int]  # (i, j, k, l) with 1 <= i <= j, 1 <= k <= l


def key_exponents(n: int, key: Key) -> tuple[int, ...]:
    """Exponent vector of x_i x_j y_k y_l over 2n variables, x-block first.

    The order within each pair does not matter: (2, 1, 3, 1) and (1, 2, 1, 3)
    name the same monomial.
    """
    if not all(1 <= t <= n for t in key):
        raise ValueError(f"monomial key {key} out of range for block size {n}")
    i, j, k, l = key
    e = [0] * (2 * n)
    for t in (i, j, n + k, n + l):
        e[t - 1] += 1
    return tuple(e)


def exponent_key(n: int, exps: tuple[int, ...]) -> Key:
    """The normalized key (i, j, k, l) of a bidegree-(2, 2) exponent vector."""
    xs = [i + 1 for i, e in enumerate(exps[:n]) for _ in range(e)]
    ys = [k + 1 for k, e in enumerate(exps[n:]) for _ in range(e)]
    return (xs[0], xs[1], ys[0], ys[1])


def _keyed_terms(b: "BiquadraticForm") -> list[tuple[Key, Fraction]]:
    """The nonzero coefficients of b by key, in ascending key order."""
    return sorted((exponent_key(b.n, e), c) for e, c in b.to_form().terms.items())


def _swap_exponents(n: int, exps: tuple[int, ...]) -> tuple[int, ...]:
    return exps[n:] + exps[:n]


class BiquadraticForm:
    """A bidegree-(2, 2) view of one quartic Form in 2n variables.

    Deliberately not a Form subclass: callers tell the two target kinds
    apart with isinstance.
    """

    __slots__ = ("n", "_form")

    def __init__(self, n: int, coeffs: Mapping[Key, Fraction]):
        if n < 1:
            raise ValueError("block size must be positive")
        terms = {}
        for (i, j, k, l), c in coeffs.items():
            if not (i <= j and k <= l):
                raise ValueError(f"bad monomial key {(i, j, k, l)} for block size {n}")
            terms[key_exponents(n, (i, j, k, l))] = c
        self.n = n
        self._form = Form(2 * n, 4, terms)

    @staticmethod
    def from_form(f: Form, n: int) -> "BiquadraticForm":
        """View f, which must be bidegree (2, 2) in 2n variables; f is kept, not copied."""
        if f.n_vars != 2 * n or f.degree != 4 or any(sum(e[:n]) != 2 for e in f.terms):
            raise ValueError(f"not a bidegree-(2, 2) form in {2 * n} variables")
        b = object.__new__(BiquadraticForm)
        b.n = n
        b._form = f
        return b

    def to_form(self) -> Form:
        """The stored quartic Form in 2n variables (x-block then y-block)."""
        return self._form

    def coefficient(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self._form.coefficient(key_exponents(self.n, (i, j, k, l)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiquadraticForm):
            return NotImplemented
        return self.n == other.n and self._form == other._form

    def __add__(self, other: "BiquadraticForm") -> "BiquadraticForm":
        if self.n != other.n:
            raise ValueError("block size mismatch")
        return BiquadraticForm.from_form(self._form + other._form, self.n)

    def scale(self, t) -> "BiquadraticForm":
        return BiquadraticForm.from_form(self._form.scale(t), self.n)

    def is_zero(self) -> bool:
        return self._form.is_zero()

    def evaluate(self, x: Sequence, y: Sequence):
        if len(x) != self.n or len(y) != self.n:
            raise ValueError(f"points must have length {self.n}")
        return self._form.evaluate([*x, *y])

    def __repr__(self) -> str:
        if self.is_zero():
            return f"BiquadraticForm(0; n={self.n})"
        return " + ".join(f"{c}*x{i}x{j}y{k}y{l}" for (i, j, k, l), c in _keyed_terms(self))


# -- operations ---------------------------------------------------------------


def _quadratic_in_y(a: PolyMatrix) -> Form:
    """y^T A(x) y as a Form over the x-variables of A's entries, then y."""
    n, m = a.n_vars, a.dim
    terms: dict[tuple[int, ...], Fraction] = {}
    for i in range(m):
        for j in range(i, m):
            # A is symmetric: entries (i, j) and (j, i) both feed y_i y_j
            y = [0] * m
            y[i] += 1
            y[j] += 1
            y = tuple(y)
            weight = 1 if i == j else 2
            for exps, c in a[i + 1, j + 1].terms.items():
                terms[exps + y] = weight * c
    return Form(n + m, a.entry_degree + 2, terms)


def biquadratic_from_polymatrix(a: PolyMatrix) -> BiquadraticForm:
    """y^T A(x) y for a symmetric n x n matrix of quadratic forms in n variables."""
    return BiquadraticForm.from_form(_quadratic_in_y(a), a.dim)


def hessian_biquadratic(p: Form) -> BiquadraticForm:
    """The Hessian form y^T H_p(x) y of a quartic p: hessian_form(p) viewed at block size n."""
    if p.degree != 4:
        raise ValueError("hessian_biquadratic requires a quartic form")
    return BiquadraticForm.from_form(hessian_form(p), p.n_vars)


@functools.lru_cache(maxsize=1024)
def _hessian_terms(e: tuple[int, ...]) -> tuple[tuple[tuple[int, int], tuple[int, ...], int], ...]:
    """The terms of y^T H(x) y for x^e: for each pair i <= j in the support of
    e, in pair order, ((i, j), the exponents of x^(e - e_i - e_j) y_i y_j, and
    the multiplier e_i (e_j - [i = j]) (2 - [i = j])) when that is nonzero."""
    support = [t for t, et in enumerate(e) if et]
    out = []
    for s, i in enumerate(support):
        for j in support[s:]:
            k = e[i] * (e[i] - 1) if i == j else 2 * e[i] * e[j]
            if k:
                x = [et - (t == i) - (t == j) for t, et in enumerate(e)]
                out.append(((i, j), (*x, *((t == i) + (t == j) for t in range(len(e)))), k))
    return tuple(out)


def hessian_form(p: Form) -> Form:
    """y^T H_p(x) y as a Form in 2n variables, for any p of degree >= 2.

    The term c x^e gives c k to each term of _hessian_terms(e), a table kept
    per exponent vector. For fixed (i, j) distinct terms reach distinct
    monomials, and a stable sort by (i, j) gives the term order of
    _quadratic_in_y(hessian(p)), in which float evaluation sums them. The
    table's exponents and nonzero products are a valid Form by construction,
    so the Form is assembled without its per-term checks.
    """
    if p.degree < 2:
        raise ValueError("hessian requires degree >= 2")
    found = [(pair, key, Fraction(c.numerator * k) if c.denominator == 1 else c * k)
             for e, c in p.terms.items() for pair, key, k in _hessian_terms(e)]
    found.sort(key=operator.itemgetter(0))
    h = object.__new__(Form)
    h.n_vars, h.degree, h.terms = 2 * p.n_vars, p.degree, {key: c for _, key, c in found}
    return h


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
    f = b.to_form()
    swapped = {_swap_exponents(b.n, e): c for e, c in f.terms.items()}
    return BiquadraticForm.from_form(Form(f.n_vars, 4, swapped), b.n)


def is_symmetric(b: BiquadraticForm) -> SymmetryVerdict:
    f = b.to_form()
    monos = set(f.terms) | {_swap_exponents(b.n, e) for e in f.terms}
    for key, exps in sorted((exponent_key(b.n, e), e) for e in monos):
        swapped = _swap_exponents(b.n, exps)
        c1, c2 = f.coefficient(exps), f.coefficient(swapped)
        if c1 != c2:
            return SymmetryVerdict(False, (key, c1, exponent_key(b.n, swapped), c2))
    return SymmetryVerdict(True)


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


def from_text(text: str, kinds: Sequence[str] = ("form", "polymat", "biq", "dual", "certificate")):
    """Parse a file by the first word of its first content line, in any case:
    `form`, `polymat`, `biq` and `order:...` (a dual) name their kinds; any
    other word, or a kind not among kinds, reads as a certificate, whose
    sections may come in any order. If that is not among kinds either,
    FormatError is raised before any parser runs. Parsers are looked up per
    call, so a wrapped one sees each parse."""
    from .certificates import certificate_from_text  # both import this module
    from .dual import dual_from_text

    words = next(filter(None, (raw.split("#", 1)[0].split() for raw in text.splitlines())), [""])
    head = words[0].lower()
    parsers = {"form": form_from_text, "polymat": polymatrix_from_text,
               "biq": biquadratic_from_text, "dual": dual_from_text}
    named = "dual" if head.startswith("order:") else head
    kind = named if named in kinds and named in parsers else "certificate"
    if kind not in kinds:
        raise FormatError(f"unrecognized header {head!r} (expected {' or '.join(map(repr, kinds))})")
    return parsers.get(kind, certificate_from_text)(text)


def builtin(name: str):
    """Load a corpus object by name with `from_text`: the PolyMatrix
    choi_matrix, the biq forms choi_biquadratic and b_thm22, the forms
    f_lemma32 and q_reduction, the SosCertificate q22_cert (b_thm22 times
    x1^2 + x2^2) and the DualCertificate c_dual that refutes b_thm22."""
    if name not in BUILTIN_FILES:
        raise ValueError(f"unknown builtin {name!r}")
    return from_text(corpus_text(BUILTIN_FILES[name]))


# -- brute-force dimension oracles (used by the verification suites) ----------


def hessian_map_rank(n: int) -> int:
    """Exact rank of p -> hessian_biquadratic(p) over the quartic monomial basis."""
    from .certificates import rank  # certificates imports this module
    monos = bidegree_basis(n, 2, 2)
    rows = []
    for exps in _monomials(n, 4):
        f = hessian_biquadratic(Form.monomial(n, exps)).to_form()
        rows.append([f.coefficient(m) for m in monos])
    return rank(rows)


def antisymmetric_dimension(n: int) -> int:
    """Dimension of the strictly antisymmetric complement, by basis enumeration."""
    from .certificates import rank  # certificates imports this module
    monos = bidegree_basis(n, 2, 2)
    rows = []
    for exps in monos:
        b = BiquadraticForm.from_form(Form.monomial(2 * n, exps), n)
        f = (b + swap_xy(b).scale(-1)).to_form()
        rows.append([f.coefficient(m) for m in monos])
    return rank(rows)


# The exponent tuples are built once per shape and shared; each call returns a
# fresh list of them, which its caller may change.


@functools.cache
def _monomial_tuple(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if n == 1:
        return ((d,),)
    return tuple((e,) + rest for e in range(d, -1, -1) for rest in _monomial_tuple(n - 1, d - e))


@functools.cache
def _bidegree_tuple(n: int, dx: int, dy: int) -> tuple[tuple[int, ...], ...]:
    return tuple(xm + ym for xm in _monomial_tuple(n, dx) for ym in _monomial_tuple(n, dy))


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Monomials of degree d in n variables, lexicographically descending."""
    return list(_monomial_tuple(n, d))


def bidegree_basis(n: int, dx: int, dy: int) -> list[tuple[int, ...]]:
    """Monomials of x-degree dx and y-degree dy over 2n split variables."""
    return list(_bidegree_tuple(n, dx, dy))


# -- text format ---------------------------------------------------------------
#
# Header "biq n=<n>", then lines "NUM/DEN i j k l" meaning the coefficient of
# x_i x_j y_k y_l with i<=j, k<=l.


def biquadratic_to_text(b: BiquadraticForm) -> str:
    lines = [f"biq n={b.n}"]
    for (i, j, k, l), c in _keyed_terms(b):
        lines.append(f"{fmt_frac(c)} {i} {j} {k} {l}")
    return "\n".join(lines) + "\n"


def biquadratic_from_text(text: str) -> BiquadraticForm:
    lines = _content_lines(text)
    (n,) = _header(lines, "biq", "n")
    coeffs: dict[Key, Fraction] = {}
    tokens = RationalTokens()
    for line in lines[1:]:
        i, j, k, l = _add_term(coeffs, line, 4, tokens, bad="bad biq term line")
        if not (i <= j and k <= l):
            raise FormatError(f"indices must satisfy i<=j, k<=l: {line!r}")
    return _build(BiquadraticForm, n, coeffs)
