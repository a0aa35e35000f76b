"""Biquadratic forms in two blocks of n variables.

A biquadratic form is quartic overall and quadratic in each block:
b(x, y) = sum over i<=j, k<=l of alpha_{ijkl} x_i x_j y_k y_l. The package
computes on it as one quartic Form over 2n variables, x-block first, as it
does on the Hessian form y^T H_p(x) y of any p (forms.hessian_form). A
BiquadraticForm is the bidegree-(2, 2) view of such a Form at block size n:
what the `biq` text format reads and writes, where the CLI takes the block at
which certificates split x from y, and what the benchmark harness imports.
The key (i, j, k, l) with i<=j, k<=l names the monomial x_i x_j y_k y_l at
the boundaries only (the constructor, the text format and the symmetry
witness); the stored value is the coefficient of the written monomial, with
no factor-of-2 folding.

This module is the package's edge: it imports certificates and dual, and
within the package only the CLI imports it.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .certificates import certificate_from_text, rank
from .dual import dual_from_text
from .forms import (
    Form,
    FormatError,
    RationalTokens,
    _add_term,
    _build,
    _content_lines,
    _header,
    _monomials,
    bidegree_basis,
    fmt_frac,
    form_from_text,
    hessian_form,
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

    The package computes on Forms. This view stays for the `biq` text
    format, which names terms by key; for the block size n, at which the
    CLI splits x from y in a certificate; and for the benchmark harness,
    which imports the class and tells a biq target from a Form with
    isinstance, so the view is no Form subclass.
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


# -- operations ---------------------------------------------------------------


def hessian_biquadratic(p: Form) -> BiquadraticForm:
    """The Hessian form y^T H_p(x) y of a quartic p: hessian_form(p) viewed at block size n."""
    if p.degree != 4:
        raise ValueError("hessian_biquadratic requires a quartic form")
    return BiquadraticForm.from_form(hessian_form(p), p.n_vars)


class SymmetryVerdict:
    """Result of an x<->y symmetry check, with one differing pair on failure."""

    __slots__ = ("symmetric", "witness")

    def __init__(self, symmetric: bool, witness=None):
        self.symmetric = symmetric
        # witness: (key, coeff, swapped_key, swapped_coeff)
        self.witness = witness

    def __bool__(self) -> bool:
        return self.symmetric


def swap_xy(f: Form) -> Form:
    """f(y, x) for a form f(x, y) in 2n variables, x-block first."""
    n = f.n_vars // 2
    return Form(f.n_vars, f.degree, {_swap_exponents(n, e): c for e, c in f.terms.items()})


def is_symmetric(f: Form) -> SymmetryVerdict:
    """Whether a bidegree-(2, 2) form f in 2n variables has f(x, y) = f(y, x);
    otherwise the witness is the differing pair of least key."""
    n = f.n_vars // 2
    BiquadraticForm.from_form(f, n)  # a ValueError unless f has bidegree (2, 2)
    diff = f - swap_xy(f)
    if diff.is_zero():
        return SymmetryVerdict(True)
    key, exps = min((exponent_key(n, e), e) for e in diff.terms)
    swapped = _swap_exponents(n, exps)
    return SymmetryVerdict(
        False, (key, f.coefficient(exps), exponent_key(n, swapped), f.coefficient(swapped))
    )


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
    """Exact rank of p -> hessian_form(p) over the quartic monomial basis."""
    monos = bidegree_basis(n, 2, 2)
    rows = []
    for exps in _monomials(n, 4):
        f = hessian_form(Form.monomial(n, exps))
        rows.append([f.coefficient(m) for m in monos])
    return rank(rows)


def antisymmetric_dimension(n: int) -> int:
    """Dimension of the strictly antisymmetric complement, by basis enumeration."""
    monos = bidegree_basis(n, 2, 2)
    rows = []
    for exps in monos:
        f = Form.monomial(2 * n, exps)
        f = f - swap_xy(f)
        rows.append([f.coefficient(m) for m in monos])
    return rank(rows)


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
