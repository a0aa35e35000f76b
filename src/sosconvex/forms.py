"""Exact-rational homogeneous multivariate forms.

A Form is a sparse map from exponent vectors to Fraction coefficients, all of
the same total degree. The zero form carries an explicit degree tag so that
homogeneity checks stay decidable. Variables are indexed 1..n; the names
x1..xn are presentation only.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class FormatError(ValueError):
    """Raised on malformed text input for any of the file formats."""


@functools.lru_cache(maxsize=4096)
def shared_fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator), one object per recently used pair.

    Certificates and functionals outlive the search that found them and
    repeat a few values, so taking their entries from this bounded cache,
    in lowest terms, makes equal entries one object across witnesses.
    """
    return Fraction(numerator, denominator)


def as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return shared_fraction(x, 1)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class RationalTokens(dict):
    """The rational-token reader of one parse: tokens[t] is Fraction(t).

    It accepts exactly what Fraction(str) accepts ("1.5", "-3/4", "+2") and
    raises what Fraction raises (ValueError, ZeroDivisionError) on anything
    else, such as "x", "nan" or "1/0". Each distinct token is parsed once, so
    equal entries of one file share one Fraction.
    """

    def __missing__(self, token: str) -> Fraction:
        num, slash, den = token.partition("/")
        # signed digits over digits go to int, which rejects what Fraction does
        simple = token.isascii() and num.lstrip("+-").isdigit() and (den.isdigit() or not slash)
        value = self[token] = Fraction(int(num), int(den or 1)) if simple else Fraction(token)
        return value


def fmt_frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Form:
    """Homogeneous polynomial with exact rational coefficients."""

    __slots__ = ("n_vars", "degree", "terms")

    def __init__(self, n_vars: int, degree: int, terms: Mapping[tuple[int, ...], Fraction]):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            # one test on the common path; the messages name the first check
            # that fails, in this order
            if len(exps) != n_vars or min(exps) < 0 or sum(exps) != degree:
                if len(exps) != n_vars:
                    raise ValueError(f"exponent vector {exps} has wrong length (expected {n_vars})")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                raise ValueError(f"monomial {exps} is not of degree {degree}")
            c = coeff if type(coeff) is Fraction else as_frac(coeff)
            if c:
                clean[exps] = c
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n_vars: int, degree: int) -> Form:
        return Form(n_vars, degree, {})

    @staticmethod
    def monomial(n_vars: int, exps: Sequence[int], coeff=1) -> Form:
        exps = tuple(exps)
        return Form(n_vars, sum(exps), {exps: as_frac(coeff)})

    @staticmethod
    def variable(n_vars: int, i: int) -> Form:
        """The linear form x_i (1-based)."""
        if not 1 <= i <= n_vars:
            raise ValueError(f"variable index {i} out of range 1..{n_vars}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n_vars))
        return Form(n_vars, 1, {exps: Fraction(1)})

    @staticmethod
    def linear(coeffs: Sequence) -> Form:
        """The linear form sum_i coeffs[i] * x_{i+1}."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = tuple(1 if j == i else 0 for j in range(n))
            terms[exps] = as_frac(c)
        return Form(n, 1, terms)

    # -- arithmetic ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: Form) -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("forms live in different variable counts")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("forms have different degrees")

    def __add__(self, other: Form) -> Form:
        self._check_compatible(other)
        deg = other.degree if self.is_zero() else self.degree
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Form(self.n_vars, deg, terms)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.n_vars, self.degree, {e: -c for e, c in self.terms.items()})

    def scale(self, k) -> Form:
        k = as_frac(k)
        return Form(self.n_vars, self.degree, {e: k * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Form):
            if self.n_vars != other.n_vars:
                raise ValueError("forms live in different variable counts")
            terms: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    terms[e] = terms[e] + c if e in terms else c
            return Form(self.n_vars, self.degree + other.degree, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Form:
        if k < 0:
            raise ValueError("negative power")
        result = Form(self.n_vars, 0, {(0,) * self.n_vars: Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.n_vars != other.n_vars:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact when the point is rational."""
        if len(point) != self.n_vars:
            raise ValueError("point has wrong length")
        return evaluate_terms(self.terms.items(), point)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Form(0; n={self.n_vars}, d={self.degree})"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


def evaluate_terms(terms: Iterable[tuple[tuple[int, ...], object]], point: Sequence):
    """The sum of c * point^e over the (e, c) pairs, in their order, with each
    product built left to right; Fraction(0) when there are none."""
    total = None
    for exps, coeff in terms:
        v = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                v = v * x
        total = v if total is None else total + v
    if total is None:
        return Fraction(0)
    return total


class PolyMatrix:
    """Symmetric matrix of forms, all of the same variable count and degree."""

    __slots__ = ("dim", "n_vars", "entry_degree", "entries")

    def __init__(self, entries: Sequence[Sequence[Form]]):
        dim = len(entries)
        if dim < 1 or any(len(row) != dim for row in entries):
            raise ValueError("entries must be a square grid")
        n_vars = entries[0][0].n_vars
        degrees = {f.degree for row in entries for f in row if not f.is_zero()}
        if len(degrees) > 1:
            raise ValueError("entries have mixed degrees")
        entry_degree = degrees.pop() if degrees else entries[0][0].degree
        for i in range(dim):
            for j in range(dim):
                if entries[i][j].n_vars != n_vars:
                    raise ValueError("entries have mixed variable counts")
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")
        self.dim = dim
        self.n_vars = n_vars
        self.entry_degree = entry_degree
        self.entries = [list(row) for row in entries]

    def __getitem__(self, ij: tuple[int, int]) -> Form:
        i, j = ij
        return self.entries[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries


# -- operations --------------------------------------------------------------


def differentiate(f: Form, i: int) -> Form:
    """Partial derivative of f with respect to x_i (1-based)."""
    if not 1 <= i <= f.n_vars:
        raise ValueError(f"variable index {i} out of range 1..{f.n_vars}")
    deg = max(f.degree - 1, 0)
    terms: dict[tuple[int, ...], Fraction] = {}
    k = i - 1
    for exps, coeff in f.terms.items():
        e = exps[k]
        if e == 0:
            continue
        new = exps[:k] + (e - 1,) + exps[k + 1:]
        terms[new] = terms.get(new, Fraction(0)) + coeff * e
    return Form(f.n_vars, deg, terms)


def hessian(p: Form) -> PolyMatrix:
    """Matrix of second partial derivatives of p."""
    if p.degree < 2:
        raise ValueError("hessian requires degree >= 2")
    n = p.n_vars
    grads = [differentiate(p, i) for i in range(1, n + 1)]
    # mixed partials commute: differentiate for i <= j and share the entry
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = differentiate(grads[i], j + 1)
    return PolyMatrix(entries)


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
    monomials, and a stable sort by (i, j) gives the term order of y^T H y
    summed entry by entry over the pairs i <= j of hessian(p), in which float
    evaluation sums them. The table's exponents and nonzero products are a
    valid Form by construction, so the Form is assembled without its
    per-term checks.
    """
    if p.degree < 2:
        raise ValueError("hessian requires degree >= 2")
    found = [(pair, key, Fraction(c.numerator * k) if c.denominator == 1 else c * k)
             for e, c in p.terms.items() for pair, key, k in _hessian_terms(e)]
    found.sort(key=operator.itemgetter(0))
    h = object.__new__(Form)
    h.n_vars, h.degree, h.terms = 2 * p.n_vars, p.degree, {key: c for _, key, c in found}
    return h


# The exponent tuples are built once per shape and shared; each call returns a
# fresh list of them, which its caller may change.


@functools.cache
def _monomial_tuple(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # index tuples in ascending order give exponents lexicographically descending
    return tuple(tuple(map(c.count, range(n)))
                 for c in itertools.combinations_with_replacement(range(n), d))


@functools.cache
def _bidegree_tuple(n: int, dx: int, dy: int) -> tuple[tuple[int, ...], ...]:
    return tuple(xm + ym for xm in _monomial_tuple(n, dx) for ym in _monomial_tuple(n, dy))


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Monomials of degree d in n variables, lexicographically descending."""
    return list(_monomial_tuple(n, d))


def bidegree_basis(n: int, dx: int, dy: int) -> list[tuple[int, ...]]:
    """Monomials of x-degree dx and y-degree dy over 2n split variables."""
    return list(_bidegree_tuple(n, dx, dy))


def euler_recover(h: PolyMatrix, d: int) -> Form:
    """Recover p from its Hessian via p = x^T H x / (d(d-1))."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    n = h.n_vars
    acc = Form.zero(n, d)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi = Form.variable(n, i)
            xj = Form.variable(n, j)
            acc = acc + xi * h[i, j] * xj
    return acc.scale(Fraction(1, d * (d - 1)))


class HessianVerdict:
    """Result of a valid-Hessian check, with a witness on failure."""

    __slots__ = ("valid", "witness", "lhs", "rhs")

    def __init__(self, valid: bool, witness=None, lhs: Form | None = None, rhs: Form | None = None):
        self.valid = valid
        self.witness = witness  # (i, j, k) with d(A_ij)/dx_k != d(A_ik)/dx_j
        self.lhs = lhs
        self.rhs = rhs

    def __bool__(self) -> bool:
        return self.valid


def is_valid_hessian(a: PolyMatrix) -> HessianVerdict:
    """Check commutation of third partials: d(A_ij)/dx_k == d(A_ik)/dx_j.

    The witness enumeration order is fixed (i ascending, j ascending, k
    descending) so that repeated runs report the same violating triple.
    """
    n = a.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(n, 0, -1):
                if j == k:
                    continue
                lhs = differentiate(a[i, j], k)
                rhs = differentiate(a[i, k], j)
                if lhs != rhs:
                    return HessianVerdict(False, (i, j, k), lhs, rhs)
    return HessianVerdict(True)


def complement_basis(c: Sequence) -> list[list[Fraction]]:
    """Rational basis of the hyperplane {v : v.c = 0}.

    Drop the coordinate of largest |c_i| (smallest index on ties) and solve
    for it: one vector e_j - (c_j / c_pivot) e_pivot per other coordinate j,
    in order.
    """
    cs = [as_frac(v) for v in c]
    if all(v == 0 for v in cs):
        raise ValueError("vector must be nonzero")
    pivot = max(range(len(cs)), key=lambda i: (abs(cs[i]), -i))
    basis = []
    for j in range(len(cs)):
        if j != pivot:
            v = [Fraction(0)] * len(cs)
            v[j] = Fraction(1)
            v[pivot] = -cs[j] / cs[pivot]
            basis.append(v)
    return basis


# -- text format --------------------------------------------------------------
#
# One term per line: "NUM/DEN e1 e2 ... en", with a header "form n=<n> d=<d>".
# Comments start with '#'; blank lines are ignored.


def form_to_text(f: Form) -> str:
    lines = [f"form n={f.n_vars} d={f.degree}"]
    for exps in sorted(f.terms):
        lines.append(fmt_frac(f.terms[exps]) + " " + " ".join(str(e) for e in exps))
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _header(lines: list[str], kind: str, *fields: str) -> list[int]:
    """The integer fields of the header line "<kind> f1=<v1> f2=<v2> ..."."""
    if not lines:
        raise FormatError(f"empty {kind} file")
    header = lines[0].split()
    if len(header) != len(fields) + 1 or header[0] != kind:
        raise FormatError(f"bad {kind} header: {lines[0]!r}")
    try:
        return [int(tok.removeprefix(f"{f}=")) for tok, f in zip(header[1:], fields)]
    except ValueError as exc:
        raise FormatError(f"bad {kind} header: {lines[0]!r}") from exc


def _add_term(terms: dict, line: str, width: int, tokens: RationalTokens, bad="bad term line"):
    """Add the term line "coeff k1 ... k<width>" to terms under the key
    (k1, ..., k<width>), and return the key; a repeated key is a fault."""
    parts = line.split()
    if len(parts) != width + 1:
        raise FormatError(f"{bad}: {line!r}")
    try:
        coeff = tokens[parts[0]]
        key = tuple(map(int, parts[1:]))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{bad}: {line!r}") from exc
    if key in terms:
        raise FormatError(f"duplicate monomial: {line!r}")
    terms[key] = coeff
    return key


def _build(make, *args):
    """make(*args), with a ValueError it raises turned into a FormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def form_from_text(text: str) -> Form:
    lines = _content_lines(text)
    n, d = _header(lines, "form", "n", "d")
    terms: dict[tuple[int, ...], Fraction] = {}
    tokens = RationalTokens()
    for line in lines[1:]:
        _add_term(terms, line, n, tokens)
    return _build(Form, n, d, terms)


def polymatrix_to_text(a: PolyMatrix) -> str:
    lines = [f"polymat n={a.n_vars} dim={a.dim} d={a.entry_degree}"]
    for i in range(1, a.dim + 1):
        for j in range(i, a.dim + 1):
            f = a[i, j]
            if f.is_zero():
                continue
            lines.append(f"entry {i} {j}")
            for exps in sorted(f.terms):
                lines.append(fmt_frac(f.terms[exps]) + " " + " ".join(str(e) for e in exps))
    return "\n".join(lines) + "\n"


def polymatrix_from_text(text: str) -> PolyMatrix:
    lines = _content_lines(text)
    n, dim, d = _header(lines, "polymat", "n", "dim", "d")
    grid = [[_build(Form.zero, n, d) for _ in range(dim)] for _ in range(dim)]
    current: tuple[int, int] | None = None
    seen: set[tuple[int, int]] = set()
    terms: dict[tuple[int, ...], Fraction] = {}
    tokens = RationalTokens()

    def flush():
        # each entry is built when its block closes, so the first fault in
        # file order is the one reported
        if current is not None:
            i, j = current
            grid[i - 1][j - 1] = grid[j - 1][i - 1] = _build(Form, n, d, terms)

    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "entry":
            flush()
            try:
                i, j = (int(v) for v in parts[1:])
            except ValueError as exc:
                raise FormatError(f"bad entry line: {line!r}") from exc
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise FormatError(f"entry index out of range 1..{dim}: {line!r}")
            # entry i j also sets entry j i
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise FormatError(f"duplicate entry: {line!r}")
            seen.add(pair)
            current = (i, j)
            terms = {}
        elif current is None:
            raise FormatError(f"term line before any entry: {line!r}")
        else:
            _add_term(terms, line, n, tokens)
    flush()
    return _build(PolyMatrix, grid)
