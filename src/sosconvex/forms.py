"""Exact-rational homogeneous multivariate forms.

A Form is a sparse map from exponent vectors to Fraction coefficients, all of
the same total degree. The zero form carries an explicit degree tag so that
homogeneity checks stay decidable. Variables are indexed 1..n; the names
x1..xn are presentation only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class FormatError(ValueError):
    """Raised on malformed text input for any of the file formats."""


def as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


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
            if len(exps) != n_vars:
                raise ValueError(f"exponent vector {exps} has wrong length (expected {n_vars})")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) != degree:
                raise ValueError(f"monomial {exps} is not of degree {degree}")
            c = as_frac(coeff)
            if c != 0:
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
                    terms[e] = terms.get(e, Fraction(0)) + c1 * c2
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

    def __hash__(self):
        return hash((self.n_vars, self.degree, frozenset(self.terms.items())))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact when the point is rational."""
        if len(point) != self.n_vars:
            raise ValueError("point has wrong length")
        total = None
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                for _ in range(e):
                    v = v * x
            total = v if total is None else total + v
        if total is None:
            return Fraction(0)
        return total

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Form(0; n={self.n_vars}, d={self.degree})"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


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
    entries = [[differentiate(grads[i], j + 1) for j in range(n)] for i in range(n)]
    return PolyMatrix(entries)


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


def substitute_linear(f: Form, b: Sequence[Sequence]) -> Form:
    """Substitute x_i <- sum_j b[i][j] * t_j; b is n_vars x m."""
    n = f.n_vars
    if len(b) != n:
        raise ValueError(f"substitution matrix must have {n} rows")
    m = len(b[0])
    if any(len(row) != m for row in b):
        raise ValueError("substitution matrix is ragged")
    lin = [Form.linear([as_frac(c) for c in row]) for row in b]
    acc = Form.zero(m, f.degree)
    for exps, coeff in f.terms.items():
        term = Form(m, 0, {(0,) * m: coeff})
        for lf, e in zip(lin, exps):
            if e:
                term = term * lf**e
        acc = acc + term
    return acc


def linear_change(f: Form, t: Sequence[Sequence]) -> Form:
    """Return f(T x) for a square rational matrix T."""
    n = f.n_vars
    if len(t) != n or any(len(row) != n for row in t):
        raise ValueError(f"change-of-variables matrix must be {n}x{n}")
    return substitute_linear(f, t)


def restrict_to_complement(p: Form, c: Sequence) -> Form:
    """Restrict p to the hyperplane {v : v.c = 0}, as a form in n-1 variables.

    The basis of the hyperplane is fixed deterministically: drop the
    coordinate of largest |c_i| (smallest index on ties) and solve for it.
    """
    cs = [as_frac(v) for v in c]
    if len(cs) != p.n_vars:
        raise ValueError("vector has wrong length")
    if all(v == 0 for v in cs):
        raise ValueError("vector must be nonzero")
    if p.n_vars < 2:
        raise ValueError("need at least two variables to restrict")
    pivot = max(range(len(cs)), key=lambda i: (abs(cs[i]), -i))
    kept = [i for i in range(len(cs)) if i != pivot]
    # x_pivot = -(1/c_pivot) * sum over kept of c_j t_j; x_{kept[r]} = t_r.
    b = []
    for i in range(p.n_vars):
        if i == pivot:
            b.append([-cs[j] / cs[pivot] for j in kept])
        else:
            b.append([Fraction(1) if j == i else Fraction(0) for j in kept])
    return substitute_linear(p, b)


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


def form_from_text(text: str) -> Form:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty form file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "form":
        raise FormatError(f"bad form header: {lines[0]!r}")
    try:
        n = int(header[1].removeprefix("n="))
        d = int(header[2].removeprefix("d="))
    except ValueError as exc:
        raise FormatError(f"bad form header: {lines[0]!r}") from exc
    terms: dict[tuple[int, ...], Fraction] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != n + 1:
            raise FormatError(f"bad term line: {line!r}")
        try:
            coeff = Fraction(parts[0])
            exps = tuple(int(x) for x in parts[1:])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad term line: {line!r}") from exc
        if exps in terms:
            raise FormatError(f"duplicate monomial: {line!r}")
        terms[exps] = coeff
    try:
        return Form(n, d, terms)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
    if not lines:
        raise FormatError("empty polymat file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "polymat":
        raise FormatError(f"bad polymat header: {lines[0]!r}")
    try:
        n = int(header[1].removeprefix("n="))
        dim = int(header[2].removeprefix("dim="))
        d = int(header[3].removeprefix("d="))
    except ValueError as exc:
        raise FormatError(f"bad polymat header: {lines[0]!r}") from exc
    grid = [[Form.zero(n, d) for _ in range(dim)] for _ in range(dim)]
    current: tuple[int, int] | None = None
    terms: dict[tuple[int, ...], Fraction] = {}

    def flush():
        if current is not None:
            i, j = current
            f = Form(n, d, terms)
            grid[i - 1][j - 1] = f
            grid[j - 1][i - 1] = f

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
            current = (i, j)
            terms = {}
        else:
            if current is None:
                raise FormatError(f"term line before any entry: {line!r}")
            if len(parts) != n + 1:
                raise FormatError(f"bad term line: {line!r}")
            try:
                terms[tuple(int(x) for x in parts[1:])] = Fraction(parts[0])
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad term line: {line!r}") from exc
    flush()
    try:
        return PolyMatrix(grid)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
