"""Numeric SOS feasibility search with exact rational certification.

The Gram fiber of a target over a monomial basis z is {Q symmetric :
z^T Q z = target}. Every entry (r, s) of Q feeds exactly one monomial
z_r z_s, so the fiber is held in closed form, one GramParameterization: an
index map from entries to monomial ids, the number of ordered pairs reaching
each monomial, and the exact target coefficients. All but the coefficients
depend on the basis alone: they are the numpy views of its gram_index, kept
on it in the bounded cache the exact verifiers read too, and shared by every
fiber, certificate and functional over it: a target binds to a shallow copy.
The constraint map has A A^T diagonal, and the Frobenius projection onto
the fiber is a per-monomial mean correction (Henrion-Malick): add to each
entry its monomial's residual divided by its pair count.

The pipeline runs Douglas-Rachford (DR) between the PSD cone and the fiber,
one eigh and one fiber residual per evaluation of the DR map T: the fiber
projection is affine, so the projection of the reflection 2y - x is twice
the shadow of x less the projection of x, which is carried from the last
evaluation. The step is safeguarded type-II Anderson acceleration
(Fu-Zhang-Boyd 2020) with memory ANDERSON_MEMORY: the next point is the
combination T(x) - dT gamma of the last differences of T, gamma a
least-squares fit of the residual g = T(x) - x with a small Tikhonov term,
and its fiber projection is the same combination of shadows, so no
evaluation needs a second eigh or projection. A candidate whose residual
norm exceeds that of the point it extrapolates from is rejected for the
plain step T(x), and the history is cleared; a singular solve or a
non-finite candidate counts as rejected. The run converges at a shadow
within the target's own tolerance pz.tol of the fiber and the PSD cone.
One run per target, from the least-norm fiber point, is one loop with one
history that runs the fixed chunks of CHUNKS, 3,000 evaluations, and ends
only when it converges or the chunks do; douglas_rachford yields a DRReport
at each chunk end, so chunk ends move no iterate, and one before the first
evaluation, on the start point. check_sos is one loop over the reports: it
rounds a report that ends near the fiber or on a PSD shadow, and tries a
refutation from every report it does not certify, so an easy target is
decided at the start point, with no evaluation. The first chunks double,
so early points are tried early; after 200 evaluations a report comes every
50, so that a slowly converging sextic is rounded often enough to certify.
Rounding is to exact rationals in the manner of Peyrl-Parrilo: round Q
entrywise to the grid 1/(D T), once for each D of the fixed
DENOMINATOR_BOUNDS, T the lcm of the target's denominators, each rounding
held as integer numerators and denominators (_roundings). A Gram matrix
whose denominators divide D T, as those of the paper's gram_M do on the
T_{a,b} members of the tests, lies on that grid, singular or not, and a
point within half a grid step of it rounds onto it exactly. Each rounding is
first screened in floats (_relative_lambda_min of its fiber projection),
and one clearly not PSD there is skipped. One that passes is snapped onto
the fiber by the same per-monomial correction in integer arithmetic over
one common denominator, and goes to verify_sos_certificate, the one exact
gate, whose LDL^T check runs first; the first candidate it accepts is the
certificate. The screen only skips; it never accepts. DENOMINATOR_BOUNDS is
the one ladder of the search: the refutations below round their float
vectors at the same bounds, each scaled to max |v_i| = D (_integer_point).

The basis comes from the target alone: when every term has the same even
(x-degree, y-degree) split of the variables at n_vars/2, as the Hessian
form y^T H_p(x) y does, the bidegree basis suffices; otherwise all
half-degree monomials are used. When pruning leaves none, only the zero
form is z^T Q z: it certifies with Q = [0] over one monomial of its degree.

The same run also answers "not SOS" for any target searched without a
multiplier. When the fiber and the PSD cone do not meet, no chunk of DR
iterations converges, and the gap Y = P_psd(f) - f at the fiber point f a
chunk ends on tends to a PSD matrix, constant over the pairs reaching each
monomial, that pairs negatively with every Gram matrix of the target: the
moments of a separating functional on the fiber's monomials (Banjac et al.,
the DR gap vector). After every chunk, refutation_search rounds them at each
bound to primitive integer functionals on those monomials, screens each with
one eigvalsh of its moment matrix against the same SCREEN_TOL. A target
monomial that no product of two basis monomials reaches, any one over an
empty basis, is refuted before any search by the functional that is
nonzero only there, and so is a square z_r^2 with a negative coefficient
that only the pair (r, r) reaches, by the functional that is 1 there: its
moment matrix is e_r e_r^T. Under a multiplier both end Stalled at once,
since only a Gram matrix is sought. Every functional, these and the witness
points below, passes one gate, _refuted: no search claims "not SOS" unless
verify_refutation accepts it on the same pruned basis.

A target whose terms all have bidegree (2, 2) at n_vars/2, every biquadratic
target and the Hessian form of every quartic, is y^T A(x) y, and a point
where it is negative refutes it too: the functional that evaluates there has
a rank-1 moment matrix and pairs with the target to its value, which the
outcome's point holds. check_sos runs witness_refutation once, after the
first chunk of evaluations whose gap does not refute: alternating
eigen-steps in floats, and after each step integer rounding at each bound,
an exact sign check on ints and the gate, so it stops at the first step
that yields a refuting point. For ternary quartics the route is complete:
a convex ternary quartic is sos-convex (the paper's theorem), so when the
Hessian form is not SOS there is an open set of points where it is negative,
rational ones among them, though the float search can miss a thin one.
Sextic Hessian forms, bidegree (4, 2), are left to the gap: for fixed y
they are quartic in x, so their x step is no eigenproblem.

Every eigh, eigvalsh and Anderson solve calls numpy's LAPACK gufuncs
(_eigh, _eigvalsh, _solve), the routines np.linalg calls for float64 input:
the same floats, without about 4 us of Python wrapper per call.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .certificates import (
    Monomial,
    SosCertificate,
    SosVerification,
    SymRationalMatrix,
    _as_form,
    _basis,
    _bidegree,
    gram_index,
    is_even_power_sum,
    sos_basis,
    unit_multiplier,
    verify_sos_certificate,
)
from .dual import DualCertificate, RefutationResult, verify_refutation
from .forms import Form, as_frac, hessian_form, shared_fraction


# DR converges within DR_TOL * max(1, max|target coefficient|), near float
# precision: rounding finds the exact Gram matrix only from close by (Peyrl-Parrilo)
DR_TOL = 1e-15

# The DR evaluations of each chunk of the one run, 3,000 in all: reports after
# 25, 50, 100 and 200, then every 50. Over the T_{a,b}, below-bound and sextic
# draws of the tests' recipes and the benchmark corpus, converged runs take at
# most 598 evaluations, every corpus instance is decided within 200, and the
# slowest sextics certify at 1,550 and 1,750; chunks of 100 after 200 lose one
CHUNKS = (25, 25, 50, 100) + (50,) * 56


class GramParameterization:
    """Closed-form Gram fiber {Q : sum of Q[r, s] over pairs reaching m = target[m]}.

    The numpy views of the basis's gram_index (_gram): index[r, s] is the id
    of the monomial z_r z_s (read-only), monomials[m] the monomial with id m,
    counts[m] the number of ordered pairs reaching it; target[m] is its exact
    coefficient, _upper the upper triangle as index arrays, _count_den the
    lcm of the counts, and tol the target's DR tolerance. All but the target
    and tol is built once per basis (_basis_fiber) and shared: with_target
    binds a target to a shallow copy.
    """

    def __init__(self, z: tuple[Monomial, ...]):
        gram = self._gram = gram_index(z)
        self.index = np.array(gram.rows, dtype=np.intp)
        self.counts = np.array(gram.counts)
        self._upper = np.triu_indices(len(z))
        for array in (self.index, self.counts, *self._upper):
            array.flags.writeable = False
        self.z = list(z)
        self.monomials = gram.monomials
        self.target: list[Fraction] = []
        self._count_den = math.lcm(*gram.counts)

    def with_target(self, target: list[Fraction]) -> GramParameterization:
        """A shallow copy of this fiber holding target, one value per monomial;
        a ValueError names a coefficient that no float holds."""
        pz = copy.copy(self)
        pz.target = target
        b = []
        for mono, c in zip(self.monomials, target):
            try:
                b.append(float(c))
            except OverflowError:
                raise ValueError(f"the coefficient of {mono} is beyond float range") from None
        pz._b = np.array(b)
        pz.tol = DR_TOL * max(1.0, float(np.abs(pz._b).max()))
        # the target over its common denominator, for the integer snap
        pz._target_den = math.lcm(*(t.denominator for t in target))
        pz._target_nums = [t.numerator * (pz._target_den // t.denominator) for t in target]
        return pz

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Per monomial, the target coefficient minus x's sum over the pairs
        reaching it, divided by the pair count: the correction that
        project adds to each entry, so x's distance to the fiber in the max
        norm is max |residual(x)|."""
        sums = np.bincount(self.index.ravel(), weights=x.ravel(), minlength=len(self.counts))
        return (self._b - sums) / self.counts

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection of a symmetric matrix onto the fiber."""
        return x + self.residual(x)[self.index]

    def snap(self, nums: Sequence[int], dens: Sequence[int]) -> SymRationalMatrix:
        """Exact projection onto the fiber of the symmetric matrix whose upper
        triangle, row by row, is nums[k] / dens[k].

        The arithmetic is on integers over one common denominator L * T * C,
        with L, T and C the lcms of dens, of the target's denominators and of
        the pair counts: entry k, reaching monomial m, is a_k / L plus the
        residual r_m / (L T) of m divided by its pair count c_m, so its
        numerator is a_k T C + r_m C / c_m. Each distinct value is taken in
        lowest terms from forms.shared_fraction: a certificate outlives the
        search and its entries repeat a few values, so equal entries, within
        one certificate and across certificates, share one object, and the
        matrix holds only the d (d + 1) / 2 entries of its upper triangle
        (SymRationalMatrix.from_upper), not d row lists.
        """
        lcd = math.lcm(*dens)
        scaled = [n * (lcd // q) for n, q in zip(nums, dens)]
        t_den, c_den = self._target_den, self._count_den
        corrections = [
            (t * lcd - t_den * total) * (c_den // c)
            for t, total, c in zip(self._target_nums, self._gram.sums(scaled), self._gram.counts)
        ]
        lifted = t_den * c_den
        entries = [a * lifted + corrections[m] for a, m in zip(scaled, self._gram.upper)]
        den = lcd * lifted
        values = {}
        for n in set(entries):
            g = math.gcd(n, den)
            values[n] = shared_fraction(n // g, den // g)
        return SymRationalMatrix.from_upper(len(self.z), [values[n] for n in entries])


@dataclass
class DRReport:
    """Where one chunk of Douglas-Rachford iterations ended."""

    iterations: int
    min_eigenvalue: float
    fiber_distance: float
    fiber_point: np.ndarray  # the converged shadow, or P(x) of the next point x
    converged: bool = False

    @property
    def residual(self) -> float:
        return max(-self.min_eigenvalue, 0.0, self.fiber_distance)


@dataclass
class SearchOutcome:
    status: str  # ExactCertificate | NumericFeasible | Refuted | Stalled
    certificate: SosCertificate | None = None
    dual: DualCertificate | None = None
    refutation: RefutationResult | None = None  # verify_refutation's verdict on dual
    residual: float | None = None
    diagnostics: str = ""
    # a witness refutation's integer point (x, y) and the target's exact value there
    point: tuple[tuple[int, ...], tuple[int, ...], Fraction] | None = None

    def is_certified(self) -> bool:
        return self.status == "ExactCertificate"


def _basis_fiber(z: tuple[Monomial, ...]) -> GramParameterization:
    """The target-free fiber of a basis, kept on its gram_index, so that one
    bounded cache holds both and the fiber and the verifiers see one index."""
    gram = gram_index(z)
    gram.fiber = gram.fiber or GramParameterization(z)
    return gram.fiber


def parameterize(target: Form, z: Sequence[Monomial]) -> GramParameterization:
    """The closed-form Gram fiber of the target over the basis z."""
    z = tuple(tuple(m) for m in z)
    if not z:
        raise ValueError("empty monomial basis")
    if any(len(m) != target.n_vars for m in z):
        raise ValueError("basis and target variable counts disagree")
    fiber = _basis_fiber(z)
    for mono in target.terms:
        if mono not in fiber._gram.ids:
            raise ValueError(f"target monomial {mono} is not representable over the basis")
    zero = as_frac(0)
    return fiber.with_target([target.terms.get(mono, zero) for mono in fiber.monomials])


# -- numeric search --------------------------------------------------------------

# np.linalg's float64 kernels, unwrapped: a singular _solve gives NaN, not an error
_eigh = _umath_linalg.eigh_lo
_eigvalsh = _umath_linalg.eigvalsh_lo
_solve = _umath_linalg.solve1


def _project_psd(x: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone of the symmetric matrix whose lower
    triangle is x's (_eigh reads only that triangle, and x is finite)."""
    vals, vecs = _eigh(x)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


# Anderson acceleration of the DR map: the number of differences kept, and the
# Tikhonov weight of its least-squares solve relative to |g|^2. Relative to the
# residual, the weight is negligible while the differences of g are as large
# as g, and it damps the step back towards plain DR when g barely changes:
# there, as on slowly converging sextics, the undamped combinations wander and
# the shadows never settle on a PSD point.
ANDERSON_MEMORY = 5
ANDERSON_REG = 1e-6
_EYE = np.eye(ANDERSON_MEMORY)


class _Anderson:
    """The type-II Anderson history of one DR run, and its pending step.

    hist[k] holds one difference, between consecutive accepted points, of
    the rows of a (3, d^2) stack: the residual g = T(x) - x, T(x) and the
    shadow P(T(x)), flattened; the last ANDERSON_MEMORY differences are
    kept. gram[i, j] is the dot product of the g rows of hist[i] and
    hist[j], kept one row at a time. last is the stack at the last accepted
    point and gg its |g|^2; pending says that the point evaluated next is an
    Anderson candidate, to be checked against last.
    """

    def __init__(self, size: int):
        self.hist = np.empty((ANDERSON_MEMORY, 3, size))
        self.gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.count = 0
        self.last = None
        self.gg = math.inf
        self.pending = False

    def step(self, x: np.ndarray, g: np.ndarray, shadow: np.ndarray):
        """The next point and its fiber projection, after evaluating x.

        A candidate x whose residual norm exceeds that of the last accepted
        point is rejected: the next point is the plain step T from that
        point, and the history is cleared. Otherwise x is accepted, its
        differences enter the history, and the next point is the Anderson
        combination T(x) - dT^T gamma, gamma minimizing |g - dg^T gamma|^2
        plus the Tikhonov term. P is affine and the combination's weights
        sum to one, so its projection is shadow - dS^T gamma; one product of
        gamma with the T and shadow rows of the history gives both. A
        singular solve never raises: it gives a non-finite gamma, and so a
        non-finite candidate, which falls back to the plain step T(x), as
        rejected.
        """
        g = g.ravel()
        gg = float(g @ g)
        if self.pending and not gg <= self.gg:
            self.count = 0
            self.pending = False
            return self.last[1].reshape(x.shape), self.last[2].reshape(x.shape)
        now = np.empty((3, g.size))
        now[0] = g
        np.add(x.ravel(), g, out=now[1])
        now[2] = shadow.ravel()
        gram = self.gram
        if self.last is not None:
            k = self.count % ANDERSON_MEMORY
            np.subtract(now, self.last, out=self.hist[k])
            self.count += 1
            m = min(self.count, ANDERSON_MEMORY)
            gram[k, :m] = gram[:m, k] = self.hist[:m, 0] @ self.hist[k, 0]
        self.last, self.gg = now, gg
        self.pending = False
        m = min(self.count, ANDERSON_MEMORY)
        if m:
            a = gram[:m, :m] + (ANDERSON_REG * gg) * _EYE[:m, :m]
            with np.errstate(invalid="ignore"):
                gamma = _solve(a, self.hist[:m, 0] @ g)
            both = now[1:].ravel() - gamma @ self.hist[:m, 1:].reshape(m, -1)
            xa, pa = both[: g.size], both[g.size :]
            if math.isfinite(xa.sum()):
                self.pending = True
                return xa.reshape(x.shape), pa.reshape(x.shape)
            self.count = 0
        return now[1].reshape(x.shape), now[2].reshape(x.shape)


def douglas_rachford(pz: GramParameterization) -> Iterator[DRReport]:
    """Douglas-Rachford search for a PSD point of the fiber, yielding a
    DRReport at the start and at each chunk end (CHUNKS).

    The run starts from project(0), the least-norm fiber point, and is one
    loop of DR reflections between the PSD cone and the affine fiber, with
    one safeguarded Anderson history (_Anderson.step); the monitored iterate
    is the shadow P_fiber(P_psd(x)), which converges to a feasible point
    when one exists and whose residual settles at the gap when none does.
    Each evaluation of the DR map T makes one eigh and one fiber residual:
    y = P_psd(x), r = residual(y), shadow = y + r. P is affine, so
    P(2y - x) = 2 shadow - P(x), and T(x) = x + P(2y - x) - y has
    P(T(x)) = shadow: P of the next point is carried, and computed once per
    run. y is PSD, so lambda_min(shadow) >= -d * max|r|: the shadow's
    spectrum is needed only once the fiber distance max|r| is within pz.tol,
    and for the report of a chunk that ends unconverged, which is on the
    fiber point P(x) of the next point x. The start report, with 0
    iterations, is on P(x) of the start point x, so the caller's exact
    gates see it before any evaluation.

    A chunk end only yields, so chunk ends move no iterate. iterations
    counts a chunk's evaluations, rejected Anderson candidates included, and
    every evaluated shadow is checked for convergence. A converged report is
    the last one; otherwise the run ends with its last chunk. The caller
    may stop pulling at any report, and no further evaluation runs.
    """
    dim = len(pz.z)
    x = pz.project(np.zeros((dim, dim)))
    px = pz.project(x)
    # the start point goes to the exact gates before any evaluation
    start_distance = float(np.abs(pz.residual(px)).max())
    yield DRReport(0, float(_eigvalsh(px)[0]), start_distance, px)
    anderson = _Anderson(x.size)
    for budget in CHUNKS:
        for it in range(budget):
            y = _project_psd(x)
            r = pz.residual(y)
            fiber_dist = float(np.abs(r).max())
            shadow = y + r[pz.index]
            if fiber_dist <= pz.tol:
                shadow_eig = float(_eigvalsh(shadow)[0])
                if shadow_eig >= -pz.tol:
                    yield DRReport(it + 1, shadow_eig, fiber_dist, shadow, converged=True)
                    return
            x, px = anderson.step(x, 2.0 * shadow - px - y, shadow)
        yield DRReport(budget, float(_eigvalsh(px)[0]), fiber_dist, px)


# -- exact rounding --------------------------------------------------------------

# A rounding whose float fiber projection has lambda_min below -SCREEN_TOL *
# max(1, max|Q|) is not snapped. The accepted singular PSD Grams of the corpus
# read -2.5e-12 to -2e-15 there; the rejected roundings read -4e-8 or lower.
SCREEN_TOL = 1e-9

DENOMINATOR_BOUNDS = (2, 16, 256, 4096) + tuple(2**k for k in range(16, 22))


def _roundings(values, target_den: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Distinct rational roundings of values, simplest denominators first,
    each as reduced numerators and denominators.

    For each bound D of DENOMINATOR_BOUNDS, values round to the grid
    1/(D T), T the lcm of the target's denominators (target_den): a Gram
    matrix of the target whose entries have denominators dividing D T lies
    on that grid, singular ones included, so it is recovered exactly from
    close by. T scales the grid only when a double holds it exactly (T <
    2^53), so that every D T is exact and v * D T one rounded product;
    otherwise the grid is 1/D. A ValueError says that a value times a grid
    denominator overflows, as one within a few powers of two of the largest
    float does.
    """
    values = [float(v) for v in values]
    scale = target_den if target_den < 2**53 else 1
    seen = set()
    for bound in DENOMINATOR_BOUNDS:
        den = bound * scale
        try:
            grid = [round(v * den) for v in values]
        except OverflowError:
            raise ValueError(f"a Gram entry times {den} is beyond float range") from None
        gcds = [math.gcd(n, den) for n in grid]
        rounded = tuple(n // g for n, g in zip(grid, gcds)), tuple(den // g for g in gcds)
        if rounded not in seen:
            seen.add(rounded)
            yield rounded


def _relative_lambda_min(m: np.ndarray) -> float:
    """lambda_min(m) / max(1, max|m|): every float screen skips below -SCREEN_TOL."""
    return float(_eigvalsh(m)[0]) / max(1.0, float(np.abs(m).max()))


def _screen(pz: GramParameterization, nums: Sequence[int], dens: Sequence[int]) -> float:
    """The relative lambda_min of the float fiber projection of a rounding."""
    d = len(pz.z)
    x = np.zeros((d, d))
    x[pz._upper] = np.array(nums, dtype=float) / np.array(dens, dtype=float)
    x.T[pz._upper] = x[pz._upper]
    return _relative_lambda_min(pz.project(x))


def rationalize_and_certify(
    g: np.ndarray, pz: GramParameterization, target, multiplier: Form | None = None
):
    """Round a numeric fiber point to an exactly verified SOS certificate.

    Takes the rounding of g's entries on each grid 1/(D T) of _roundings,
    coarsest first, and screens it in floats: its fiber projection is
    skipped when its lambda_min is below -SCREEN_TOL * max(1, max|Q|).
    An exactly PSD matrix reads within
    rounding error of 0 there, so the screen only skips roundings the exact
    check would reject; it never accepts one. A rounding that passes is
    snapped to the fiber in integer arithmetic, wrapped as a certificate for
    multiplier * target, and returned when verify_sos_certificate accepts it.
    When none is accepted, the last falsy SosVerification, from the screen
    or the verifier, says why.
    """
    if multiplier is None:
        multiplier = unit_multiplier(len(pz.z[0]))
    check = None
    # halved before the sum, so that no entry near the largest float overflows
    for nums, dens in _roundings((g / 2.0 + g.T / 2.0)[pz._upper], pz._target_den):
        lam = _screen(pz, nums, dens)
        if lam < -SCREEN_TOL:
            check = SosVerification(
                False,
                f"float screen: rounded Gram matrix is not PSD (relative lambda_min {lam:.3e})",
            )
            continue
        cert = SosCertificate(pz.z, pz.snap(nums, dens), multiplier, as_frac(1))
        check = verify_sos_certificate(target, cert)
        if check:
            return cert
    return check


# -- dual search -----------------------------------------------------------------


def _refuted(target, monomials, c, point=None) -> SearchOutcome | None:
    """The Refuted outcome of the functional c on monomials, or None unless
    verify_refutation, the one gate of every refutation, accepts it against
    the target."""
    dual = DualCertificate(monomials, c)
    refutation = verify_refutation(dual, target)
    if refutation:
        return SearchOutcome("Refuted", dual=dual, refutation=refutation, point=point)
    return None


def _integer_point(v: np.ndarray, bound: int) -> tuple[int, ...] | None:
    """v scaled to max|v_i| = bound, rounded and divided by its gcd."""
    ints = [round(t) for t in (bound / float(np.abs(v).max())) * v]
    g = math.gcd(*ints)
    return tuple(t // g for t in ints) if g else None


def refutation_search(target, pz: GramParameterization, f: np.ndarray) -> SearchOutcome | None:
    """A Refuted outcome from the DR gap at a fiber point f.

    When the fiber and the PSD cone do not meet, Y = P_psd(f) - f tends to
    the DR gap vector (Banjac et al. 2019): Y is PSD, constant over the pairs
    reaching each monomial, and <Y, Q> = -||Y||^2 < 0 for every Gram matrix
    Q of the target, so its monomial means are the moments of a separating
    functional on pz.monomials, and m[pz.index] is its moment matrix over
    the pruned basis. Shifts on the moments of the z_r^2, within the margin
    that keeps the pairing negative, move a moment matrix that is singular
    or slightly indefinite into the PSD cone. Each shift, and each of its
    roundings _integer_point(m, D), D in DENOMINATOR_BOUNDS, is screened
    in floats like a primal rounding: skipped when its moment matrix has
    lambda_min below -SCREEN_TOL * max(1, max|M|), which an exactly PSD
    matrix never reads, so a singular PSD gap is rounded too and the screen
    only skips candidates verify_refutation would reject. A candidate
    refutes only if verify_refutation accepts it against the target
    (_refuted); otherwise the result is None.
    """
    y = _project_psd(f) - f
    sums = np.bincount(pz.index.ravel(), weights=y.ravel(), minlength=len(pz.counts))
    moments = sums / pz.counts
    peak = float(np.abs(moments).max())
    if not peak > 0:
        return None
    moments /= peak
    pairing = float(moments @ pz._b)
    if not pairing < 0:
        return None
    squares = np.unique(np.diag(pz.index))
    seen = set()
    # a shift s on the squares raises the pairing by s times their target
    # coefficients; shifts within half that margin keep the pairing negative
    room = -pairing / max(float(pz._b[squares].sum()), -pairing)
    for shift in (0.0, room / 4, room / 2):
        m = moments.copy()
        m[squares] += shift
        if _relative_lambda_min(m[pz.index]) < -SCREEN_TOL:
            continue
        for bound in DENOMINATOR_BOUNDS:
            key = _integer_point(m, bound)
            if key is None or key in seen:
                continue
            seen.add(key)
            if _relative_lambda_min(np.array(key, dtype=float)[pz.index]) < -SCREEN_TOL:
                continue
            outcome = _refuted(target, pz.monomials, list(key))
            if outcome is not None:
                return outcome
    return None


# Witness points: the random starts and alternating eigen-steps of the float search.
WITNESS_STARTS = 8
WITNESS_STEPS = 12


@functools.cache
def _witness_starts(n: int) -> np.ndarray:
    """The WITNESS_STARTS random x of the witness search at n (seed 0), drawn
    once per n and read-only, shared by every call."""
    x = np.random.default_rng(0).standard_normal((WITNESS_STARTS, n))
    x.flags.writeable = False
    return x


def witness_refutation(target: Form, pz: GramParameterization) -> SearchOutcome | None:
    """A Refuted outcome from a point (x, y) where the target is negative.

    For a target whose terms all have bidegree (2, 2) at n = n_vars / 2, the
    target is y^T A(x) y with A(x) quadratic in x: for fixed x a quadratic
    form in y, and for fixed y one in x, x^T C(y) x. From the WITNESS_STARTS
    random x of _witness_starts(n), WITNESS_STEPS alternating steps take y
    as the bottom eigenvector of A(x), then x as that of C(y), one eigh on
    the stack of starts per half step; each step lowers the value. After
    every step the points whose float value is below 0, most negative
    first, are rounded by _integer_point at each bound of
    DENOMINATOR_BOUNDS, each integer
    point once over all steps, and the target's sign there is checked on
    ints over its common denominator; the first point the gate accepts is
    returned. At a point where it is
    negative, the point-evaluation functional, with the integer moments
    x^a y^b on pz.monomials divided by their gcd, has the rank-1 moment
    matrix v v^T, v the basis evaluated at the point, and pairs with the
    target to its value there, the exact sum the sign check took: both go
    to _refuted, the one gate. Both screens only skip candidates. None for
    any other target, or when no candidate is accepted.
    """
    if _bidegree(target) != (2, 2):
        return None
    n = target.n_vars // 2
    # the monomial x_i x_j y_k y_l as (i, j, n + k, n + l)
    quads = [tuple(i for i, e in enumerate(mono) for _ in range(e)) for mono in pz.monomials]
    # target = sum of K[i, j, k, l] x_i x_j y_k y_l, K symmetric in i, j and in k, l
    i, j, k, l = np.array(quads).T
    kt = np.zeros((n, n, n, n))
    kt[i, j, k - n, l - n] = pz._b
    kt += kt.transpose(1, 0, 2, 3)
    kt += kt.transpose(0, 1, 3, 2)
    kmat = kt.reshape(n * n, n * n) / 4.0
    x = _witness_starts(n)
    seen = set()
    for _ in range(WITNESS_STEPS):
        a = ((x[:, :, None] * x[:, None, :]).reshape(WITNESS_STARTS, -1) @ kmat).reshape(-1, n, n)
        y = _eigh(a)[1][:, :, 0]
        c = ((y[:, :, None] * y[:, None, :]).reshape(WITNESS_STARTS, -1) @ kmat.T).reshape(-1, n, n)
        values, vecs = _eigh(c)
        x = vecs[:, :, 0]
        for s in np.argsort(values[:, 0]):
            if not values[s, 0] < 0:
                break
            for bound in DENOMINATOR_BOUNDS:
                xi, yi = _integer_point(x[s], bound), _integer_point(y[s], bound)
                if xi is None or yi is None or (xi, yi) in seen:
                    continue
                seen.add((xi, yi))
                p = xi + yi
                moments = [p[q0] * p[q1] * p[q2] * p[q3] for q0, q1, q2, q3 in quads]
                total = sum(t * v for t, v in zip(pz._target_nums, moments))
                if total >= 0:
                    continue
                g = math.gcd(*moments)
                value = Fraction(total, pz._target_den)
                outcome = _refuted(target, pz.monomials, [v // g for v in moments], (xi, yi, value))
                if outcome is not None:
                    outcome.diagnostics = f"the target is {value} < 0 at x = {xi}, y = {yi}"
                    return outcome
    return None


# -- end-to-end checks -------------------------------------------------------------


def check_sos(target, multiplier: Form | None = None) -> SearchOutcome:
    """Full SOS pipeline: parameterize, search, round, verify exactly.

    With a multiplier, which must be a sum of even monomial powers, the
    certificate attests multiplier * target SOS, so target is nonnegative.
    Without one, the target can also be refuted.
    """
    if multiplier is not None and not is_even_power_sum(multiplier):
        raise ValueError("multiplier must be a sum of even monomial powers, such as x1^2+x2^2")
    tf = _as_form(target)
    search_form = tf if multiplier is None else multiplier * tf
    z = sos_basis(search_form)
    gram = gram_index(tuple(z))
    # a target monomial that no z_r z_s reaches; over an empty basis, any one
    unreached = next((m for m in search_form.terms if m not in gram.ids), None)
    if unreached is not None:
        # the functional nonzero only there has a zero moment matrix, so it refutes
        sign = 1 if search_form.terms[unreached] < 0 else -1
        outcome = multiplier is None and _refuted(tf, [unreached], [sign])
        return outcome or SearchOutcome("Stalled", diagnostics=f"no z_r z_s reaches {unreached}")
    # a square z_r^2 that only the pair (r, r) reaches, with a negative
    # coefficient: Q[r, r] is that coefficient in every Gram matrix, so none is
    # PSD, and the functional that is 1 there has the moment matrix e_r e_r^T
    for r, row in enumerate(gram.rows):
        square = gram.monomials[row[r]]
        if gram.counts[row[r]] == 1 and search_form.terms.get(square, 0) < 0:
            outcome = multiplier is None and _refuted(tf, [square], [1])
            reason = f"only z_r^2 reaches {square}, and its coefficient is negative"
            return outcome or SearchOutcome("Stalled", diagnostics=reason)
    if not z:
        # the zero form is left, and it is z^T [0] z over one monomial of its degree
        mult = multiplier or unit_multiplier(tf.n_vars)
        cert = SosCertificate(_basis(search_form)[:1], SymRationalMatrix([[0]]), mult, as_frac(1))
        if verify_sos_certificate(tf, cert):
            return SearchOutcome("ExactCertificate", certificate=cert, residual=0.0)
    pz = parameterize(search_form, z)

    last_reason = ""
    best = None
    for index, report in enumerate(douglas_rachford(pz)):
        if best is None or report.residual < best.residual:
            best = report
        # a chunk that ends near the fiber or on a PSD shadow (a fiber point
        # by construction; a converged chunk is one) is rounded; every
        # acceptance is gated by the exact verifier, so rounding a rough
        # numeric point is sound
        if report.residual <= 1e-4 or report.min_eigenvalue >= -pz.tol:
            cert = rationalize_and_certify(report.fiber_point, pz, tf, multiplier)
            if cert:
                # the certified Gram matrix lies exactly on the fiber and is
                # exactly PSD, so its residual is zero, not the search point's
                return SearchOutcome("ExactCertificate", certificate=cert, residual=0.0)
            last_reason = cert.reason
        # a chunk that is not certified carries the DR gap, which may
        # separate the target from the SOS cone
        if multiplier is None:
            outcome = refutation_search(tf, pz, report.fiber_point)
            # a point where the target is negative refutes it at any chunk,
            # so the witness search runs once, after the gap of the first
            # chunk of evaluations, the report after the start one, fails
            if outcome is None and index == 1:
                outcome = witness_refutation(tf, pz)
            if outcome is not None:
                return outcome
    # every search yields at least one report, and a converged one is the last
    if report.converged:
        return SearchOutcome(
            "NumericFeasible",
            residual=report.residual,
            diagnostics=f"feasible numerically but rounding failed: {last_reason}",
        )
    diagnostics = (
        f"stalled with min eigenvalue {best.min_eigenvalue:.3e}, "
        f"fiber distance {best.fiber_distance:.3e}"
    )
    if last_reason:
        diagnostics += f"; last rounding failure: {last_reason}"
    return SearchOutcome("Stalled", residual=best.residual, diagnostics=diagnostics)


def check_sos_convexity(p: Form) -> SearchOutcome:
    """Decide sos-convexity of an even-degree form, certificates exact.

    ExactCertificate means y^T H_p(x) y is SOS, so p is convex; Refuted means
    the Hessian form is not SOS, so p is not sos-convex (it may still be
    convex); Stalled decides nothing.
    """
    if p.degree % 2 != 0:
        raise ValueError("sos-convexity requires even degree")
    outcome = check_sos(hessian_form(p))
    # the target is y^T H_p(x) y, so a witness point shows p is not convex
    if outcome.point is not None:
        x, y, value = outcome.point
        outcome.diagnostics = (
            f"y^T H(x) y = {value} < 0 at x = {x}, y = {y}, so the form is not convex"
        )
    return outcome
