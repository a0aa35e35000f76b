"""Numeric SOS feasibility search with exact rational certification.

The Gram fiber of a target over a monomial basis z is {Q symmetric :
z^T Q z = target}. Every entry (r, s) of Q feeds exactly one monomial
z_r z_s, so the fiber is held in closed form: an index map from entries to
monomial ids, the number of ordered pairs reaching each monomial, and the
exact target coefficients. The constraint map then has A A^T diagonal, and
the Frobenius projection onto the fiber is a per-monomial mean correction
(Henrion-Malick): add to each entry its monomial's residual divided by its
pair count.

The pipeline runs Douglas-Rachford iterations between the PSD cone and the
fiber, then rounds the result to exact rationals in the manner of
Peyrl-Parrilo: round Q entrywise, once to the grid 1/D and once to
continued fractions with denominators at most D, for a ladder of bounds D,
and apply the same per-monomial correction in exact arithmetic, so every
candidate lies exactly on the fiber. A candidate is accepted only if the
fraction LDL^T check finds it PSD; when no rounding passes, facial
reduction restricts the fiber by the exact rows of Q v = 0 for the numeric
kernel of the point and rounds again.

The same run also answers "not SOS" for biquadratic targets. When the fiber
and the PSD cone do not meet, no chunk of DR iterations converges, and the
gap Y = P_psd(f) - f at the fiber point f a chunk ends on tends to a PSD
matrix, constant over the pairs reaching each monomial, that pairs
negatively with every Gram matrix of the target: the moments of a
separating functional (Banjac et al., the DR gap vector). After every chunk,
refutation_search rounds them to a primitive integer functional, and a
stalled search never claims "not SOS" unless verify_refutation accepts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .biquadratic import BiquadraticForm, canonical_ordering, hessian_biquadratic
from .certificates import (
    Monomial,
    SosCertificate,
    SymRationalMatrix,
    _as_form,
    ldlt_psd_check,
    unit_multiplier,
    verify_sos_certificate,
)
from .dual import DualCertificate, bilinear_basis, verify_refutation
from .forms import Form


@dataclass
class GramParameterization:
    """Closed-form Gram fiber {Q : sum of Q[r, s] over pairs reaching m = target[m]}.

    index[r, s] is the id of the monomial z_r z_s, counts[m] the number of
    ordered pairs (r, s) reaching monomial m, and target[m] its exact
    coefficient in the target.
    """

    z: list[Monomial]
    index: np.ndarray
    counts: np.ndarray
    target: list[Fraction]

    def __post_init__(self):
        self._b = np.array([float(c) for c in self.target])

    def project(self, x: np.ndarray) -> np.ndarray:
        """Frobenius projection of a symmetric matrix onto the fiber."""
        sums = np.bincount(self.index.ravel(), weights=x.ravel(), minlength=len(self.counts))
        return x + ((self._b - sums) / self.counts)[self.index]

    def snap(self, upper: Sequence[Fraction]) -> SymRationalMatrix:
        """Exact projection onto the fiber of the symmetric matrix whose upper
        triangle, row by row, is `upper`."""
        d = len(self.z)
        index = self.index.tolist()
        counts = self.counts.tolist()
        rows = [[Fraction(0)] * d for _ in range(d)]
        residual = list(self.target)
        values = iter(upper)
        for r in range(d):
            for s in range(r, d):
                v = rows[r][s] = next(values)
                residual[index[r][s]] -= v if r == s else 2 * v
        for r in range(d):
            for s in range(r, d):
                m = index[r][s]
                rows[r][s] = rows[s][r] = rows[r][s] + residual[m] / counts[m]
        return SymRationalMatrix(rows)


@dataclass
class SearchConfig:
    max_iterations: int = 10_000
    convergence_tol: float = 1e-8
    denominator_bound: int = 2**16
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if (
            self.max_iterations <= 0
            or self.convergence_tol <= 0
            or self.denominator_bound <= 0
            or self.restarts <= 0
        ):
            raise ValueError("all search configuration values must be positive")
        if not math.isfinite(self.convergence_tol):
            raise ValueError("convergence tolerance must be finite")


@dataclass
class StallReport:
    iterations: int
    min_eigenvalue: float
    fiber_distance: float
    fiber_point: np.ndarray | None = None
    stagnated: bool = False  # progress fell below 1% per window: geometry gap
    state: np.ndarray | None = None  # governing iterate, for warm continuation

    @property
    def residual(self) -> float:
        return max(-self.min_eigenvalue, 0.0, self.fiber_distance)


@dataclass
class RoundingFailure:
    reason: str
    failure_index: int | None = None
    pivot: Fraction | None = None

    def __bool__(self) -> bool:
        return False


@dataclass
class SearchOutcome:
    status: str  # ExactCertificate | NumericFeasible | Refuted | Stalled
    certificate: SosCertificate | None = None
    dual: DualCertificate | None = None
    residual: float | None = None
    diagnostics: str = ""

    def is_certified(self) -> bool:
        return self.status == "ExactCertificate"


def parameterize(target, z: Sequence[Monomial]) -> GramParameterization:
    """The closed-form Gram fiber of the target over the basis z."""
    tf = _as_form(target)
    z = [tuple(m) for m in z]
    if not z:
        raise ValueError("empty monomial basis")
    if any(len(m) != tf.n_vars for m in z):
        raise ValueError("basis and target variable counts disagree")
    ids: dict[Monomial, int] = {}
    index = np.empty((len(z), len(z)), dtype=np.intp)
    for r, zr in enumerate(z):
        for s in range(r, len(z)):
            mono = tuple(a + b for a, b in zip(zr, z[s]))
            index[r, s] = index[s, r] = ids.setdefault(mono, len(ids))
    for mono in tf.terms:
        if mono not in ids:
            raise ValueError(f"target monomial {mono} is not representable over the basis")
    target = [tf.terms.get(mono, Fraction(0)) for mono in ids]
    return GramParameterization(z, index, np.bincount(index.ravel()), target)


# -- numeric search --------------------------------------------------------------


def _float_matrix(m: SymRationalMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in m.rows])


def _project_psd(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((x + x.T) / 2.0)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


def _projection_run(pz: GramParameterization, x0: np.ndarray, max_iterations: int, tol: float):
    """One projection run from x0; (fiber matrix, info) or StallReport.

    Douglas-Rachford reflections between the PSD cone and the affine fiber;
    the monitored iterate is the shadow sequence P_fiber(P_psd(x)), which
    converges to a feasible point when one exists and whose residual
    stagnates at the gap when none does. y = P_psd(x) is PSD, so
    lambda_min(shadow) >= -d * fiber_dist: the shadow's spectrum is needed
    only once the fiber distance is within tol, and for a stalled run's report.
    """
    x = x0
    shadow = x0
    fiber_dist = math.inf
    it = 0
    best_progress = math.inf
    window_best = math.inf
    flat_windows = 0
    stagnated = False
    for it in range(max_iterations):
        y = _project_psd(x)
        shadow = pz.project(y)
        fiber_dist = float(np.abs(shadow - y).max())
        if fiber_dist <= tol:
            shadow_eig = float(np.linalg.eigvalsh((shadow + shadow.T) / 2.0)[0])
            if shadow_eig >= -tol:
                return shadow, {
                    "iterations": it + 1,
                    "min_eigenvalue": shadow_eig,
                    "fiber_distance": fiber_dist,
                }
        x = x + pz.project(2.0 * y - x) - y
        # the iteration is non-monotone and plateaus before snapping to the
        # answer, so stagnation needs both a running best and patience; the
        # fiber distance bounds -lambda_min(shadow), so it alone is progress
        best_progress = min(best_progress, fiber_dist)
        if (it + 1) % 200 == 0:
            if best_progress >= 0.99 * window_best:
                flat_windows += 1
                if flat_windows >= 5:
                    stagnated = True
                    break
            else:
                flat_windows = 0
            window_best = best_progress
    shadow_eig = float(np.linalg.eigvalsh((shadow + shadow.T) / 2.0)[0])
    return StallReport(
        it + 1, shadow_eig, fiber_dist, fiber_point=shadow, stagnated=stagnated, state=x
    )


def douglas_rachford(pz: GramParameterization, cfg: SearchConfig, attempt=None):
    """Restarted Douglas-Rachford search for a PSD point of the fiber.

    The first restart starts from project(0), the least-norm fiber point;
    later ones from projections of random symmetric matrices. Each restart
    runs in doubling chunks of iterations, each continuing from the last
    state, until it stagnates or the iteration budget is spent. Returns
    (matrix, info) from the first chunk that converges. Every chunk that
    stalls hands its StallReport to `attempt`, so an answer can come long
    before the restart stagnates; chunks double, so a restart makes about
    log2(max_iterations) attempts. A non-None answer ends the search and is
    returned. Otherwise returns the StallReport with the smallest residual.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = len(pz.z)
    best = None
    for restart in range(cfg.restarts):
        x = np.zeros((dim, dim)) if restart == 0 else rng.standard_normal((dim, dim))
        x = pz.project((x + x.T) / 2.0)
        used = 0
        chunk = 200
        while used < cfg.max_iterations:
            budget = min(chunk, cfg.max_iterations - used)
            result = _projection_run(pz, x, budget, cfg.convergence_tol)
            if not isinstance(result, StallReport):
                result[1]["restart"] = restart
                return result
            used += result.iterations
            x = result.state
            if best is None or result.residual < best.residual:
                best = result
            if attempt is not None:
                answer = attempt(result)
                if answer is not None:
                    return answer
            if result.stagnated:
                break
            chunk *= 2
    return best


# -- exact rounding --------------------------------------------------------------


def _roundings(values, cfg: SearchConfig) -> Iterator[tuple[Fraction, ...]]:
    """Distinct rational roundings of values, simplest denominators first.

    For each bound D the grid 1/D comes first, then continued fractions with
    denominators at most D: neither alone suffices, since the grid misses
    rational points with small odd denominators and continued fractions pick
    needlessly large denominators when the grid would do.
    """
    values = [float(v) for v in values]
    bounds = [2, 16, 256, 4096] + [cfg.denominator_bound * 2**k for k in range(6)]
    seen = set()
    for bound in bounds:
        for rounded in (
            tuple(Fraction(round(v * bound), bound) for v in values),
            tuple(Fraction(v).limit_denominator(bound) for v in values),
        ):
            if rounded not in seen:
                seen.add(rounded)
                yield rounded


def fiber_roundings(
    g: np.ndarray, pz: GramParameterization, cfg: SearchConfig
) -> Iterator[SymRationalMatrix]:
    """Exact fiber points near g: each rounding of g's entries, snapped to the fiber."""
    upper = ((g + g.T) / 2.0)[np.triu_indices(len(pz.z))]
    for rounded in _roundings(upper, cfg):
        yield pz.snap(rounded)


def _face_roundings(
    g: np.ndarray, pz: GramParameterization, cfg: SearchConfig, kernel_tol: float = 1e-6
) -> Iterator[SymRationalMatrix]:
    """Exact fiber points near g that also annihilate g's numeric kernel.

    The entries of all but the first pair reaching each monomial are free
    coordinates of the fiber; the target then fixes the first pair. The
    near-kernel eigenvectors of g are row-reduced numerically and rounded
    entrywise over a ladder of denominator bounds, and the rows of Q v = 0
    are solved exactly in the free coordinates. Inconsistent guesses are
    dropped; each distinct face is rounded in its own coordinates.
    """
    vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
    null_cols = [i for i, v in enumerate(vals) if abs(v) <= kernel_tol]
    if not null_cols:
        return
    # numeric RREF with pivot normalization, then entrywise rationalization
    mat = vecs[:, null_cols].T.copy()
    rank = 0
    for c in range(mat.shape[1]):
        piv = np.argmax(np.abs(mat[rank:, c])) + rank
        if abs(mat[piv, c]) < 1e-8:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        mat[rank] = mat[rank] / mat[rank, c]
        for i in range(mat.shape[0]):
            if i != rank:
                mat[i] = mat[i] - mat[i, c] * mat[rank]
        rank += 1
        if rank == mat.shape[0]:
            break
    dim = len(pz.z)
    index = pz.index.tolist()
    lead: dict[int, tuple[int, int]] = {}
    free: list[tuple[int, int]] = []
    for r in range(dim):
        for s in range(r, dim):
            if index[r][s] in lead:
                free.append((r, s))
            else:
                lead[index[r][s]] = (r, s)

    def complete(x: Sequence[Fraction]) -> SymRationalMatrix:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        residual = list(pz.target)
        for (r, s), v in zip(free, x):
            rows[r][s] = rows[s][r] = v
            residual[index[r][s]] -= v if r == s else 2 * v
        for m, (r, s) in lead.items():
            rows[r][s] = rows[s][r] = residual[m] / (1 if r == s else 2)
        return SymRationalMatrix(rows)

    base = complete([Fraction(0)] * len(free))
    free_values = np.array([g[r, s] for r, s in free])
    seen = set()
    for den_bound in (12, 100, 10**4, 10**6):
        rows_a: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for i in range(rank):
            v = [Fraction(float(c)).limit_denominator(den_bound) for c in mat[i]]
            # Q(x) v = base v + sum_f x_f E_f v, where E_f is the unit at the
            # free pair f minus its weight share at the monomial's first pair
            block = [[Fraction(0)] * len(free) for _ in range(dim)]
            for col, (r, s) in enumerate(free):
                a, b = lead[index[r][s]]
                share = Fraction(1 if r == s else 2, 1 if a == b else 2)
                for (p, q), w in (((r, s), 1), ((a, b), -share)):
                    block[p][col] += w * v[q]
                    if p != q:
                        block[q][col] += w * v[p]
            rows_a += block
            rhs += [-c for c in base.mat_vec(v)]
        particular, null = linalg.solve_affine(rows_a, rhs)
        if particular is None or (tuple(particular), len(null)) in seen:
            continue
        seen.add((tuple(particular), len(null)))
        t = np.zeros(0)
        if null:
            null_mat = np.array([[float(c) for c in vec] for vec in null]).T
            shift = free_values - np.array([float(c) for c in particular])
            t, *_ = np.linalg.lstsq(null_mat, shift, rcond=None)
        for t_exact in _roundings(t, cfg):
            x = list(particular)
            for ti, vec in zip(t_exact, null):
                if ti != 0:
                    x = [xi + ti * ci for xi, ci in zip(x, vec)]
            yield complete(x)


def rationalize_and_certify(
    g: np.ndarray,
    pz: GramParameterization,
    cfg: SearchConfig,
    multiplier: Form | None = None,
    scale: Fraction = Fraction(1),
):
    """Round a numeric fiber point to an exact PSD Gram matrix.

    Tries the exact fiber roundings of g in order; if none is PSD, facial
    reduction restricts the fiber to g's numeric kernel and rounds again.
    Returns a SosCertificate or a RoundingFailure.
    """
    if multiplier is None:
        multiplier = unit_multiplier(len(pz.z[0]))
    last_report = None
    for candidates in (fiber_roundings(g, pz, cfg), _face_roundings(g, pz, cfg)):
        for q in candidates:
            last_report = ldlt_psd_check(q)
            if last_report.is_psd():
                return SosCertificate(list(pz.z), q, multiplier, scale)
    return RoundingFailure(
        "no rounded fiber point passed the PSD check",
        failure_index=last_report.failure_index if last_report else None,
        pivot=last_report.pivots[-1] if last_report and last_report.pivots else None,
    )


# -- dual search -----------------------------------------------------------------


def refutation_search(
    target: BiquadraticForm, pz: GramParameterization, f: np.ndarray
) -> DualCertificate | None:
    """An exactly verified dual refutation from the DR gap at a fiber point f.

    When the fiber and the PSD cone do not meet, Y = P_psd(f) - f tends to
    the DR gap vector (Banjac et al. 2019): Y is PSD, constant over the pairs
    reaching each monomial, and <Y, Q> = -||Y||^2 < 0 for every Gram matrix
    Q of the target, so its monomial means are the moments of a separating
    functional. Shifts on the moments of the z_r^2, within the margin that
    keeps the pairing negative, buy strict positivity; each shift is
    screened by one float eigvalsh before any exact work. The square of a
    bilinear outside the pruned basis gets a value large enough to keep the
    full moment matrix PSD (the target has no coefficient there), and every
    other unreached monomial gets 0. The moments are rounded to the
    primitive integer vectors round(D m) / gcd, and a candidate is returned
    only if verify_refutation accepts it; otherwise None.
    """
    n = target.n
    ordering = canonical_ordering(n)
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
    # the ordering slot of each fiber monomial, read off its first pair
    _, first = np.unique(pz.index, return_index=True)
    slots = []
    for r, s in zip(*np.unravel_index(first, pz.index.shape)):
        mono = [a + b for a, b in zip(pz.z[r], pz.z[s])]
        xs = [i + 1 for i, e in enumerate(mono[:n]) for _ in range(e)]
        ys = [i + 1 for i, e in enumerate(mono[n:]) for _ in range(e)]
        if len(xs) != 2 or len(ys) != 2:
            return None
        slots.append(ordering.index(*xs, *ys))
    basis = bilinear_basis(n)
    full = np.array([[ordering.index(i, k, j, l) for k, l in basis] for i, j in basis])
    reached = np.zeros(len(ordering), dtype=bool)
    reached[slots] = True
    free = ~reached[np.diag(full)]
    squares = np.unique(np.diag(pz.index))
    seen = set()
    # a shift s on the squares raises the pairing by s times their target
    # coefficients; shifts within half that margin keep the pairing negative
    room = -pairing / max(float(pz._b[squares].sum()), -pairing)
    for shift in (0.0, room / 4, room / 2):
        m = moments.copy()
        m[squares] += shift
        if np.linalg.eigvalsh(m[pz.index])[0] <= 0:
            continue
        c = np.zeros(len(ordering))
        c[slots] = m
        if free.any():
            # the Schur complement of the reached block bounds the free squares
            mat = c[full]
            kept, cross = mat[np.ix_(~free, ~free)], mat[np.ix_(~free, free)]
            need = cross.T @ np.linalg.solve(kept, cross) - mat[np.ix_(free, free)]
            c[np.diag(full)[free]] = 2.0 * max(float(np.linalg.eigvalsh(need)[-1]), 0.0) + 1.0
        values = c.tolist()
        for den in (4**k for k in range(1, 9)):
            ints = [round(den * v) for v in values]
            g = math.gcd(*ints)
            key = tuple(v // g for v in ints) if g else None
            if key is None or key in seen:
                continue
            seen.add(key)
            cand = DualCertificate(ordering, list(key))
            if verify_refutation(cand, target):
                return cand
    return None


# -- end-to-end checks -------------------------------------------------------------


def _prune_basis(z: list[Monomial], tf: Form) -> list[Monomial]:
    """Drop z monomials whose squared monomial cannot appear in any Gram.

    If the target coefficient of 2m is zero and no cross product z_r z_s
    (r != s) reaches 2m, then Q[m,m] = 0 in every Gram and PSD forces the
    whole row to vanish; iterate to a fixed point.
    """
    z = list(z)
    changed = True
    while changed:
        changed = False
        for m in list(z):
            sq = tuple(2 * e for e in m)
            if tf.terms.get(sq, Fraction(0)) != 0:
                continue
            reachable = any(
                tuple(a + b for a, b in zip(z[r], z[s])) == sq
                for r in range(len(z))
                for s in range(r + 1, len(z))
            )
            if not reachable:
                z.remove(m)
                changed = True
    return z


def sos_basis_for(tf: Form) -> list[Monomial]:
    """All half-degree monomials of a form of even degree, before pruning."""
    if tf.degree % 2 != 0:
        raise ValueError("only even-degree forms can be sums of squares")
    from .biquadratic import _monomials

    return _monomials(tf.n_vars, tf.degree // 2)


def bidegree_basis(n: int, dx: int, dy: int) -> list[Monomial]:
    """Monomials of x-degree dx and y-degree dy over 2n split variables."""
    from .biquadratic import _monomials

    return [
        xm + ym for xm in _monomials(n, dx) for ym in _monomials(n, dy)
    ]


def _biquadratic_basis(n: int, search_form: Form) -> list[Monomial]:
    """Half-bidegree monomial basis for a biquadratic (times multiplier) target."""
    dx = dy = None
    for mono in search_form.terms:
        mx, my = sum(mono[:n]), sum(mono[n:])
        if dx is None:
            dx, dy = mx, my
        elif (mx, my) != (dx, dy):
            return sos_basis_for(search_form)
    if dx is None or dx % 2 or dy % 2:
        return sos_basis_for(search_form)
    return bidegree_basis(n, dx // 2, dy // 2)


def check_sos(
    target,
    cfg: SearchConfig | None = None,
    multiplier: Form | None = None,
    z: Sequence[Monomial] | None = None,
) -> SearchOutcome:
    """Full SOS pipeline: parameterize, search, round, verify exactly.

    With a multiplier the certificate attests multiplier * target SOS, which
    proves target nonnegative when the multiplier is a sum of even powers.
    """
    cfg = cfg or SearchConfig()
    tf = _as_form(target)
    search_form = tf if multiplier is None else multiplier * tf
    if z is None:
        if isinstance(target, BiquadraticForm):
            z = _biquadratic_basis(target.n, search_form)
        else:
            z = sos_basis_for(search_form)
    z = _prune_basis([tuple(m) for m in z], search_form)
    if not z:
        return SearchOutcome("Stalled", diagnostics="empty basis after pruning")
    try:
        pz = parameterize(search_form, z)
    except ValueError as exc:
        return SearchOutcome("Stalled", diagnostics=f"parameterization failed: {exc}")

    last_reason = ""

    def certify(g_num):
        # every acceptance is gated by the exact verifier, so rounding a
        # rough numeric point is sound
        nonlocal last_reason
        cert = rationalize_and_certify(g_num, pz, cfg, multiplier=multiplier)
        if isinstance(cert, RoundingFailure):
            last_reason = cert.reason
            return None
        check = verify_sos_certificate(tf, cert)
        if not check:
            last_reason = check.reason
            return None
        # the certified Gram matrix lies exactly on the fiber and is exactly
        # PSD; report its own numeric residual, not the rougher search point's
        eigs = np.linalg.eigvalsh(_float_matrix(cert.q))
        residual = max(0.0, -float(eigs[0]))
        return SearchOutcome("ExactCertificate", certificate=cert, residual=residual)

    refutable = isinstance(target, BiquadraticForm) and multiplier is None

    def attempt(report: StallReport):
        # a stall near the fiber is rounded; a chunk that ends far from it
        # carries the DR gap, which may separate the target from the SOS cone
        if report.residual <= 1e-4:
            return certify(report.fiber_point)
        if refutable:
            dual = refutation_search(target, pz, report.fiber_point)
            if dual is not None:
                return SearchOutcome("Refuted", dual=dual)
        return None

    result = douglas_rachford(pz, cfg, attempt)
    if isinstance(result, SearchOutcome):
        return result
    if not isinstance(result, StallReport):
        g, info = result
        outcome = certify(g)
        if outcome is not None:
            return outcome
        residual = max(-info["min_eigenvalue"], 0.0, info["fiber_distance"])
        return SearchOutcome(
            "NumericFeasible",
            residual=residual,
            diagnostics=f"feasible numerically but rounding failed: {last_reason}",
        )
    diagnostics = (
        f"stalled with min eigenvalue {result.min_eigenvalue:.3e}, "
        f"fiber distance {result.fiber_distance:.3e}"
    )
    if last_reason:
        diagnostics += f"; last rounding failure: {last_reason}"
    return SearchOutcome("Stalled", residual=result.residual, diagnostics=diagnostics)


def check_sos_convexity(p: Form, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide sos-convexity of an even-degree form, certificates exact.

    ExactCertificate means y^T H_p(x) y is SOS, so p is convex; Refuted means
    the Hessian form is not SOS, so p is not sos-convex (it may still be
    convex); Stalled decides nothing.
    """
    cfg = cfg or SearchConfig()
    if p.degree % 2 != 0:
        raise ValueError("sos-convexity requires even degree")
    if p.degree == 4:
        h = hessian_biquadratic(p)
        return check_sos(h, cfg)
    from .biquadratic import hessian_form

    hf = hessian_form(p)
    z = bidegree_basis(p.n_vars, (p.degree - 2) // 2, 1)
    return check_sos(hf, cfg, z=z)
