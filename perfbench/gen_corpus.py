"""Write the benchmark corpus: plain input files plus a manifest.

Usage (from the repository root):

    python3 perfbench/gen_corpus.py --seed 1 --out perfbench/corpus

Every input is written in the package's own text formats (`form`, `biq`,
`Z:/Q:` certificates, `ORDER:/C:` duals). The manifest records, for each
instance, its family, its known answer and why it is in the corpus. Known
answers come only from construction, never from the search under test:

- a sum of even powers of linear forms is sos-convex: the Hessian form of
  (l.x)^(2k) is 2k(2k-1) * ((l.x)^(k-1) (l.y))^2, a square;
- a face form sum(alpha_i q_i) of T_{a,b} with alpha5 inside or at the exact
  alpha5 bound has a PSD Gram matrix M over s1..s5; below the bound it lies
  outside T_{a,b}, so it is not convex and hence not sos-convex;
- b_thm22 is refuted by the shipped dual c_dual, and (x1^2+x2^2) * b_thm22 is
  certified by the shipped q22_cert;
- Choi's biquadratic form is not SOS.

The committed corpus is the output for the default seed, so no instance
depends on a random stream at benchmark time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sosconvex.biquadratic import biquadratic_from_text, corpus_text  # noqa: E402
from sosconvex.certificates import (  # noqa: E402
    SosCertificate,
    SymRationalMatrix,
    certificate_to_text,
    unit_multiplier,
)
from sosconvex.dual import dual_from_text, verify_refutation  # noqa: E402
from sosconvex.face import FaceParams, alpha5_lower_bound, face_form, membership_T  # noqa: E402
from sosconvex.forms import Form, fmt_frac, form_to_text  # noqa: E402

DEFAULT_SEED = 1
FACE_PARAMS = ((1, 1), (2, 3))
BELOW = Fraction(101, 100)  # alpha5 = 1.01 * bound lies just outside the face


def _linear_forms(rng: random.Random, n: int, count: int) -> list[list[int]]:
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        if sum(1 for c in coeffs if c) >= 2:
            out.append(coeffs)
    return out


def _power_sum(forms: list[list[int]], degree: int) -> Form:
    n = len(forms[0])
    acc = Form.zero(n, degree)
    for coeffs in forms:
        acc = acc + Form.linear(coeffs) ** degree
    return acc


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in _monomials(n - 1, d - e)]


def power_sum_certificate(forms: list[list[int]], degree: int) -> SosCertificate:
    """Closed-form sos-convexity certificate for sum_i (l_i.x)^degree.

    Over the basis x^alpha y_k with |alpha| = k - 1 (degree = 2k), the Hessian
    form of (l.x)^(2k) is 2k(2k-1) (w.z)^2 with w_(alpha,k) = multinomial(alpha)
    * l^alpha * l_k, so Q = 2k(2k-1) * sum_i w_i w_i^T.
    """
    n = len(forms[0])
    half = degree // 2
    xs = _monomials(n, half - 1)
    z = [alpha + tuple(1 if j == k else 0 for j in range(n)) for alpha in xs for k in range(n)]
    dim = len(z)
    q = [[Fraction(0)] * dim for _ in range(dim)]
    for coeffs in forms:
        w = []
        for alpha in xs:
            multinomial = math.factorial(half - 1)
            power = 1
            for e, c in zip(alpha, coeffs):
                multinomial //= math.factorial(e)
                power *= c**e
            w.extend(multinomial * power * coeffs[k] for k in range(n))
        for r in range(dim):
            for s in range(dim):
                q[r][s] += w[r] * w[s]
    factor = degree * (degree - 1)
    q = [[factor * v for v in row] for row in q]
    return SosCertificate(z, SymRationalMatrix(q), unit_multiplier(2 * n), Fraction(1))


def _tampered(cert: SosCertificate) -> SosCertificate:
    rows = [list(r) for r in cert.q.rows]
    rows[0][0] += 1  # one diagonal entry: coefficient matching must fail
    return SosCertificate(cert.z, SymRationalMatrix(rows), cert.multiplier, cert.scale)


def _face_alphas(rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)]


def _decimal(q: Fraction) -> str:
    """Exact decimal text of a rational whose denominator divides a power of 10."""
    digits = 0
    while (q * 10**digits).denominator != 1:
        digits += 1
        if digits > 40:
            raise ValueError(f"{q} has no terminating decimal expansion")
    text = str(abs(q.numerator) * 10 ** digits // q.denominator).rjust(digits + 1, "0")
    body = text if digits == 0 else text[:-digits] + "." + text[-digits:]
    return ("-" if q < 0 else "") + body


def _decimal_grid_alphas(rng: random.Random, fp: FaceParams) -> list[Fraction]:
    # The face CLI reads "-4/7" as an option flag, while "-0.75" and "-2" parse
    # as numbers, so grid points use alpha1..alpha4 whose bound is a
    # terminating decimal.
    for _ in range(100_000):
        alphas = _face_alphas(rng)
        try:
            _decimal(alpha5_lower_bound(alphas, fp))
        except ValueError:
            continue
        return alphas
    raise RuntimeError("no face grid point with a terminating decimal bound")


def generate(seed: int, out: str) -> dict:
    rng = random.Random(seed)

    def write(rel: str, text: str) -> str:
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return rel

    certify: list[dict] = []
    refute: list[dict] = []
    verify: list[dict] = []

    def search_entry(workload, ident, family, mode, target, expect, why, multiplier=None):
        entry = {"id": ident, "family": family, "mode": mode, "target": target,
                 "expect": expect, "why": why}
        if multiplier is not None:
            entry["multiplier"] = multiplier
        workload.append(entry)

    def verify_entry(ident, family, argv, files, expect_exit, why):
        verify.append({"id": ident, "family": family, "argv": argv, "files": files,
                       "expect_exit": expect_exit, "why": why})

    # sums of even powers: sos-convex by construction, certificates in closed form
    power_sums = [(n, 4, n + 2) for n in (3, 4, 5, 6)] + [(2, 6, 4)]
    why_power = {
        (3, 4): "ternary quartic power sum; stalled in the baseline, so a stall fix moves decided_frac",
        (4, 4): "16-monomial basis; small fiber, fast certificate",
        (5, 4): "25-monomial basis; fiber construction and rounding dominate",
        (6, 4): "36-monomial basis; fiber construction and rounding dominate the pass",
        (2, 6): "sextic power sum over the bidegree (2,1) basis via hessian_form",
    }
    for n, degree, count in power_sums:
        forms = _linear_forms(rng, n, count)
        p = _power_sum(forms, degree)
        name = f"pow{degree}_n{n}"
        target = write(f"certify/{name}.form", form_to_text(p))
        search_entry(certify, name, f"power_sum_deg{degree}", "sos-convex", target, "sos",
                     why_power[(n, degree)])
        cert = power_sum_certificate(forms, degree)
        vt = write(f"verify/{name}.form", form_to_text(p))
        good = write(f"verify/{name}.cert", certificate_to_text(cert, block=n))
        bad = write(f"verify/{name}_tampered.cert", certificate_to_text(_tampered(cert), block=n))
        verify_entry(f"verify_{name}", f"power_sum_deg{degree}", ["verify", vt, good], [vt, good],
                     0, "closed-form Gram 2k(2k-1) sum w w^T must be accepted")
        verify_entry(f"verify_{name}_tampered", f"power_sum_deg{degree}", ["verify", vt, bad],
                     [vt, bad], 1, "one Q entry changed: coefficient matching must reject it")

    # the paper's shipped objects
    b_text = corpus_text("b_thm22.biq")
    b = biquadratic_from_text(b_text)
    c_text = corpus_text("c_dual.dcert")
    if not verify_refutation(dual_from_text(c_text), b):
        raise RuntimeError("c_dual does not refute b_thm22")
    mult = Form(6, 2, {(2, 0, 0, 0, 0, 0): Fraction(1), (0, 2, 0, 0, 0, 0): Fraction(1)})
    bt = write("certify/b_thm22.biq", b_text)
    mt = write("certify/mult_x1sq_x2sq.form", form_to_text(mult))
    search_entry(certify, "b_thm22_mult", "b_thm22", "nonneg-mult", bt, "sos",
                 "(x1^2+x2^2)*b_thm22 is certified by the shipped q22_cert; 15-monomial basis",
                 multiplier=mt)
    rb = write("refute/b_thm22.biq", b_text)
    search_entry(refute, "b_thm22_sos", "b_thm22", "sos", rb, "not_sos",
                 "refuted by the shipped c_dual; DR runs to stagnation, then the dual search")
    rc = write("refute/choi_biquadratic.biq", corpus_text("choi_biquadratic.biq"))
    search_entry(refute, "choi_sos", "choi", "sos", rc, "not_sos",
                 "Choi's form is PSD but not SOS; stalled in the baseline, so a dual search fix moves it")
    vb = write("verify/b_thm22.biq", b_text)
    vq = write("verify/q22_cert.cert", corpus_text("q22_cert.cert"))
    vc = write("verify/c_dual.dcert", c_text)
    verify_entry("verify_q22_cert", "b_thm22", ["verify", vb, vq], [vb, vq], 0,
                 "shipped 15x15 Gram certificate of (x1^2+x2^2)*b_thm22")
    verify_entry("verify_c_dual", "b_thm22", ["verify", vb, vc], [vb, vc], 1,
                 "shipped dual functional: an accepted refutation exits 1")

    # face forms of T_{a,b}: inside and at the bound are in the face, below is not
    for a, bb in FACE_PARAMS:
        fp = FaceParams(a, bb)
        tag = f"T{a}{bb}"
        alphas = _face_alphas(rng)
        bound = alpha5_lower_bound(alphas, fp)
        for label, a5, workload, expect, why in (
            ("half", bound / 2, certify, "sos", "alpha5 = bound/2: M is positive definite"),
            ("at", bound, certify, "sos",
             "alpha5 = bound: singular Gram, so rounding needs facial reduction"),
            ("below", bound * BELOW, refute, "not_sos",
             "alpha5 = 1.01*bound lies outside T_{a,b}; must never certify"),
        ):
            if membership_T(alphas + [a5], fp) != (expect == "sos"):
                raise RuntimeError(f"face construction disagrees with membership at {tag} {label}")
            ident = f"face_{tag}_{label}"
            target = write(f"{'certify' if expect == 'sos' else 'refute'}/{ident}.form",
                           form_to_text(face_form(alphas + [a5], fp)))
            search_entry(workload, ident, f"face_{tag}", "sos-convex", target, expect, why)
        # CLI grid for verify: two alpha tuples, inside / at / below the bound
        for g in range(2):
            grid_alphas = _decimal_grid_alphas(rng, fp)
            bound = alpha5_lower_bound(grid_alphas, fp)
            args = ["face", "--a", str(a), "--b", str(bb), "--alphas"]
            a14 = [fmt_frac(v) for v in grid_alphas]
            for label, a5, flags, code in (
                ("inside", bound / 2, [], 0),
                ("inside_bound", bound / 2, ["--bound"], 0),
                ("at_zero", bound, ["--bound", "--zero"], 0),
                ("below", bound * BELOW, ["--bound"], 1),
            ):
                verify_entry(f"face_{tag}_g{g}_{label}", f"face_{tag}",
                             args + a14 + [_decimal(a5)] + flags, [], code,
                             "exact face query; membership is known from the alpha5 bound")

    manifest = {
        "seed": seed,
        "generator": "perfbench/gen_corpus.py",
        "workloads": {"certify": certify, "refute": refute, "verify": verify},
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                      "corpus"))
    args = parser.parse_args()
    manifest = generate(args.seed, args.out)
    counts = {k: len(v) for k, v in manifest["workloads"].items()}
    print(f"wrote {args.out}: {counts}")


if __name__ == "__main__":
    main()
