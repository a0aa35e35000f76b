"""Command-line interface.

Exit codes: 0 = verified / true, 1 = verified false / refuted, 2 = unknown or
stalled, 3 = input or format error (an unreadable or unwritable file too).
Run as `sosconvex ...` or `python -m sosconvex.cli ...`.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .biquadratic import (
    BUILTIN_FILES,
    BiquadraticForm,
    corpus_text,
    dim_hessian,
    dim_nary,
    dim_symmetric,
    from_text,
    hessian_form,
)
from .certificates import certificate_to_text, verify_sos_certificate
from .dual import DualCertificate, verify_refutation
from .face import (
    DegenerateZeroSearch,
    FaceParams,
    face_query,
    find_additional_zero,
    gram_M,
)
from .forms import Form, FormatError, fmt_frac

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


_TERM_RE = re.compile(
    r"^\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*(?P<factors>(?:[xy]\d+(?:\^\d+)?\s*\*?\s*)*)$"
)
_FACTOR_RE = re.compile(r"([xy])(\d+)(?:\^(\d+))?")


def parse_poly_expression(expr: str, n_vars: int, block: int | None = None) -> Form:
    """Parse expressions like "x1^2+x2^2" into a Form over n_vars variables.

    With a block size, y<j> names map to variable block + j; otherwise only
    x<i> names are accepted.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    degree = None
    expr = expr.replace("-", "+-")
    for raw in expr.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        sign = Fraction(1)
        if raw.startswith("-"):
            sign = Fraction(-1)
            raw = raw[1:].strip()
        m = _TERM_RE.match(raw)
        if m is None:
            raise FormatError(f"cannot parse term {raw!r}")
        coef = sign * _parse_frac(m.group("coef") or "1")
        exps = [0] * n_vars
        for var, idx_s, pow_s in _FACTOR_RE.findall(m.group("factors") or ""):
            idx = int(idx_s)
            power = int(pow_s) if pow_s else 1
            if var == "y":
                if block is None:
                    raise FormatError("y-variables are only valid for biquadratic targets")
                idx += block
            if not 1 <= idx <= n_vars:
                raise FormatError(f"variable index out of range in term {raw!r}")
            exps[idx - 1] += power
        d = sum(exps)
        if degree is None:
            degree = d
        elif d != degree:
            raise FormatError("expression is not homogeneous")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coef
    if degree is None:
        raise FormatError("empty expression")
    terms = {k: v for k, v in terms.items() if v != 0}
    return Form(n_vars, degree, terms)


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}") from exc


# -- subcommands -----------------------------------------------------------------


def cmd_dims(args) -> int:
    print(f"{dim_nary(args.n)} {dim_symmetric(args.n)} {dim_hessian(args.n)}")
    return EXIT_TRUE


def _read_target(path: str) -> tuple[Form, int | None]:
    """The target of a form or biq file, and the block size of a biq file:
    the number of x variables, at which certificates split x from y."""
    target = from_text(_read(path), ("form", "biq"))
    if isinstance(target, BiquadraticForm):
        return target.to_form(), target.n
    return target, None


def cmd_verify(args) -> int:
    target, block = _read_target(args.target)
    witness = from_text(_read(args.certificate), ("dual", "certificate"))
    is_dual = isinstance(witness, DualCertificate)
    monomials = witness.monomials if is_dual else witness.z
    if (
        block is None
        and monomials
        and len(monomials[0]) == 2 * target.n_vars
        and target.degree % 2 == 0
    ):
        # an sos-convexity witness: it is about y^T H_p(x) y over 2n variables
        target = hessian_form(target)
    if is_dual:
        result = verify_refutation(witness, target)
        print(result.reason)
        return EXIT_FALSE if result.accepted else EXIT_UNKNOWN
    result = verify_sos_certificate(target, witness)
    print(result.reason)
    return EXIT_TRUE if result.accepted else EXIT_FALSE


def cmd_check(args) -> int:
    # the search is the only command that needs numpy, so only check loads it
    from .search import check_sos, check_sos_convexity

    target, block = _read_target(args.target)
    if args.sos_convex:
        if block is not None:
            print("error: --sos-convex needs a plain form", file=sys.stderr)
            return EXIT_ERROR
        outcome = check_sos_convexity(target)
        block = target.n_vars
    else:
        multiplier = None
        if args.nonneg_mult is not None:
            multiplier = parse_poly_expression(args.nonneg_mult, target.n_vars, block=block)
        outcome = check_sos(target, multiplier=multiplier)
    print(f"status: {outcome.status}")
    if outcome.residual is not None:
        print(f"residual: {outcome.residual:.3e}")
    if outcome.diagnostics:
        print(f"diagnostics: {outcome.diagnostics}")
    if outcome.status == "ExactCertificate":
        out_path = args.out or args.target + ".cert"
        _write(out_path, certificate_to_text(outcome.certificate, block=block))
        print(f"certificate: {out_path}")
        return EXIT_TRUE
    if outcome.status == "Refuted":
        print(f"refuted: not SOS, pairing = {outcome.refutation.pairing_value}")
        return EXIT_FALSE
    return EXIT_UNKNOWN


def cmd_face(args) -> int:
    a = _parse_frac(args.a)
    b = _parse_frac(args.b)
    alphas = [_parse_frac(v) for v in args.alphas]
    if a == 0 or b == 0:
        print("error: a and b must be nonzero for face queries", file=sys.stderr)
        return EXIT_ERROR
    fp = FaceParams(a, b)
    # every precondition is checked before the first line is printed
    if (args.bound or args.zero) and any(v <= 0 for v in alphas[:4]):
        print("error: the bound needs alpha1..alpha4 > 0", file=sys.stderr)
        return EXIT_ERROR
    query = face_query(alphas, fp)
    if args.zero:
        if alphas[4] != query.bound:
            print("error: --zero needs alpha5 at the lower bound", file=sys.stderr)
            return EXIT_ERROR
    print("alphas: " + " ".join(fmt_frac(v) for v in alphas))
    print(f"a: {fmt_frac(a)}")
    print(f"b: {fmt_frac(b)}")
    if args.bound or args.zero:
        print(f"bound: {fmt_frac(query.bound)}")
    print(f"membership: {'true' if query.member else 'false'}")
    if query.det_closed is not None:
        print(f"det_closed: {fmt_frac(query.det_closed)}")
    print(f"det_brute: {fmt_frac(gram_M(alphas, fp).det())}")
    if args.zero:
        try:
            pt = find_additional_zero(alphas, fp)
        except (DegenerateZeroSearch, RuntimeError) as exc:
            print(f"zero search failed: {exc}", file=sys.stderr)
            return EXIT_UNKNOWN
        print("zero_x: " + " ".join(f"{v:.12g}" for v in pt.x))
        print("zero_y: " + " ".join(f"{v:.12g}" for v in pt.y))
        print(f"residual: {pt.residual:.3e}")
    return EXIT_TRUE if query.member else EXIT_FALSE


def cmd_builtin(args) -> int:
    if args.name not in BUILTIN_FILES:
        known = ", ".join(sorted(BUILTIN_FILES))
        print(f"error: unknown builtin {args.name!r} (known: {known})", file=sys.stderr)
        return EXIT_ERROR
    _write(args.out, corpus_text(BUILTIN_FILES[args.name]))
    print(f"wrote {args.out}")
    return EXIT_TRUE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    and returns a fresh Namespace each call."""
    parser = argparse.ArgumentParser(
        prog="sosconvex",
        description="Exact SOS and sos-convexity certificates for polynomial forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension counts for n-ary biquadratic spaces")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="verify an SOS certificate or a dual refutation")
    p.add_argument("target")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="search for an SOS / sos-convexity certificate")
    p.add_argument("target")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sos", action="store_true")
    mode.add_argument("--sos-convex", action="store_true")
    mode.add_argument("--nonneg-mult", metavar="EXPR", help='e.g. "x1^2+x2^2"')
    p.add_argument("--out", help="certificate output path (default: TARGET.cert)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("face", help="T_{a,b} membership, bound, determinant, zero")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alphas", nargs=5, required=True, metavar="AI")
    p.add_argument("--bound", action="store_true")
    p.add_argument("--zero", action="store_true")
    p.set_defaults(func=cmd_face)
    # argparse takes only -N and -N.M for values, so an alpha such as -4/7
    # would read as an unknown option
    p._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    p = sub.add_parser("builtin", help="write a corpus object to a file")
    p.add_argument("name")
    p.add_argument("out")
    p.set_defaults(func=cmd_builtin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
