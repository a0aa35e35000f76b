"""Benchmark worker: runs one workload in this process and prints its metrics.

`run.py` starts this file in a fresh interpreter with the BLAS thread cap set,
so the peak RSS and the set-up time belong to the workload alone:

    python3 perfbench/harness.py --workload certify --seed 1 --seconds 28 --trace 0
    python3 perfbench/harness.py --workload certify --setup-only

The loop is closed: one client, the next instance starts after the previous
verdict. Every pass runs the workload's whole corpus in an order shuffled from
`--seed`; passes repeat until `--seconds` have elapsed and the workload's
least number of passes is done. Between attempts a fixed `speed_probe` times
the host, and the time metrics are rescaled to a reference speed. Returned
witnesses are checked again after the timed region (see `gate`). The last
stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from sosconvex import cli, search  # noqa: E402
from sosconvex.biquadratic import (  # noqa: E402
    BiquadraticForm,
    biquadratic_from_text,
    hessian_biquadratic,
    hessian_form,
)
from sosconvex.certificates import (  # noqa: E402
    certificate_from_text,
    ldlt_psd_check,
    verify_sos_certificate,
)
from sosconvex.dual import dual_from_text, verify_refutation  # noqa: E402
from sosconvex.forms import Form, form_from_text  # noqa: E402

CORPUS = os.path.join(HERE, "corpus")
DECIDED_STATUSES = ("ExactCertificate", "Refuted")
SYMPY_MAX_DIM = 16  # the oracle expands z^T Q z only on small bases
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
# One fixed percentile per workload, so that a run with one pass more reports
# the same percentile: certify p65 keeps 10.5 of 30 samples beyond it at its
# least of 3 passes, verify p99 keeps 10 beyond it from 36 passes on, and
# refute's 4-instance passes are too few for any percentile above the median.
TAIL_PERCENTILE = {"certify": 65.0, "refute": 50.0, "verify": 99.0}
# The host's speed drifts by 20% and more within a minute, which no run length
# averages out, so time metrics are rescaled to a reference speed: each run
# times a fixed probe between attempts, made of the kind of arithmetic the
# workload spends its time on, and wall times are multiplied by the probe's
# reference time over the run's median probe time.
PROBE_KERNELS = {"certify": ("exact", "float"), "refute": ("float",), "verify": ("exact",)}
REFERENCE_S = {"exact": 0.025, "float": 0.010}  # kernel medians on a 2-vCPU Xeon guest
PROBE_EVERY_S = 0.25
PROBE_BATCH_MAX = 8


@dataclass
class Instance:
    ident: str
    entry: dict
    target: object = None  # Form or BiquadraticForm for the search workloads
    multiplier: Form | None = None
    argv: list[str] = field(default_factory=list)


@dataclass
class Attempt:
    instance: Instance
    seconds: float
    verdict: str  # search status, or "exit=<code>" for CLI calls
    decided: bool
    failed: bool
    witness: object = None  # SosCertificate or DualCertificate


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_target(rel: str):
    text = _read(os.path.join(CORPUS, rel))
    return biquadratic_from_text(text) if rel.endswith(".biq") else form_from_text(text)


def load_workload(name: str) -> list[Instance]:
    """Parse the workload's corpus files; this is the set-up the user pays once."""
    manifest = json.loads(_read(os.path.join(CORPUS, "manifest.json")))
    instances = []
    for entry in manifest["workloads"][name]:
        inst = Instance(entry["id"], entry)
        if "argv" in entry:
            files = set(entry["files"])
            inst.argv = [os.path.join(CORPUS, a) if a in files else a for a in entry["argv"]]
        else:
            inst.target = _load_target(entry["target"])
            if "multiplier" in entry:
                inst.multiplier = _load_target(entry["multiplier"])
        instances.append(inst)
    return instances


# -- one attempt ---------------------------------------------------------------


def _search(inst: Instance):
    # module attributes are looked up per call, so the traced run sees them
    mode = inst.entry["mode"]
    if mode == "sos-convex":
        return search.check_sos_convexity(inst.target)
    if mode == "nonneg-mult":
        return search.check_sos(inst.target, multiplier=inst.multiplier)
    return search.check_sos(inst.target)


def _cli(inst: Instance) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(inst.argv)


def attempt(inst: Instance) -> Attempt:
    t0 = time.perf_counter()
    try:
        result = _cli(inst) if inst.argv else _search(inst)
    except Exception:  # one failed instance must not end the run
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Attempt(inst, seconds, "raised", False, True)
    seconds = time.perf_counter() - t0
    if inst.argv:
        decided = result in (cli.EXIT_TRUE, cli.EXIT_FALSE)
        failed = result == cli.EXIT_ERROR or (decided and result != inst.entry["expect_exit"])
        return Attempt(inst, seconds, f"exit={result}", decided, failed)
    status = result.status
    wrong = {"sos": "Refuted", "not_sos": "ExactCertificate"}[inst.entry["expect"]]
    witness = result.certificate if status == "ExactCertificate" else result.dual
    return Attempt(inst, seconds, status, status in DECIDED_STATUSES, status == wrong, witness)


# -- correctness gate, outside the timed region -------------------------------


def _search_target(inst: Instance):
    """What a returned witness attests: the Hessian form for sos-convexity."""
    if inst.entry["mode"] == "sos-convex":
        p = inst.target
        return hessian_biquadratic(p) if p.degree == 4 else hessian_form(p)
    return inst.target


class SympyOracle:
    """Independent expansion of scale * z^T Q z against multiplier * target."""

    def __init__(self):
        import sympy

        self.sp = sympy
        self._seen: dict[tuple, bool] = {}

    def _poly(self, form: Form, gens):
        sp = self.sp
        terms = {e: sp.Rational(c.numerator, c.denominator) for e, c in form.terms.items()}
        return sp.Poly.from_dict(terms or {(0,) * len(gens): 0}, gens, domain="QQ")

    def _target(self, inst: Instance, gens):
        target = inst.target
        if isinstance(target, BiquadraticForm):
            return self._poly(target.to_form(), gens)
        if inst.entry.get("mode") == "sos-convex" or "argv" in inst.entry:
            n = target.n_vars
            xs, ys = gens[:n], gens[n:]
            p = self._poly(Form(2 * n, target.degree,
                                {e + (0,) * n: c for e, c in target.terms.items()}), gens)
            return sum((p.diff(xs[i]).diff(xs[j]) * self.sp.Poly(ys[i] * ys[j], gens)
                        for i in range(n) for j in range(n)), self.sp.Poly(0, gens))
        return self._poly(target, gens)

    def matches(self, inst: Instance, cert) -> bool | None:
        """True/False on small bases, None when the basis is too large to expand."""
        if cert.q.dim > SYMPY_MAX_DIM:
            return None
        key = (inst.ident, tuple(cert.z), tuple(map(tuple, cert.q.rows)), cert.scale)
        if key not in self._seen:
            sp = self.sp
            gens = sp.symbols(f"v1:{len(cert.z[0]) + 1}")
            zs = [sp.Poly(sp.Mul(*[g**e for g, e in zip(gens, m)]), gens) for m in cert.z]
            rhs = sp.Poly(0, gens)
            for r in range(cert.q.dim):
                for s in range(cert.q.dim):
                    v = cert.q.rows[r][s]
                    if v:
                        rhs += zs[r] * zs[s] * sp.Rational(v.numerator, v.denominator)
            rhs *= sp.Rational(cert.scale.numerator, cert.scale.denominator)
            lhs = self._poly(cert.multiplier, gens) * self._target(inst, gens)
            self._seen[key] = (lhs - rhs).is_zero
        return self._seen[key]


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def witness_den_bits(witness) -> int:
    if hasattr(witness, "q"):
        return max(_den_bits(v for row in witness.q.rows for v in row),
                   witness.scale.denominator.bit_length())
    return _den_bits(witness.c)


def gate(attempts: list[Attempt], instances: list[Instance]) -> tuple[int, int, list[str]]:
    """Re-check every returned witness; returns (newly failed, largest denominator bits, notes)."""
    oracle = SympyOracle()
    failed, bits, notes = 0, 0, []
    for a in attempts:
        w = a.witness
        if w is None or a.failed:
            continue
        bits = max(bits, witness_den_bits(w))
        if hasattr(w, "q"):
            target = _search_target(a.instance)
            ok = bool(verify_sos_certificate(target, w)) and ldlt_psd_check(w.q).is_psd()
            wanted = a.instance.multiplier
            ok = ok and (wanted is None or w.multiplier == wanted)
            ok = ok and oracle.matches(a.instance, w) is not False
        else:
            target = _search_target(a.instance)
            if isinstance(target, Form):
                target = BiquadraticForm.from_form(target, w.ordering.n)
            ok = bool(verify_refutation(w, target))
        if not ok:
            a.failed = True
            failed += 1
            notes.append(f"witness for {a.instance.ident} failed the gate")
    # the verify workload's witnesses come from the corpus: check them with the oracle
    for inst in instances:
        if not inst.argv or inst.argv[0] != "verify":
            continue
        text = _read(inst.argv[2])
        if text.lstrip().upper().startswith("ORDER:"):
            bits = max(bits, witness_den_bits(dual_from_text(text)))
            continue
        cert = certificate_from_text(text)
        bits = max(bits, witness_den_bits(cert))
        oracle_inst = Instance(inst.ident, inst.entry, target=_load_target(inst.entry["files"][0]))
        verdict = oracle.matches(oracle_inst, cert)
        if verdict is not None and verdict != (inst.entry["expect_exit"] == cli.EXIT_TRUE):
            bad = [a for a in attempts if a.instance is inst and not a.failed]
            for a in bad:
                a.failed = True
            failed += len(bad)
            notes.append(f"oracle disagrees with the known answer of {inst.ident}")
    return failed, bits, notes


# -- the run -------------------------------------------------------------------


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics weighted
    by a Beta(p(n+1), (1-p)(n+1)) density over rank cells. A few passes over a
    small corpus leave gaps between instances, and a single order statistic
    in such a gap jumps with one sample's noise."""
    s = sorted(samples)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (a + b - 2) if a + b > 2 else 0.5

    def log_density(x: float) -> float:
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    peak = log_density(min(max(mode, 1e-12), 1 - 1e-12))
    steps = 16  # midpoint rule inside each rank cell
    weights = [
        sum(math.exp(log_density((i + (k + 0.5) / steps) / n) - peak) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def min_passes(workload: str, corpus_size: int) -> int:
    """Passes needed so that TAIL_BEYOND samples lie beyond the tail percentile."""
    beyond = (1 - TAIL_PERCENTILE[workload] / 100) * corpus_size
    return math.ceil(TAIL_BEYOND / beyond) if TAIL_PERCENTILE[workload] > 50 else 1


def _probe_matrices(dim: int = 24):
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 2)]
    exact = [[Fraction(sum(r[i] * r[j] for r in rows), 1 + (i == j)) for j in range(dim)]
             for i in range(dim)]
    a = np.array([[rng.uniform(-1, 1) for _ in range(10)] for _ in range(10)])
    return exact, a + a.T


PROBE_EXACT, PROBE_FLOAT = _probe_matrices()


def _exact_kernel() -> None:
    """Exact LDL^T elimination of a fixed 24x24 rational matrix."""
    a = [list(r) for r in PROBE_EXACT]
    n = len(a)
    for k in range(n):
        piv = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]


def _float_kernel() -> None:
    """300 eigendecompositions and PSD projections of a 10x10 matrix, as in DR."""
    x = PROBE_FLOAT.copy()
    for _ in range(300):
        w, v = np.linalg.eigh(x)
        x = (v * np.maximum(w, 0.0)) @ v.T + 0.5 * PROBE_FLOAT
        x = 0.5 * (x + x.T)


KERNELS = {"exact": _exact_kernel, "float": _float_kernel}


def speed_probe(workload: str) -> float:
    """Seconds for the workload's probe kernels. They are written here, so no
    change to the package moves them, and their arithmetic slows down with
    the host as the workload's own does."""
    t0 = time.perf_counter()
    for kind in PROBE_KERNELS[workload]:
        KERNELS[kind]()
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    instances = load_workload(workload)
    # lazy set-up users pay once: BLAS initialisation and the CLI parser
    np.linalg.eigh(np.eye(2))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["dims", "3"])

    rng = random.Random(seed)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    attempts: list[Attempt] = []
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    layer_passes = []
    probes: list[float] = []
    least_passes = min_passes(workload, len(instances))
    begin = last_probe = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes for the overhead ratio
        trace_this = traced and len(pass_times[False]) > len(pass_times[True])
        order = list(instances)
        rng.shuffle(order)
        if trace_this:
            tracer.install()
        probed = 0.0
        t0 = time.perf_counter()
        try:
            for inst in order:
                attempts.append(attempt(inst))
                # about one probe per PROBE_EVERY_S of work, however long the attempt
                due = int((time.perf_counter() - last_probe) / PROBE_EVERY_S)
                if not traced and due:
                    for _ in range(min(due, PROBE_BATCH_MAX)):
                        probes.append(speed_probe(workload))
                        probed += probes[-1]
                    last_probe = time.perf_counter()
        finally:
            pass_times[trace_this].append(time.perf_counter() - t0 - probed)
            if trace_this:
                tracer.uninstall()
                layer_passes.append(tracer.take_pass())
        passes = len(pass_times[False]) + len(pass_times[True])
        if (time.perf_counter() - begin >= seconds and passes >= least_passes
                and (not traced or layer_passes)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_in_gate, den_bits, notes = gate(attempts, instances)
    n = len(attempts)
    failed = sum(1 for a in attempts if a.failed)
    for note in notes:
        print(f"gate: {note}")
    print(f"workload {workload}: {len(pass_times[False]) + len(pass_times[True])} passes, "
          f"{n} attempts, failed_frac {failed / n:.4f} ({failed}/{n}, {failed_in_gate} in the gate)")
    for inst in instances:
        mine = [a for a in attempts if a.instance is inst]
        verdicts = sorted({a.verdict for a in mine})
        print(f"instance {inst.ident} {'/'.join(verdicts)} "
              f"{statistics.median(a.seconds for a in mine):.4f} {len(mine)}")

    if traced:
        from tracing import combine_passes

        metrics = combine_passes(layer_passes)
        for key in metrics:
            if key.endswith("_calls") and len({p[key] for p in layer_passes}) > 1:
                print(f"note: {key} differs across traced passes")
        if tracer.absent:
            print("absent layers (reported as 0): " + ", ".join(tracer.absent))
        metrics["trace.overhead_ratio"] = (statistics.median(pass_times[True])
                                           / statistics.median(pass_times[False]))
    else:
        reference = sum(REFERENCE_S[kind] for kind in PROBE_KERNELS[workload])
        speed = reference / statistics.median(probes or [speed_probe(workload)])
        raw = {
            "pass_s": statistics.median(pass_times[False]),
            "verdict_s_p50": quantile([a.seconds for a in attempts], 0.5),
            "verdict_s_tail": quantile([a.seconds for a in attempts],
                                       TAIL_PERCENTILE[workload] / 100),
        }
        print(f"verdict_s_tail: p{TAIL_PERCENTILE[workload]:g} of {n} samples")
        print(f"speed: {len(probes)} probes of {'+'.join(PROBE_KERNELS[workload])}, "
              f"factor {speed:.4f}; wall seconds "
              + ", ".join(f"{k} {v:.6f}" for k, v in raw.items()))
        metrics = {k: v * speed for k, v in raw.items()}
        metrics.update({
            "decided_frac": sum(1 for a in attempts if a.decided) / n,
            "peak_rss_mb": peak_rss_mb,
            "cert_den_bits_max": den_bits,
        })
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description="benchmark worker for one workload")
    parser.add_argument("--workload", required=True, choices=("certify", "refute", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="load the corpus, print 'ready' and exit")
    args = parser.parse_args()
    if args.setup_only:
        load_workload(args.workload)
        print("ready", flush=True)
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))), flush=True)


if __name__ == "__main__":
    main()
