"""In-memory spans around the package's public functions, for the traced run.

Each layer is a set of public functions. `Tracer.install` wraps them and
patches the wrapper into every loaded `sosconvex` module that holds the
function under some name, so calls are caught wherever the caller looks the
name up (for example `sosconvex.search.verify_sos_certificate` as well as
`sosconvex.certificates.verify_sos_certificate`). A layer none of whose
functions exists any more is reported as absent. `numpy.linalg.eigh` is
counted, not timed: each call is charged to the nearest wrapped span.

Nothing under `src/` is changed; `uninstall` restores every patched name.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

import numpy as np

# layer -> (module, function) pairs that define it
LAYERS: dict[str, list[tuple[str, str]]] = {
    "search.check_sos": [("sosconvex.search", "check_sos")],
    "search.parameterize": [("sosconvex.search", "parameterize")],
    "linalg.solve_affine": [("sosconvex.linalg", "solve_affine")],
    "search.round": [("sosconvex.search", "rationalize_and_certify")],
    "search.dual": [("sosconvex.search", "refutation_search")],
    "certificates.ldlt": [("sosconvex.certificates", "ldlt_psd_check")],
    "certificates.verify": [("sosconvex.certificates", "verify_sos_certificate")],
    "dual.verify": [("sosconvex.dual", "verify_refutation")],
    "forms.parse": [
        ("sosconvex.forms", "form_from_text"),
        ("sosconvex.forms", "polymatrix_from_text"),
        ("sosconvex.biquadratic", "biquadratic_from_text"),
        ("sosconvex.certificates", "certificate_from_text"),
        ("sosconvex.dual", "dual_from_text"),
    ],
    "biquadratic.hessian": [
        ("sosconvex.biquadratic", "hessian_biquadratic"),
        ("sosconvex.biquadratic", "hessian_form"),
    ],
    "face.exact": [
        ("sosconvex.face", "membership_T"),
        ("sosconvex.face", "alpha5_lower_bound"),
        ("sosconvex.face", "det_M_closed"),
        ("sosconvex.face", "gram_M"),
    ],
    "face.zero": [("sosconvex.face", "find_additional_zero")],
    "cli.main": [("sosconvex.cli", "main")],
}

# what a span keeps of its call, for the per-layer ratios and sizes
_OBSERVE = {
    "search.parameterize": lambda args, result: (len(args[1]), len(result.kernel)),
    "search.round": lambda args, result: bool(result),  # RoundingFailure is falsy
    "certificates.ldlt": lambda args, result: result.is_psd(),
    "search.dual": lambda args, result: result is not None,
}


class Span:
    __slots__ = ("layer", "parent", "start", "end", "value", "eigh", "child_time")

    def __init__(self, layer: str, parent: "Span | None"):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.value = None
        self.eigh = 0
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for layer, sites in LAYERS.items():
            found = False
            for module_name, attr in sites:
                try:
                    original = getattr(importlib.import_module(module_name), attr, None)
                except ModuleNotFoundError:
                    original = None
                if original is None:
                    continue
                found = True
                self._patch_everywhere(original, self._wrap(layer, original))
            if not found:
                self.absent.append(layer)
        self._patch(np.linalg, "eigh", self._count_eigh(np.linalg.eigh))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "sosconvex" or name.startswith("sosconvex.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap(self, layer: str, fn):
        observe = _OBSERVE.get(layer)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span.value = observe(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the ratio, not the call
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_eigh(self, fn):
        stack = self._stack

        def eigh(*args, **kwargs):
            if stack:
                stack[-1].eigh += 1
            return fn(*args, **kwargs)

        return eigh

    # -- metrics -----------------------------------------------------------

    def take_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, self.spans[:] = list(self.spans), []
        for span in spans:
            if span.parent is not None:
                span.parent.child_time += span.duration
        by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
        for span in spans:
            by_layer[span.layer].append(span)

        def outer_time(layer: str) -> float:
            # inclusive time of the outermost spans, so nested calls count once
            total = 0.0
            for span in by_layer[layer]:
                up = span.parent
                while up is not None and up.layer != layer:
                    up = up.parent
                if up is None:
                    total += span.duration
            return total

        def self_time(layer: str) -> float:
            return sum(s.duration - s.child_time for s in by_layer[layer])

        def ratio(layer: str) -> float:
            calls = by_layer[layer]
            return sum(1 for s in calls if s.value) / len(calls) if calls else 0.0

        params = [s.value for s in by_layer["search.parameterize"] if s.value]
        dr_s = self_time("search.check_sos")
        dr_eigh = sum(s.eigh for s in by_layer["search.check_sos"])
        n = {layer: len(v) for layer, v in by_layer.items()}
        return {
            "search.parameterize_s": outer_time("search.parameterize"),
            "search.parameterize_calls": n["search.parameterize"],
            "search.basis_dim_max": max((b for b, _ in params), default=0),
            "search.fiber_dim_max": max((f for _, f in params), default=0),
            "linalg.solve_affine_s": outer_time("linalg.solve_affine"),
            "linalg.solve_affine_calls": n["linalg.solve_affine"],
            "search.dr_s": dr_s,
            "search.dr_eigh_calls": dr_eigh,
            "search.dr_us_per_eigh": dr_s / dr_eigh * 1e6 if dr_eigh else 0.0,
            "search.round_s": outer_time("search.round"),
            "search.round_calls": n["search.round"],
            "search.round_ok_ratio": ratio("search.round"),
            "certificates.ldlt_s": outer_time("certificates.ldlt"),
            "certificates.ldlt_calls": n["certificates.ldlt"],
            "certificates.ldlt_psd_ratio": ratio("certificates.ldlt"),
            "search.dual_s": outer_time("search.dual"),
            "search.dual_calls": n["search.dual"],
            "search.dual_found_ratio": ratio("search.dual"),
            "dual.verify_s": outer_time("dual.verify"),
            "dual.verify_calls": n["dual.verify"],
            "certificates.verify_s": outer_time("certificates.verify"),
            "certificates.verify_calls": n["certificates.verify"],
            "forms.parse_s": outer_time("forms.parse"),
            "forms.parse_calls": n["forms.parse"],
            "biquadratic.hessian_s": outer_time("biquadratic.hessian"),
            "biquadratic.hessian_calls": n["biquadratic.hessian"],
            "face.exact_s": outer_time("face.exact"),
            "face.exact_calls": n["face.exact"],
            "face.zero_s": outer_time("face.zero"),
            "face.zero_calls": n["face.zero"],
            "cli.self_s": self_time("cli.main"),
            "cli.main_calls": n["cli.main"],
        }


def combine_passes(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts, sizes and ratios repeat exactly per pass."""
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
