"""Outside-in tracer: per-layer counts and self times without touching the library.

:class:`Tracer` is a context manager.  On entry it rebinds public names of
``extropy`` in every module that binds them -- ``integrate`` where
``measures``, ``claims``, ``bivariate`` and ``transforms`` imported it,
``differentiate`` in ``measures``, the public measure, claim and bivariate
functions, ``cli.main``, and ``make_distribution`` -- to wrappers that
record a span around each call.  ``integrate`` also swaps the integrand's
``fn`` for a counting wrapper, and ``make_distribution`` wraps the
evaluator fields (pdf, cdf, sf, quantile) of each distribution it builds.
On exit every binding is restored, and the restore is verified.

Spans nest on a stack; a layer's self time is its span's duration minus
the time covered by child spans.  Integrand callbacks are aggregated, not
stored one by one, because a 2-d request makes ~10^4 of them.  Wrappers
only observe: they pass arguments and results through unchanged, so a
traced request returns bit-identical values.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import time

import numpy as np

MODULES = ("extropy", "extropy.quadrature", "extropy.distributions", "extropy.measures",
           "extropy.claims", "extropy.bivariate", "extropy.transforms", "extropy.cli")

# layer -> (defining module, public names)
LAYERS = {
    "quadrature.integrate": ("extropy.quadrature", ("integrate",)),
    "quadrature.differentiate": ("extropy.quadrature", ("differentiate",)),
    "measures": ("extropy.measures", (
        "extropy", "weighted_extropy", "residual_extropy", "past_extropy",
        "weighted_residual_extropy", "weighted_past_extropy", "dynamic_survival_extropy",
        "compute_measure", "weighted_residual_derivative", "weighted_past_derivative")),
    "claims": ("extropy.claims", (
        "residual_bound_check", "past_bound_check", "sum_bound_check",
        "lemma1_residual_check", "lemma1_past_check", "constancy_explorer",
        "decomposition_check")),
    "claims.independence": ("extropy.bivariate", ("independence_factorization_check",)),
    "bivariate": ("extropy.bivariate", ("bivariate_extropy", "bivariate_weighted_extropy")),
    "transforms": ("extropy.transforms", (
        "transformed_weighted_extropy", "linear_transform_extropy",
        "transformed_residual_past", "pushforward_distribution")),
    "cli.main": ("extropy.cli", ("main",)),
    "distributions.build": ("extropy.distributions", ("make_distribution",)),
}
EVALUATORS = ("pdf", "cdf", "sf", "quantile")


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.counts = collections.Counter()
        self.raised = collections.Counter()
        self.verdicts = collections.Counter()
        self._stack: list[_Frame] = []
        self._integrate_depth = 0
        self._integrand_depth = 0
        self._measures_depth = 0
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------------------

    def _enter(self, layer):
        frame = _Frame(layer, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        self.calls[frame.layer] += 1
        self.self_s[frame.layer] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        return dur

    def _span(self, layer, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            verdict = getattr(result, "verdict", None)
            if verdict is not None:
                self.verdicts[verdict] += 1
            return result
        return wrapper

    def _measures_span(self, fn):
        def wrapper(*args, **kwargs):
            self._measures_depth += 1
            frame = self._enter("measures")
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
                self._measures_depth -= 1
                if self._measures_depth == 0:
                    self.counts["measures.inclusive_s"] += dur
        return wrapper

    def _integrand(self, fn):
        def counted(x):
            frame = self._enter("quadrature.integrand")
            self._integrand_depth += 1
            try:
                return fn(x)
            finally:
                self._integrand_depth -= 1
                self._exit(frame)
                self.counts["quadrature.integrand.points"] += np.size(x)
        return counted

    def _integrate(self, fn):
        def wrapper(g, *args, **kwargs):
            nested = self._integrate_depth > 0
            if nested:
                self.counts["quadrature.integrate.nested_calls"] += 1
            g = dataclasses.replace(g, fn=self._integrand(g.fn))
            self._integrate_depth += 1
            frame = self._enter("quadrature.integrate")
            try:
                result = fn(g, *args, **kwargs)
            except Exception as exc:
                self.raised[type(exc).__name__] += 1
                raise
            finally:
                dur = self._exit(frame)
                self._integrate_depth -= 1
                if not nested and self._measures_depth:
                    self.counts["measures.quadrature_s"] += dur
            self.counts["quadrature.integrate.evaluations"] += result.evaluations
            self.counts["quadrature.integrate.diverged"] += bool(result.diverged)
            return result
        return wrapper

    def _differentiate(self, fn):
        span = self._span("quadrature.differentiate", fn)

        def wrapper(*args, **kwargs):
            result = span(*args, **kwargs)
            self.counts["quadrature.differentiate.h_evals"] += result.evaluations
            return result
        return wrapper

    def _evaluator(self, fn):
        def wrapper(x):
            if self._integrand_depth:
                return fn(x)
            frame = self._enter("distributions.evaluator")
            try:
                return fn(x)
            finally:
                self._exit(frame)
        return wrapper

    def _build(self, fn):
        span = self._span("distributions.build", fn)

        def wrapper(*args, **kwargs):
            dist = span(*args, **kwargs)
            for name in EVALUATORS:
                object.__setattr__(dist, name, self._evaluator(getattr(dist, name)))
            return dist
        return wrapper

    def _wrap(self, layer, fn):
        if layer == "quadrature.integrate":
            return self._integrate(fn)
        if layer == "quadrature.differentiate":
            return self._differentiate(fn)
        if layer == "measures":
            return self._measures_span(fn)
        if layer == "distributions.build":
            return self._build(fn)
        return self._span("claims" if layer == "claims.independence" else layer, fn)

    # -- install / restore -----------------------------------------------------------------

    def __enter__(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, (home, names) in LAYERS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                original = getattr(home_mod, name)
                wrapped = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original, wrapped))
        return self

    def __exit__(self, *exc):
        for mod, attr, original, wrapped in reversed(self._restore):
            if getattr(mod, attr) is not wrapped:
                raise RuntimeError(f"{mod.__name__}.{attr} was rebound while traced")
            setattr(mod, attr, original)
        if any(getattr(mod, attr) is not original for mod, attr, original, _ in self._restore):
            raise RuntimeError("tracer failed to restore a binding")
        self._restore.clear()
        return False

    # -- results -------------------------------------------------------------------------

    def deterministic_counts(self) -> dict:
        """Counts that depend only on the inputs and the code, not the machine."""
        return {
            "quadrature.integrate.calls": self.calls["quadrature.integrate"],
            "quadrature.integrate.evaluations": self.counts["quadrature.integrate.evaluations"],
            "quadrature.integrate.nested_calls": self.counts["quadrature.integrate.nested_calls"],
            "quadrature.integrate.diverged": self.counts["quadrature.integrate.diverged"],
            "quadrature.integrate.raised": sum(self.raised.values()),
            "quadrature.integrand.calls": self.calls["quadrature.integrand"],
            "quadrature.integrand.points": self.counts["quadrature.integrand.points"],
            "quadrature.differentiate.calls": self.calls["quadrature.differentiate"],
            "quadrature.differentiate.h_evals": self.counts["quadrature.differentiate.h_evals"],
            "distributions.evaluator.calls": self.calls["distributions.evaluator"],
            "measures.calls": self.calls["measures"],
            "claims.calls": self.calls["claims"],
            "claims.verdict.holds": self.verdicts["holds"],
            "claims.verdict.violated": self.verdicts["violated"],
            "claims.verdict.indeterminate": self.verdicts["indeterminate"],
            "bivariate.calls": self.calls["bivariate"],
            "transforms.calls": self.calls["transforms"],
            "cli.main.calls": self.calls["cli.main"],
        }
