"""The library surface the benchmark's outside-in tracer relies on.

``perfbench/tracer.py`` rebinds public module attributes by name and counts
the calls that go through them.  A refactor that drops one of those names,
or that stores a public function at import time where the tracer cannot
reach it, should fail here and not only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from extropy import measures as ms
from extropy.distributions import gamma_dist

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracer):
    for layer, (home, names) in tracer.LAYERS.items():
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, home, name)


@pytest.mark.parametrize("side", ["residual", "past"])
def test_derivative_is_one_batched_stencil(tracer, side):
    d = gamma_dist(2.0, 1.0)
    with tracer.Tracer() as tr:
        getattr(ms, f"weighted_{side}_derivative")(d, 1.0)
    # The 20 stencil points and Jw at t are one engine batch, which the
    # tracer does not see: one differentiate call of 20 points, and the
    # derivative's own measure span, the only one.
    assert tr.calls["quadrature.differentiate"] == 1
    assert tr.counts["quadrature.differentiate.h_evals"] == 20
    assert tr.calls["measures"] == 1


def _bindings(tracer):
    modules = [importlib.import_module(m) for m in tracer.MODULES]
    return {(mod.__name__, name): value for mod in modules
            for name, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("request_kind", ["bivariate_quadrature", "sum_bound"])
def test_traced_two_dimensional_requests_are_bit_identical(tracer, request_kind):
    from extropy import bivariate as bv
    from extropy import claims as cl
    from extropy.distributions import exponential, uniform

    def run():
        if request_kind == "bivariate_quadrature":
            r = bv.bivariate_weighted_extropy(bv.bivariate_beta(0.9, 1.5, 2.0),
                                              force_quadrature=True)
            return (r.value, r.abs_error)
        r = cl.sum_bound_check(exponential(1.0), uniform(0.0, 1.0))
        return (r.lhs, r.rhs, r.gap, r.verdict)

    before = _bindings(tracer)
    untraced = run()
    with tracer.Tracer() as tr:
        traced = run()
    assert traced == untraced
    assert tr.calls["quadrature.integrate"] > 0
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
