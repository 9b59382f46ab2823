"""Tests of the benchmark's tracer: span arithmetic, and that a traced
run leaves masshist exactly as it found it.  Run with
`python3 -m pytest bench`."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import masshist  # noqa: E402
import masshist.cli  # noqa: E402,F401  (the tracer patches it too)
from layers import TARGETS, summarize  # noqa: E402
from tracer import Tracer, covered, self_times  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, {}]


def test_covered_merges_overlaps():
    assert covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered([]) == 0.0


def test_self_time_of_nested_spans():
    spans = [_span("op", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 2.0, 3.0, 1),
             _span("c", 5.0, 9.0, 0),
             _span("d", 6.0, 7.0, 3),
             _span("e", 6.5, 8.0, 3)]   # overlaps d: counted once
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.5]
    assert sum(self_times(spans)) == 10.5  # d and e overlap by 0.5


def test_lead_time_sweep_is_grid_refine_under_profile_iterate():
    spans = [_span("op", 0.0, 10.0, -1),
             _span("estimation.profile_iterate", 0.0, 10.0, 0),
             _span("estimation.grid_search_logistic", 1.0, 3.0, 1),
             _span("estimation.grid_refine_max", 1.0, 3.0, 2),
             _span("estimation.grid_refine_max", 4.0, 5.0, 1)]
    spans[3][5].update(points=100, levels=4, improving=1)
    spans[4][5].update(points=30, levels=4, improving=3)
    m = summarize(spans, n_ops=2)
    assert m["grid_search_logistic.points"] == 50.0
    assert m["lead_time_sweep.calls"] == 0.5
    assert m["lead_time_sweep.s"] == 0.5
    assert m["lead_time_sweep.points"] == 15.0
    assert m["grid_refine_max.improving_frac"] == 0.5
    assert m["profile_iterate.self_s"] == (10.0 - 2.0 - 1.0) / 2
    assert m["layer.estimation.self_s"] == 5.0
    assert m["unspanned_frac"] == 0.0


def _bindings():
    names = {t.name for t in TARGETS}
    return {(mod_name, n): getattr(mod, n)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "masshist" or mod_name.startswith("masshist.")
            for n in names if hasattr(mod, n)}


def _small_dataset():
    return masshist.CountDataset(
        schedule=(2.0, 4.0, 8.0, 24.0),
        counts=((0, 0, 3), (0, 12, 40), (90, 150, 0), (280, 290, 270)),
        mass=300)


def test_traced_call_records_spans_and_restores_every_name():
    before = _bindings()
    tracer = Tracer(TARGETS)
    with tracer:
        assert masshist.estimation.grid_refine_max is not \
            before[("masshist.estimation", "grid_refine_max")]
        tracer.op_id = 0
        lam, gamma = tracer.span("op", masshist.initial_weibull_estimate,
                                 (_small_dataset(),))
    assert _bindings() == before
    untraced = masshist.initial_weibull_estimate(_small_dataset())
    assert (lam, gamma) == untraced

    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["op", "estimation.initial_weibull_estimate"]
    assert names[2] == "estimation.grid_refine_max"
    assert tracer.spans[2][3] == 1 and tracer.spans[1][3] == 0
    assert tracer.spans[2][5]["points"] == 41 * 41 * 4
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1],
                                                          abs=1e-12)


def test_names_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(masshist.NoFiniteMle):
        with Tracer(TARGETS):
            masshist.initial_weibull_estimate(masshist.CountDataset(
                schedule=(2.0, 4.0), counts=((1,), (2,)), mass=300))
    assert _bindings() == before
