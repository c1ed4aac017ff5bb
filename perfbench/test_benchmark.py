"""Checks of the benchmark's own parts: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

from dataclasses import replace

import pytest

import workloads

workloads.load_selfspec()

from selfspec import cli, reporting, sequence, ssd, stepwise  # noqa: E402

from tracer import PATCH_POINTS, REQUEST, Tracer  # noqa: E402

MODULES = {"cli": cli, "reporting": reporting, "sequence": sequence, "ssd": ssd,
           "stepwise": stepwise}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    first = workloads.make_requests(name, 3)
    assert first == workloads.make_requests(name, 3)
    assert first != workloads.make_requests(name, 4)
    assert workloads.make_requests(name, workloads.DEV_SEED) != workloads.make_requests(
        name, workloads.HELD_OUT_SEED)
    for config in first:
        config.validate()


def test_tracing_changes_nothing_and_restores_every_wrapper():
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in PATCH_POINTS}
    base = workloads.make_requests("mixed_short", 0)[0]
    tracer = Tracer(MODULES)
    for request, strategy in enumerate(workloads.STRATEGIES):
        config = replace(base, strategy=strategy, gen_len=24)
        plain, _ = cli.run_decode(config)
        tracer.request = request
        tracer.install()
        try:
            traced, _ = tracer.span(REQUEST, cli.run_decode, config)
        finally:
            tracer.restore()
        assert reporting.render_report(traced) == reporting.render_report(plain)
        forwards = tracer.forwards[request]
        assert len(forwards) == traced.actual_forwards
    assert {(m, a): getattr(MODULES[m], a) for m, a, _ in PATCH_POINTS} == originals
    totals = tracer.span_totals(dict(enumerate(workloads.STRATEGIES)))
    for strategy in workloads.STRATEGIES:
        calls, incl, own = totals[strategy][REQUEST]
        assert calls == 1 and 0 <= own <= incl
