"""Run configuration and report serialization round-trips."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    Report,
    RoundStats,
    RunConfig,
    render_report,
    report_from_lines,
    report_to_lines,
)
from selfspec.reporting import merge_config


def sample_config(**overrides):
    base = dict(
        backend="synthetic",
        seed=5,
        vocab_size=24,
        sharpness=4.0,
        context_window=1,
        prompt=(1, 2, 3),
        gen_len=16,
        block_len=8,
        draft_len=3,
        strategy="greedy",
        topk=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def sample_report():
    return Report(
        config=sample_config(),
        tokens=(1, 2, 3) + tuple(range(16)),
        actual_forwards=7,
        fallback_steps=1,
        rounds=(
            RoundStats(batch_size=4, accepted=4),
            RoundStats(batch_size=4, accepted=3),
        ),
    )


# --- config ----------------------------------------------------------------


def test_config_validation_catches_bad_fields():
    with pytest.raises(ValueError):
        sample_config(strategy="parallel").validate()
    with pytest.raises(ValueError):
        sample_config(backend="gpu").validate()
    with pytest.raises(ValueError):
        sample_config(gen_len=0).validate()
    with pytest.raises(ValueError):
        sample_config(vocab_size=1).validate()
    with pytest.raises(ValueError):
        sample_config(prompt=(99,), vocab_size=24).validate()
    with pytest.raises(ValueError):
        sample_config(backend="table", table_path=None).validate()
    for sharpness in (0.0, -1.0, float("inf"), float("-inf"), float("nan"), "x", True):
        with pytest.raises(ValueError):
            sample_config(sharpness=sharpness).validate()
    # wrong-typed fields, as a JSON --config file can spell them
    for bad in (
        {"gen_len": "abc"},
        {"gen_len": 8.5},
        {"gen_len": True},
        {"seed": 1.5},
        {"topk": None},
        {"table_path": 5},
        {"prompt": ("1",)},
        {"prompt": (1.0,)},
        {"prompt": (True,)},
    ):
        with pytest.raises(ValueError):
            sample_config(**bad).validate()
    sample_config().validate()
    sample_config(sharpness=6).validate()


def test_config_dict_round_trip():
    cfg = sample_config()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"seeed": 3})
    for prompt in (5, "1,2", {"1": 2}):
        with pytest.raises(ValueError, match="prompt"):
            RunConfig.from_dict({"prompt": prompt})


def test_merge_config_overrides_only_given_fields():
    cfg = sample_config()
    merged = merge_config(cfg, {"seed": 9, "gen_len": None, "prompt": [7]})
    assert merged.seed == 9
    assert merged.gen_len == cfg.gen_len
    assert merged.prompt == (7,)


# --- reports ---------------------------------------------------------------


def test_report_line_round_trip():
    report = sample_report()
    assert report_from_lines(report_to_lines(report)) == report


def test_report_derived_ratios():
    report = sample_report()
    assert report.reduction == pytest.approx(1 - 7 / 16)
    assert report.speedup == pytest.approx(16 / 7)


def test_compare_report_round_trip_and_invariant():
    report = Report(
        config=sample_config(strategy="mix_order"),
        tokens=tuple(range(19)),
        actual_forwards=6,
        fallback_steps=0,
        rounds=(RoundStats(batch_size=6, accepted=4),),
        compared=True,
    )
    lines = report_to_lines(report)
    assert json.loads(lines[0])["kind"] == "compare"
    result = json.loads(lines[2])["result"]
    assert result["identical"] is True
    assert (result["stepwise_forwards"], result["ssd_forwards"]) == (16, 6)
    back = report_from_lines(lines)
    assert back == report
    assert back.reduction == pytest.approx(1 - 6 / 16)
    assert back.speedup == pytest.approx(16 / 6)


def test_report_file_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.jsonl"
    path.write_text(render_report(report), encoding="utf-8")
    assert report_from_lines(path.read_text(encoding="utf-8").splitlines()) == report


def test_render_is_deterministic():
    assert render_report(sample_report()) == render_report(sample_report())


# (compared, line index, in-place edit of that line's JSON object)
INCONSISTENT_EDITS = [
    # the baseline count is gen_len, never a value of its own
    (False, 2, lambda o: o["result"].update(baseline_forwards=17)),
    (True, 2, lambda o: o["result"].update(stepwise_forwards=15)),
    # a config the run could not have had
    (False, 1, lambda o: o["config"].update(gen_len=16.0)),
    (False, 1, lambda o: o["config"].update(strategy="parallel")),
    # a compare report exists only on a match
    (True, 2, lambda o: o["result"].update(identical=False)),
    (True, 2, lambda o: o["result"].pop("identical")),
    (False, 2, lambda o: o["result"].update(identical=True)),
    # missing, unknown or other-kind result fields
    (False, 2, lambda o: o["result"].pop("fallback_steps")),
    (False, 2, lambda o: o["result"].update(extra=1)),
    (False, 2, lambda o: o["result"].update(ssd_forwards=7)),
    (True, 2, lambda o: o["result"].update(actual_forwards=6)),
    # missing or unknown round fields, or a round line of the wrong shape
    (False, 3, lambda o: o["round"].pop("accepted")),
    (False, 3, lambda o: o["round"].update(depth=2)),
    (False, 3, lambda o: o.update(round=[0, 4, 4, 2])),
    (False, 3, lambda o: o.update(rounds=o.pop("round"))),
    # a round's index and forward count follow from its place in the report
    (False, 4, lambda o: o["round"].update(iteration=0)),
    (False, 3, lambda o: o["round"].update(cumulative_forwards=3)),
    # derived values and constants that disagree with the fields they follow from
    (False, 2, lambda o: o["result"].update(reduction=0.5)),
    (True, 2, lambda o: o["result"].update(speedup=3.0)),
    (False, 2, lambda o: o["result"].update(disclaimer="wall-clock measured")),
    (False, 0, lambda o: o.update(version=2)),
    (False, 2, lambda o: o["result"].update(actual_forwards=0)),  # no speedup exists
    # fields of the wrong type
    (False, 2, lambda o: o["result"].update(tokens="abc")),
    (False, 2, lambda o: o["result"]["tokens"].__setitem__(0, "1")),
    (False, 3, lambda o: o["round"].update(accepted="4")),
]


def test_malformed_report_rejected():
    with pytest.raises(ValueError):
        report_from_lines(["{}"])
    with pytest.raises(ValueError):
        report_from_lines(['{"kind": "mystery", "version": 1}'])
    with pytest.raises(ValueError):
        report_from_lines(['{"kind": "report", "version": 1}'])
    with pytest.raises(ValueError):
        report_from_lines(["[1]"])
    for compared, line, edit in INCONSISTENT_EDITS:
        report = replace(sample_report(), compared=compared)
        lines = report_to_lines(report)
        assert report_from_lines(lines) == report
        obj = json.loads(lines[line])
        edit(obj)
        lines[line] = json.dumps(obj)
        with pytest.raises(ValueError):
            report_from_lines(lines)


@given(
    seed=st.integers(0, 10_000),
    gen_len=st.integers(1, 500),
    actual=st.integers(1, 500),
)
@settings(max_examples=80)
def test_round_trip_preserves_ratios_exactly(seed, gen_len, actual):
    report = Report(
        config=sample_config(seed=seed, gen_len=gen_len, prompt=()),
        tokens=tuple(range(gen_len)),
        actual_forwards=actual,
        fallback_steps=0,
        rounds=(),
    )
    back = report_from_lines(report_to_lines(report))
    assert back.reduction == report.reduction  # bit-exact, repr round-trip
    assert back.speedup == report.speedup
