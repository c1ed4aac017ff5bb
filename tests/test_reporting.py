"""Run configuration and report serialization round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    CompareReport,
    Report,
    RoundStats,
    RunConfig,
    read_report,
    render_report,
    report_from_lines,
    report_to_lines,
    write_report,
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
        baseline_forwards=16,
        actual_forwards=7,
        fallback_steps=1,
        rounds=(
            RoundStats(iteration=0, batch_size=4, accepted=4, cumulative_forwards=2),
            RoundStats(iteration=1, batch_size=4, accepted=3, cumulative_forwards=3),
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
    for sharpness in (0.0, -1.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            sample_config(sharpness=sharpness).validate()
    sample_config().validate()


def test_config_dict_round_trip():
    cfg = sample_config()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"seeed": 3})


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
    report = CompareReport(
        config=sample_config(strategy="mix_order"),
        tokens=tuple(range(19)),
        stepwise_forwards=16,
        ssd_forwards=6,
        identical=True,
        fallback_steps=0,
        rounds=(RoundStats(0, 6, 4, 2),),
    )
    back = report_from_lines(report_to_lines(report))
    assert back == report
    assert back.reduction == pytest.approx(1 - 6 / 16)
    assert back.speedup == pytest.approx(16 / 6)


def test_report_file_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.jsonl"
    write_report(report, str(path))
    assert read_report(str(path)) == report


def test_render_is_deterministic():
    assert render_report(sample_report()) == render_report(sample_report())


def test_malformed_report_rejected():
    with pytest.raises(ValueError):
        report_from_lines(["{}"])
    with pytest.raises(ValueError):
        report_from_lines(['{"kind": "mystery", "version": 1}'])
    with pytest.raises(ValueError):
        report_from_lines(['{"kind": "report", "version": 1}'])


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
        baseline_forwards=gen_len,
        actual_forwards=actual,
        fallback_steps=0,
        rounds=(),
    )
    back = report_from_lines(report_to_lines(report))
    assert back.reduction == report.reduction  # bit-exact, repr round-trip
    assert back.speedup == report.speedup
