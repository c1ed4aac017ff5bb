"""Command-line behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from selfspec import (
    MaskedModel,
    RunConfig,
    read_report,
    read_trace,
    report_from_lines,
)
from selfspec.cli import LosslessnessError, main, run_compare, run_decode


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = [
    "--seed", "3", "--vocab-size", "24", "--gen-length", "16",
    "--block-length", "8",
]


# --- decode ----------------------------------------------------------------


def test_decode_stepwise_report(capsys):
    code, out, _ = run_main(capsys, ["decode", *BASE, "--strategy", "stepwise"])
    assert code == 0
    report = report_from_lines(out.splitlines())
    assert report.baseline_forwards == report.actual_forwards == 16
    assert report.reduction == 0.0 and report.speedup == 1.0
    assert len(report.tokens) == 16


def test_decode_speculative_report_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_main(
        capsys,
        ["decode", *BASE, "--strategy", "mix_order", "--draft-length", "3",
         "--trace-out", str(trace_path)],
    )
    assert code == 0
    report = report_from_lines(out.splitlines())
    assert report.actual_forwards < report.baseline_forwards
    assert report.rounds
    assert all(r.batch_size == 6 for r in report.rounds)
    trace = read_trace(str(trace_path))
    assert trace.decoder == "ssd" and len(trace.records) == 16


def test_decode_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run_main(
        capsys, ["decode", *BASE, "--strategy", "greedy", "--out", str(out_path)]
    )
    assert code == 0 and out == ""
    report = read_report(str(out_path))
    assert report.config.strategy == "greedy"


def test_decode_with_prompt_and_config_file(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, "vocab_size": 16, "gen_len": 8,
                                    "block_len": 4, "strategy": "stepwise"}))
    code, out, _ = run_main(
        capsys,
        ["decode", "--config", str(cfg_path), "--prompt", "1,2,3",
         "--gen-length", "12"],
    )
    assert code == 0
    report = report_from_lines(out.splitlines())
    assert report.config.seed == 7  # from file
    assert report.config.gen_len == 12  # flag wins over file
    assert report.config.prompt == (1, 2, 3)
    assert report.tokens[:3] == (1, 2, 3)


# --- compare ---------------------------------------------------------------


def test_compare_reports_identity_and_speedup(capsys):
    code, out, _ = run_main(
        capsys, ["compare", *BASE, "--strategy", "greedy", "--draft-length", "4"]
    )
    assert code == 0
    report = report_from_lines(out.splitlines())
    assert report.identical is True
    assert report.ssd_forwards <= report.stepwise_forwards == 16
    assert report.reduction == pytest.approx(1 - report.ssd_forwards / 16)


def test_compare_rejects_stepwise_strategy(capsys):
    code, _, err = run_main(capsys, ["compare", *BASE, "--strategy", "stepwise"])
    assert code == 1
    assert "speculative" in err


# --- analyze ---------------------------------------------------------------


def test_analyze_emits_bound_column(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run_main(
        capsys,
        ["decode", "--seed", "2", "--vocab-size", "16", "--gen-length", "24",
         "--block-length", "8", "--strategy", "stepwise", "--topk", "5",
         "--trace-out", str(trace_path), "--out", str(tmp_path / "r.jsonl")],
    )
    assert code == 0
    code, out, _ = run_main(
        capsys,
        ["analyze", "--trace", str(trace_path), "--draft-length", "3,4,5",
         "--topk", "1,3,5"],
    )
    assert code == 0
    assert "75.0%" in out and "80.0%" in out and "83.3%" in out
    assert out.splitlines()[0].split() == [
        "draft_len", "top-1", "top-3", "top-5", "upper_bound"
    ]


def test_analyze_rejects_k_beyond_recorded(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_main(
        capsys,
        ["decode", "--seed", "2", "--vocab-size", "16", "--gen-length", "8",
         "--block-length", "8", "--strategy", "stepwise", "--topk", "2",
         "--trace-out", str(trace_path), "--out", str(tmp_path / "r.jsonl")],
    )
    code, _, err = run_main(
        capsys, ["analyze", "--trace", str(trace_path), "--topk", "3"]
    )
    assert code == 1
    assert "exceeds" in err


# --- sweep -----------------------------------------------------------------


def test_sweep_emits_one_line_per_combo(capsys):
    code, out, _ = run_main(
        capsys,
        ["sweep", *BASE, "--draft-lengths", "3,4", "--strategies",
         "greedy,mix_order"],
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["kind"] == "sweep"
    combos = [(e["sweep"]["strategy"], e["sweep"]["draft_len"])
              for e in lines if "sweep" in e]
    assert combos == [("greedy", 3), ("greedy", 4),
                      ("mix_order", 3), ("mix_order", 4)]
    assert all(e["sweep"]["identical"] for e in lines if "sweep" in e)


def test_sweep_rejects_stepwise_strategy(capsys):
    code, _, err = run_main(
        capsys, ["sweep", *BASE, "--strategies", "stepwise"]
    )
    assert code == 1 and "speculative" in err


# --- exit codes ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--strategy", "bogus"],
        ["decode", "--gen-length", "0"],
        ["bogus"],
        [],
        ["decode", "--backend", "table"],  # table without table_path
        ["decode", "--prompt", "999"],  # token outside vocab
        ["decode", "--sharpness", "inf"],
        ["decode", "--sharpness", "nan"],
        ["sweep", "--sharpness=-inf"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


class _TwoFacedModel(MaskedModel):
    """Deliberately breaks the purity contract: logits flip after the first
    call, so speculative and stepwise runs disagree."""

    def __init__(self, vocab=8, length=4):
        self._vocab = vocab
        self._length = length
        self._calls = 0

    @property
    def vocab_size(self):
        return self._vocab

    def forward(self, batch):
        self._calls += 1
        rows = []
        for state in batch:
            mat = np.zeros((len(state.tokens), self._vocab))
            tok = 1 if self._calls == 1 else 2
            mat[:, tok] = 5.0
            rows.append(mat)
        return tuple(rows)


def test_contract_breaking_model_trips_losslessness_error(monkeypatch):
    import selfspec.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "build_model", lambda config: _TwoFacedModel(config.vocab_size)
    )
    config = RunConfig(seed=0, vocab_size=8, gen_len=4, block_len=4,
                       draft_len=2, strategy="greedy", topk=1)
    with pytest.raises(LosslessnessError):
        run_compare(config)


def test_losslessness_violation_exits_two(capsys, monkeypatch):
    import selfspec.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "build_model", lambda config: _TwoFacedModel(config.vocab_size)
    )
    code, _, err = run_main(
        capsys,
        ["compare", "--seed", "0", "--vocab-size", "8", "--gen-length", "4",
         "--block-length", "4", "--draft-length", "2", "--strategy", "greedy"],
    )
    assert code == 2
    assert "losslessness" in err


# --- determinism -----------------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["decode", *BASE, "--strategy", "mix_order", "--draft-length", "4"]
    outputs = set()
    for _ in range(3):
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_run_decode_matches_cli_output(capsys):
    """The Python entry point and the CLI produce the same report."""
    config = RunConfig(seed=3, vocab_size=24, gen_len=16, block_len=8,
                       draft_len=3, strategy="greedy", topk=5)
    report, trace = run_decode(config)
    code, out, _ = run_main(
        capsys, ["decode", *BASE, "--strategy", "greedy", "--draft-length", "3"]
    )
    assert code == 0
    assert report_from_lines(out.splitlines()) == report
    assert len(trace.records) == 16
