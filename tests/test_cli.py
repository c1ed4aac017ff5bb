"""Command-line behavior: subcommands, exit codes, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from conftest import FIXTURES, CountingModel, ForwardFails, address_space_capped, recorded_table
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    MaskedModel,
    RunConfig,
    dump_table_fixture,
    read_trace,
    render_report,
    report_from_lines,
    ssd_decode,
    stepwise_decode,
    trace_from_lines,
    trace_to_lines,
)
from selfspec.cli import LosslessnessError, build_model, main, run_compare, run_decode, start_state
import selfspec.cli as cli_mod
import selfspec.stepwise as stepwise_mod
from selfspec.jsonl import dumps


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
    assert trace.decoder == "ssd" and len(trace.positions) == 16


def test_decode_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run_main(
        capsys, ["decode", *BASE, "--strategy", "greedy", "--out", str(out_path)]
    )
    assert code == 0 and out == ""
    report = report_from_lines(out_path.read_text(encoding="utf-8").splitlines())
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
    assert report.compared is True
    assert json.loads(out.splitlines()[2])["result"]["identical"] is True
    assert report.actual_forwards <= report.baseline_forwards == 16
    assert report.reduction == pytest.approx(1 - report.actual_forwards / 16)


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


def test_analyze_rejects_a_trace_that_would_not_write_back(capsys, tmp_path):
    """A snapshot that repeats a position, lists a non-mask, holds more
    candidates than the header's topk, or is missing: one error line."""
    header = dumps({"kind": "trace", "decoder": "stepwise", "prompt_len": 0, "gen_len": 1,
                    "block_len": 1, "mask_id": 2, "topk": 1})
    path = tmp_path / "trace.jsonl"
    for topk in ("[[0, [[1, 0.5]]], [0, [[1, 0.5]]]]", "[[0, [[1, 0.5]]], [99, [[1, 0.5]]]]",
                 "[[0, [[1, 0.5], [0, 0.25]]]]", "null"):
        record = '{"confidence": 0.5, "position": 0, "token": 1, "topk": %s}' % topk
        path.write_text(f"{header}\n{record}\n", encoding="utf-8")
        code, out, err = run_main(capsys, ["analyze", "--trace", str(path), "--topk", "1"])
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert "trace line 2" in err


def test_decode_trace_too_large_exits_one_before_any_forward(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli_mod, "build_model", lambda config: ForwardFails())
    trace_path = tmp_path / "trace.jsonl"
    with address_space_capped():
        code, out, err = run_main(capsys, ["decode", "--strategy", "stepwise", "--vocab-size",
                                           "64", "--gen-length", "1048576", "--topk", "5",
                                           "--trace-out", str(trace_path)])
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert "allocate" in err and not trace_path.exists()


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
        ["decode", "--prompt", "1,,2"],
        ["decode", "--prompt", ",,,"],
        ["analyze", "--trace", "x", "--bogus"],
        # vocabularies no int64 token array or memory holds
        ["decode", "--vocab-size", "100000000000000000000"],
        ["decode", "--vocab-size", "100000000000"],
        # lengths past their bounds: no OverflowError, no gigabyte arrays
        ["decode", "--gen-length", "100000000000000000000"],
        ["decode", "--gen-length", "8", "--block-length", "100000000000000000000"],
        ["decode", "--context-window", "100000000000000000000"],
        ["decode", "--draft-length", "100000000000000000000"],
        ["decode", "--gen-length", "1048577"],
        ["decode", "--context-window", "1025"],
        ["sweep", "--draft-lengths", "257"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576) "
                 "and data type float64"), MemoryError()],
)
def test_refused_allocation_exits_one_with_one_line(capsys, monkeypatch, error):
    """A valid config whose reads the allocator refuses fails like a bad one."""

    def refuse(config):
        raise error

    monkeypatch.setattr(cli_mod, "build_model", refuse)
    code, out, err = run_main(capsys, ["decode", *BASE, "--strategy", "stepwise"])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("selfspec: error: "), err
    assert err.strip() != "selfspec: error:", err


TABLE_ROW = '{"tokens": [2, 2], "logits": [[0.0, 1.0], [1.0, 0.0]]}'
# every state the table argv below decodes through, so only a bad line fails
TABLE = TABLE_ROW + '\n{"tokens": [1, 2], "logits": [[0.0, 1.0], [1.0, 0.0]]}'
TRACE_HEADER = ('{"kind": "trace", "decoder": "%s", "prompt_len": %d, "gen_len": %d, '
                '"block_len": %d, "mask_id": %d, "topk": 5}')
TRACE_RECORD = '\n{"position": %d, "token": %d, "confidence": 0.5, "topk": [[7, [[1, 0.5]]]]}'


@pytest.mark.parametrize(
    "kind, content",
    [
        ("config", '{"prompt": 5}'),
        ("config", '{"gen_len": "abc"}'),
        ("config", '{"gen_len": 8.5}'),
        ("config", '{"gen_len": true, "block_len": 1}'),
        ("config", '{"seed": 1.5}'),
        ("config", '{"sharpness": "x"}'),
        ("config", '{"table_path": 5, "backend": "table"}'),
        ("config", "[1]"),
        ("config", '{"vocab_size": %s}' % ("9" * 400)),
        ("trace", "[1]"),
        ("trace", '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, '
                  '"gen_len": 1, "block_len": 1, "mask_id": 2, "topk": 1}\n[1]'),
        ("trace", '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, '
                  '"gen_len": 1, "block_len": 1, "mask_id": 2, "topk": 1}\n'
                  '{"position": 0, "token": 1, "confidence": 0.5, "topk": 5}'),
        ("trace", '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, '
                  '"gen_len": 2.9, "block_len": 1, "mask_id": 2, "topk": 1}\n'
                  '{"position": 0.7, "token": 1, "confidence": 0.5, "topk": null}'),
        ("trace", '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, '
                  '"gen_len": 1, "block_len": 1, "mask_id": 9, "topk": 5}\n'
                  '{"position": 0, "token": 1, "confidence": "0.5", "topk": [[0, [[1, true], '
                  '[2, 0.1], [3, 0.1], [4, 0.1], [5, 0.1]]]]}'),
        # a layout no state has, a position outside it, a position decoded twice
        ("trace", TRACE_HEADER % ("ssd", -3, -1, 0, -2) + TRACE_RECORD % (99, -5)
                  + TRACE_RECORD % (7, 1) + TRACE_RECORD % (7, 1)),
        ("trace", TRACE_HEADER % ("ssd", 7, 1, 1, 2) + TRACE_RECORD % (7, 1)),  # not stepwise
        # lengths no memory holds: the replay must not allocate from the header
        ("trace", TRACE_HEADER % ("stepwise", 7, 10**20, 1, 2) + TRACE_RECORD % (7, 1)),
        ("trace", TRACE_HEADER % ("stepwise", 10**20, 1, 1, 2) + TRACE_RECORD % (7, 1)),
        ("trace", TRACE_HEADER % ("stepwise", 0, 1, 1, 2)
                  + TRACE_RECORD.replace("0.5", "9" * 400) % (0, 1)),
        ("table", "[1]"),
        ("table", TABLE + '\n{"tokens": ["1", 1], "logits": [[0.0, 1.0], [1.0, 0.0]]}'),
        ("table", TABLE + '\n{"tokens": [1, 1.0], "logits": [[0.0, 1.0], [1.0, 0.0]]}'),
        ("table", TABLE + '\n{"tokens": [1, 1], "logits": [[0.0, "1.0"], [1.0, 0.0]]}'),
        ("table", TABLE + '\n{"tokens": [1, 1], "logits": [[0.0, true], [1.0, 0.0]]}'),
        ("table", TABLE + '\n{"tokens": [1, 1], "logits": [[0.0, %s], [1.0, 0.0]]}' % ("9" * 400)),
        ("table", TABLE_ROW + '\n{"tokens": 5, "logits": [[0.0, 1.0]]}'),
        ("table", TABLE_ROW + '\n{"tokens": [[1]], "logits": [[0.0, 1.0]]}'),
    ],
)
def test_malformed_input_file_exits_one_with_one_line(capsys, tmp_path, kind, content):
    path = tmp_path / "input.jsonl"
    path.write_text(content + "\n", encoding="utf-8")
    argv = {
        "config": ["decode", "--config", str(path)],
        "trace": ["analyze", "--trace", str(path)],
        "table": ["decode", "--backend", "table", "--table", str(path),
                  "--vocab-size", "2", "--gen-length", "2", "--block-length", "2"],
    }[kind]
    code, out, err = run_main(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("selfspec: error: "), err


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

    def forward(self, states):
        self._calls += 1
        tok = 1 if self._calls == 1 else 2

        def read(positions, out=None):
            mat = np.empty((len(positions), self._vocab)) if out is None else out[: len(positions)]
            mat[:] = 0.0
            mat[:, tok] = 5.0
            return mat

        return [read] * len(states)


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


GOLDEN_BASE = [
    "--seed", "5", "--vocab-size", "32", "--gen-length", "40",
    "--block-length", "8", "--draft-length", "4",
]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("decode_mix_order", ["decode", *GOLDEN_BASE, "--strategy", "mix_order"]),
        ("decode_stepwise", ["decode", *GOLDEN_BASE, "--strategy", "stepwise"]),
        ("compare_greedy", ["compare", *GOLDEN_BASE, "--strategy", "greedy"]),
        ("sweep", ["sweep", *GOLDEN_BASE, "--draft-lengths", "3,4",
                   "--strategies", "greedy,mix_order"]),
    ],
)
def test_output_bytes_match_golden_file(capsys, name, argv):
    """The acceptance criterion-8 commands print exactly the committed
    bytes, so any change to report layout, numbers or tokens shows here."""
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    assert out == (FIXTURES / "golden" / f"{name}.jsonl").read_text(encoding="utf-8")


GOLDEN_TRACE = ["--seed", "0", "--gen-length", "24", "--block-length", "8", "--topk", "3"]


def test_trace_and_analyze_bytes_match_golden_files(capsys, tmp_path):
    """A stepwise trace with a top-3 snapshot, a mix_order trace without one,
    and the analyze grid over the first are exactly the committed bytes."""
    golden = FIXTURES / "golden"
    for name, argv in (("trace_stepwise", ["--strategy", "stepwise"]),
                       ("trace_mix_order", ["--strategy", "mix_order", "--draft-length", "3"])):
        path = tmp_path / f"{name}.jsonl"
        code, _, _ = run_main(capsys, ["decode", *GOLDEN_TRACE, *argv, "--trace-out", str(path)])
        assert code == 0
        assert path.read_bytes() == (golden / f"{name}.jsonl").read_bytes()
    code, out, _ = run_main(capsys, ["analyze", "--trace", str(golden / "trace_stepwise.jsonl"),
                                     "--draft-length", "1,3,4", "--topk", "1,2,3"])
    assert code == 0
    assert out == (golden / "analyze_stepwise.txt").read_text(encoding="utf-8")


def test_run_decode_matches_cli_output(capsys):
    """The Python entry point and the CLI produce the same report."""
    config = RunConfig(seed=3, vocab_size=24, gen_len=16, block_len=8,
                       draft_len=3, strategy="greedy", topk=5)
    report, trace = run_decode(config, trace=True)
    code, out, _ = run_main(
        capsys, ["decode", *BASE, "--strategy", "greedy", "--draft-length", "3"]
    )
    assert code == 0
    assert report_from_lines(out.splitlines()) == report
    assert len(trace.positions) == 16


def _no_snapshot(*args):
    raise AssertionError("a decode without a trace took a top-k snapshot")


@pytest.mark.parametrize("strategy", ["stepwise", "greedy", "mix_order"])
def test_run_decode_takes_no_snapshot_without_a_trace(monkeypatch, strategy):
    """Without trace, no decode takes a top-k snapshot and none returns a
    trace, yet every report byte equals that of the traced decode, whose
    stepwise snapshot holds config.topk candidates."""
    for topk in (0, 1, 5, 8):
        config = RunConfig(seed=3, vocab_size=24, gen_len=16, block_len=8,
                           strategy=strategy, topk=topk)
        traced, trace = run_decode(config, trace=True)
        assert trace.topk == (topk if strategy == "stepwise" else 0)
        with monkeypatch.context() as patched:
            patched.setattr(stepwise_mod, "candidate_snapshot", _no_snapshot)
            plain, none = run_decode(config)
        assert none is None
        assert render_report(plain) == render_report(traced)


@pytest.mark.parametrize("strategy", ["stepwise", "greedy"])
def test_decode_trace_out_writes_the_traced_decode(capsys, tmp_path, strategy):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run_main(capsys, ["decode", *BASE, "--strategy", strategy, "--topk", "3",
                                   "--trace-out", str(trace_path)])
    assert code == 0
    config = RunConfig(seed=3, vocab_size=24, gen_len=16, block_len=8,
                       strategy=strategy, topk=3)
    want = trace_to_lines(run_decode(config, trace=True)[1])
    assert trace_path.read_text(encoding="utf-8") == "\n".join(want) + "\n"


# --- fuzzing ---------------------------------------------------------------
# Every flag value and input file either works (exit 0 and a report that
# parses back to itself, or a grid for analyze) or fails with exit 1, nothing
# on stdout and one line on stderr.  Each example starts from valid input and
# replaces or drops up to two values.  Sizes stay small (gen-length <= 24,
# vocab <= 40) so a few hundred examples run in seconds.

HUGE = [10**20, 2**63, 2**20 + 1]  # past the bound of every bounded integer flag
ODD_TEXT = st.sampled_from(["", ",", " ", "x", "1,,2", "0x1", "1e3", "-", "nan", "inf", "-inf",
                            "1e999", "0", "-1", "2.5", "41", *map(str, HUGE)])
JSON_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 41), st.sampled_from(HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3), st.just({}),
)
DROP = object()


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(argv, grid=False, sweep=False):
    code, out, err = _run_quietly(argv)
    if code == 0:
        if grid:
            assert out.startswith("draft_len") and out.endswith("\n"), out
        elif sweep:
            lines = out.splitlines()
            assert [dumps(json.loads(line)) for line in lines] == lines, out
            assert json.loads(lines[0])["kind"] == "sweep" and len(lines) > 2, out
        else:
            assert render_report(report_from_lines(out.splitlines())) == out
    else:
        assert code == 1 and out == "", (argv, code, out, err)
        assert len(err.splitlines()) == 1, (argv, err)


def _corrupt(data, obj: dict, odd) -> dict:
    """obj with up to two values replaced by draws from odd or dropped."""
    obj = dict(obj)
    for _ in range(data.draw(st.integers(0, 2), label="corruptions")):
        key = data.draw(st.sampled_from(sorted(obj)), label="key")
        obj[key] = data.draw(st.one_of(odd, st.just(DROP)), label=key)
    return {k: v for k, v in obj.items() if v is not DROP}


RUN_FIELDS = {
    "seed": st.integers(0, 9),
    "vocab_size": st.integers(2, 40),
    "gen_len": st.integers(1, 24),
    "block_len": st.integers(1, 24),
    "draft_len": st.integers(1, 6),
    "strategy": st.sampled_from(["stepwise", "greedy", "mix_order"]),
    "topk": st.integers(0, 45),
    "context_window": st.integers(0, 4),
    "sharpness": st.sampled_from([6, 0.5, 2.25, 1e-300, 1e300]),
}
FLAG_NAMES = {"vocab_size": "vocab-size", "gen_len": "gen-length", "block_len": "block-length",
              "draft_len": "draft-length", "context_window": "context-window"}


def _argv(flags: dict) -> list[str]:
    return [arg for name, value in flags.items()
            for arg in ("--" + FLAG_NAMES.get(name, name), str(value))]


@given(
    data=st.data(),
    command=st.sampled_from(["decode", "compare"]),
    run=st.fixed_dictionaries(RUN_FIELDS),
    prompt=st.sampled_from(["1", "0,1", " 1 , 0 ", "1 0", "", "1,,0", "-1", "40", "1.5"]),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_decode_and_compare_flags(data, command, run, prompt):
    flags = _corrupt(data, {**run, "prompt": prompt, "backend": "synthetic"},
                     st.one_of(ODD_TEXT, st.just("table")))
    _check_outcome([command, *_argv(flags)])


@given(
    data=st.data(),
    run=st.fixed_dictionaries({k: v for k, v in RUN_FIELDS.items() if k != "strategy"}),
    draft_lengths=st.sampled_from(["1", "3,4", "2 5"]),
    strategies=st.sampled_from(["greedy", "mix_order", "greedy,mix_order", "mix_order,"]),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_sweep_flags(data, run, draft_lengths, strategies):
    flags = _corrupt(data, {**run, "draft-lengths": draft_lengths, "strategies": strategies},
                     st.one_of(ODD_TEXT, st.sampled_from(["stepwise", "greedy,,x"])))
    _check_outcome(["sweep", *_argv(flags)], sweep=True)


@given(
    content=st.one_of(st.text(alphabet="0123456789 ,\n\t-+_.x", max_size=12),
                      st.binary(max_size=6)),
    run=st.fixed_dictionaries(RUN_FIELDS),
)
@settings(max_examples=100, deadline=None)
def test_fuzz_prompt_file_contents(tmp_path_factory, content, run):
    path = tmp_path_factory.mktemp("prompt") / "prompt.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    _check_outcome(["decode", "--prompt-file", str(path), *_argv(run)])


def _corrupt_nested(data, value):
    """value with one element at some depth (the value itself, a field, a
    list item, a list item's item) replaced by a draw from JSON_ODD."""
    if isinstance(value, (dict, list)) and value and data.draw(st.integers(0, 3), label="deeper"):
        key = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                        else range(len(value))), label="key")
        value = value.copy()
        value[key] = _corrupt_nested(data, value[key])
        return value
    return data.draw(JSON_ODD, label="value")


@given(
    data=st.data(),
    run=st.fixed_dictionaries({**RUN_FIELDS, "vocab_size": st.integers(2, 6),
                               "gen_len": st.integers(1, 6)}),
)
@settings(max_examples=100, deadline=None)
def test_fuzz_table_fixture_lines(tmp_path_factory, data, run):
    """A fixture recorded from a stepwise and a greedy decode with up to two
    values corrupted: a token, a logit, a row, a field or a whole line."""
    config = RunConfig(**run)
    model = CountingModel(build_model(config))
    stepwise_decode(model, start_state(config), topk=0)
    ssd_decode(model, start_state(config), n=config.draft_len, shape="greedy")
    path = tmp_path_factory.mktemp("table") / "table.jsonl"
    dump_table_fixture(recorded_table(model), str(path))
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for _ in range(data.draw(st.integers(0, 2), label="corruptions")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = _corrupt_nested(data, lines[i])
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    run = {**run, "backend": "table", "table": str(path)}
    _check_outcome(["decode", *_argv(run)])


@given(
    data=st.data(),
    run=st.fixed_dictionaries(
        RUN_FIELDS, optional={"prompt": st.lists(st.integers(0, 1), max_size=3),
                              "backend": st.just("synthetic"), "table_path": st.none()}),
)
@settings(max_examples=100, deadline=None)
def test_fuzz_config_file_fields(tmp_path_factory, data, run):
    config = _corrupt(data, run, JSON_ODD)
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    _check_outcome(["decode", "--config", str(path)])


@given(
    data=st.data(),
    run=st.fixed_dictionaries(RUN_FIELDS),
    draft_lengths=st.one_of(st.sampled_from(["1", "3,4,5", "2 3"]), ODD_TEXT),
    topk=st.one_of(st.sampled_from(["1", "1,2", "3"]), ODD_TEXT),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_analyze_trace_lines(tmp_path_factory, data, run, draft_lengths, topk):
    """A recorded stepwise trace with up to two lines corrupted: a field
    replaced or dropped, or the whole line replaced by another JSON value."""
    config = RunConfig(**{**run, "strategy": "stepwise", "gen_len": min(run["gen_len"], 8)})
    lines = [json.loads(line) for line in trace_to_lines(run_decode(config, trace=True)[1])]
    for _ in range(data.draw(st.integers(0, 2), label="corrupted lines")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if data.draw(st.booleans(), label="whole line"):
            lines[i] = data.draw(JSON_ODD, label="line value")
        elif isinstance(lines[i], dict) and lines[i]:  # {} has no field to corrupt
            lines[i] = _corrupt(data, lines[i], JSON_ODD)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    _check_outcome(["analyze", "--trace", str(path), "--draft-length", draft_lengths,
                    "--topk", topk], grid=True)


@given(data=st.data(), run=st.fixed_dictionaries({**RUN_FIELDS, "topk": st.integers(1, 45)}))
@settings(max_examples=100, deadline=None)
def test_fuzz_parsed_trace_writes_back_what_it_read(data, run):
    """A recorded stepwise trace with one element of one snapshot replaced at
    some depth either fails to parse or writes back the bytes it read."""
    config = RunConfig(**{**run, "strategy": "stepwise", "gen_len": min(run["gen_len"], 8)})
    lines = [json.loads(line) for line in trace_to_lines(run_decode(config, trace=True)[1])]
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    lines[i] = {**lines[i], "topk": _corrupt_nested(data, lines[i]["topk"])}
    text = [json.dumps(line) for line in lines]
    try:
        back = trace_from_lines(text)
    except ValueError:
        return
    assert trace_to_lines(back) == text
