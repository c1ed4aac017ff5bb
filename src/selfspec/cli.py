"""Command-line surface: decode, compare, analyze, sweep.

Exit codes: 0 success, 1 usage or configuration error, 2 losslessness
violation (speculative output differed from stepwise output, which indicates
a bug rather than an expected condition).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .analyzer import format_grid
from .jsonl import dumps
from .models import FixtureMissError, MaskedModel, SyntheticModel, load_table_fixture
from .reporting import STRATEGIES, Report, RunConfig, _result, merge_config, render_report
from .sequence import SequenceState, initial_state
from .ssd import SsdResult, ssd_decode
from .stepwise import DecodeTrace, read_trace, stepwise_decode, write_trace


class LosslessnessError(Exception):
    """Speculative decode produced different tokens than stepwise decode."""


def build_model(config: RunConfig) -> MaskedModel:
    if config.backend == "synthetic":
        return SyntheticModel(config.synth_config())
    model = load_table_fixture(config.table_path)
    if model.vocab_size != config.vocab_size:
        raise ValueError(
            f"table fixture has vocab_size {model.vocab_size}, "
            f"config says {config.vocab_size}"
        )
    return model


def start_state(config: RunConfig) -> SequenceState:
    # mask id sits one past the vocabulary so predictions can never emit it
    return initial_state(
        prompt=config.prompt,
        gen_len=config.gen_len,
        mask_id=config.vocab_size,
        block_len=config.block_len,
    )


def _ssd_report(config: RunConfig, result: SsdResult, compared: bool = False) -> Report:
    return Report(
        config=config,
        tokens=result.state.tokens,
        actual_forwards=result.forward_count,
        fallback_steps=result.fallback_steps,
        rounds=result.rounds,
        compared=compared,
    )


def run_decode(config: RunConfig, *, trace: bool = False) -> tuple[Report, DecodeTrace | None]:
    """The report of a decode, and its trace only when trace is true: only then
    does stepwise take the config.topk snapshot, which no report byte depends on."""
    config.validate()
    model = build_model(config)
    state = start_state(config)
    if config.strategy == "stepwise":
        final, steps = stepwise_decode(model, state, topk=config.topk if trace else 0)
        return Report(config, final.tokens, config.gen_len), steps if trace else None
    result = ssd_decode(model, state, n=config.draft_len, shape=config.strategy)
    return _ssd_report(config, result), result.trace if trace else None


def run_compare(configs: list[RunConfig]) -> list[Report]:
    """Run stepwise and then each config's speculative strategy on one model
    and prompt, so configs may differ only in strategy and draft length; raise
    LosslessnessError when an output differs, otherwise return the speculative
    reports marked as compared."""
    for config in configs:
        config.validate()
        if config.strategy == "stepwise":
            raise ValueError("compare needs a speculative strategy (greedy or mix_order)")
    model = build_model(configs[0])
    state = start_state(configs[0])
    baseline, _ = stepwise_decode(model, state, topk=0)
    reports = []
    for config in configs:
        result = ssd_decode(model, state, n=config.draft_len, shape=config.strategy)
        if baseline.tokens != result.state.tokens:
            raise LosslessnessError(
                f"{config.strategy} output diverged from stepwise output "
                f"(seed={config.seed}, gen_len={config.gen_len}, "
                f"block_len={config.block_len}, draft_len={config.draft_len})"
            )
        reports.append(_ssd_report(config, result, compared=True))
    return reports


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors and prints the usage first; the
    contract here is exit 1 with one error line."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, kind: type = int) -> tuple:
    """Items of type kind separated by commas, whitespace or both; an empty
    item between commas is an error."""
    if "," in text and not all(item.strip() for item in text.split(",")):
        raise ValueError(f"empty item in list {text!r}")
    return tuple(kind(piece) for piece in text.replace(",", " ").split())


def _add_config_flags(sub: argparse.ArgumentParser, with_strategy: bool = True) -> None:
    sub.add_argument("--config", help="JSON file with run-config fields")
    sub.add_argument("--backend", choices=("synthetic", "table"))
    sub.add_argument("--seed", type=int)
    sub.add_argument("--vocab-size", type=int, dest="vocab_size")
    sub.add_argument("--sharpness", type=float)
    sub.add_argument("--context-window", type=int, dest="context_window")
    sub.add_argument("--table", dest="table_path", help="table-model fixture path")
    prompt = sub.add_mutually_exclusive_group()
    prompt.add_argument("--prompt", help="comma-separated prompt token ids")
    prompt.add_argument("--prompt-file", help="file of whitespace-separated ids")
    sub.add_argument("--gen-length", type=int, dest="gen_len")
    sub.add_argument("--block-length", type=int, dest="block_len")
    sub.add_argument("--draft-length", type=int, dest="draft_len")
    if with_strategy:
        sub.add_argument("--strategy", choices=STRATEGIES)
    sub.add_argument("--topk", type=int)
    sub.add_argument("--out", help="write the report here instead of stdout")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        base = RunConfig.from_dict(data)
    else:
        base = RunConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if args.prompt is not None:
        overrides["prompt"] = _parse_list(args.prompt)
    elif args.prompt_file:
        with open(args.prompt_file, "r", encoding="utf-8") as fh:
            overrides["prompt"] = _parse_list(fh.read())
    return merge_config(base, overrides)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decode(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report, trace = run_decode(config, trace=bool(args.trace_out))
    if args.trace_out:
        write_trace(trace, args.trace_out)
    _emit(render_report(report), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = run_compare([_config_from_args(args)])[0]
    _emit(render_report(report), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    if trace.decoder != "stepwise":
        raise ValueError(f"analyze needs a stepwise trace, got a {trace.decoder!r} trace")
    draft_lengths = _parse_list(args.draft_length)
    topk_values = _parse_list(args.topk)
    _emit(format_grid(trace, draft_lengths, topk_values) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    draft_lengths = _parse_list(args.draft_lengths)
    strategies = _parse_list(args.strategies, str)
    if not draft_lengths or not strategies:
        raise ValueError("sweep needs at least one draft length and one strategy")
    combos = [merge_config(config, {"strategy": strategy, "draft_len": n})
              for strategy in strategies for n in draft_lengths]
    lines = [dumps({"kind": "sweep", "version": 1}), dumps({"config": config.to_dict()})]
    for combo, report in zip(combos, run_compare(combos)):
        result = _result(report)
        del result["tokens"], result["disclaimer"]
        lines.append(dumps({"sweep": {"strategy": combo.strategy,
                                      "draft_len": combo.draft_len, **result}}))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selfspec",
        description="Speculative decoding for masked-diffusion text generation.",
    )
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    decode = subparsers.add_parser("decode", help="run one decoder, emit a report")
    _add_config_flags(decode)
    decode.add_argument("--trace-out", dest="trace_out", help="write the step trace here")
    decode.set_defaults(func=_cmd_decode)

    compare = subparsers.add_parser(
        "compare", help="run stepwise and a speculative strategy, check identity"
    )
    _add_config_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    analyze = subparsers.add_parser(
        "analyze", help="idealized acceptance analysis over a recorded trace"
    )
    analyze.add_argument("--trace", required=True, help="trace file from decode")
    analyze.add_argument(
        "--draft-length", default="3,4,5", dest="draft_length",
        help="comma-separated draft lengths",
    )
    analyze.add_argument(
        "--topk", default="1,2,3,5", help="comma-separated candidate counts"
    )
    analyze.add_argument("--out", help="write the table here instead of stdout")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = subparsers.add_parser(
        "sweep", help="compare strategies across draft lengths on one model"
    )
    _add_config_flags(sweep, with_strategy=False)
    sweep.add_argument(
        "--draft-lengths", default="3,4,5", dest="draft_lengths",
        help="comma-separated draft lengths",
    )
    sweep.add_argument(
        "--strategies", default="greedy,mix_order",
        help="comma-separated speculative strategies",
    )
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except LosslessnessError as exc:
        print(f"selfspec: losslessness violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FixtureMissError, MemoryError) as exc:
        print(f"selfspec: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
