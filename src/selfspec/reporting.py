"""Run configuration and machine-readable reports.

Reports are line-delimited JSON with sorted keys: a kind header, a config
echo, a result line, then one line per verification round.  Field order is
stable, floats serialize via repr, and no timestamps or hostnames are
recorded, so identical configs produce byte-identical reports and golden
file diffs stay meaningful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable

from .jsonl import dumps, integer, number, read_lines
from .models import SynthModelConfig
from .ssd import DECODE_SHAPES, MAX_DRAFT_LEN, RoundStats

STRATEGIES = ("stepwise", *DECODE_SHAPES)
BACKENDS = ("synthetic", "table")

DISCLAIMER = (
    "speedup counts forward passes under the memory-bound assumption that "
    "a batched forward costs about the same as a single one; no wall-clock "
    "measurement is made"
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a decode run depends on; the single source of randomness
    is the seed."""

    backend: str = "synthetic"
    seed: int = 0
    vocab_size: int = 64
    sharpness: float = 6.0
    context_window: int = 2
    table_path: str | None = None
    prompt: tuple[int, ...] = ()
    gen_len: int = 256
    block_len: int = 8
    draft_len: int = 3
    strategy: str = "greedy"
    topk: int = 5

    def validate(self) -> None:
        for f in fields(self):
            # f.type is the annotation text under `from __future__ import annotations`
            if f.type == "int":
                integer(getattr(self, f.name), f.name)
        number(self.sharpness, "sharpness")
        self.synth_config()  # checks vocab_size, sharpness and context_window
        if not (self.table_path is None or isinstance(self.table_path, str)):
            raise ValueError(f"table_path must be a string, got {self.table_path!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.backend == "table" and not self.table_path:
            raise ValueError("table backend requires table_path")
        # upper bounds keep positions inside int64 arrays and trees at most 512 nodes
        if not (1 <= self.gen_len <= 2**20 and 1 <= self.block_len <= 2**20
                and 1 <= self.draft_len <= MAX_DRAFT_LEN):
            raise ValueError("gen_len and block_len must be in [1, 2**20], draft_len in [1, 2**8]")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")
        for tok in self.prompt:
            if not 0 <= integer(tok, "prompt token") < self.vocab_size:
                raise ValueError(f"prompt token {tok!r} outside vocabulary")

    def synth_config(self) -> SynthModelConfig:
        """The synthetic backend's parameters; raises on an out-of-range one."""
        return SynthModelConfig(self.seed, self.vocab_size, self.sharpness, self.context_window)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["prompt"] = list(self.prompt)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        prompt = data.get("prompt", [])
        if not isinstance(prompt, list):
            raise ValueError(f"prompt must be a list of token ids, got {prompt!r}")
        return cls(**{**data, "prompt": tuple(prompt)})


def merge_config(base: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None override fields on top of a base config."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if "prompt" in updates:
        updates["prompt"] = tuple(updates["prompt"])
    return replace(base, **updates)


@dataclass(frozen=True)
class Report:
    """Outcome of one decode run.

    ``compared`` marks a report whose tokens were checked against a stepwise
    decode of the same config; such a report exists only when they matched.
    """

    config: RunConfig
    tokens: tuple[int, ...]
    actual_forwards: int
    fallback_steps: int = 0
    rounds: tuple[RoundStats, ...] = ()
    compared: bool = False

    @property
    def baseline_forwards(self) -> int:
        """The stepwise equivalent: one forward per generated token."""
        return self.config.gen_len

    @property
    def reduction(self) -> float:
        return 1.0 - self.actual_forwards / self.baseline_forwards

    @property
    def speedup(self) -> float:
        return self.baseline_forwards / self.actual_forwards


# compared -> result-line keys of (baseline_forwards, actual_forwards)
_FORWARD_KEYS = {
    False: ("baseline_forwards", "actual_forwards"),
    True: ("stepwise_forwards", "ssd_forwards"),
}


def _result(report: Report) -> dict:
    """The result line's fields; sweep lines reuse all but tokens and disclaimer."""
    baseline_key, actual_key = _FORWARD_KEYS[report.compared]
    result = {
        "tokens": list(report.tokens),
        baseline_key: report.baseline_forwards,
        actual_key: report.actual_forwards,
        "fallback_steps": report.fallback_steps,
        "reduction": report.reduction,
        "speedup": report.speedup,
        "disclaimer": DISCLAIMER,
    }
    if report.compared:
        result["identical"] = True
    return result


# the bytes dumps writes for a round's fields, its iteration and cumulative_forwards
_ROUND_LINE = ('{"round": {"accepted": %d, "batch_size": %d, '
               '"cumulative_forwards": %d, "iteration": %d}}')


def report_to_lines(report: Report) -> list[str]:
    lines = [
        dumps({"kind": "compare" if report.compared else "report", "version": 1}),
        dumps({"config": report.config.to_dict()}),
        dumps({"result": _result(report)}),
    ]
    # a round's index and the forwards run by its end (the drafting forward
    # and one per round so far) follow from its place in the report
    lines.extend(_ROUND_LINE % (r.accepted, r.batch_size, i + 2, i)
                 for i, r in enumerate(report.rounds))
    return lines


def report_from_lines(lines: Iterable[str]) -> Report:
    """Read the fields a Report holds, then accept the lines only if the
    report renders back to exactly them, which checks every derived value
    (kind, baseline, ratios, disclaimer, the compare mark, each round's
    iteration and cumulative_forwards)."""
    entries = read_lines(lines, "report", dict)
    try:
        header, config, result, *rounds = entries
        compared = header["kind"] == "compare"
        result, actual_key = result["result"], _FORWARD_KEYS[compared][1]
        report = Report(
            config=RunConfig.from_dict(config["config"]),
            tokens=tuple(integer(t, "token") for t in result["tokens"]),
            actual_forwards=integer(result[actual_key], actual_key),
            fallback_steps=integer(result["fallback_steps"], "fallback_steps"),
            rounds=tuple(
                RoundStats(**{f.name: integer(r["round"][f.name], f.name)
                              for f in fields(RoundStats)})
                for r in rounds
            ),
            compared=compared,
        )
        report.config.validate()
        rendered = report_to_lines(report)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from None
    if rendered != [dumps(entry) for entry in entries]:
        raise ValueError("inconsistent report: it does not render back to its own lines")
    return report


def render_report(report: Report) -> str:
    return "\n".join(report_to_lines(report)) + "\n"
