"""Run configuration and machine-readable reports.

Reports are line-delimited JSON with sorted keys: a kind header, a config
echo, a result line, then one line per verification round.  Field order is
stable, floats serialize via repr, and no timestamps or hostnames are
recorded, so identical configs produce byte-identical reports and golden
file diffs stay meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable

from .ssd import RoundStats

STRATEGIES = ("stepwise", "greedy", "mix_order")
BACKENDS = ("synthetic", "table")

DISCLAIMER = (
    "speedup counts forward passes under the memory-bound assumption that "
    "a batched forward costs about the same as a single one; no wall-clock "
    "measurement is made"
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
            value = getattr(self, f.name)
            # f.type is the annotation text under `from __future__ import annotations`
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        sharpness = self.sharpness
        if isinstance(sharpness, bool) or not isinstance(sharpness, (int, float)):
            raise ValueError(f"sharpness must be a number, got {sharpness!r}")
        if not (math.isfinite(sharpness) and sharpness > 0):
            raise ValueError("sharpness must be finite and positive")
        if not (self.table_path is None or isinstance(self.table_path, str)):
            raise ValueError(f"table_path must be a string, got {self.table_path!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.backend == "table" and not self.table_path:
            raise ValueError("table backend requires table_path")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if self.gen_len < 1 or self.block_len < 1 or self.draft_len < 1:
            raise ValueError("gen_len, block_len and draft_len must be >= 1")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")
        for tok in self.prompt:
            if not (_is_int(tok) and 0 <= tok < self.vocab_size):
                raise ValueError(f"prompt token {tok!r} outside vocabulary")

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
    disclaimer: str = DISCLAIMER

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


# report kind -> result-line keys of (baseline_forwards, actual_forwards)
_FORWARD_KEYS = {
    "report": ("baseline_forwards", "actual_forwards"),
    "compare": ("stepwise_forwards", "ssd_forwards"),
}
_RESULT_KEYS = {"tokens", "fallback_steps", "reduction", "speedup", "disclaimer"}


def _dumps(obj: dict) -> str:
    """The one JSON-lines serializer for reports and sweep output."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _result(report: Report) -> dict:
    """The result line's fields; sweep lines reuse all but tokens and disclaimer."""
    baseline_key, actual_key = _FORWARD_KEYS["compare" if report.compared else "report"]
    result = {
        "tokens": list(report.tokens),
        baseline_key: report.baseline_forwards,
        actual_key: report.actual_forwards,
        "fallback_steps": report.fallback_steps,
        "reduction": report.reduction,
        "speedup": report.speedup,
        "disclaimer": report.disclaimer,
    }
    if report.compared:
        result["identical"] = True
    return result


def report_to_lines(report: Report) -> list[str]:
    lines = [
        _dumps({"kind": "compare" if report.compared else "report", "version": 1}),
        _dumps({"config": report.config.to_dict()}),
        _dumps({"result": _result(report)}),
    ]
    lines.extend(_dumps({"round": asdict(r)}) for r in report.rounds)
    return lines


def report_from_lines(lines: Iterable[str]) -> Report:
    entries = [json.loads(line) for line in lines if line.strip()]
    try:
        kind = entries[0]["kind"]
        if kind not in _FORWARD_KEYS:
            raise ValueError(f"unknown report kind {kind!r}")
        config = RunConfig.from_dict(entries[1]["config"])
        config.validate()
        result = dict(entries[2]["result"])
        rounds = tuple(RoundStats(**entry["round"]) for entry in entries[3:])
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from None
    compared = kind == "compare"
    if compared and result.pop("identical", None) is not True:
        raise ValueError("a compare report must carry identical: true")
    baseline_key, actual_key = _FORWARD_KEYS[kind]
    expected = _RESULT_KEYS | {baseline_key, actual_key}
    if set(result) != expected:
        raise ValueError(
            f"result fields {sorted(result)} differ from {sorted(expected)}"
        )
    if result[baseline_key] != config.gen_len:
        raise ValueError(f"{baseline_key} differs from gen_len {config.gen_len}")
    return Report(
        config=config,
        tokens=tuple(result["tokens"]),
        actual_forwards=result[actual_key],
        fallback_steps=result["fallback_steps"],
        rounds=rounds,
        compared=compared,
        disclaimer=result["disclaimer"],
    )


def render_report(report: Report) -> str:
    return "\n".join(report_to_lines(report)) + "\n"
