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
from dataclasses import asdict, dataclass, replace
from typing import Iterable

from .ssd import RoundStats

STRATEGIES = ("stepwise", "greedy", "mix_order")
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
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.backend == "table" and not self.table_path:
            raise ValueError("table backend requires table_path")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not (math.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError("sharpness must be finite and positive")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if self.gen_len < 1 or self.block_len < 1 or self.draft_len < 1:
            raise ValueError("gen_len, block_len and draft_len must be >= 1")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")
        for tok in self.prompt:
            if not 0 <= tok < self.vocab_size:
                raise ValueError(f"prompt token {tok} outside vocabulary")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["prompt"] = list(self.prompt)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        merged = cls(**{**data, "prompt": tuple(data.get("prompt", ()))})
        return merged


def merge_config(base: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None override fields on top of a base config."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if "prompt" in updates:
        updates["prompt"] = tuple(updates["prompt"])
    return replace(base, **updates)


@dataclass(frozen=True)
class Report:
    """Outcome of a single decode run."""

    config: RunConfig
    tokens: tuple[int, ...]
    baseline_forwards: int  # stepwise equivalent: one per generated token
    actual_forwards: int
    fallback_steps: int
    rounds: tuple[RoundStats, ...]
    disclaimer: str = DISCLAIMER

    @property
    def reduction(self) -> float:
        return 1.0 - self.actual_forwards / self.baseline_forwards

    @property
    def speedup(self) -> float:
        return self.baseline_forwards / self.actual_forwards


@dataclass(frozen=True)
class CompareReport:
    """Outcome of a paired stepwise-versus-speculative run."""

    config: RunConfig  # the speculative side; the baseline differs only in strategy
    tokens: tuple[int, ...]
    stepwise_forwards: int
    ssd_forwards: int
    identical: bool
    fallback_steps: int
    rounds: tuple[RoundStats, ...]
    disclaimer: str = DISCLAIMER

    @property
    def reduction(self) -> float:
        return 1.0 - self.ssd_forwards / self.stepwise_forwards

    @property
    def speedup(self) -> float:
        return self.stepwise_forwards / self.ssd_forwards


def _dumps(obj: dict) -> str:
    """The one JSON-lines serializer for reports and sweep output."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _round_line(r: RoundStats) -> str:
    return _dumps(
        {
            "round": {
                "iteration": r.iteration,
                "batch_size": r.batch_size,
                "accepted": r.accepted,
                "cumulative_forwards": r.cumulative_forwards,
            }
        }
    )


def _rounds_from(lines: list[dict]) -> tuple[RoundStats, ...]:
    rounds = []
    for entry in lines:
        r = entry["round"]
        rounds.append(
            RoundStats(
                iteration=r["iteration"],
                batch_size=r["batch_size"],
                accepted=r["accepted"],
                cumulative_forwards=r["cumulative_forwards"],
            )
        )
    return tuple(rounds)


def report_to_lines(report: Report | CompareReport) -> list[str]:
    if isinstance(report, Report):
        kind = "report"
        result = {
            "tokens": list(report.tokens),
            "baseline_forwards": report.baseline_forwards,
            "actual_forwards": report.actual_forwards,
            "fallback_steps": report.fallback_steps,
            "reduction": report.reduction,
            "speedup": report.speedup,
            "disclaimer": report.disclaimer,
        }
    else:
        kind = "compare"
        result = {
            "tokens": list(report.tokens),
            "stepwise_forwards": report.stepwise_forwards,
            "ssd_forwards": report.ssd_forwards,
            "identical": report.identical,
            "fallback_steps": report.fallback_steps,
            "reduction": report.reduction,
            "speedup": report.speedup,
            "disclaimer": report.disclaimer,
        }
    lines = [
        _dumps({"kind": kind, "version": 1}),
        _dumps({"config": report.config.to_dict()}),
        _dumps({"result": result}),
    ]
    lines.extend(_round_line(r) for r in report.rounds)
    return lines


def report_from_lines(lines: Iterable[str]) -> Report | CompareReport:
    entries = [json.loads(line) for line in lines if line.strip()]
    if not entries or "kind" not in entries[0]:
        raise ValueError("not a report: missing kind header")
    kind = entries[0]["kind"]
    if kind not in ("report", "compare"):
        raise ValueError(f"unknown report kind {kind!r}")
    if len(entries) < 3 or "config" not in entries[1] or "result" not in entries[2]:
        raise ValueError("malformed report: expected config and result lines")
    config = RunConfig.from_dict(entries[1]["config"])
    result = entries[2]["result"]
    rounds = _rounds_from(entries[3:])
    if kind == "report":
        return Report(
            config=config,
            tokens=tuple(result["tokens"]),
            baseline_forwards=result["baseline_forwards"],
            actual_forwards=result["actual_forwards"],
            fallback_steps=result["fallback_steps"],
            rounds=rounds,
            disclaimer=result["disclaimer"],
        )
    return CompareReport(
        config=config,
        tokens=tuple(result["tokens"]),
        stepwise_forwards=result["stepwise_forwards"],
        ssd_forwards=result["ssd_forwards"],
        identical=result["identical"],
        fallback_steps=result["fallback_steps"],
        rounds=rounds,
        disclaimer=result["disclaimer"],
    )


def render_report(report: Report | CompareReport) -> str:
    return "\n".join(report_to_lines(report)) + "\n"


def write_report(report: Report | CompareReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def read_report(path: str) -> Report | CompareReport:
    with open(path, "r", encoding="utf-8") as fh:
        return report_from_lines(fh)
