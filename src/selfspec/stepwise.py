"""Stepwise decoding: the one-token-per-forward baseline and ground truth.

Each step runs one forward pass, restricts attention to the masked positions
of the current block, and finalizes the single position whose argmax token
has the highest softmax confidence (ties break to the lowest position, then
the lowest token id).  The speculative decoder is specified and tested
against this rule: its output must match stepwise output token for token.

Every step is recorded in a DecodeTrace.  A record keeps the chosen
(position, token, confidence) and, optionally, the top-K candidate tokens at
every then-masked position, which is what the acceptance-limit analyzer
consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .models import MaskedModel, softmax_matrix
from .sequence import SequenceState, current_block, masked_in_blocks, place_token
from .sequence import schedule_for  # noqa: F401  (wrapped here by perfbench/tracer.py)

Candidates = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class StepRecord:
    """One finalized token plus the candidate snapshot taken before the step."""

    position: int
    token: int
    confidence: float
    # Maps masked position -> top-K (token, probability) pairs; None when
    # candidate recording is disabled or unavailable (speculative rounds).
    topk: dict[int, Candidates] | None = None


@dataclass(frozen=True)
class DecodeTrace:
    """Ordered acceptance record of a decode run.

    ``decoder`` is "stepwise" or "ssd"; ``topk`` is the number of candidates
    recorded per masked position (0 when recording was disabled).
    """

    decoder: str
    prompt_len: int
    gen_len: int
    block_len: int
    mask_id: int
    topk: int
    records: tuple[StepRecord, ...]

    def positions(self) -> tuple[int, ...]:
        return tuple(r.position for r in self.records)


def choose_step(positions: np.ndarray, probs: np.ndarray) -> tuple[int, int, float]:
    """The stepwise choice among ascending positions, one probability row
    each: (position, token, confidence).

    Highest max-softmax confidence wins, ties to the lowest position, then
    lowest token id.
    """
    confs = probs.max(axis=1)
    row = int(np.argmax(confs))  # first max -> lowest position
    tok = int(np.argmax(probs[row]))  # first max -> lowest token id
    return int(positions[row]), tok, float(confs[row])


def candidate_snapshot(
    state: SequenceState, probs: np.ndarray, k: int
) -> dict[int, Candidates]:
    """Top-k (token, probability) pairs at every masked position."""
    masked = state.masked_positions()
    sub = probs[list(masked)]
    order = np.argsort(-sub, axis=1, kind="stable")[:, :k]
    snapshot: dict[int, Candidates] = {}
    for row, pos in enumerate(masked):
        toks = order[row]
        snapshot[pos] = tuple((int(t), float(sub[row, t])) for t in toks)
    return snapshot


def decode_remaining(
    model: MaskedModel, state: SequenceState, topk: int
) -> tuple[SequenceState, list[StepRecord]]:
    """Run stepwise steps (one forward each) until no masks remain."""
    records: list[StepRecord] = []
    while current_block(state) is not None:
        logits = model.forward([state])[0]
        probs = softmax_matrix(logits)
        snapshot = candidate_snapshot(state, probs, topk) if topk > 0 else None
        positions = masked_in_blocks(state, 1)
        pos, tok, conf = choose_step(positions, probs[positions])
        state = place_token(state, pos, tok)
        records.append(
            StepRecord(position=pos, token=tok, confidence=conf, topk=snapshot)
        )
    return state, records


def stepwise_decode(
    model: MaskedModel, state: SequenceState, topk: int = 5
) -> tuple[SequenceState, DecodeTrace]:
    """Decode every masked position, one token per forward pass.

    Returns the final state and the full trace; the forward-pass count of a
    stepwise run always equals the number of masked positions decoded.
    """
    if current_block(state) is None:
        raise ValueError("state has no masked positions to decode")
    effective_k = min(topk, model.vocab_size) if topk > 0 else 0
    final, records = decode_remaining(model, state, effective_k)
    trace = DecodeTrace(
        decoder="stepwise",
        prompt_len=state.prompt_len,
        gen_len=state.gen_len,
        block_len=state.block_len,
        mask_id=state.mask_id,
        topk=effective_k,
        records=tuple(records),
    )
    return final, trace


# ---------------------------------------------------------------------------
# Trace serialization: line-delimited JSON, exact round-trip
# ---------------------------------------------------------------------------


def _record_to_obj(rec: StepRecord) -> dict:
    topk = None
    if rec.topk is not None:
        topk = [[pos, [[t, p] for t, p in cands]] for pos, cands in sorted(rec.topk.items())]
    return {
        "position": rec.position,
        "token": rec.token,
        "confidence": rec.confidence,
        "topk": topk,
    }


def _int(value, name: str) -> int:
    """value itself if it is an int (a bool is not one); ValueError otherwise."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _float(value, name: str) -> float:
    """value as a float if it is a finite int or float (a bool is not one);
    ValueError otherwise."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _record_from_obj(obj: dict) -> StepRecord:
    topk = None
    if obj["topk"] is not None:
        topk = {
            _int(pos, "topk position"): tuple(
                (_int(t, "topk token"), _float(p, "topk probability")) for t, p in cands
            )
            for pos, cands in obj["topk"]
        }
    return StepRecord(
        position=_int(obj["position"], "position"),
        token=_int(obj["token"], "token"),
        confidence=_float(obj["confidence"], "confidence"),
        topk=topk,
    )


def trace_to_lines(trace: DecodeTrace) -> list[str]:
    header = {f.name: getattr(trace, f.name) for f in fields(trace) if f.name != "records"}
    header["kind"] = "trace"
    lines = [json.dumps(header, sort_keys=True)]
    for rec in trace.records:
        lines.append(json.dumps(_record_to_obj(rec), sort_keys=True))
    return lines


def _header_from_obj(obj: dict) -> DecodeTrace:
    if obj.get("kind") != "trace":
        raise ValueError("first line is not a trace header")
    if obj["decoder"] not in ("stepwise", "ssd"):
        raise ValueError(f"decoder must be 'stepwise' or 'ssd', got {obj['decoder']!r}")
    ints = ("prompt_len", "gen_len", "block_len", "mask_id", "topk")
    return DecodeTrace(
        decoder=obj["decoder"], records=(), **{k: _int(obj[k], k) for k in ints}
    )


def trace_from_lines(lines: list[str]) -> DecodeTrace:
    """Parse a header line and record lines; any malformed line is a
    ValueError naming its line number."""
    trace = None
    records: list[StepRecord] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            if trace is None:
                trace = _header_from_obj(obj)
            else:
                records.append(_record_from_obj(obj))
        except KeyError as exc:
            raise ValueError(f"trace line {lineno} lacks field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    if trace is None:
        raise ValueError("empty trace")
    return replace(trace, records=tuple(records))


def write_trace(trace: DecodeTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace_to_lines(trace)) + "\n")


def read_trace(path: str) -> DecodeTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_lines(fh.readlines())
