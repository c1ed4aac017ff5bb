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
from dataclasses import dataclass

import numpy as np

from .models import MaskedModel, softmax_matrix
from .sequence import SequenceState, current_block, place_token, schedule_for

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

    def tokens(self) -> tuple[int, ...]:
        return tuple(r.token for r in self.records)


def choose_step(
    state: SequenceState, schedule: tuple[range, ...], probs: np.ndarray
) -> tuple[int, int, float]:
    """The stepwise choice from a probability matrix: (position, token, confidence).

    Restricted to masked positions of the current block; highest max-softmax
    confidence wins, ties to the lowest position, then lowest token id.
    """
    block_idx = current_block(state)
    if block_idx is None:
        raise ValueError("no masked positions remain")
    block = schedule[block_idx]
    positions = [p for p in block if state.is_masked(p)]
    sub = probs[positions]
    confs = sub.max(axis=1)
    local = int(np.argmax(confs))  # first max -> lowest position
    pos = positions[local]
    tok = int(np.argmax(sub[local]))  # first max -> lowest token id
    return pos, tok, float(confs[local])


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
    model: MaskedModel,
    state: SequenceState,
    schedule: tuple[range, ...],
    topk: int,
) -> tuple[SequenceState, list[StepRecord]]:
    """Run stepwise steps (one forward each) until no masks remain."""
    records: list[StepRecord] = []
    while current_block(state) is not None:
        logits = model.forward([state])[0]
        probs = softmax_matrix(logits)
        snapshot = candidate_snapshot(state, probs, topk) if topk > 0 else None
        pos, tok, conf = choose_step(state, schedule, probs)
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
    if not state.masked_positions():
        raise ValueError("state has no masked positions to decode")
    schedule = schedule_for(state)
    effective_k = min(topk, model.vocab_size) if topk > 0 else 0
    final, records = decode_remaining(model, state, schedule, effective_k)
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


def _record_from_obj(obj: dict) -> StepRecord:
    topk = None
    if obj["topk"] is not None:
        topk = {
            int(pos): tuple((int(t), float(p)) for t, p in cands)
            for pos, cands in obj["topk"]
        }
    return StepRecord(
        position=int(obj["position"]),
        token=int(obj["token"]),
        confidence=float(obj["confidence"]),
        topk=topk,
    )


def trace_to_lines(trace: DecodeTrace) -> list[str]:
    header = {
        "kind": "trace",
        "decoder": trace.decoder,
        "prompt_len": trace.prompt_len,
        "gen_len": trace.gen_len,
        "block_len": trace.block_len,
        "mask_id": trace.mask_id,
        "topk": trace.topk,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for rec in trace.records:
        lines.append(json.dumps(_record_to_obj(rec), sort_keys=True))
    return lines


def trace_from_lines(lines: list[str]) -> DecodeTrace:
    stripped = [ln for ln in (ln.strip() for ln in lines) if ln]
    if not stripped:
        raise ValueError("empty trace")
    header = json.loads(stripped[0])
    if header.get("kind") != "trace":
        raise ValueError("first line is not a trace header")
    try:
        return DecodeTrace(
            decoder=header["decoder"],
            prompt_len=int(header["prompt_len"]),
            gen_len=int(header["gen_len"]),
            block_len=int(header["block_len"]),
            mask_id=int(header["mask_id"]),
            topk=int(header["topk"]),
            records=tuple(_record_from_obj(json.loads(ln)) for ln in stripped[1:]),
        )
    except KeyError as exc:
        raise ValueError(f"trace lacks field {exc.args[0]!r}") from None


def write_trace(trace: DecodeTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace_to_lines(trace)) + "\n")


def read_trace(path: str) -> DecodeTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_lines(fh.readlines())
