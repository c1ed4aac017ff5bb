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

from dataclasses import dataclass, fields, replace

import numpy as np

from .jsonl import dumps, integer, number, read_lines
from .models import MaskedModel, softmax_matrix
from .sequence import SequenceState, current_block, masked_in_blocks, masks_after, place_token
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

    @classmethod
    def of(
        cls, decoder: str, start: SequenceState, topk: int, records: list[StepRecord]
    ) -> DecodeTrace:
        """The trace of a decode from start that recorded records."""
        return cls(decoder, start.prompt_len, start.gen_len, start.block_len,
                   start.mask_id, topk, tuple(records))

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
    positions: np.ndarray, probs: np.ndarray, k: int
) -> dict[int, Candidates]:
    """Top-k (token, probability) pairs at each of the ascending positions,
    highest probability first, ties to the lowest token id; probs[i] is the
    row of positions[i]."""
    if len(positions) != len(probs):
        raise ValueError(f"{len(positions)} positions for {len(probs)} probability rows")
    k = min(k, probs.shape[1])
    rows = np.arange(len(probs))[:, None]
    # The k largest of each row in any order, then sorted by (-p, token id).
    top = np.argpartition(probs, -k, axis=1)[:, -k:]
    top = top[rows, np.lexsort((top, -probs[rows, top]))]
    # A row with more than k entries at its kth value has a tie at the cut,
    # which the partition breaks arbitrarily: sort those rows in full.
    tied = np.count_nonzero(probs >= probs[rows, top[:, -1:]], axis=1) > k
    top[tied] = np.argsort(-probs[tied], axis=1, kind="stable")[:, :k]
    pairs = zip(top.ravel().tolist(), probs[rows, top].ravel().tolist())
    return dict(zip(np.asarray(positions).tolist(), zip(*[pairs] * k)))  # k pairs per position


def decode_remaining(
    model: MaskedModel, state: SequenceState, topk: int
) -> tuple[SequenceState, list[StepRecord]]:
    """Run stepwise steps (one forward each) until no masks remain.  Each
    reads the masks of its current block, or every mask when it records a
    top-k snapshot; the current block's masks come first either way.  Both
    are carried from step to step, less the position each step places."""
    records: list[StepRecord] = []
    positions = masked_in_blocks(state, 1)
    asked = masked_in_blocks(state, state.gen_len) if topk > 0 else positions
    while positions.size:
        probs = softmax_matrix(model.forward([state])[0](asked))
        snapshot = candidate_snapshot(asked, probs, topk) if topk > 0 else None
        pos, tok, conf = choose_step(positions, probs[: len(positions)])
        state = place_token(state, pos, tok)
        records.append(
            StepRecord(position=pos, token=tok, confidence=conf, topk=snapshot)
        )
        positions = masks_after(state, positions, pos)
        asked = asked[asked != pos] if topk > 0 else positions
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
    return final, DecodeTrace.of("stepwise", state, effective_k, records)


# ---------------------------------------------------------------------------
# Trace serialization: line-delimited JSON, exact round-trip
# ---------------------------------------------------------------------------


def _record_to_obj(rec: StepRecord) -> dict:
    # tuples serialize as JSON arrays: [[position, [[token, probability], ...]], ...]
    topk = None if rec.topk is None else sorted(rec.topk.items())
    return {"position": rec.position, "token": rec.token, "confidence": rec.confidence,
            "topk": topk}


def _record_from_obj(obj: dict) -> StepRecord:
    topk = None
    if obj["topk"] is not None:
        topk = {
            integer(pos, "topk position"): tuple(
                (integer(t, "topk token"), number(p, "topk probability")) for t, p in cands
            )
            for pos, cands in obj["topk"]
        }
    return StepRecord(
        position=integer(obj["position"], "position"),
        token=integer(obj["token"], "token"),
        confidence=number(obj["confidence"], "confidence"),
        topk=topk,
    )


def trace_to_lines(trace: DecodeTrace) -> list[str]:
    header = {f.name: getattr(trace, f.name) for f in fields(trace) if f.name != "records"}
    header["kind"] = "trace"
    return [dumps(header)] + [dumps(_record_to_obj(rec)) for rec in trace.records]


def _header_from_obj(obj: dict) -> DecodeTrace:
    if obj.get("kind") != "trace":
        raise ValueError("first line is not a trace header")
    if obj["decoder"] not in ("stepwise", "ssd"):
        raise ValueError(f"decoder must be 'stepwise' or 'ssd', got {obj['decoder']!r}")
    ints = ("prompt_len", "gen_len", "block_len", "mask_id", "topk")
    header = DecodeTrace(
        decoder=obj["decoder"], records=(), **{k: integer(obj[k], k) for k in ints}
    )
    if min(header.prompt_len, header.topk) < 0 or min(header.gen_len, header.block_len) < 1:
        raise ValueError("prompt_len and topk must be >= 0, gen_len and block_len >= 1")
    return header


def trace_from_lines(lines: list[str]) -> DecodeTrace:
    """Parse a header line and record lines, replaying the records on the
    header's block schedule: each must decode a new generation position of
    the then-current block, and together every generation position.  Only
    the decoded positions are kept, so the file, not the header, bounds the
    memory.  Any bad line is a ValueError naming its line number."""
    header = None
    decoded: set[int] = set()

    def parse(obj: dict) -> DecodeTrace | StepRecord:
        nonlocal header
        if header is None:
            header = _header_from_obj(obj)
            return header
        rec = _record_from_obj(obj)
        # blocks fill in order, so the decoded count names the current block
        lo = header.prompt_len + len(decoded) // header.block_len * header.block_len
        hi = min(lo + header.block_len, header.prompt_len + header.gen_len)
        if not lo <= rec.position < hi or rec.position in decoded or rec.token == header.mask_id:
            raise ValueError(f"record ({rec.position}, {rec.token}) does not unmask a current mask")
        decoded.add(rec.position)
        return rec

    parsed = read_lines(lines, "trace", parse)
    if header is None:
        raise ValueError("empty trace")
    if len(decoded) != header.gen_len:
        raise ValueError(f"trace decodes {len(decoded)} of {header.gen_len} positions")
    return replace(parsed[0], records=tuple(parsed[1:]))


def write_trace(trace: DecodeTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace_to_lines(trace)) + "\n")


def read_trace(path: str) -> DecodeTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_lines(fh.readlines())
