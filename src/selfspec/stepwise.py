"""Stepwise decoding: the one-token-per-forward baseline and ground truth.

Each step runs one forward pass, restricts attention to the masked positions
of the current block, and finalizes the single position whose argmax token
has the highest softmax confidence (ties break to the lowest position, then
the lowest token id).  The speculative decoder is specified and tested
against this rule: its output must match stepwise output token for token.

A DecodeTrace holds each step's position, token and confidence as parallel
arrays.  A stepwise trace may also hold, for the acceptance-limit analyzer,
the top-K tokens and probabilities at every mask before each step.  Their
layout is a law of stepwise traces, so no position or offset is stored: step
i's rows are its masks, the positions of steps i, i+1, ..., ascending, right
after step i-1's rows (see snapshot_rows); S steps take S(S+1)/2 rows.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .jsonl import dumps, exact_float, integer, number, read_lines
from .models import MaskedModel, softmax_matrix
from .sequence import SequenceState, current_block, masked_in_blocks, place_token
from .sequence import schedule_for  # noqa: F401  (wrapped here by perfbench/tracer.py)

HEADER = ("decoder", "prompt_len", "gen_len", "block_len", "mask_id", "topk")


def snapshot_rows(step: int, steps: int) -> slice:
    """The snapshot rows of step of a trace of steps steps: one per mask,
    right after the rows of the steps before it, i*S - i(i-1)/2 of them."""
    start = step * steps - step * (step - 1) // 2
    return slice(start, start + steps - step)


@dataclass(frozen=True, eq=False)
class DecodeTrace:
    """Ordered acceptance record of a decode run, compared by trace_to_lines.
    ``decoder`` is "stepwise" or "ssd"; ``positions``, ``tokens`` and
    ``confidences`` (S,) hold each step's choice.  With ``topk`` > 0,
    ``snap_tokens`` and ``snap_probs`` (S(S+1)/2, topk) hold the snapshot in
    the layout above, highest probability first; with topk 0 both are None."""

    decoder: str
    prompt_len: int
    gen_len: int
    block_len: int
    mask_id: int
    topk: int
    positions: np.ndarray
    tokens: np.ndarray
    confidences: np.ndarray
    snap_tokens: np.ndarray | None = None
    snap_probs: np.ndarray | None = None

    @classmethod
    def of(cls, decoder: str, start: SequenceState | DecodeTrace, steps: Sequence[tuple],
           snapshot: tuple[np.ndarray, np.ndarray] | None = None) -> DecodeTrace:
        """The trace of a decode from start, a state or a trace header, that
        made steps, (position, token, confidence) each, and took snapshot."""
        snapshot = snapshot or (None, None)
        return cls(decoder, start.prompt_len, start.gen_len, start.block_len, start.mask_id,
                   0 if snapshot[0] is None else snapshot[0].shape[1],
                   *(np.array(column) for column in zip(*steps)), *snapshot)


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


def candidate_snapshot(probs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k tokens of each probability row, highest probability first,
    ties to the lowest token id, and their probabilities: two (rows, k)
    arrays, k clamped to the vocabulary."""
    k = min(k, probs.shape[1])
    rows = np.arange(len(probs))[:, None]
    # The k largest of each row in any order, then sorted by (-p, token id).
    top = np.argpartition(probs, -k, axis=1)[:, -k:]
    top = top[rows, np.lexsort((top, -probs[rows, top]))]
    # A row with more than k entries at its kth value has a tie at the cut,
    # which the partition breaks arbitrarily: sort those rows in full.
    tied = np.count_nonzero(probs >= probs[rows, top[:, -1:]], axis=1) > k
    top[tied] = np.argsort(-probs[tied], axis=1, kind="stable")[:, :k]
    return top, probs[rows, top]


def physical_memory() -> int:
    """This machine's physical memory in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def decode_remaining(
    model: MaskedModel, state: SequenceState, topk: int, out: np.ndarray | None = None
) -> tuple[SequenceState, list[tuple[int, int, float]], tuple[np.ndarray, np.ndarray] | None]:
    """Run stepwise steps (one forward each) until no masks remain: the final
    state, each step's (position, token, confidence) and, when topk > 0, the
    top-k snapshot in the trace layout, allocated before the first forward;
    a snapshot larger than the machine's physical memory raises MemoryError
    instead.  Each step reads the masks of its current block, which its
    state knows, or every mask when it takes a snapshot, carried from step
    to step less the position each step places; the current block's masks
    come first either way.  Every step reads into out, rows enough for any
    step, or else into one buffer allocated up front: a row per mask with a
    snapshot, else a block's."""
    steps: list[tuple[int, int, float]] = []
    asked = masked_in_blocks(state, state.gen_len) if topk > 0 else state.masks
    total = len(asked)  # the steps to come, when taking a snapshot
    shape = (snapshot_rows(total, total).start, topk)  # the rows of every step
    size = shape[0] * topk * (np.dtype(np.intp).itemsize + np.dtype(float).itemsize)
    if size > (memory := physical_memory()):
        raise MemoryError(f"cannot allocate a top-{topk} snapshot of {size:,} bytes, "
                          f"more than the {memory:,} bytes of physical memory")
    snapshot = (np.empty(shape, dtype=np.intp), np.empty(shape)) if topk > 0 else None
    if out is None:
        out = np.empty((total if topk else min(state.block_len, state.gen_len), model.vocab_size))
    while (positions := state.masks).size:
        probs = softmax_matrix(model.forward([state])[0](asked, out))
        if snapshot is not None:
            rows = snapshot_rows(len(steps), total)
            snapshot[0][rows], snapshot[1][rows] = candidate_snapshot(probs, topk)
        pos, tok, conf = choose_step(positions, probs[: len(positions)])
        state = place_token(state, pos, tok)
        steps.append((pos, tok, conf))
        asked = asked[asked != pos] if topk > 0 else state.masks
    return state, steps, snapshot


def stepwise_decode(
    model: MaskedModel, state: SequenceState, topk: int
) -> tuple[SequenceState, DecodeTrace]:
    """Decode every masked position, one token per forward pass: the final
    state and the trace.  The forward count always equals the number of
    masks decoded; a snapshot too large to allocate raises MemoryError first.
    """
    if current_block(state) is None:
        raise ValueError("state has no masked positions to decode")
    effective_k = min(topk, model.vocab_size) if topk > 0 else 0
    final, steps, snapshot = decode_remaining(model, state, effective_k)
    return final, DecodeTrace.of("stepwise", state, steps, snapshot)


# ---------------------------------------------------------------------------
# Trace serialization: line-delimited JSON, exact round-trip
# ---------------------------------------------------------------------------


def trace_to_lines(trace: DecodeTrace) -> list[str]:
    """A header line, then per step the bytes dumps would write for its
    position, token, confidence and topk: the snapshot over the step's masks
    as [[position, [[token, probability], ...]], ...], formatted with no
    Python object per candidate, or null."""
    k = trace.topk
    if not np.isfinite(trace.confidences).all() or (k and not np.isfinite(trace.snap_probs).all()):
        raise ValueError("a trace holds only finite numbers")
    lines = [dumps({"kind": "trace", **{name: getattr(trace, name) for name in HEADER}})]
    positions = trace.positions.tolist()
    row = "[%d, [" + ", ".join(["[%d, %r]"] * k) + "]]"  # a position, then k (token, p)
    for i, step in enumerate(zip(trace.confidences.tolist(), positions, trace.tokens.tolist())):
        topk = "null"
        if k:
            rows = snapshot_rows(i, len(positions))
            cells = np.empty((len(positions) - i, 2 * k + 1), dtype=object)
            cells[:, 0], cells[:, 1::2], cells[:, 2::2] = (
                sorted(positions[i:]), trace.snap_tokens[rows], trace.snap_probs[rows])
            topk = "[" + ", ".join([row] * len(cells)) % tuple(cells.ravel().tolist()) + "]"
        lines.append('{"confidence": %r, "position": %d, "token": %d, "topk": %s}' % (*step, topk))
    return lines


def _header_from_obj(obj: dict) -> DecodeTrace:
    if obj.get("kind") != "trace":
        raise ValueError("first line is not a trace header")
    if obj["decoder"] not in ("stepwise", "ssd"):
        raise ValueError(f"decoder must be 'stepwise' or 'ssd', got {obj['decoder']!r}")
    ints = {k: integer(obj[k], k) for k in HEADER[1:]}
    if min(ints["prompt_len"], ints["topk"]) < 0 or min(ints["gen_len"], ints["block_len"]) < 1:
        raise ValueError("prompt_len and topk must be >= 0, gen_len and block_len >= 1")
    return DecodeTrace(obj["decoder"], **ints, positions=(), tokens=(), confidences=())


def _snapshot_from_obj(
    entries, header: DecodeTrace, decoded: set[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (masks, topk) token and probability arrays of a snapshot that
    lists exactly the step's masks, the generation positions not in decoded,
    ascending, each with header.topk [token, probability] pairs."""
    listed = [pos for pos, _ in entries]
    if not (set(map(type, listed)) == {int} and len(listed) == header.gen_len - len(decoded)
            and listed == sorted(set(listed)) and header.prompt_len <= listed[0]
            and listed[-1] < header.prompt_len + header.gen_len and decoded.isdisjoint(listed)):
        raise ValueError("topk positions are not the step's masks in ascending order")
    candidates = [cands for _, cands in entries]
    tokens = [tok for cands in candidates for tok, _ in cands]
    probs = [p for cands in candidates for _, p in cands]
    if (set(map(len, candidates)) != {header.topk} or set(map(type, tokens)) != {int}
            or set(map(type, probs)) != {float}):
        raise ValueError(f"topk lists must hold {header.topk} [integer, float probability] pairs")
    # an int past int64 or past the float range raises OverflowError
    tokens, probs = np.array(tokens, dtype=np.intp), np.array(probs, dtype=float)
    if not np.isfinite(probs).all():
        raise ValueError("topk probability must be finite")
    return tokens.reshape(len(listed), -1), probs.reshape(len(listed), -1)


def trace_from_lines(lines: list[str]) -> DecodeTrace:
    """Parse a header line and record lines, replaying the records on the
    header's block schedule: each must decode a new generation position of
    the then-current block, and together every generation position.  Under a
    header topk of 0 every snapshot is null; above 0 each lists its step's
    masks, topk candidates each.  Confidences and probabilities are floats
    written as repr writes them, so the trace writes back to the same lines.
    Only the decoded positions are kept, so the file, not the header, bounds
    the memory.  Any bad line is a ValueError naming its line number."""
    header = None
    decoded: set[int] = set()

    def parse(obj: dict):
        nonlocal header
        if header is None:
            header = _header_from_obj(obj)
            return header
        pos, tok = integer(obj["position"], "position"), integer(obj["token"], "token")
        conf, snapshot = number(obj["confidence"], "confidence", (float,)), obj["topk"]
        # blocks fill in order, so the decoded count names the current block
        lo = header.prompt_len + len(decoded) // header.block_len * header.block_len
        hi = min(lo + header.block_len, header.prompt_len + header.gen_len)
        if not lo <= pos < hi or pos in decoded or tok == header.mask_id:
            raise ValueError(f"record ({pos}, {tok}) does not unmask a current mask")
        if (snapshot is None) != (header.topk == 0):
            raise ValueError(f"topk must be {'a list' if header.topk else 'null'} "
                             f"under a header topk of {header.topk}")
        if header.topk:
            snapshot = _snapshot_from_obj(snapshot, header, decoded)
        decoded.add(pos)
        return (np.intp(pos), np.intp(tok), conf), snapshot  # OverflowError past int64

    parsed = read_lines(lines, "trace", parse, exact_float)
    if header is None:
        raise ValueError("empty trace")
    if len(decoded) != header.gen_len:
        raise ValueError(f"trace decodes {len(decoded)} of {header.gen_len} positions")
    steps, snapshots = zip(*parsed[1:])
    snapshot = tuple(map(np.concatenate, zip(*snapshots))) if header.topk else None
    return DecodeTrace.of(header.decoder, header, steps, snapshot)


def write_trace(trace: DecodeTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace_to_lines(trace)) + "\n")


def read_trace(path: str) -> DecodeTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_lines(fh.readlines())
