"""Sequence state, mask convention, and the semi-autoregressive block schedule.

A sequence is a fixed-length list of integer token ids: a prompt region of
length P followed by a generation region of length L.  A generation position
is "masked" while it still holds the reserved ``mask_id`` token; decoding
replaces masks with real tokens and never rewrites a position afterwards.

The generation region is partitioned into consecutive blocks of ``block_len``
positions (the last block may be shorter).  Decoders must fully unmask block
j before writing anything into block j+1.  All positions in this package are
0-indexed; the first generation position is ``prompt_len``.

States are value-semantic snapshots: ``place_token`` returns a new state and
never mutates, so many divergent copies of a base state can be held at once
(verification trees rely on this).  A state knows its current block's masks:
``place_token`` takes them from the parent's, less the placed position, and
scans the tokens only when that empties the block.  ``place_token`` is the
only check of the write-once rule; a verification tree lays out unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class IllegalWriteError(Exception):
    """Raised when writing to a position that is not currently masked."""


@dataclass(frozen=True)
class SequenceState:
    """Immutable snapshot of a partially decoded sequence.

    tokens holds prompt and generation ids; generation positions equal to
    ``mask_id`` are still undecided.  ``block_len`` is the schedule the
    decoders must respect for this sequence.  ``masks`` is derived, not
    compared: the current block's masked positions, ascending, as a
    read-only array, empty once the state is fully decoded.
    """

    tokens: tuple[int, ...]
    prompt_len: int
    gen_len: int
    mask_id: int
    block_len: int
    masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.prompt_len < 0 or self.gen_len < 1 or self.block_len < 1:
            raise ValueError(
                "prompt_len must be >= 0, gen_len and block_len must be >= 1"
            )
        if len(self.tokens) != self.prompt_len + self.gen_len:
            raise ValueError(
                f"token count {len(self.tokens)} != prompt_len + gen_len "
                f"({self.prompt_len} + {self.gen_len})"
            )
        if any(t == self.mask_id for t in self.tokens[: self.prompt_len]):
            raise ValueError("prompt positions may not hold the mask token")
        masks = masked_in_blocks(self, 1)
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    def is_masked(self, pos: int) -> bool:
        return self.tokens[pos] == self.mask_id


def initial_state(
    prompt: tuple[int, ...] | list[int],
    gen_len: int,
    mask_id: int,
    block_len: int,
) -> SequenceState:
    """Fresh decoding state: the prompt followed by gen_len mask tokens."""
    prompt = tuple(prompt)
    tokens = prompt + (mask_id,) * gen_len
    return SequenceState(
        tokens=tokens,
        prompt_len=len(prompt),
        gen_len=gen_len,
        mask_id=mask_id,
        block_len=block_len,
    )


def schedule_for(state: SequenceState) -> tuple[range, ...]:
    """The generation region as ceil(gen_len / block_len) blocks: block j
    covers positions [prompt_len + j*block_len, prompt_len +
    min((j+1)*block_len, gen_len)), so every block except possibly the last
    has exactly block_len positions."""
    prompt_len, gen_len, block_len = state.prompt_len, state.gen_len, state.block_len
    return tuple(
        range(prompt_len + start, prompt_len + min(start + block_len, gen_len))
        for start in range(0, gen_len, block_len)
    )


def current_block(state: SequenceState) -> int | None:
    """Index of the block holding the lowest masked position; None once
    fully decoded.  Blocks are ordered by position, so this is the lowest
    block with a masked position."""
    masks = state.masks
    return int(masks[0] - state.prompt_len) // state.block_len if masks.size else None


def masked_in_blocks(state: SequenceState, count: int) -> np.ndarray:
    """The masked positions of the current block and the next count - 1,
    ascending, by a scan of the tokens; empty once the state is fully
    decoded.  Every mask lies in or after the current block, so count >= the
    block count gives them all."""
    tokens, mask, prompt_len = state.tokens, state.mask_id, state.prompt_len
    try:
        first = tokens.index(mask, prompt_len)
    except ValueError:
        return np.empty(0, dtype=np.intp)
    stop = min(first - (first - prompt_len) % state.block_len + count * state.block_len,
               len(tokens))
    return np.array([p for p in range(first, stop) if tokens[p] == mask], dtype=np.intp)


def place_token(state: SequenceState, pos: int, tok: int) -> SequenceState:
    """New state with tok written at pos, by the write-once rule: ValueError
    when tok is the mask token, IllegalWriteError unless pos is a masked
    position of state."""
    if tok == state.mask_id:
        raise ValueError(f"cannot place the mask token {tok}")
    if pos < 0 or pos >= len(state.tokens):
        raise IllegalWriteError(f"position {pos} out of range")
    if not state.is_masked(pos):
        region = "prompt" if pos < state.prompt_len else "already-decoded"
        raise IllegalWriteError(f"position {pos} is {region}, not masked")
    # Built without __post_init__: unmasking one generation position keeps
    # the length and the prompt, so every invariant it checks still holds,
    # and the masks are the parent's less pos, scanned for only when that
    # empties the block.
    tokens = state.tokens[:pos] + (tok,) + state.tokens[pos + 1 :]
    masks = state.masks[state.masks != pos]
    placed = object.__new__(SequenceState)
    placed.__dict__.update(state.__dict__, tokens=tokens, masks=masks)
    if not masks.size:
        placed.__dict__["masks"] = masks = masked_in_blocks(placed, 1)
    masks.setflags(write=False)
    return placed
