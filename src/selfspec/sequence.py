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
(verification trees rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class IllegalWriteError(Exception):
    """Raised when writing to a position that is not currently masked."""


@dataclass(frozen=True)
class SequenceState:
    """Immutable snapshot of a partially decoded sequence.

    tokens holds prompt and generation ids; generation positions equal to
    ``mask_id`` are still undecided.  ``block_len`` is the schedule the
    decoders must respect for this sequence.
    """

    tokens: tuple[int, ...]
    prompt_len: int
    gen_len: int
    mask_id: int
    block_len: int

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

    def is_masked(self, pos: int) -> bool:
        return self.tokens[pos] == self.mask_id

    def masked_positions(self) -> tuple[int, ...]:
        """All still-masked positions, ascending."""
        mask = self.mask_id
        return tuple(
            i
            for i in range(self.prompt_len, len(self.tokens))
            if self.tokens[i] == mask
        )


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


def block_partition(prompt_len: int, gen_len: int, block_len: int) -> tuple[range, ...]:
    """Partition the generation region into ceil(gen_len / block_len) blocks.

    Block j covers positions [prompt_len + j*block_len, prompt_len +
    min((j+1)*block_len, gen_len)).  Every block except possibly the last
    has exactly block_len positions.
    """
    if gen_len < 1 or block_len < 1:
        raise ValueError("gen_len and block_len must be >= 1")
    return tuple(
        range(prompt_len + start, prompt_len + min(start + block_len, gen_len))
        for start in range(0, gen_len, block_len)
    )


def schedule_for(state: SequenceState) -> tuple[range, ...]:
    return block_partition(state.prompt_len, state.gen_len, state.block_len)


def current_block(state: SequenceState) -> int | None:
    """Index of the block holding the lowest masked position; None once
    fully decoded.  Blocks are ordered by position, so this is the lowest
    block with a masked position."""
    try:
        first = state.tokens.index(state.mask_id, state.prompt_len)
    except ValueError:
        return None
    return (first - state.prompt_len) // state.block_len


def place_token(state: SequenceState, pos: int, tok: int) -> SequenceState:
    """New state with tok written at pos.  The write-once rule is enforced:
    pos must currently be masked, and tok may not be the mask token."""
    if tok == state.mask_id:
        raise ValueError(f"cannot place the mask token {tok}")
    if pos < 0 or pos >= len(state.tokens):
        raise IllegalWriteError(f"position {pos} out of range")
    if not state.is_masked(pos):
        region = "prompt" if pos < state.prompt_len else "already-decoded"
        raise IllegalWriteError(f"position {pos} is {region}, not masked")
    tokens = state.tokens[:pos] + (tok,) + state.tokens[pos + 1 :]
    return replace(state, tokens=tokens)
