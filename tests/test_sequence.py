"""Sequence state, block partitioning, and write-once placement."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    IllegalWriteError,
    SequenceState,
    block_partition,
    current_block,
    initial_state,
    place_token,
    schedule_for,
)

from conftest import all_masked_state


# --- block_partition -------------------------------------------------------


def test_partition_p4_l16_b8():
    """Two full blocks straddling a length-4 prompt."""
    sched = block_partition(4, 16, 8)
    assert [list(b) for b in sched] == [
        list(range(4, 12)),
        list(range(12, 20)),
    ]


def test_partition_truncated_last_block():
    sched = block_partition(0, 10, 8)
    assert [list(b) for b in sched] == [
        list(range(0, 8)),
        list(range(8, 10)),
    ]


def test_partition_single_block_when_b_exceeds_l():
    sched = block_partition(7, 5, 8)
    assert [list(b) for b in sched] == [list(range(7, 12))]


@pytest.mark.parametrize("gen_len,block_len", [(0, 8), (8, 0), (0, 0)])
def test_partition_rejects_zero_sizes(gen_len, block_len):
    with pytest.raises(ValueError):
        block_partition(4, gen_len, block_len)


@given(
    prompt_len=st.integers(0, 20),
    gen_len=st.integers(1, 200),
    block_len=st.integers(1, 40),
)
@settings(max_examples=200)
def test_partition_covers_generation_region(prompt_len, gen_len, block_len):
    """Blocks are disjoint, ordered, cover the region, and all but the last
    have size exactly block_len."""
    sched = block_partition(prompt_len, gen_len, block_len)
    expected_count = -(-gen_len // block_len)
    assert len(sched) == expected_count
    flat = [p for block in sched for p in block]
    assert flat == list(range(prompt_len, prompt_len + gen_len))
    for block in sched[:-1]:
        assert len(block) == block_len
    assert 1 <= len(sched[-1]) <= block_len
    assert sum(len(b) for b in sched) == gen_len


# --- current_block ---------------------------------------------------------


def test_current_block_all_masked_is_zero():
    state = all_masked_state(gen_len=16, block_len=8)
    assert current_block(state) == 0


def test_current_block_advances_after_block_completes():
    state = all_masked_state(gen_len=16, block_len=8)
    for pos in range(8):
        state = place_token(state, pos, 1)
    assert current_block(state) == 1


@pytest.mark.parametrize(
    "prompt_len,gen_len,block_len,first_mask,block",
    [(4, 16, 8, 4, 0), (4, 16, 8, 11, 0), (4, 16, 8, 12, 1), (3, 10, 4, 12, 2)],
)
def test_current_block_of_first_mask_past_prompt(
    prompt_len, gen_len, block_len, first_mask, block
):
    """The block of the first mask, counted from the end of the prompt; the
    last case's block 2 is the truncated one (positions 11 and 12)."""
    state = all_masked_state(prompt_len=prompt_len, gen_len=gen_len, block_len=block_len)
    for pos in range(prompt_len, first_mask):
        state = place_token(state, pos, 1)
    assert current_block(state) == block
    assert first_mask in schedule_for(state)[block]


def test_current_block_none_when_done():
    state = all_masked_state(gen_len=4, block_len=4)
    for pos in range(4):
        state = place_token(state, pos, 2)
    assert current_block(state) is None


# --- place_token -----------------------------------------------------------


def test_place_then_read_back():
    state = all_masked_state(gen_len=8)
    placed = place_token(state, 3, 7)
    assert placed.tokens[3] == 7
    assert not placed.is_masked(3)


def test_place_at_prompt_position_is_illegal():
    state = all_masked_state(prompt_len=4, gen_len=8)
    with pytest.raises(IllegalWriteError):
        place_token(state, 2, 5)


def test_double_place_is_illegal():
    state = all_masked_state(gen_len=8)
    placed = place_token(state, 1, 5)
    with pytest.raises(IllegalWriteError):
        place_token(placed, 1, 6)


def test_place_mask_token_is_invalid():
    state = all_masked_state(gen_len=8, vocab=16)
    with pytest.raises(ValueError):
        place_token(state, 0, 16)


def test_place_out_of_range_is_illegal():
    state = all_masked_state(gen_len=8)
    with pytest.raises(IllegalWriteError):
        place_token(state, 99, 1)


@given(
    prompt_len=st.integers(0, 6),
    gen_len=st.integers(1, 24),
    pos_seed=st.integers(0, 1000),
    tok=st.integers(0, 15),
)
@settings(max_examples=150)
def test_place_token_frame_property(prompt_len, gen_len, pos_seed, tok):
    """Placement changes exactly one position and nothing else."""
    state = all_masked_state(prompt_len=prompt_len, gen_len=gen_len)
    pos = prompt_len + pos_seed % gen_len
    placed = place_token(state, pos, tok)
    diffs = [
        i for i, (a, b) in enumerate(zip(state.tokens, placed.tokens)) if a != b
    ]
    assert diffs == [pos]
    assert placed.tokens[pos] == tok
    assert (
        placed.prompt_len == state.prompt_len
        and placed.gen_len == state.gen_len
        and placed.mask_id == state.mask_id
        and placed.block_len == state.block_len
    )


def test_states_are_value_snapshots():
    """Divergent copies of a base state never interfere."""
    base = all_masked_state(gen_len=6)
    a = place_token(base, 0, 1)
    b = place_token(base, 0, 2)
    assert base.is_masked(0)
    assert a.tokens[0] == 1 and b.tokens[0] == 2


# --- state validation ------------------------------------------------------


def test_prompt_may_not_contain_mask():
    with pytest.raises(ValueError):
        initial_state(prompt=(1, 16, 2), gen_len=4, mask_id=16, block_len=4)


def test_state_length_must_be_consistent():
    with pytest.raises(ValueError):
        SequenceState(
            tokens=(1, 2, 3), prompt_len=1, gen_len=4, mask_id=9, block_len=2
        )


def test_masked_positions_ascending():
    state = all_masked_state(prompt_len=2, gen_len=6)
    state = place_token(state, 4, 3)
    assert state.masked_positions() == (2, 3, 5, 6, 7)


# --- decode-run monotonicity ----------------------------------------------


def test_current_block_monotone_over_any_fill_order():
    """Filling positions in any block-legal order never decreases the
    current block index."""
    state = all_masked_state(gen_len=12, block_len=4)
    order = [2, 0, 3, 1, 7, 5, 4, 6, 9, 11, 10, 8]  # legal: block by block
    seen = []
    for pos in order:
        seen.append(current_block(state))
        state = place_token(state, pos, 1)
    assert seen == sorted(seen)
    assert current_block(state) is None


def test_replace_keeps_frozen_dataclass_semantics():
    state = all_masked_state(gen_len=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.gen_len = 99
