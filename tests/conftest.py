"""Shared fixtures and trace-replay helpers."""

from pathlib import Path

import pytest

from selfspec import (
    batch_verify,
    block_partition,
    build_tree,
    current_block,
    drafts_from_logits,
    initial_state,
    place_token,
    schedule_for,
    select_candidates,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def all_masked_state(prompt_len=0, gen_len=8, vocab=16, block_len=8):
    """Fresh state with a simple ascending prompt and every generated
    position masked; mask id sits one past the vocabulary."""
    return initial_state(
        prompt=tuple(range(prompt_len)),
        gen_len=gen_len,
        mask_id=vocab,
        block_len=block_len,
    )


def replay_dual_rounds(model, state, n):
    """Walk the greedy-strategy decode trajectory; at every full verification
    round build both tree shapes on identical (state, drafts) inputs and
    record the pair of accepted counts."""
    schedule = schedule_for(state)
    drafts = drafts_from_logits(state, model.forward([state])[0])
    rounds = []
    while current_block(state, schedule) is not None:
        cands = select_candidates(state, drafts, n)
        if len(cands) < n:
            break
        g = batch_verify(model, build_tree(state, cands, drafts, "greedy"))
        m = batch_verify(model, build_tree(state, cands, drafts, "mix_order"))
        rounds.append((len(g.accepted), len(m.accepted)))
        for pos, tok, _ in g.accepted:
            state = place_token(state, pos, tok)
        if current_block(state, schedule) is not None:
            drafts = drafts_from_logits(state, g.leaf_logits)
    return rounds


def check_block_order(positions, prompt_len, gen_len, block_len):
    """Assert a sequence of decode positions never enters block j+1 while
    block j still has an undetermined position.  Returns the number of
    steps checked so callers can sanity-check coverage."""
    schedule = block_partition(prompt_len, gen_len, block_len)
    remaining = [set(block) for block in schedule.blocks]
    for pos in positions:
        j = schedule.block_of(pos)
        for earlier in range(j):
            assert not remaining[earlier], (
                f"position {pos} in block {j} decoded while block "
                f"{earlier} still had masks at {sorted(remaining[earlier])}"
            )
        assert pos in remaining[j], f"position {pos} decoded twice"
        remaining[j].discard(pos)
    return len(positions)
