"""Speculative decoding: drafting, trees, batch verification, the full loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    Drafts,
    SynthModelConfig,
    SyntheticModel,
    TableModel,
    batch_verify,
    build_tree,
    drafts_from_logits,
    initial_state,
    kary_tree_size,
    load_table_fixture,
    place_token,
    select_candidates,
    ssd_decode,
    stepwise_decode,
)

from conftest import all_masked_state, check_block_order, replay_dual_rounds


def synth(seed=0, vocab=16, cw=2, sharpness=6.0):
    return SyntheticModel(
        SynthModelConfig(
            seed=seed, vocab_size=vocab, sharpness=sharpness, context_window=cw
        )
    )


def manual_drafts(entries):
    """entries: {pos: (token, confidence)}, one draft token per position."""
    positions = sorted(entries)
    return Drafts(
        positions=np.array(positions, dtype=np.int64),
        tokens=np.array([[entries[p][0]] for p in positions], dtype=np.int64),
        confidences=np.array([entries[p][1] for p in positions]),
    )


def draft(model, state, k=1):
    return drafts_from_logits(state, model.forward([state])[0], k)


# --- drafts_from_logits ----------------------------------------------------


def test_draft_domain_is_exactly_the_masked_positions():
    state = all_masked_state(gen_len=8, block_len=8)
    for pos in (0, 1, 2, 3, 4, 6):
        state = place_token(state, pos, 1)
    drafts = draft(synth(), state, k=2)
    assert drafts.positions.tolist() == [5, 7]
    assert drafts.tokens.shape == (2, 2) and len(drafts) == 2


def test_draft_requires_masks():
    state = all_masked_state(gen_len=2)
    state = place_token(place_token(state, 0, 1), 1, 1)
    with pytest.raises(ValueError):
        draft(synth(), state)


def test_context_free_drafts_ignore_unrelated_placement():
    model = synth(seed=3, cw=0)
    state = all_masked_state(gen_len=8, block_len=8)
    before = draft(model, state, k=3)
    after = draft(model, place_token(state, 0, 9), k=3)
    assert after.positions.tolist() == list(range(1, 8))
    assert np.array_equal(before.tokens[1:], after.tokens)
    assert np.array_equal(before.confidences[1:], after.confidences)


def test_context_free_drafts_equal_stepwise_choices():
    model = synth(seed=4, cw=0, vocab=10)
    state = all_masked_state(gen_len=8, vocab=10, block_len=4)
    drafts = draft(model, state)
    final, _ = stepwise_decode(model, state, topk=0)
    for pos, tok in zip(drafts.positions, drafts.tokens[:, 0]):
        assert final.tokens[pos] == tok


def test_top1_draft_is_independent_of_width():
    """Top-1 drafting loses nothing: column 0 of the top-k tokens and the
    confidences are bit-identical for every k, and the token is np.argmax
    of the row (the lowest id on ties)."""
    vocab = 8
    state = all_masked_state(gen_len=12, vocab=vocab, block_len=4)
    for seed in range(3):
        logits = np.random.default_rng(seed).standard_normal((12, vocab)) * 3.0
        logits[0] = 0.0  # all equal
        logits[1, [2, 5]] = logits[1].max() + 1.0  # duplicated maximum
        logits[2] = 0.0
        logits[2, 3] = 1000.0  # saturated one-hot
        top1 = drafts_from_logits(state, logits, 1)
        for k in (1, 3, vocab):
            drafts = drafts_from_logits(state, logits, k)
            assert drafts.tokens.shape == (12, k)
            assert drafts.tokens[:, 0].tobytes() == top1.tokens[:, 0].tobytes()
            assert drafts.confidences.tobytes() == top1.confidences.tobytes()
        assert np.array_equal(top1.tokens[:, 0], np.argmax(logits, axis=1))
        assert top1.tokens[:3, 0].tolist() == [0, 2, 3]
        assert top1.confidences[0] == pytest.approx(1.0 / vocab, abs=1e-12)
        assert abs(top1.confidences[2] - 1.0) < 1e-12
    # frozen closed form: softmax([2, 0, 0])[0] = e^2 / (e^2 + 2)
    one = all_masked_state(gen_len=1, vocab=3, block_len=1)
    closed = drafts_from_logits(one, np.array([[2.0, 0.0, 0.0]]))
    assert closed.tokens[0, 0] == 0
    want = math.exp(2) / (math.exp(2) + 2)
    assert closed.confidences[0] == pytest.approx(want, abs=1e-12)


# --- select_candidates -----------------------------------------------------


def test_select_sorts_by_confidence_and_truncates():
    state = all_masked_state(prompt_len=5, gen_len=4, block_len=4)
    drafts = manual_drafts(
        {5: (1, 0.9), 6: (2, 0.2), 7: (3, 0.8), 8: (4, 0.7)}
    )
    cands = select_candidates(state, drafts, 3)
    assert cands == ((5, 1), (7, 3), (8, 4))


def test_select_spills_into_next_block_only_when_short():
    state = all_masked_state(gen_len=8, block_len=4)
    state = place_token(place_token(state, 0, 1), 2, 1)  # block 0 has {1, 3}
    drafts = manual_drafts(
        {1: (5, 0.3), 3: (6, 0.4), 4: (7, 0.99), 5: (8, 0.8), 6: (9, 0.1), 7: (1, 0.2)}
    )
    cands = select_candidates(state, drafts, 3)
    # both current-block positions first (by confidence), then best of block 1
    assert cands == ((3, 6), (1, 5), (4, 7))
    full = select_candidates(state, drafts, 2)
    assert full == ((3, 6), (1, 5))  # no spill when block suffices


def test_select_returns_short_list_when_scope_exhausted():
    state = all_masked_state(gen_len=4, block_len=4)
    for pos in (0, 1, 2):
        state = place_token(state, pos, 1)
    drafts = manual_drafts({3: (2, 0.5)})
    cands = select_candidates(state, drafts, 3)
    assert len(cands) == 1


def test_select_tie_breaks_to_lowest_position():
    state = all_masked_state(gen_len=4, block_len=4)
    drafts = manual_drafts({0: (1, 0.5), 1: (2, 0.5), 2: (3, 0.5), 3: (4, 0.9)})
    cands = select_candidates(state, drafts, 3)
    assert [p for p, _ in cands] == [3, 0, 1]


def test_select_requires_draft_coverage():
    state = all_masked_state(gen_len=4, block_len=4)
    drafts = manual_drafts({0: (1, 0.5)})
    with pytest.raises(ValueError):
        select_candidates(state, drafts, 2)


def test_select_rejects_nonpositive_n():
    state = all_masked_state(gen_len=4, block_len=4)
    with pytest.raises(ValueError):
        select_candidates(state, manual_drafts({0: (1, 0.5)}), 0)


# --- build_tree shapes -----------------------------------------------------


def drafted_round(gen_len=12, n=3, vocab=16, seed=0, k=3):
    model = synth(seed=seed, vocab=vocab)
    state = all_masked_state(gen_len=gen_len, vocab=vocab, block_len=gen_len)
    drafts = draft(model, state, k)
    cands = select_candidates(state, drafts, n)
    return model, state, drafts, cands


@pytest.mark.parametrize("n,greedy_size,mix_size", [(1, 2, 2), (2, 3, 4), (3, 4, 6), (4, 5, 8), (5, 6, 10), (6, 7, 12)])
def test_tree_shape_laws(n, greedy_size, mix_size):
    _, state, drafts, cands = drafted_round(gen_len=12, n=n)
    assert len(build_tree(state, cands, drafts, "greedy")) == greedy_size
    assert len(build_tree(state, cands, drafts, "mix_order")) == mix_size


@pytest.mark.parametrize("k,n", [(1, 3), (2, 3), (3, 2), (2, 5)])
def test_kary_shape_matches_size_law(k, n):
    _, state, drafts, cands = drafted_round(gen_len=12, n=n, k=3)
    tree = build_tree(state, cands, drafts, "kary", k=k)
    assert len(tree) == kary_tree_size(k, n)


def test_chain_states_materialize_candidate_prefixes():
    _, state, drafts, cands = drafted_round(n=4)
    tree = build_tree(state, cands, drafts, "greedy")
    for d, node in enumerate(tree.nodes):
        assert node.depth == d
        expect_tokens = list(state.tokens)
        for pos, tok in cands[:d]:
            expect_tokens[pos] = tok
        assert node.state.tokens == tuple(expect_tokens)
        if d > 0:
            assert node.expectation == cands[d - 1]
            assert not node.is_branch


def test_branch_nodes_skip_exactly_one_candidate():
    """Branch under chain depth d: first d candidates placed, candidate d+1
    skipped (still masked), candidate d+2's token placed; always a leaf."""
    _, state, drafts, cands = drafted_round(n=4)
    tree = build_tree(state, cands, drafts, "mix_order")
    branches = [node for node in tree.nodes if node.is_branch]
    assert len(branches) == 3
    for node in branches:
        d = tree.nodes[node.parent].depth
        skipped_pos, _ = cands[d]
        jumped_pos, jumped_tok = cands[d + 1]
        assert node.expectation == (jumped_pos, jumped_tok)
        assert node.state.is_masked(skipped_pos)
        assert node.state.tokens[jumped_pos] == jumped_tok
        for pos, tok in cands[:d]:
            assert node.state.tokens[pos] == tok
        assert node.index not in tree.children  # leaves by construction


def test_node_layout_of_every_shape():
    """Batch order decides which row becomes leaf_index, so pin it: the chain
    0..N, then the mix_order branches by depth; kary breadth-first, parents
    in frontier order and tokens in draft order.  Rows are (parent, depth,
    expectation, is_branch); every node's state is its parent's state plus
    its expectation, and children is the inverse of parent."""
    _, state, drafts, cands = drafted_round(n=3, k=2)
    (p1, t1), (p2, t2), (p3, t3) = cands
    top2 = dict(zip(drafts.positions.tolist(), drafts.tokens.tolist()))
    (a, b), (c, d) = top2[p1], top2[p2]
    assert (a, c) == (t1, t2)
    chain = [
        (None, 0, None, False),
        (0, 1, (p1, t1), False),
        (1, 2, (p2, t2), False),
        (2, 3, (p3, t3), False),
    ]
    cases = (
        (build_tree(state, cands, drafts, "greedy"), chain),
        (
            build_tree(state, cands, drafts, "mix_order"),
            chain + [(0, 1, (p2, t2), True), (1, 2, (p3, t3), True)],
        ),
        (
            build_tree(state, cands[:2], drafts, "kary", k=2),
            [
                (None, 0, None, False),
                (0, 1, (p1, a), False),
                (0, 1, (p1, b), False),
                (1, 2, (p2, c), False),
                (1, 2, (p2, d), False),
                (2, 2, (p2, c), False),
                (2, 2, (p2, d), False),
            ],
        ),
    )
    for tree, layout in cases:
        nodes = tree.nodes
        assert [(n.parent, n.depth, n.expectation, n.is_branch) for n in nodes] == layout
        assert [n.index for n in nodes] == list(range(len(layout)))
        assert tree.root is nodes[0] and nodes[0].state == state
        for node in nodes[1:]:
            assert node.state == place_token(nodes[node.parent].state, *node.expectation)
        parents = {n.parent for n in nodes[1:]}
        assert tree.children == {
            p: tuple(n.index for n in nodes if n.parent == p) for p in parents
        }


def test_build_tree_rejects_empty_candidates():
    _, state, drafts, _ = drafted_round()
    with pytest.raises(ValueError):
        build_tree(state, (), drafts, "greedy")


def test_build_tree_rejects_unknown_shape():
    _, state, drafts, cands = drafted_round()
    with pytest.raises(ValueError):
        build_tree(state, cands, drafts, "bogus")


def test_kary_requires_enough_candidate_tokens():
    _, state, drafts, cands = drafted_round(k=2)
    with pytest.raises(ValueError):
        build_tree(state, cands, drafts, "kary", k=3)


def test_tree_spanning_blocks_builds_and_verifies():
    """Candidates that spill into the next block produce nodes whose states
    transiently place next-block tokens; the decode stays lossless."""
    model = synth(seed=12, vocab=12)
    state = all_masked_state(gen_len=8, vocab=12, block_len=2)
    sw, _ = stepwise_decode(model, state, topk=0)
    res = ssd_decode(model, state, n=3, shape="mix_order")
    assert res.state.tokens == sw.tokens


# --- batch_verify ----------------------------------------------------------


def test_full_match_accepts_n_plus_one():
    model, state, drafts, cands = drafted_round(gen_len=12, n=3, seed=1)
    # context-free variant so stepwise choices equal drafts exactly
    model = synth(seed=1, cw=0)
    drafts = draft(model, state)
    cands = select_candidates(state, drafts, 3)
    result = batch_verify(model, build_tree(state, cands, drafts, "greedy"))
    assert len(result.accepted) == 4
    assert [(p, t) for p, t, _ in result.accepted[:3]] == list(cands)
    assert result.leaf_index == 3


def test_root_mismatch_accepts_exactly_one():
    """Stale drafts put the wrong candidate first; the root's own stepwise
    choice is still accepted, guaranteeing progress."""
    M = 3
    table = {
        (M, M): np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0]]),
        (1, M): np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # chain depth 1
        (1, 1): np.zeros((2, 3)),  # chain depth 2
    }
    model = TableModel(table)
    state = initial_state(prompt=(), gen_len=2, mask_id=3, block_len=2)
    stale = manual_drafts({0: (1, 0.9), 1: (1, 0.8)})  # wrong token at pos 0
    cands = select_candidates(state, stale, 2)
    assert cands == ((0, 1), (1, 1))
    result = batch_verify(model, build_tree(state, cands, stale, "greedy"))
    assert [(p, t) for p, t, _ in result.accepted] == [(0, 2)]
    assert result.leaf_index == 0


def test_micro_fixture_greedy_vs_mix(fixtures_dir):
    """Authored out-of-order round: stepwise skips the second-most-confident
    draft, so greedy accepts 2 while mix-order accepts 3 on the same inputs;
    both full decodes stay lossless and mix finishes in fewer forwards."""
    model = load_table_fixture(str(fixtures_dir / "out_of_order_micro.jsonl"))
    state = initial_state(prompt=(), gen_len=4, mask_id=5, block_len=4)
    sw, _ = stepwise_decode(model, state, topk=0)
    assert sw.tokens == (1, 2, 3, 4)

    greedy = ssd_decode(model, state, n=3, shape="greedy")
    mix = ssd_decode(model, state, n=3, shape="mix_order")
    assert greedy.state.tokens == sw.tokens
    assert mix.state.tokens == sw.tokens
    assert greedy.rounds[0].accepted == 2
    assert mix.rounds[0].accepted == 3
    assert greedy.rounds[0].batch_size == 4
    assert mix.rounds[0].batch_size == 6
    assert greedy.forward_count == 4
    assert mix.forward_count == 3

    rounds = replay_dual_rounds(model, state, 3)
    assert rounds == [(2, 3)]


def test_recorded_out_of_order_fixtures(fixtures_dir):
    """Recorded replays of synthetic out-of-order runs behave identically
    through the table backend."""
    for name, L, B in (
        ("out_of_order_small_a.jsonl", 12, 6),
        ("out_of_order_small_b.jsonl", 16, 8),
    ):
        model = load_table_fixture(str(fixtures_dir / name))
        state = initial_state(prompt=(), gen_len=L, mask_id=8, block_len=B)
        sw, _ = stepwise_decode(model, state, topk=0)
        greedy = ssd_decode(model, state, n=3, shape="greedy")
        mix = ssd_decode(model, state, n=3, shape="mix_order")
        assert greedy.state.tokens == sw.tokens == mix.state.tokens
        rounds = replay_dual_rounds(model, state, 3)
        assert any(m > g for g, m in rounds), name
        assert all(m >= g for g, m in rounds), name


# --- ssd_decode ------------------------------------------------------------


def test_context_free_l12_b12_three_rounds_of_four():
    model = synth(seed=6, cw=0, vocab=12)
    state = all_masked_state(gen_len=12, vocab=12, block_len=12)
    res = ssd_decode(model, state, n=3, shape="greedy")
    sw, _ = stepwise_decode(model, state, topk=0)
    assert res.state.tokens == sw.tokens
    assert len(res.rounds) == 3
    assert all(r.accepted == 4 for r in res.rounds)
    assert res.forward_count == 4  # 1 draft + 3 verification rounds
    assert res.fallback_steps == 0


def test_tiny_sequence_falls_back_immediately():
    """L=2 with n=5: the draft forward finds too few candidates, so the
    whole sequence decodes stepwise after 1 drafting forward."""
    model = synth(seed=2)
    state = all_masked_state(gen_len=2, block_len=2)
    res = ssd_decode(model, state, n=5, shape="greedy")
    sw, _ = stepwise_decode(model, state, topk=0)
    assert res.state.tokens == sw.tokens
    assert res.forward_count == 3  # draft + 2 stepwise steps
    assert res.fallback_steps == 2
    assert res.rounds == ()


def test_ssd_trace_is_acceptance_ordered_and_block_legal():
    model = synth(seed=9)
    state = all_masked_state(prompt_len=2, gen_len=12, block_len=4)
    res = ssd_decode(model, state, n=3, shape="mix_order")
    assert res.trace.decoder == "ssd"
    assert len(res.trace.records) == 12
    check_block_order(res.trace.positions(), 2, 12, 4)
    for rec in res.trace.records:
        assert res.state.tokens[rec.position] == rec.token


def test_ssd_rejects_bad_arguments():
    model = synth()
    state = all_masked_state(gen_len=4, block_len=4)
    with pytest.raises(ValueError):
        ssd_decode(model, state, n=0)
    with pytest.raises(ValueError):
        ssd_decode(model, state, n=2, shape="kary")
    done = state
    for pos in range(4):
        done = place_token(done, pos, 1)
    with pytest.raises(ValueError):
        ssd_decode(model, done, n=2)


@given(
    seed=st.integers(0, 40),
    prompt_len=st.integers(0, 4),
    gen_len=st.integers(1, 20),
    block_len=st.integers(1, 8),
    n=st.integers(1, 5),
    shape=st.sampled_from(["greedy", "mix_order"]),
)
@settings(max_examples=60, deadline=None)
def test_losslessness_property(seed, prompt_len, gen_len, block_len, n, shape):
    """The central claim: speculative output token-identical to stepwise."""
    model = synth(seed=seed, vocab=12)
    state = all_masked_state(
        prompt_len=prompt_len, gen_len=gen_len, vocab=12, block_len=block_len
    )
    sw, _ = stepwise_decode(model, state, topk=0)
    res = ssd_decode(model, state, n=n, shape=shape)
    assert res.state.tokens == sw.tokens
    # progress and bound laws come along for free on the same runs
    assert all(r.accepted >= 1 for r in res.rounds)
    assert len(res.rounds) <= gen_len
    reduction = (gen_len - res.forward_count) / gen_len
    assert reduction <= n / (n + 1)
    expected_batch = n + 1 if shape == "greedy" else max(2 * n, 2)
    assert all(r.accepted <= n + 1 for r in res.rounds)
    assert all(r.batch_size == expected_batch for r in res.rounds)


@given(seed=st.integers(0, 30), n=st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_mix_round_acceptance_dominates_greedy(seed, n):
    """On identical round inputs, the branch tree only adds acceptance
    paths, so mix-order never accepts fewer tokens than greedy."""
    model = synth(seed=seed, vocab=12, sharpness=3.0)
    state = all_masked_state(gen_len=16, vocab=12, block_len=8)
    rounds = replay_dual_rounds(model, state, n)
    assert all(m >= g for g, m in rounds)


def test_forward_count_is_one_plus_rounds_without_fallback():
    model = synth(seed=14, cw=0, vocab=10)
    state = all_masked_state(gen_len=24, vocab=10, block_len=24)
    res = ssd_decode(model, state, n=5, shape="greedy")
    assert res.fallback_steps == 0
    assert res.forward_count == 1 + len(res.rounds)
