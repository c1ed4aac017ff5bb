"""Speculative decoding: drafting, trees, batch verification, the full loop."""

import math
import re
import tracemalloc
from unittest import mock

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
    softmax_matrix,
    ssd_decode,
    stepwise_decode,
)
from selfspec.sequence import masked_in_blocks
import selfspec.ssd as ssd_mod
import selfspec.stepwise as stepwise_mod
from selfspec.ssd import MAX_DRAFT_LEN, draft_masks
from selfspec.stepwise import choose_step

from conftest import (
    CountingModel,
    all_masked_state,
    check_block_order,
    full_logits,
    replay_dual_rounds,
)


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


def draft(model, state, k=1, n=1):
    return drafts_from_logits(softmax_matrix(full_logits(model, state)), k,
                              positions=draft_masks(state, n), rows=np.arange(len(state.tokens)))


# --- drafts_from_logits ----------------------------------------------------


def test_draft_domain_is_exactly_the_masked_positions():
    state = all_masked_state(gen_len=8, block_len=8)
    for pos in (0, 1, 2, 3, 4, 6):
        state = place_token(state, pos, 1)
    drafts = draft(synth(), state, k=2)
    assert drafts.positions.tolist() == [5, 7]
    assert drafts.tokens.shape == (2, 2) and len(drafts) == 2


def test_drafts_cover_the_next_block_only_when_the_current_one_is_short():
    """Four blocks of 3 after a prompt of 2: with block 0 decoded and block 1
    holding two masks, drafts for n = 2 cover block 1 alone, and for n = 3
    the masks of blocks 1 and 2 and nothing of block 3; in the last block
    they cover that block alone."""
    state = all_masked_state(prompt_len=2, gen_len=12, block_len=3)
    for pos in (2, 3, 4, 6, 9):
        state = place_token(state, pos, 1)
    assert draft_masks(state, 2).tolist() == [5, 7]
    assert draft_masks(state, 3).tolist() == [5, 7, 8, 10]
    assert draft(synth(), state, k=2, n=2).positions.tolist() == [5, 7]
    drafts = draft(synth(), state, k=2, n=3)
    assert drafts.positions.tolist() == [5, 7, 8, 10]
    assert drafts.tokens.shape == (4, 2) and drafts.confidences.shape == (4,)
    for pos in (5, 7, 8, 10, 11):
        state = place_token(state, pos, 1)
    assert draft(synth(), state, n=3).positions.tolist() == [12, 13]


@given(
    prompt_len=st.integers(0, 3),
    gen_len=st.integers(1, 14),
    block_len=st.integers(1, 5),
    n=st.integers(0, 6),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_draft_masks_are_one_or_two_blocks_by_the_current_blocks_count(
    prompt_len, gen_len, block_len, n, data
):
    """draft_masks gives the current block's masks alone when they number
    at least n, else every mask of the current and the next block, whether
    or not the next block holds any."""
    state = all_masked_state(prompt_len, gen_len, block_len=block_len)
    filled = data.draw(st.sets(st.integers(prompt_len, prompt_len + gen_len - 1)))
    for pos in sorted(filled):
        state = place_token(state, pos, 1)
    block = {p: (p - prompt_len) // block_len for p in all_masks(state)}
    first = min(block.values(), default=0)
    current = [p for p, b in block.items() if b == first]
    want = current if len(current) >= n else [p for p, b in block.items() if b <= first + 1]
    assert draft_masks(state, n).tolist() == want


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
    state = all_masked_state(gen_len=12, vocab=vocab, block_len=6)  # n=7 drafts all 12 rows
    for seed in range(3):
        logits = np.random.default_rng(seed).standard_normal((12, vocab)) * 3.0
        logits[0] = 0.0  # all equal
        logits[1, [2, 5]] = logits[1].max() + 1.0  # duplicated maximum
        logits[2] = 0.0
        logits[2, 3] = 1000.0  # saturated one-hot
        probs = softmax_matrix(logits.copy())
        top1 = drafts_from_logits(probs, 1, positions=np.arange(12), rows=np.arange(12))
        for k in (1, 3, vocab):
            drafts = drafts_from_logits(probs, k, positions=np.arange(12), rows=np.arange(12))
            assert drafts.tokens.shape == (12, k)
            assert drafts.tokens[:, 0].tobytes() == top1.tokens[:, 0].tobytes()
            assert drafts.confidences.tobytes() == top1.confidences.tobytes()
        assert np.array_equal(top1.tokens[:, 0], np.argmax(logits, axis=1))
        assert top1.tokens[:3, 0].tolist() == [0, 2, 3]
        assert top1.confidences[0] == pytest.approx(1.0 / vocab, abs=1e-12)
        assert abs(top1.confidences[2] - 1.0) < 1e-12
    # frozen closed form: softmax([2, 0, 0])[0] = e^2 / (e^2 + 2)
    closed = drafts_from_logits(softmax_matrix(np.array([[2.0, 0.0, 0.0]])),
                                positions=np.arange(1), rows=np.arange(1))
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
    # no spill when the block suffices: the drafts for n = 2 hold block 0 alone
    full = select_candidates(state, manual_drafts({1: (5, 0.3), 3: (6, 0.4)}), 2)
    assert full == ((3, 6), (1, 5))
    with pytest.raises(ValueError):
        select_candidates(state, drafts, 2)


@given(
    data=st.data(),
    prompt_len=st.integers(0, 3),
    gen_len=st.integers(1, 16),
    block_len=st.integers(1, 6),
    vocab=st.integers(4, 6),
)
@settings(max_examples=200, deadline=None)
def test_top_candidate_is_the_stepwise_choice(data, prompt_len, gen_len, block_len, vocab):
    """On tie-heavy integer logits, the first candidate drafted from a
    state's own logits is exactly the stepwise choice on that state."""
    state = all_masked_state(prompt_len, gen_len, vocab, block_len)
    filled = data.draw(st.sets(st.integers(prompt_len, prompt_len + gen_len - 1),
                               max_size=gen_len - 1))
    for pos in filled:
        state = place_token(state, pos, data.draw(st.integers(0, vocab - 1)))
    rows = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=vocab, max_size=vocab),
                              min_size=prompt_len + gen_len, max_size=prompt_len + gen_len))
    probs = softmax_matrix(np.array(rows, dtype=np.float64))
    drafts = drafts_from_logits(probs, positions=draft_masks(state, 1), rows=np.arange(len(probs)))
    top = select_candidates(state, drafts, 1)[0]
    positions = masked_in_blocks(state, 1)
    assert top == choose_step(positions, probs[positions])[:2]


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


@pytest.mark.parametrize("placed,positions", [
    ((0, 1, 2), [4, 5, 6, 7]),  # block 1 while block 0 still holds position 3
    ((0, 2), [1, 2]),  # position 2 is decoded, 3 is missed
    ((0, 2), [1, 1, 3]),  # a repeat
    ((0, 2), [3, 1]),  # descending
    ((0, 2), [1, 5]),  # block 1's 5 for block 0's 3, with two masks enough for n = 2
])
def test_select_rejects_drafts_that_are_not_the_drafted_masks(placed, positions):
    """Each position masked, ascending without repeats, none before the
    current block or past the drafted blocks, and as many as their masks:
    drafts that break any one of these, as many as the masks, are refused."""
    state = all_masked_state(gen_len=8, block_len=4)
    for pos in placed:
        state = place_token(state, pos, 1)
    drafts = Drafts(positions=np.array(positions), tokens=np.ones((len(positions), 1), int),
                    confidences=np.full(len(positions), 0.5))
    with pytest.raises(ValueError, match="do not cover"):
        select_candidates(state, drafts, 2)


def test_select_rejects_nonpositive_n():
    state = all_masked_state(gen_len=4, block_len=4)
    with pytest.raises(ValueError):
        select_candidates(state, manual_drafts({0: (1, 0.5)}), 0)


# --- build_tree shapes -----------------------------------------------------


def drafted_round(gen_len=12, n=3, vocab=16, seed=0, k=3):
    model = synth(seed=seed, vocab=vocab)
    state = all_masked_state(gen_len=gen_len, vocab=vocab, block_len=gen_len)
    drafts = draft(model, state, k, n)
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
        assert tree[d].tokens == tuple(expect_tokens)
        if d > 0:
            assert node.expectation == cands[d - 1]
            assert not node.is_branch


def test_branch_nodes_skip_exactly_one_candidate():
    """Branch under chain depth d: first d candidates placed, candidate d+1
    skipped (still masked), candidate d+2's token placed; always a leaf."""
    _, state, drafts, cands = drafted_round(n=4)
    tree = build_tree(state, cands, drafts, "mix_order")
    branches = [(i, node) for i, node in enumerate(tree.nodes) if node.is_branch]
    assert len(branches) == 3
    for i, node in branches:
        d = tree.nodes[node.parent].depth
        skipped_pos, _ = cands[d]
        jumped_pos, jumped_tok = cands[d + 1]
        assert node.expectation == (jumped_pos, jumped_tok)
        assert tree[i].is_masked(skipped_pos)
        assert tree[i].tokens[jumped_pos] == jumped_tok
        for pos, tok in cands[:d]:
            assert tree[i].tokens[pos] == tok
        assert all(other.parent != i for other in tree.nodes)  # leaves by construction


def test_node_layout_of_every_shape():
    """Batch order decides which row becomes leaf_index, so pin it: the chain
    0..N, then the mix_order branches by depth; kary breadth-first, parents
    in frontier order and tokens in draft order.  Rows are (parent, depth,
    expectation, is_branch); the root holds the base state, and every other
    node's state, tree[i], is its parent's state plus its expectation."""
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
        assert tree.base is tree[0] is state
        for i, node in enumerate(nodes[1:], start=1):
            assert tree[i] == place_token(tree[node.parent], *node.expectation)


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


def placing_error(state, cands):
    """What placing cands in turn on state raises: the reference build_tree's
    one check of the candidates must reproduce."""
    with pytest.raises(Exception) as caught:
        for pos, tok in cands:
            state = place_token(state, pos, tok)
    return caught.value


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
@pytest.mark.parametrize("bad", [(3, 1), (1, 1), (4, 2), (5, 16), (10, 1)],
                         ids=["decoded", "prompt", "duplicate", "mask-token", "out-of-range"])
def test_build_tree_rejects_each_bad_candidate(shape, bad):
    """A candidate at a decoded or prompt position, at the position of an
    earlier candidate, holding the mask token or out of range: build_tree
    raises, before any state is built, the exception placing the candidates
    in turn raises."""
    state = place_token(all_masked_state(prompt_len=2, gen_len=8, block_len=8), 3, 5)
    cands = ((4, 1), bad)
    want = placing_error(state, cands)
    with pytest.raises(type(want), match=re.escape(str(want))):
        build_tree(state, cands, manual_drafts({4: (1, 0.9)}), shape)


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
@pytest.mark.parametrize("seed", range(6))
def test_a_round_builds_only_the_states_its_walk_visits(shape, seed, monkeypatch):
    """Building a tree places no token.  On the synthetic backend the walk
    builds each node it validates, by one placement on its parent's state,
    and places the leaf's own choice: so a round places exactly the tokens
    it accepts, in order.  Every node off the path is still unbuilt after
    the walk, and costs one placement when first asked for."""
    model, state, drafts, cands = drafted_round(gen_len=12, n=4, seed=seed)
    placed = []

    def counting_place(state, pos, tok):
        placed.append((pos, tok))
        return place_token(state, pos, tok)

    monkeypatch.setattr(ssd_mod, "place_token", counting_place)
    tree = build_tree(state, cands, drafts, shape)
    assert placed == []
    result = batch_verify(model, tree)
    assert placed == [(pos, tok) for pos, tok, _ in result.accepted]
    path, i = set(), result.leaf_index
    while i is not None:
        path.add(i)
        i = tree.nodes[i].parent
    built = []
    for i in range(len(tree)):  # parents precede children, so each asks for itself alone
        before = len(placed)
        tree[i]
        built.append(len(placed) - before)
    assert built == [int(i not in path) for i in range(len(tree))]


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
def test_longest_draft_validates_its_whole_chain_in_one_round(shape):
    """A context-free model at draft length MAX_DRAFT_LEN, in one block that
    holds the chain and its bonus token: stepwise order is draft order, so
    the first round accepts all 257 tokens, through a tree of 257 or 512
    nodes, and the output equals stepwise."""
    model = synth(seed=5, cw=0)
    state = all_masked_state(gen_len=MAX_DRAFT_LEN + 1, block_len=MAX_DRAFT_LEN + 1)
    res = ssd_decode(model, state, n=MAX_DRAFT_LEN, shape=shape)
    assert res.state.tokens == stepwise_decode(model, state, topk=0)[0].tokens
    assert [r.accepted for r in res.rounds] == [MAX_DRAFT_LEN + 1]
    assert res.fallback_steps == 0


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


def test_refresh_reads_the_leafs_next_but_one_block():
    """block_len 1 and n = 2: round 1 validates its whole chain, the bonus
    token completes the leaf's block, and one mask is short of n, so round
    2 drafts for the masks of the leaf's next and next-but-one block, which
    the walk did not read; the loop reads the leaf once more for exactly
    those masks and drafts as from the leaf's full rows."""
    model = CountingModel(synth(seed=1, cw=0))
    selected = []

    def recording_select(state, drafts, n):
        selected.append((state, drafts))
        return select_candidates(state, drafts, n)

    with mock.patch.object(ssd_mod, "select_candidates", recording_select):
        res = ssd_decode(model, all_masked_state(gen_len=8, block_len=1), n=2)
    assert res.rounds[0].accepted == 3
    assert [(i, pos) for call, i, pos in model.reads if call == 1] == [
        (0, [0]), (1, [1]), (2, [2]), (2, [3, 4])
    ]
    state, refreshed = selected[1]
    assert np.array_equal(refreshed.positions, [3, 4])
    leaf_rows = softmax_matrix(full_logits(synth(seed=1, cw=0), model.batches[1][2]))
    stale = drafts_from_logits(leaf_rows, positions=draft_masks(state, 2),
                               rows=np.arange(len(state.tokens)))
    assert np.array_equal(refreshed.tokens, stale.tokens)
    assert np.array_equal(refreshed.confidences, stale.confidences)
    with pytest.raises(ValueError, match="do not cover"):
        drafts_from_logits(leaf_rows[[2]], positions=draft_masks(state, 2), rows=np.array([2]))


def test_walk_reads_each_node_for_its_current_block_alone():
    """n = 3 in blocks of 4, context-free so the whole chain validates: the
    walk reads every chain node once, in order, for its current block's
    masks alone, however few of them are left for a refresh; the refresh
    then drafts from the leaf's rows without reading it again."""
    model = CountingModel(synth(seed=1, cw=0))
    state = all_masked_state(gen_len=16, block_len=4)
    drafts = draft(model, state, n=3)
    tree = build_tree(state, select_candidates(state, drafts, 3), drafts)
    result = batch_verify(model, tree)
    assert result.leaf_index == 3
    walk = [(i, [p for p in range(4) if tree[i].is_masked(p)]) for i in range(len(tree))]
    assert model.reads[1:] == [(1, i, pos) for i, pos in walk]
    assert [len(pos) for _, pos in walk] == [4, 3, 2, 1]


def test_fully_decoded_node_asks_for_no_rows():
    """A chain whose last candidate fills the last mask: the walk reads that
    node for an empty position set, and every backend answers it with a
    (0, V) matrix, alone or beside other states."""
    model = CountingModel(synth(seed=3, cw=0))  # context-free: the whole chain validates
    state = all_masked_state(gen_len=4, block_len=2)
    for pos in (0, 1):
        state = place_token(state, pos, 5)
    drafts = draft(model, state, n=2)
    tree = build_tree(state, select_candidates(state, drafts, 2), drafts)
    result = batch_verify(model, tree)
    walk = [[2, 3], [p for p in (2, 3) if tree[1].is_masked(p)], []]
    assert model.reads[1:] == [(1, i, pos) for i, pos in enumerate(walk)]
    decoded = tree[2]
    assert masked_in_blocks(decoded, 3).size == 0
    backends = {
        "synthetic": synth(seed=3),
        "table": TableModel({s.tokens: full_logits(synth(seed=3), s) for s in (decoded, state)}),
    }
    for name, backend in backends.items():
        alone = backend.forward([decoded])[0]([])
        beside = backend.forward([decoded, state])
        assert alone.shape == beside[0](np.empty(0, dtype=np.intp)).shape == (0, 16), name
        assert np.array_equal(beside[1]([2, 3]), full_logits(backend, state)[2:]), name
    assert result.leaf_index == 2 and len(result.accepted) == 2
    assert result.state is decoded  # the decoded leaf chooses no bonus token
    assert result.leaf_probs.shape == (0, 16) and tree[result.leaf_index].masks.size == 0


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
    assert len(res.trace.positions) == 12
    check_block_order(res.trace.positions.tolist(), 2, 12, 4)
    for pos, tok in zip(res.trace.positions.tolist(), res.trace.tokens.tolist()):
        assert res.state.tokens[pos] == tok


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
def test_ssd_softmaxes_at_most_two_blocks_of_rows(monkeypatch, shape):
    """Drafting reads the current and the next block and the walk only the
    current one, so on a sequence six blocks long no softmax in the
    speculative loop sees more than two blocks of rows."""
    rows = []

    def counting_softmax(mat):
        rows.append(len(mat))
        return softmax_matrix(mat)

    monkeypatch.setattr(ssd_mod, "softmax_matrix", counting_softmax)
    model = synth(seed=4)
    state = all_masked_state(prompt_len=2, gen_len=24, block_len=4)
    res = ssd_decode(model, state, n=3, shape=shape)
    assert res.rounds and res.state.tokens == stepwise_decode(model, state, topk=0)[0].tokens
    assert max(rows) <= 2 * 4


@pytest.mark.parametrize("strategy", ["stepwise", "greedy", "mix_order"])
def test_a_decode_allocates_no_vocabulary_wide_row_after_its_first_round(monkeypatch, strategy):
    """Every read of a decode lands in a buffer the decode allocates up
    front: from the end of its first round, or stepwise step, no stretch up
    to the next, drafting, the walk and the stepwise fallback included,
    grows the traced heap by one logit row.  V = 2**14 puts a row (128 KiB)
    past the 64 KiB at most that numpy's iterator buffers for a broadcast,
    as in the softmax's subtraction and division of each row's constant."""
    vocab = 2**14
    model = synth(seed=1, vocab=vocab)
    state = all_masked_state(prompt_len=2, gen_len=64, vocab=vocab, block_len=8)
    growths, base = [], []

    def marked(fn):
        def mark(*args):
            result = fn(*args)
            current, peak = tracemalloc.get_traced_memory()
            growths.extend(peak - b for b in base)
            base[:] = [current]
            tracemalloc.reset_peak()
            return result
        return mark

    monkeypatch.setattr(stepwise_mod, "choose_step", marked(choose_step))  # each stepwise step
    monkeypatch.setattr(ssd_mod, "batch_verify", marked(batch_verify))  # each round
    tracemalloc.start()
    try:
        res = None if strategy == "stepwise" else ssd_decode(model, state, n=3, shape=strategy)
        final = stepwise_decode(model, state, topk=0)[0] if res is None else res.state
    finally:
        tracemalloc.stop()
    assert res is None or res.fallback_steps > 0  # the law covers the fallback too
    assert final.tokens == stepwise_decode(synth(seed=1, vocab=vocab), state, topk=0)[0].tokens
    assert len(growths) >= 10 and max(growths) < vocab * 8, growths


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
def test_a_rounds_leaf_rows_survive_the_next_drafting(monkeypatch, shape):
    """The leaf rows a round hands back are the leaf's own softmaxed rows,
    read into a buffer of the decode, and keep their values through the
    next round's drafting, both when it drafts from them and when it
    re-reads the leaf for the next block."""
    model = synth(seed=2, vocab=64)
    state = all_masked_state(prompt_len=1, gen_len=48, vocab=64, block_len=6)
    handed = []  # (result, a copy of its leaf rows) of every round
    reread = []  # per later round, whether its drafting re-read the previous leaf

    def recording_verify(model, tree, out):
        result = batch_verify(model, tree, out)
        assert np.shares_memory(result.leaf_probs, out)
        leaf_masks = tree[result.leaf_index].masks
        fresh = softmax_matrix(result.read_leaf(leaf_masks))
        assert result.leaf_probs.tobytes() == fresh.tobytes()
        handed.append((result, fresh, leaf_masks))
        return result

    def checking_select(state, drafts, n):
        if handed:
            result, rows, leaf_masks = handed[-1]
            assert result.leaf_probs.tobytes() == rows.tobytes()
            reread.append(bool(drafts.positions[-1] > leaf_masks[-1]))
        return select_candidates(state, drafts, n)

    monkeypatch.setattr(ssd_mod, "batch_verify", recording_verify)
    monkeypatch.setattr(ssd_mod, "select_candidates", checking_select)
    res = ssd_decode(model, state, n=4, shape=shape)
    assert res.state.tokens == stepwise_decode(model, state, topk=0)[0].tokens
    assert True in reread and False in reread


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


def fresh_scan_stepwise(model, state):
    """The stepwise rule with a fresh scan for the current block's masks at
    every step: the reference the carried masks must reproduce."""
    while (positions := masked_in_blocks(state, 1)).size:
        probs = softmax_matrix(model.forward([state])[0](positions))
        pos, tok, _ = choose_step(positions, probs)
        state = place_token(state, pos, tok)
    return state


@given(
    seed=st.integers(0, 40),
    prompt_len=st.integers(0, 3),
    gen_len=st.integers(1, 30),
    block_len=st.integers(1, 8),
    n=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_partly_decoded_starts_are_lossless(seed, prompt_len, gen_len, block_len, n, data):
    """Start states with random positions already decoded, in later blocks
    too, so a block can be full before the decode reaches it and the masks
    carried past a block's end must come from a scan that skips it:
    stepwise, with or without snapshots, equals the fresh-scan reference,
    and greedy and mix_order equal stepwise."""
    model = synth(seed=seed, vocab=12)
    state = all_masked_state(prompt_len, gen_len, 12, block_len)
    placed = data.draw(st.sets(st.integers(prompt_len, prompt_len + gen_len - 1),
                               max_size=gen_len - 1))
    for pos in sorted(placed):
        state = place_token(state, pos, data.draw(st.integers(0, 11)))
    want = fresh_scan_stepwise(model, state).tokens
    assert stepwise_decode(model, state, topk=0)[0].tokens == want
    assert stepwise_decode(model, state, topk=2)[0].tokens == want
    for shape in ("greedy", "mix_order"):
        assert ssd_decode(model, state, n=n, shape=shape).state.tokens == want


@given(
    seed=st.integers(0, 40),
    prompt_len=st.integers(0, 4),
    gen_len=st.integers(1, 20),
    block_len=st.integers(1, 8),
    n=st.integers(1, 5),
    shape=st.sampled_from(["greedy", "mix_order"]),
)
@settings(max_examples=60, deadline=None)
def test_forward_count_law_at_the_model(seed, prompt_len, gen_len, block_len, n, shape):
    """What the model sees is what the result reports, and speculation never
    costs more than one forward beyond stepwise; once a round accepts two
    tokens it costs no more than stepwise."""
    model = CountingModel(synth(seed=seed, vocab=12))
    state = all_masked_state(
        prompt_len=prompt_len, gen_len=gen_len, vocab=12, block_len=block_len
    )
    res = ssd_decode(model, state, n=n, shape=shape)
    assert model.calls == res.forward_count
    assert model.rows == 1 + sum(r.batch_size for r in res.rounds) + res.fallback_steps
    assert model.calls <= gen_len + 1
    if any(r.accepted >= 2 for r in res.rounds):
        assert model.calls <= gen_len


def all_masks(state):
    """Every masked position of state, ascending."""
    return [p for p in range(len(state.tokens)) if state.is_masked(p)]


def scanned_draft(state, n):
    """The masks drafted for n candidates on state, by a fresh scan."""
    current = masked_in_blocks(state, 1)
    return (current if len(current) >= n else masked_in_blocks(state, 2)).tolist()


@given(
    seed=st.integers(0, 40),
    prompt_len=st.integers(0, 4),
    gen_len=st.integers(1, 20),
    block_len=st.integers(1, 8),
    n=st.integers(1, 5),
    shape=st.sampled_from(["greedy", "mix_order"]),
)
@settings(max_examples=60, deadline=None)
def test_every_read_is_the_walk_or_the_refresh(seed, prompt_len, gen_len, block_len, n, shape):
    """Every read asks for ascending masked positions of its own state.  The
    first draft reads the masks it drafts.  Each round reads the nodes on the
    path from the root to its leaf once each, in walk order, for exactly
    their current block's masks, and no other node; then it reads the leaf
    at most once more, only when the drafted masks pass the leaf's current
    block, and then for exactly those masks.  Each stepwise fallback step
    reads its current block's masks, and a stepwise step that snapshots
    reads every mask.  Calls and batch sizes still add up to the forward
    count and the round sizes.  Each round's next state is its base with
    the accepted tokens placed in order, with its current block's masks,
    yet no token is placed before the walk, the walk places exactly the
    tokens it accepts, and the whole decode places gen_len tokens, as
    stepwise does.  Every round drafts the masks a fresh scan of its state
    drafts."""
    model = CountingModel(synth(seed=seed, vocab=12))
    start = all_masked_state(prompt_len=prompt_len, gen_len=gen_len, vocab=12, block_len=block_len)
    verified = []
    selected = []  # (state, drafted positions) of every select_candidates call
    placed = []  # one entry per place_token call of ssd or stepwise

    def counting_place(state, pos, tok):
        placed.append((pos, tok))
        return place_token(state, pos, tok)

    def recording_verify(model, tree, out):
        before = len(placed)
        result = batch_verify(model, tree, out)
        verified.append((tree, result, before, len(placed)))
        return result

    def recording_select(state, drafts, n):
        selected.append((state, drafts.positions.tolist()))
        return select_candidates(state, drafts, n)

    with mock.patch.object(ssd_mod, "batch_verify", recording_verify), \
            mock.patch.object(ssd_mod, "select_candidates", recording_select), \
            mock.patch.object(ssd_mod, "place_token", counting_place), \
            mock.patch.object(stepwise_mod, "place_token", counting_place):
        res = ssd_decode(model, start, n=n, shape=shape)
    assert len(placed) == gen_len
    assert model.calls == res.forward_count
    assert model.rows == 1 + sum(r.batch_size for r in res.rounds) + res.fallback_steps
    reads = [[] for _ in model.batches]
    for call, i, pos in model.reads:
        assert pos == sorted(set(pos)) and all(model.batches[call][i].is_masked(p) for p in pos)
        reads[call].append((i, pos))
    assert reads[0] == [(0, scanned_draft(start, n))]
    # every round drafts exactly what a fresh scan of its own state drafts,
    # on the start and on each verify's next state that still holds a mask
    drafted_on = [start] + [r.state for _, r, _, _ in verified if all_masks(r.state)]
    assert [state for state, _ in selected] == drafted_on
    assert [pos for _, pos in selected] == [scanned_draft(state, n) for state in drafted_on]

    walked = 0  # place_token calls up to the end of the previous walk
    for call, (tree, result, before, after) in enumerate(verified, start=1):
        assert before == walked and after - before == len(result.accepted)
        walked = after
        assert model.batches[call] is tree
        path = [result.leaf_index]
        while tree.nodes[path[-1]].parent is not None:
            path.append(tree.nodes[path[-1]].parent)
        path.reverse()
        accepted = [(pos, tok) for pos, tok, _ in result.accepted]
        assert [tree.nodes[i].expectation for i in path[1:]] == accepted[: len(path) - 1]
        walk = [(i, masked_in_blocks(tree[i], 1).tolist()) for i in path]
        state = tree.base
        for pos, tok in accepted:
            state = place_token(state, pos, tok)
        assert result.state == state
        assert result.state.masks.tolist() == masked_in_blocks(state, 1).tolist()
        leaf = tree[result.leaf_index]
        if all_masks(state):
            masks = scanned_draft(state, n)
            block = [(p - leaf.prompt_len) // leaf.block_len
                     for p in (masks[-1], masked_in_blocks(leaf, 1)[0])]
            if block[0] > block[1]:
                walk.append((result.leaf_index, masks))
        assert reads[call] == walk
    assert len(placed) - walked == res.fallback_steps

    fallback = model.batches[1 + len(verified) :]
    assert len(fallback) == res.fallback_steps
    for call, [step] in enumerate(fallback, start=1 + len(verified)):
        assert reads[call] == [(0, masked_in_blocks(step, 1).tolist())]
    snapshots = CountingModel(synth(seed=seed, vocab=12))
    stepwise_decode(snapshots, start, topk=2)
    assert [pos for _, _, pos in snapshots.reads] == [all_masks(s) for [s] in snapshots.batches]


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
