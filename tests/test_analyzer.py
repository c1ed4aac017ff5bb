"""Acceptance-limit analysis: window matching, bounds, tree-size law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    DecodeTrace,
    SynthModelConfig,
    SyntheticModel,
    format_grid,
    kary_tree_size,
    reduction_grid,
    ssd_decode,
    stepwise_decode,
    topk_match_reduction,
    upper_bound,
)

from conftest import all_masked_state


def synth_trace(seed=0, gen_len=12, block_len=6, vocab=12, cw=2, topk=5):
    model = SyntheticModel(
        SynthModelConfig(seed=seed, vocab_size=vocab, context_window=cw)
    )
    state = all_masked_state(gen_len=gen_len, vocab=vocab, block_len=block_len)
    _, trace = stepwise_decode(model, state, topk=topk)
    return trace


# --- upper_bound and kary_tree_size ----------------------------------------


def test_upper_bound_frozen_values():
    assert upper_bound(3) == 0.75
    assert upper_bound(4) == 0.8
    assert upper_bound(5) == 5 / 6
    assert f"{100 * upper_bound(5):.1f}%" == "83.3%"


def test_upper_bound_rejects_zero():
    with pytest.raises(ValueError):
        upper_bound(0)


def test_kary_tree_size_examples():
    assert kary_tree_size(2, 3) == 15
    assert kary_tree_size(1, 3) == 4
    assert kary_tree_size(3, 2) == 13


@given(k=st.integers(1, 5), n=st.integers(0, 12))
@settings(max_examples=100)
def test_kary_tree_size_recurrence(k, n):
    if n == 0:
        assert kary_tree_size(k, n) == 1
    else:
        assert kary_tree_size(k, n) == 1 + k * kary_tree_size(k, n - 1)


def test_kary_tree_size_rejects_bad_args():
    with pytest.raises(ValueError):
        kary_tree_size(0, 3)
    with pytest.raises(ValueError):
        kary_tree_size(2, -1)


# --- topk_match_reduction --------------------------------------------------


def hand_trace(steps, snapshots, topk):
    """A stepwise trace of steps, (position, token) each, whose step i
    recorded snapshots[i]: a dict from each of its masks (and maybe other
    positions) to topk (token, probability) pairs."""
    positions = [pos for pos, _ in steps]
    pairs = np.array([snap[pos] for i, snap in enumerate(snapshots)
                      for pos in sorted(positions[i:])]).reshape(-1, topk, 2)
    return DecodeTrace("stepwise", 0, len(steps), len(steps), 9, topk, np.array(positions),
                       np.array([tok for _, tok in steps]), np.full(len(steps), 0.5),
                       pairs[..., 0].astype(np.intp), pairs[..., 1])


def test_window_arithmetic_hand_case():
    """5 steps, n=2: windows [0,1,2] and [3,4].  Step 1 matches at top-1,
    step 2 only at top-2, step 4 matches at top-1; window starts never
    count."""
    snap0 = {
        0: ((4, 0.9), (1, 0.05)),
        1: ((5, 0.8), (2, 0.1)),
        2: ((3, 0.6), (6, 0.3)),
        3: ((7, 0.5), (0, 0.2)),
        4: ((8, 0.4), (2, 0.3)),
    }
    snap3 = {
        3: ((7, 0.7), (1, 0.1)),
        4: ((2, 0.6), (8, 0.2)),
    }
    filler = {p: ((0, 0.5), (1, 0.2)) for p in range(5)}
    steps = [
        (0, 4),
        (1, 5),  # top-1 hit
        (2, 6),  # top-2 hit
        (3, 7),
        (4, 2),  # top-1 hit
    ]
    trace = hand_trace(steps, [snap0, filler, filler, snap3, filler], topk=2)
    assert topk_match_reduction(trace, 2, 1) == pytest.approx(2 / 5)
    assert topk_match_reduction(trace, 2, 2) == pytest.approx(3 / 5)


def window_reduction(steps, snapshots, n, k):
    """The window definition, one step at a time: step i is saved iff it does
    not start its window of n+1 steps and its token is among the top-k
    candidates that the window's first step recorded for its position."""
    saved = 0
    for i, (pos, tok) in enumerate(steps):
        start = i - i % (n + 1)
        saved += i != start and tok in [t for t, _ in snapshots[start][pos][:k]]
    return saved / len(steps)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reductions_equal_the_window_definition(data):
    """Random decode orders and snapshots over few tokens, so tokens repeat
    within a list and a step's token is often missing from its window
    start's list."""
    topk = data.draw(st.integers(1, 4), label="topk")
    count = data.draw(st.integers(1, 12), label="steps")
    order = data.draw(st.permutations(range(count)), label="order")
    tokens = st.integers(0, 4)
    steps = [(pos, data.draw(tokens, label="token")) for pos in order]
    candidates = st.lists(st.tuples(tokens, st.floats(0, 1)), min_size=topk, max_size=topk)
    snapshots = [{pos: data.draw(candidates, label="candidates") for pos in order[i:]}
                 for i in range(count)]
    trace = hand_trace(steps, snapshots, topk)
    draft_lengths = data.draw(st.lists(st.integers(1, 13), min_size=1, max_size=3), label="n")
    ks = data.draw(st.lists(st.integers(1, topk), min_size=1, max_size=3), label="k")
    grid = reduction_grid(trace, tuple(draft_lengths), tuple(ks))
    for row in grid.rows:
        for k, got in zip(grid.topk_values, row.reductions):
            want = window_reduction(steps, snapshots, row.draft_len, k)
            assert got == want == topk_match_reduction(trace, row.draft_len, k)


def test_unmatched_steps_save_nothing():
    snap = {0: ((1, 0.9),), 1: ((2, 0.8),)}
    steps = [(0, 1), (1, 7)]  # step 1 misses
    assert topk_match_reduction(hand_trace(steps, [snap, snap], 1), 1, 1) == 0.0


def test_k_equal_vocab_hits_bound_on_divisible_trace():
    vocab = 12
    for n in (2, 3, 5):
        trace = synth_trace(seed=3, gen_len=12, block_len=12, vocab=vocab, topk=vocab)
        got = topk_match_reduction(trace, n, vocab)
        assert got == pytest.approx(n / (n + 1), abs=0.0)


def test_k_equal_vocab_on_non_divisible_matches_formula():
    vocab = 12
    trace = synth_trace(seed=3, gen_len=13, block_len=13, vocab=vocab, topk=vocab)
    got = topk_match_reduction(trace, 3, vocab)
    # every step matches, so each of the ceil(13/4) = 4 windows spends one forward
    assert got == (13 - 4) / 13


def test_k1_context_free_hits_bound():
    """With no context the window-start drafts are exactly the stepwise
    choices, so even k=1 matches every non-initial step."""
    for n in (2, 3, 5):
        trace = synth_trace(seed=8, gen_len=12, block_len=12, cw=0, topk=1)
        assert topk_match_reduction(trace, n, 1) == pytest.approx(n / (n + 1))


@given(seed=st.integers(0, 25), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_reduction_monotone_in_k_and_bounded(seed, n):
    trace = synth_trace(seed=seed, gen_len=18, block_len=6, topk=5)
    values = [topk_match_reduction(trace, n, k) for k in (1, 2, 3, 5)]
    assert values == sorted(values)
    assert all(0.0 <= v <= upper_bound(n) for v in values)


def test_the_decoder_can_save_more_than_the_estimate():
    """The estimate bounds no decoder: here the k=1 windows of the stepwise
    trace match no step, yet the speculative decoder, re-drafting from the
    leaf every round, saves 5 of 12 forwards with the same tokens."""
    model = SyntheticModel(SynthModelConfig(seed=0, vocab_size=12, context_window=2))
    state = all_masked_state(gen_len=12, vocab=12, block_len=6)
    final, trace = stepwise_decode(model, state, topk=1)
    assert topk_match_reduction(trace, 1, 1) == 0.0
    for shape in ("greedy", "mix_order"):
        result = ssd_decode(model, state, 1, shape)
        assert result.state.tokens == final.tokens, shape
        assert result.forward_count == 7, shape


def test_reduction_validates_arguments():
    trace = synth_trace(topk=3)
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 3, 4)  # k beyond recorded K
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 3, 0)
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 0, 1)
    ssd = DecodeTrace("ssd", 0, 1, 1, 9, 0, np.array([0]), np.array([1]), np.array([0.5]))
    with pytest.raises(ValueError, match="exceeds"):
        topk_match_reduction(ssd, 1, 1)  # a trace without a snapshot has topk 0


# --- grid report -----------------------------------------------------------


def test_reduction_grid_rows_and_columns():
    trace = synth_trace(seed=4, gen_len=24, block_len=8, topk=5)
    grid = reduction_grid(trace, (4, 3, 5), (3, 1, 5))
    assert grid.topk_values == (1, 3, 5)
    assert [row.draft_len for row in grid.rows] == [3, 4, 5]
    for row in grid.rows:
        assert list(row.reductions) == sorted(row.reductions)
        assert all(v <= upper_bound(row.draft_len) for v in row.reductions)


def test_format_grid_shows_upper_bounds():
    trace = synth_trace(seed=4, gen_len=24, block_len=8, topk=5)
    text = format_grid(reduction_grid(trace, (3, 4, 5), (1, 5)))
    lines = text.splitlines()
    assert "upper_bound" in lines[0]
    assert "75.0%" in text and "80.0%" in text and "83.3%" in text


def test_reduction_grid_rejects_empty_axes():
    trace = synth_trace(topk=2)
    with pytest.raises(ValueError):
        reduction_grid(trace, (), (1,))
    with pytest.raises(ValueError):
        reduction_grid(trace, (3,), ())
    # draft lengths are bounded as decode bounds them, so the grid's first
    # column never outgrows its header
    for n in (0, 2**8 + 1, 10**20):
        with pytest.raises(ValueError, match="draft lengths"):
            reduction_grid(trace, (3, n), (1,))
    assert format_grid(reduction_grid(trace, (2**8,), (1,))).startswith("draft_len")
