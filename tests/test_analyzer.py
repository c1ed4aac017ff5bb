"""Acceptance-limit analysis: window matching, bounds, tree-size law."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    DecodeTrace,
    StepRecord,
    SynthModelConfig,
    SyntheticModel,
    format_grid,
    kary_tree_size,
    reduction_grid,
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


def hand_trace(records, topk):
    return DecodeTrace(
        decoder="stepwise",
        prompt_len=0,
        gen_len=len(records),
        block_len=len(records),
        mask_id=9,
        topk=topk,
        records=tuple(records),
    )


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
    records = [
        StepRecord(position=0, token=4, confidence=0.9, topk=snap0),
        StepRecord(position=1, token=5, confidence=0.8, topk=filler),  # top-1 hit
        StepRecord(position=2, token=6, confidence=0.7, topk=filler),  # top-2 hit
        StepRecord(position=3, token=7, confidence=0.7, topk=snap3),
        StepRecord(position=4, token=2, confidence=0.6, topk=filler),  # top-1 hit
    ]
    trace = hand_trace(records, topk=2)
    assert topk_match_reduction(trace, 2, 1) == pytest.approx(2 / 5)
    assert topk_match_reduction(trace, 2, 2) == pytest.approx(3 / 5)


def window_reduction(trace, n, k):
    """The window definition, one step at a time: step i is saved iff it does
    not start its window of n+1 steps and its token is among the top-k
    candidates that the window's first step recorded for its position."""
    saved = 0
    for i, step in enumerate(trace.records):
        start = i - i % (n + 1)
        candidates = trace.records[start].topk.get(step.position, ())
        saved += i != start and step.token in [tok for tok, _ in candidates[:k]]
    return saved / len(trace.records)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reductions_equal_the_window_definition(data):
    """Random snapshots over few positions and tokens, so positions go
    missing, tokens repeat within a list and lists run short of (or past)
    the trace's top-K."""
    topk = data.draw(st.integers(1, 4), label="topk")
    tokens = st.integers(0, 4)
    candidates = st.lists(st.tuples(tokens, st.floats(0, 1)), max_size=topk + 1).map(tuple)
    step = st.builds(
        StepRecord,
        position=st.integers(0, 5),
        token=tokens,
        confidence=st.just(0.5),
        topk=st.dictionaries(st.integers(0, 5), candidates, max_size=6),
    )
    trace = hand_trace(data.draw(st.lists(step, min_size=1, max_size=12), label="steps"), topk)
    draft_lengths = data.draw(st.lists(st.integers(1, 13), min_size=1, max_size=3), label="n")
    ks = data.draw(st.lists(st.integers(1, topk), min_size=1, max_size=3), label="k")
    grid = reduction_grid(trace, tuple(draft_lengths), tuple(ks))
    for row in grid.rows:
        for k, got in zip(grid.topk_values, row.reductions):
            want = window_reduction(trace, row.draft_len, k)
            assert got == want == topk_match_reduction(trace, row.draft_len, k)


def test_unmatched_steps_save_nothing():
    snap = {0: ((1, 0.9),), 1: ((2, 0.8),)}
    records = [
        StepRecord(position=0, token=1, confidence=0.9, topk=snap),
        StepRecord(position=1, token=7, confidence=0.5, topk=snap),  # miss
    ]
    assert topk_match_reduction(hand_trace(records, 1), 1, 1) == 0.0


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


def test_reduction_validates_arguments():
    trace = synth_trace(topk=3)
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 3, 4)  # k beyond recorded K
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 3, 0)
    with pytest.raises(ValueError):
        topk_match_reduction(trace, 0, 1)
    bare = hand_trace(
        [StepRecord(position=0, token=1, confidence=0.5, topk=None)], topk=1
    )
    with pytest.raises(ValueError):
        topk_match_reduction(bare, 1, 1)


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
