"""Stepwise baseline decoder: the oracle that defines losslessness."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    SynthModelConfig,
    SyntheticModel,
    TableModel,
    initial_state,
    place_token,
    read_trace,
    softmax_matrix,
    stepwise_decode,
    trace_from_lines,
    trace_to_lines,
    write_trace,
)

from selfspec.jsonl import dumps
import selfspec.stepwise as stepwise_mod
from selfspec.stepwise import candidate_snapshot, snapshot_rows

from conftest import (CountingModel, ForwardFails, address_space_capped, all_masked_state,
                      check_block_order, full_logits)


def synth(seed=0, vocab=16, cw=2, sharpness=6.0):
    return SyntheticModel(
        SynthModelConfig(
            seed=seed, vocab_size=vocab, sharpness=sharpness, context_window=cw
        )
    )


def test_forward_count_equals_gen_len():
    state = all_masked_state(prompt_len=3, gen_len=10, block_len=4)
    final, trace = stepwise_decode(synth(), state, topk=3)
    assert len(trace.positions) == 10
    assert final.mask_id not in final.tokens


def test_single_token_single_step():
    state = all_masked_state(gen_len=1, block_len=1)
    final, trace = stepwise_decode(synth(), state, topk=0)
    assert len(trace.positions) == 1
    assert final.tokens[0] == trace.tokens[0]


def test_no_masks_is_invalid():
    state = all_masked_state(gen_len=2)
    final, _ = stepwise_decode(synth(), state, topk=0)
    with pytest.raises(ValueError):
        stepwise_decode(synth(), final, topk=0)


def test_topk_has_no_default():
    """A caller chooses the snapshot width: leaving topk out raises before
    any forward, instead of taking a top-5 snapshot nobody asked for."""
    model = CountingModel(synth())
    with pytest.raises(TypeError, match="topk"):
        stepwise_decode(model, all_masked_state(gen_len=2))
    assert model.calls == 0


def test_monotone_fixture_decodes_in_position_order():
    """Authored fixture: confidence strictly falls with position at every
    intermediate state, so acceptance order equals position order."""
    M = 4  # mask id, vocab 4
    heights = [6.0, 4.0, 2.0]

    def rows(tokens):
        out = np.zeros((3, 4))
        for i, tok in enumerate(tokens):
            if tok == M:
                out[i, i] = heights[i]  # position i wants token i
        return out

    states = [
        (M, M, M),
        (0, M, M),
        (0, 1, M),
    ]
    model = TableModel({s: rows(s) for s in states})
    state = initial_state(prompt=(), gen_len=3, mask_id=4, block_len=3)
    final, trace = stepwise_decode(model, state, topk=2)
    assert trace.positions.tolist() == [0, 1, 2]
    assert final.tokens == (0, 1, 2)
    confs = trace.confidences.tolist()
    assert confs == sorted(confs, reverse=True)


def test_context_free_output_is_per_position_argmax():
    """context_window=0: every step's token is the frozen argmax of its row,
    and acceptance order is descending confidence within each block."""
    model = synth(seed=5, cw=0, vocab=12)
    state = all_masked_state(gen_len=8, vocab=12, block_len=4)
    base_rows = full_logits(model, state)
    final, trace = stepwise_decode(model, state, topk=0)
    assert final.tokens == tuple(int(t) for t in np.argmax(base_rows, axis=1))
    probs = softmax_matrix(base_rows)
    conf = probs.max(axis=1)
    for block in (range(0, 4), range(4, 8)):
        picked = [p for p in trace.positions.tolist() if p in block]
        want = sorted(block, key=lambda p: (-conf[p], p))
        assert picked == want


def test_block_order_invariant():
    for seed in range(4):
        state = all_masked_state(prompt_len=2, gen_len=12, block_len=5)
        _, trace = stepwise_decode(synth(seed=seed), state, topk=0)
        assert check_block_order(trace.positions.tolist(), 2, 12, 5) == 12


def test_positions_lie_in_then_current_block():
    state = all_masked_state(gen_len=9, block_len=3)
    _, trace = stepwise_decode(synth(seed=8), state, topk=0)
    for i, pos in enumerate(trace.positions.tolist()):
        assert pos // 3 == i // 3  # three steps per block, in order


def test_rerun_is_bit_identical():
    state = all_masked_state(prompt_len=1, gen_len=10, block_len=4)
    a_final, a_trace = stepwise_decode(synth(seed=13), state, topk=4)
    b_final, b_trace = stepwise_decode(synth(seed=13), state, topk=4)
    assert a_final == b_final
    assert trace_to_lines(a_trace) == trace_to_lines(b_trace)


def test_snapshot_rows_are_each_steps_masks_ascending():
    """The layout law: step i's rows are the top-k of its own state's rows at
    its masks, which are the positions of steps i, i+1, ..., ascending, and
    they follow step i-1's rows."""
    model, state = synth(seed=2), all_masked_state(prompt_len=1, gen_len=7, block_len=3)
    _, trace = stepwise_decode(model, state, topk=3)
    assert trace.snap_tokens.shape == trace.snap_probs.shape == (7 * 8 // 2, 3)
    assert [snapshot_rows(i, 7) for i in (0, 1, 6)] == [slice(0, 7), slice(7, 13), slice(27, 28)]
    for i, (pos, tok) in enumerate(zip(trace.positions.tolist(), trace.tokens.tolist())):
        masks = sorted(trace.positions[i:].tolist())
        assert masks == [p for p in range(8) if state.is_masked(p)]
        tokens, probs = candidate_snapshot(softmax_matrix(full_logits(model, state))[masks], 3)
        rows = snapshot_rows(i, 7)
        assert np.array_equal(trace.snap_tokens[rows], tokens)
        assert np.array_equal(trace.snap_probs[rows], probs)
        assert (np.diff(probs, axis=1) <= 0).all()
        state = place_token(state, pos, tok)


def test_snapshot_has_one_row_per_probability_row():
    state = place_token(all_masked_state(prompt_len=2, gen_len=6), 4, 3)
    probs = softmax_matrix(full_logits(synth(), state))
    masked = np.array([2, 3, 5, 6, 7])
    tokens, top = candidate_snapshot(probs[masked], 2)
    assert tokens.shape == top.shape == (5, 2)
    # each row is its own probability row's top-k
    one_tokens, one_top = candidate_snapshot(probs[5:6], 2)
    assert np.array_equal(tokens[2:3], one_tokens) and np.array_equal(top[2:3], one_top)
    assert np.array_equal(top, np.take_along_axis(probs[masked], tokens, axis=1))


def test_snapshot_k_clamped_to_vocab():
    state = all_masked_state(gen_len=3, vocab=4, block_len=3)
    _, trace = stepwise_decode(synth(vocab=4), state, topk=99)
    assert trace.topk == 4
    assert trace.snap_tokens.shape[1] == trace.snap_probs.shape[1] == 4
    # ties break to the lowest token id, and k beyond the vocabulary truncates
    probs = softmax_matrix(np.array([[1.0, 1.0, 0.0, 2.0]]))
    assert candidate_snapshot(probs, 3)[0].tolist() == [[3, 0, 1]]
    assert candidate_snapshot(probs, 10)[0].tolist() == [[3, 0, 1, 2]]
    # a tie at the cut keeps the lowest ids, also among probabilities saturated to 0.0
    flat = softmax_matrix(np.zeros((1, 64)))
    assert candidate_snapshot(flat, 3)[0].tolist() == [[0, 1, 2]]
    saturated = softmax_matrix(np.array([[0.0] * 63 + [1000.0]]))
    assert candidate_snapshot(saturated, 3)[0].tolist() == [[63, 0, 1]]


def test_chosen_token_heads_its_own_snapshot():
    state = all_masked_state(gen_len=8, block_len=8)
    _, trace = stepwise_decode(synth(seed=6), state, topk=2)
    positions = trace.positions.tolist()
    for i, (pos, tok, conf) in enumerate(zip(positions, trace.tokens, trace.confidences)):
        row = snapshot_rows(i, len(positions)).start + sorted(positions[i:]).index(pos)
        assert trace.snap_tokens[row, 0] == tok
        assert trace.snap_probs[row, 0] == conf


def test_snapshot_too_large_fails_before_any_forward():
    """At gen_len 2**20 a top-5 snapshot needs 2**19 * (2**20 + 1) rows of 5
    candidates, 20 TiB an array, so it raises MemoryError before the first
    forward."""
    state = initial_state(prompt=(), gen_len=2**20, mask_id=64, block_len=32)
    with address_space_capped(), pytest.raises(MemoryError):
        stepwise_decode(ForwardFails(), state, topk=5)


def test_snapshot_past_physical_memory_fails_before_any_forward(monkeypatch):
    """A snapshot the allocator could grant but the machine cannot back
    raises MemoryError naming its size before the first forward: at gen_len
    64 a top-5 snapshot is 2,080 rows of 5 token ids and 5 probabilities,
    166,400 bytes, against a reported physical memory one byte smaller.  At
    exactly its size the decode goes on to the forward."""
    state = initial_state(prompt=(), gen_len=64, mask_id=64, block_len=32)
    monkeypatch.setattr(stepwise_mod, "physical_memory", lambda: 166_399)
    with pytest.raises(MemoryError, match="top-5 snapshot of 166,400 bytes"):
        stepwise_decode(ForwardFails(), state, topk=5)
    monkeypatch.setattr(stepwise_mod, "physical_memory", lambda: 166_400)
    with pytest.raises(AssertionError, match="forward was called"):
        stepwise_decode(ForwardFails(), state, topk=5)


def test_traced_decode_holds_arrays_not_objects():
    """A traced decode at V=64, L=256, block 32, top-5 holds its snapshot as
    two (32,896, 5) arrays, 2.5 MiB in all, not a Python object per
    candidate."""
    state = initial_state(prompt=(), gen_len=256, mask_id=64, block_len=32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = stepwise_decode(synth(vocab=64), state, topk=5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept[1].snap_tokens.shape == (256 * 257 // 2, 5)
    assert held < 4 * 2**20


# --- trace serialization ---------------------------------------------------


@given(seed=st.integers(0, 50), topk=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_trace_line_round_trip(seed, topk):
    state = all_masked_state(gen_len=6, block_len=3)
    _, trace = stepwise_decode(synth(seed=seed), state, topk=topk)
    lines = trace_to_lines(trace)
    assert trace_to_lines(trace_from_lines(lines)) == lines


def test_trace_file_round_trip(tmp_path):
    state = all_masked_state(prompt_len=2, gen_len=8, block_len=4)
    _, trace = stepwise_decode(synth(seed=1), state, topk=5)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert trace_to_lines(back) == trace_to_lines(trace)
    for name in ("positions", "tokens", "confidences", "snap_tokens", "snap_probs"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))


def test_trace_from_garbage_rejected():
    with pytest.raises(ValueError):
        trace_from_lines(["{}"])
    with pytest.raises(ValueError, match="decoder"):
        trace_from_lines(['{"kind": "trace"}'])
    header = (
        '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, "gen_len": 1,'
        ' "block_len": 1, "mask_id": 2, "topk": 0}'
    )
    top1 = header.replace('"topk": 0', '"topk": 1')
    record = '{"position": 0, "token": 1, "confidence": 0.5, "topk": %s}'
    assert len(trace_from_lines([top1, record % "[[0, [[1, 0.5]]]]"]).positions) == 1
    with pytest.raises(ValueError, match="line 1"):
        trace_from_lines(["[1]"])
    with pytest.raises(ValueError, match="line 3"):
        trace_from_lines([header, "", "[1]"])
    with pytest.raises(ValueError, match="line 2"):
        trace_from_lines([top1, record % "5"])
    with pytest.raises(ValueError, match="line 2"):
        trace_from_lines([top1, record % "[[0, 5]]"])
    with pytest.raises(ValueError, match="line 1.*gen_len"):
        trace_from_lines([header.replace('"gen_len": 1', '"gen_len": 2.9'), record % "null"])
    with pytest.raises(ValueError, match="line 1.*topk"):
        trace_from_lines([header.replace('"topk": 0', '"topk": true')])
    with pytest.raises(ValueError, match="line 2.*position"):
        trace_from_lines([header, (record % "null").replace('"position": 0', '"position": 0.7')])
    with pytest.raises(ValueError, match="line 2.*confidence"):
        trace_from_lines([header, (record % "null").replace("0.5", '"0.5"')])
    with pytest.raises(ValueError, match="line 2.*confidence"):
        trace_from_lines([header, (record % "null").replace("0.5", "NaN")])
    # numbers that would not write back as read: an integer for a float, or
    # a float written other than as repr writes it
    with pytest.raises(ValueError, match="line 2.*confidence"):
        trace_from_lines([header, (record % "null").replace("0.5", "1")])
    for odd in ("0.50", "5e-1", "5E-1", "1e999"):
        with pytest.raises(ValueError, match="line 2.*write back"):
            trace_from_lines([header, (record % "null").replace("0.5", odd)])
    for snapshot in ("[[0, [[1, 1]]]]", "[[0, [[1, 0.50]]]]", "[[0, [[1, 1.0e0]]]]"):
        with pytest.raises(ValueError, match="line 2"):
            trace_from_lines([top1, record % snapshot])
    with pytest.raises(ValueError, match="line 2.*probability"):
        trace_from_lines([top1, record % "[[0, [[1, true]]]]"])
    with pytest.raises(ValueError, match="line 2.*probability"):
        trace_from_lines([top1, record % "[[0, [[1, Infinity]]]]"])
    with pytest.raises(ValueError, match="line 1.*decoder"):
        trace_from_lines([header.replace('"stepwise"', "5")])
    with pytest.raises(ValueError, match="line 1.*decoder"):
        trace_from_lines([header.replace('"stepwise"', '"greedy"')])
    # the header must describe a start state, and the records must replay on it
    for field, bad in (("prompt_len", -3), ("gen_len", -1), ("block_len", 0), ("topk", -1)):
        with pytest.raises(ValueError, match=f"line 1.*{field}"):
            trace_from_lines([json.dumps({**json.loads(header), field: bad}), record % "null"])
    two = header.replace('"gen_len": 1', '"gen_len": 2')
    one_of_two = (record % "null").replace('"position": 0', '"position": 1')
    assert trace_from_lines([two, record % "null", one_of_two]).positions.tolist() == [0, 1]
    for lines, line in (
        ([header, (record % "null").replace('"position": 0', '"position": 99')], 2),
        ([header, (record % "null").replace('"position": 0', '"position": -1')], 2),
        ([two, record % "null", record % "null"], 3),  # position 0 twice
        ([two, one_of_two], 2),  # block 1 while block 0 is still masked
        ([header, (record % "null").replace('"token": 1', '"token": 2')], 2),  # the mask id
        ([header.replace('"prompt_len": 0', '"prompt_len": 1'), record % "null"], 2),  # prompt
    ):
        with pytest.raises(ValueError, match=f"line {line}"):
            trace_from_lines(lines)
    with pytest.raises(ValueError, match="decodes 1 of 2 positions"):
        trace_from_lines([two, record % "null"])
    # the replay is bounded by the records, not by the header's lengths
    with pytest.raises(ValueError, match=f"decodes 1 of {10**20} positions"):
        trace_from_lines([header.replace('"gen_len": 1', f'"gen_len": {10**20}'), record % "null"])
    with pytest.raises(ValueError, match="line 2"):
        trace_from_lines([header.replace('"prompt_len": 0', f'"prompt_len": {10**20}'),
                          record % "null"])
    # a parsed trace writes back to its own lines: under a header topk of 0
    # every snapshot is null; above 0 each lists exactly its step's masks,
    # ascending, with topk candidates each
    two1 = two.replace('"topk": 0', '"topk": 1')
    first = record % "[[0, [[1, 0.5]]], [1, [[0, 0.25]]]]"
    second = (record % "[[1, [[0, 0.25]]]]").replace('"position": 0', '"position": 1')
    for good in ([two1, first, second], [two, record % "null", one_of_two]):
        assert trace_to_lines(trace_from_lines(good)) == [dumps(json.loads(g)) for g in good]
    for lines, line in (
        ([top1, record % "[[0, [[1, 0.5]]], [0, [[1, 0.5]]]]"], 2),  # position 0 twice
        ([top1, record % "[[0, [[1, 0.5]]], [99, [[1, 0.5]]]]"], 2),  # 99 is not a mask
        ([top1, record % "[[0, [[1, 0.5], [0, 0.25]]]]"], 2),  # two candidates under topk 1
        ([top1, record % "[[0, [[1, 0.5], [0, 0.25]]], [0, [[1, 0.5]]], [99, [[1, 0.5]]]]"], 2),
        ([top1, record % "[[0, []]]"], 2),  # no candidate
        ([top1, record % "null"], 2),  # no snapshot under topk 1
        ([header, record % "[[0, [[1, 0.5]]]]"], 2),  # a snapshot under topk 0
        ([two1, first.replace("[0, [[1, 0.5]]], ", ""), second], 2),  # mask 0 missing
        ([two1, record % "[[1, [[0, 0.25]]], [0, [[1, 0.5]]]]", second], 2),  # descending
        ([two1, first, second.replace("[[1, ", "[[0, ")], 3),  # lists decoded 0, not mask 1
        ([two1, first, second.replace("[[1, [[0, 0.25]]]]", "null")], 3),
        ([top1, record % f"[[0, [[{2**63}, 0.5]]]]"], 2),  # a token past int64
        ([top1, record % f"[[0, [[1, {10**400}]]]]"], 2),  # a probability past the floats
        ([header, (record % "null").replace('"token": 1', f'"token": {2**63}')], 2),
    ):
        with pytest.raises(ValueError, match=f"line {line}"):
            trace_from_lines(lines)
