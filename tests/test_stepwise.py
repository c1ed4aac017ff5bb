"""Stepwise baseline decoder: the oracle that defines losslessness."""

import json

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

from selfspec.stepwise import candidate_snapshot

from conftest import all_masked_state, check_block_order, full_logits


def synth(seed=0, vocab=16, cw=2, sharpness=6.0):
    return SyntheticModel(
        SynthModelConfig(
            seed=seed, vocab_size=vocab, sharpness=sharpness, context_window=cw
        )
    )


def test_forward_count_equals_gen_len():
    state = all_masked_state(prompt_len=3, gen_len=10, block_len=4)
    final, trace = stepwise_decode(synth(), state, topk=3)
    assert len(trace.records) == 10
    assert final.mask_id not in final.tokens


def test_single_token_single_step():
    state = all_masked_state(gen_len=1, block_len=1)
    final, trace = stepwise_decode(synth(), state, topk=0)
    assert len(trace.records) == 1
    assert final.tokens[0] == trace.records[0].token


def test_no_masks_is_invalid():
    state = all_masked_state(gen_len=2)
    final, _ = stepwise_decode(synth(), state, topk=0)
    with pytest.raises(ValueError):
        stepwise_decode(synth(), final, topk=0)


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
    assert trace.positions() == (0, 1, 2)
    assert final.tokens == (0, 1, 2)
    confs = [r.confidence for r in trace.records]
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
        picked = [p for p in trace.positions() if p in block]
        want = sorted(block, key=lambda p: (-conf[p], p))
        assert picked == want


def test_block_order_invariant():
    for seed in range(4):
        state = all_masked_state(prompt_len=2, gen_len=12, block_len=5)
        _, trace = stepwise_decode(synth(seed=seed), state, topk=0)
        assert check_block_order(trace.positions(), 2, 12, 5) == 12


def test_positions_lie_in_then_current_block():
    state = all_masked_state(gen_len=9, block_len=3)
    _, trace = stepwise_decode(synth(seed=8), state, topk=0)
    for i, rec in enumerate(trace.records):
        assert rec.position // 3 == i // 3  # three steps per block, in order


def test_rerun_is_bit_identical():
    state = all_masked_state(prompt_len=1, gen_len=10, block_len=4)
    a_final, a_trace = stepwise_decode(synth(seed=13), state, topk=4)
    b_final, b_trace = stepwise_decode(synth(seed=13), state, topk=4)
    assert a_final == b_final
    assert a_trace == b_trace
    assert trace_to_lines(a_trace) == trace_to_lines(b_trace)


def test_snapshot_domain_is_masked_positions():
    state = all_masked_state(gen_len=6, block_len=6)
    _, trace = stepwise_decode(synth(seed=2), state, topk=3)
    masked = set(range(6))
    for rec in trace.records:
        assert set(rec.topk) == masked
        masked.discard(rec.position)
        for cands in rec.topk.values():
            assert len(cands) == 3
            probs = [p for _, p in cands]
            assert probs == sorted(probs, reverse=True)
    # the keys are the given positions in order, each with its own row's top-k
    state = place_token(all_masked_state(prompt_len=2, gen_len=6), 4, 3)
    probs = softmax_matrix(full_logits(synth(), state))
    masked = np.array([2, 3, 5, 6, 7])
    snapshot = candidate_snapshot(masked, probs[masked], 2)
    assert list(snapshot) == [2, 3, 5, 6, 7]
    assert snapshot[5] == candidate_snapshot([5], probs[5:6], 2)[5]


def test_snapshot_needs_one_row_per_position():
    probs = softmax_matrix(full_logits(synth(), all_masked_state(gen_len=6)))
    candidate_snapshot(range(6), probs, 2)
    for positions in (range(5), range(7), []):
        with pytest.raises(ValueError, match="probability rows"):
            candidate_snapshot(positions, probs, 2)


def test_snapshot_k_clamped_to_vocab():
    state = all_masked_state(gen_len=3, vocab=4, block_len=3)
    _, trace = stepwise_decode(synth(vocab=4), state, topk=99)
    assert trace.topk == 4
    assert all(len(c) == 4 for r in trace.records for c in r.topk.values())
    # ties break to the lowest token id, and k beyond the vocabulary truncates
    probs = softmax_matrix(np.array([[1.0, 1.0, 0.0, 2.0]]))
    assert [t for t, _ in candidate_snapshot([0], probs, 3)[0]] == [3, 0, 1]
    assert [t for t, _ in candidate_snapshot([0], probs, 10)[0]] == [3, 0, 1, 2]
    # a tie at the cut keeps the lowest ids, also among probabilities saturated to 0.0
    flat = softmax_matrix(np.zeros((1, 64)))
    assert [t for t, _ in candidate_snapshot([0], flat, 3)[0]] == [0, 1, 2]
    saturated = softmax_matrix(np.array([[0.0] * 63 + [1000.0]]))
    assert [t for t, _ in candidate_snapshot([0], saturated, 3)[0]] == [63, 0, 1]


def test_chosen_token_heads_its_own_snapshot():
    state = all_masked_state(gen_len=8, block_len=8)
    _, trace = stepwise_decode(synth(seed=6), state, topk=2)
    for rec in trace.records:
        top_tok, top_prob = rec.topk[rec.position][0]
        assert top_tok == rec.token
        assert top_prob == pytest.approx(rec.confidence, abs=0.0)


# --- trace serialization ---------------------------------------------------


@given(seed=st.integers(0, 50), topk=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_trace_line_round_trip(seed, topk):
    state = all_masked_state(gen_len=6, block_len=3)
    _, trace = stepwise_decode(synth(seed=seed), state, topk=topk)
    back = trace_from_lines(trace_to_lines(trace))
    assert back == trace


def test_trace_file_round_trip(tmp_path):
    state = all_masked_state(prompt_len=2, gen_len=8, block_len=4)
    _, trace = stepwise_decode(synth(seed=1), state, topk=5)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    assert read_trace(str(path)) == trace


def test_trace_from_garbage_rejected():
    with pytest.raises(ValueError):
        trace_from_lines(["{}"])
    with pytest.raises(ValueError, match="decoder"):
        trace_from_lines(['{"kind": "trace"}'])
    header = (
        '{"kind": "trace", "decoder": "stepwise", "prompt_len": 0, "gen_len": 1,'
        ' "block_len": 1, "mask_id": 2, "topk": 1}'
    )
    record = '{"position": 0, "token": 1, "confidence": 0.5, "topk": %s}'
    assert len(trace_from_lines([header, record % "[[0, [[1, 0.5]]]]"]).records) == 1
    with pytest.raises(ValueError, match="line 1"):
        trace_from_lines(["[1]"])
    with pytest.raises(ValueError, match="line 3"):
        trace_from_lines([header, "", "[1]"])
    with pytest.raises(ValueError, match="line 2"):
        trace_from_lines([header, record % "5"])
    with pytest.raises(ValueError, match="line 2"):
        trace_from_lines([header, record % "[[0, 5]]"])
    with pytest.raises(ValueError, match="line 1.*gen_len"):
        trace_from_lines([header.replace('"gen_len": 1', '"gen_len": 2.9'), record % "null"])
    with pytest.raises(ValueError, match="line 1.*topk"):
        trace_from_lines([header.replace('"topk": 1', '"topk": true')])
    with pytest.raises(ValueError, match="line 2.*position"):
        trace_from_lines([header, (record % "null").replace('"position": 0', '"position": 0.7')])
    with pytest.raises(ValueError, match="line 2.*confidence"):
        trace_from_lines([header, (record % "null").replace("0.5", '"0.5"')])
    with pytest.raises(ValueError, match="line 2.*confidence"):
        trace_from_lines([header, (record % "null").replace("0.5", "NaN")])
    with pytest.raises(ValueError, match="line 2.*probability"):
        trace_from_lines([header, record % "[[0, [[1, true]]]]"])
    with pytest.raises(ValueError, match="line 2.*probability"):
        trace_from_lines([header, record % "[[0, [[1, Infinity]]]]"])
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
    assert trace_from_lines([two, record % "null", one_of_two]).positions() == (0, 1)
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
