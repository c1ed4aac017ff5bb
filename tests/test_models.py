"""Model backends: prediction rule, synthetic hashing, table fixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    FixtureMissError,
    RecordingModel,
    SynthModelConfig,
    SyntheticModel,
    TableModel,
    drafts_from_logits,
    dump_table_fixture,
    load_table_fixture,
    place_token,
    softmax_matrix,
    stepwise_decode,
)
from selfspec.stepwise import candidate_snapshot

from conftest import all_masked_state


# --- top-1 prediction rule --------------------------------------------------


def predict(row):
    """(token, confidence) that drafting assigns to a single logit row."""
    state = all_masked_state(gen_len=1, vocab=len(row), block_len=1)
    drafts = drafts_from_logits(state, np.array([row], dtype=np.float64))
    return int(drafts.tokens[0, 0]), float(drafts.confidences[0])


def test_predict_two_zero_zero():
    """Frozen closed form: softmax([2,0,0])[0] = e^2 / (e^2 + 2)."""
    tok, conf = predict([2.0, 0.0, 0.0])
    assert tok == 0
    assert conf == pytest.approx(math.exp(2) / (math.exp(2) + 2), abs=1e-12)
    assert conf == pytest.approx(0.7869, abs=1e-4)


def test_predict_all_equal_ties_to_lowest_id():
    tok, conf = predict(np.zeros(8))
    assert tok == 0
    assert conf == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_predict_saturated_one_hot():
    row = np.zeros(16)
    row[3] = 1000.0
    tok, conf = predict(row)
    assert tok == 3
    assert abs(conf - 1.0) < 1e-12


# --- softmax ---------------------------------------------------------------


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=40))
@settings(max_examples=150)
def test_softmax_matrix_rows_sum_to_one(logits):
    mat = np.array([logits, logits[::-1]], dtype=np.float64)
    probs = softmax_matrix(mat)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert (probs > 0).all() and (probs <= 1).all()


def topk(row, k):
    """Top-k (token, probability) pairs of a single logit row."""
    state = all_masked_state(gen_len=1, vocab=len(row), block_len=1)
    probs = softmax_matrix(np.array([row], dtype=np.float64))
    return candidate_snapshot(state, probs, k)[0]


def test_topk_ordering_and_tie_break():
    cands = topk([1.0, 1.0, 0.0, 2.0], 3)
    assert [t for t, _ in cands] == [3, 0, 1]
    probs = [p for _, p in cands]
    assert probs == sorted(probs, reverse=True)


def test_topk_truncates_at_vocab():
    assert len(topk([0.5, 0.1], 10)) == 2


# --- synthetic model -------------------------------------------------------


def synth(seed=0, vocab=16, sharpness=6.0, cw=2) -> SyntheticModel:
    return SyntheticModel(
        SynthModelConfig(
            seed=seed, vocab_size=vocab, sharpness=sharpness, context_window=cw
        )
    )


def test_forward_row_shape_is_vocab_size():
    model = synth(vocab=11)
    state = all_masked_state(gen_len=5, vocab=11)
    rows = model.forward([state])[0]
    assert rows.shape == (len(state.tokens), 11)
    assert np.isfinite(rows).all()


def test_forward_rejects_empty_batch():
    with pytest.raises(ValueError):
        synth().forward([])


def test_forward_deterministic_100_repeats():
    model = synth(seed=9)
    state = all_masked_state(prompt_len=3, gen_len=6)
    first = model.forward([state])[0]
    for _ in range(100):
        again = model.forward([state])[0]
        assert np.array_equal(first, again)


def test_forward_batch_matches_singles_and_permutation():
    model = synth(seed=4)
    base = all_masked_state(prompt_len=2, gen_len=6)
    states = [base, place_token(base, 3, 5), place_token(base, 2, 1)]
    batch = model.forward(states)
    singles = [model.forward([s])[0] for s in states]
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)
    permuted = model.forward(states[::-1])
    for got, want in zip(permuted, singles[::-1]):
        assert np.array_equal(got, want)


def test_same_state_twice_in_one_batch():
    model = synth(seed=2)
    state = all_masked_state(gen_len=4)
    out = model.forward([state, state])
    assert np.array_equal(out[0], out[1])


def test_context_free_model_ignores_placements():
    """context_window=0: logits at one position never react to another."""
    model = synth(seed=7, cw=0)
    state = all_masked_state(gen_len=8)
    before = model.forward([state])[0]
    after = model.forward([place_token(state, 2, 9)])[0]
    untouched = [i for i in range(8) if i != 2]
    assert np.array_equal(before[untouched], after[untouched])


def test_in_window_placement_changes_logits():
    model = synth(seed=7, cw=2)
    state = all_masked_state(gen_len=8)
    before = model.forward([state])[0]
    after = model.forward([place_token(state, 2, 9)])[0]
    assert not np.array_equal(before[3], after[3])  # distance 1, in window
    assert np.array_equal(before[6], after[6])  # distance 4, out of window


def test_different_seeds_differ_on_32_position_probe():
    """Frozen probe: seeds 0 and 1 disagree on argmax somewhere in 32
    all-masked positions."""
    state = all_masked_state(gen_len=32)
    a = np.argmax(synth(seed=0).forward([state])[0], axis=1)
    b = np.argmax(synth(seed=1).forward([state])[0], axis=1)
    assert (a != b).any()


def test_sharpness_saturates_confidence():
    model = synth(seed=0, vocab=16, sharpness=10000.0)
    state = all_masked_state(gen_len=8)
    probs = softmax_matrix(model.forward([state])[0])
    assert (probs.max(axis=1) > 0.999).all()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthModelConfig(seed=0, vocab_size=1)
    with pytest.raises(ValueError):
        SynthModelConfig(seed=0, vocab_size=8, sharpness=0.0)
    for sharpness in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SynthModelConfig(seed=0, vocab_size=8, sharpness=sharpness)
    with pytest.raises(ValueError):
        SynthModelConfig(seed=0, vocab_size=8, context_window=-1)


# --- table model -----------------------------------------------------------


def tiny_table():
    state = all_masked_state(gen_len=2, vocab=4)
    rows = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
    return state, TableModel({state.tokens: rows})


def test_table_returns_rows_verbatim():
    state, model = tiny_table()
    got = model.forward([state])[0]
    assert np.array_equal(got, [[0, 1, 2, 3], [3, 2, 1, 0]])
    assert model.vocab_size == 4


def test_served_rows_are_read_only():
    state, table = tiny_table()
    recording = RecordingModel(synth(seed=3, vocab=4))
    for model in (table, recording):
        row = model.forward([state])[0]
        with pytest.raises(ValueError):
            row[0, 0] = 1.0


def test_table_misses_on_unknown_state():
    state, model = tiny_table()
    with pytest.raises(FixtureMissError):
        model.forward([place_token(state, 0, 1)])


def test_table_fixture_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    table = {
        (4, 4, 4): rng.standard_normal((3, 5)),
        (0, 4, 4): rng.standard_normal((3, 5)) * 1e-8,
        (0, 1, 4): rng.standard_normal((3, 5)) * 1e12,
    }
    path = tmp_path / "table.jsonl"
    dump_table_fixture(table, str(path))
    loaded = load_table_fixture(str(path))
    assert len(loaded) == len(table)
    for key, rows in table.items():
        assert np.array_equal(loaded.rows_for(key), rows)
    path.write_text('{"logits": [[0.0, 1.0]]}\n')
    with pytest.raises(ValueError, match="tokens"):
        load_table_fixture(str(path))


def test_table_rejects_ragged_or_non_finite():
    with pytest.raises(ValueError):
        TableModel({(4,): np.array([[1.0, np.inf]])})
    with pytest.raises(ValueError):
        TableModel(
            {
                (4, 4): np.zeros((2, 3)),
                (1, 4): np.zeros((2, 4)),
            }
        )


# --- recording wrapper -----------------------------------------------------


def test_recording_model_replays_decode(tmp_path):
    inner = synth(seed=3, vocab=10)
    rec = RecordingModel(inner)
    state = all_masked_state(gen_len=6, vocab=10, block_len=3)
    final, trace = stepwise_decode(rec, state, topk=2)
    path = tmp_path / "replay.jsonl"
    rec.dump(str(path))
    replay_model = load_table_fixture(str(path))
    replay_final, replay_trace = stepwise_decode(replay_model, state, topk=2)
    assert replay_final.tokens == final.tokens
    assert replay_trace == trace


def test_recording_model_serves_memoized_rows():
    inner = synth(seed=3, vocab=10)
    rec = RecordingModel(inner)
    state = all_masked_state(gen_len=4, vocab=10)
    first = rec.forward([state])[0]
    second = rec.forward([state, state])
    assert np.array_equal(first, second[0])
    assert np.array_equal(first, second[1])
    assert state.tokens in rec.recorded
