"""Model backends: prediction rule, synthetic hashing, table fixtures."""

import hashlib
import itertools
import math
import resource
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import models
from selfspec.models import (
    FixtureMissError,
    SynthModelConfig,
    SyntheticModel,
    TableModel,
    dump_table_fixture,
    load_table_fixture,
    softmax_matrix,
)
from selfspec.sequence import SequenceState, initial_state, place_token
from selfspec.ssd import (
    batch_verify,
    build_tree,
    draft_masks,
    drafts_from_logits,
    select_candidates,
    ssd_decode,
)
from selfspec.stepwise import candidate_snapshot, stepwise_decode, trace_to_lines

from conftest import (CountingModel, RowsOnlyModel, address_space_capped, all_masked_state,
                      full_logits, recorded_table)


# --- top-1 prediction rule --------------------------------------------------


def predict(row):
    """(token, confidence) that drafting assigns to a single logit row."""
    drafts = drafts_from_logits(softmax_matrix(np.array([row], dtype=np.float64)),
                                positions=np.arange(1), rows=np.arange(1))
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


def three_temporary_softmax(mat):
    """The softmax formula with a fresh array for each of its three steps."""
    shifted = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def test_softmax_matrix_is_bit_equal_to_three_temporaries():
    """The in-place softmax runs the same IEEE operations in the same order,
    on random, tied and saturated rows, at narrow and wide vocabularies, and
    leaves its result in the array it is given."""
    rng = np.random.default_rng(11)
    for vocab in (2, 7, 64, 4096):
        mats = [
            rng.standard_normal((9, vocab)) * 6.0,
            np.zeros((3, vocab)),  # every entry tied
            np.tile(rng.integers(0, 3, vocab).astype(np.float64), (4, 1)),  # ties at the top
            np.where(rng.random((5, vocab)) < 0.1, 1000.0, 0.0),  # saturated to 0 and 1
            rng.standard_normal((4, vocab)) * 1e300,  # exp underflows to exactly 0
        ]
        for mat in mats:
            probs = mat.copy()
            assert softmax_matrix(probs) is probs
            assert probs.tobytes() == three_temporary_softmax(mat).tobytes()


def topk(row, k):
    """Top-k (token, probability) pairs of a single logit row."""
    tokens, probs = candidate_snapshot(softmax_matrix(np.array([row], dtype=np.float64)), k)
    return tuple(zip(tokens[0].tolist(), probs[0].tolist()))


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
    rows = full_logits(model, state)
    assert rows.shape == (len(state.tokens), 11)
    assert np.isfinite(rows).all()


def test_forward_rejects_empty_batch():
    with pytest.raises(ValueError):
        synth().forward([])


def test_forward_deterministic_100_repeats():
    model = synth(seed=9)
    state = all_masked_state(prompt_len=3, gen_len=6)
    first = full_logits(model, state)
    for _ in range(100):
        again = full_logits(model, state)
        assert np.array_equal(first, again)


def test_forward_batch_matches_singles_and_permutation():
    model = synth(seed=4)
    base = all_masked_state(prompt_len=2, gen_len=6)
    states = [base, place_token(base, 3, 5), place_token(base, 2, 1)]
    full = range(len(base.tokens))
    singles = [full_logits(model, s) for s in states]
    for batch, want in ((states, singles), (states[::-1], singles[::-1])):
        read = model.forward(batch)
        for row, single in enumerate(want):
            assert np.array_equal(read(row, full), single)


def spy_mix64(monkeypatch, width):
    """Patch models._mix64 to record the shape of each call on a (rows,
    width) array; returns the list it appends to."""
    shapes = []
    mix64 = models._mix64

    def counting_mix64(x, t):
        if x.shape[1:] == (width,):
            shapes.append(x.shape)
        return mix64(x, t)

    monkeypatch.setattr(models, "_mix64", counting_mix64)
    return shapes


def test_a_read_allocates_no_rows_beyond_a_fresh_result():
    """After its thread's first read, a synthetic read of 8 rows at V = 4096
    allocates less than one row (32 KiB) into a caller's out, and beside
    that only the matrix it returns when it has no out: the hash cells come
    from the thread's scratch, and the shifts go through the output rows.
    Its in-place softmax adds at most the buffer numpy's iterator takes for
    a broadcast (np.getbufsize() float64 values)."""
    vocab, slack = 4096, 16 * 1024
    read = synth(vocab=vocab).forward([all_masked_state(prompt_len=2, gen_len=16, vocab=vocab)])
    out = read(0, range(2, 10))  # allocates the thread's scratch
    peaks = []
    tracemalloc.start()
    try:
        for target in (out, None):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows = read(0, range(2, 10), target)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            softmax_matrix(rows)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert rows.shape == (8, vocab) and not np.shares_memory(rows, out)
    buffered = np.getbufsize() * rows.itemsize
    assert peaks[0] <= slack and peaks[2] <= rows.nbytes + slack, peaks
    assert max(peaks[1], peaks[3]) <= buffered + slack, peaks


def full_read(model, state, positions):
    """The rows at positions of state, from a forward of state alone."""
    return model.forward([state])(0, positions)


def check_read_law(model, pairs, monkeypatch):
    """forward hashes no cells; reading row i at positions i hashes
    exactly len(positions) rows, in chunks of at most max(2**16, V)
    cells; and reads in any order, repeated or not, are bit-equal to the
    singleton calls: with no out, fresh writable arrays that share no
    memory; with one, the view of its first rows, whatever they held."""
    singles = [full_read(model, state, positions) for state, positions in pairs]
    cell_calls = spy_mix64(monkeypatch, model.vocab_size)  # the cell hash; 2 * cw != V here
    read = model.forward([state for state, _ in pairs])
    assert cell_calls == []
    out = np.full((max(len(positions) for _, positions in pairs), model.vocab_size), np.nan)
    reads = []
    for i in [*reversed(range(len(pairs))), *range(len(pairs))]:  # every row twice
        for target in (None, out):
            got = read(i, pairs[i][1], target)
            assert sum(rows for rows, _ in cell_calls) == len(pairs[i][1])
            assert all(rows * cols <= max(2**16, model.vocab_size) for rows, cols in cell_calls)
            cell_calls.clear()
            assert got.shape == singles[i].shape and got.tobytes() == singles[i].tobytes()
            assert got.base is out if target is out else got.flags.writeable
            if target is None:
                reads.append(got)
    monkeypatch.undo()
    for i, a in enumerate(reads):
        assert not any(np.shares_memory(a, b) for b in reads[i + 1 :] + [out])


def test_same_state_twice_in_one_batch(monkeypatch):
    model = synth(seed=2)
    state = all_masked_state(gen_len=4)
    check_read_law(model, [(state, range(4)), (state, range(4)), (state, [])], monkeypatch)


@pytest.mark.parametrize("shape", ["greedy", "mix_order"])
@pytest.mark.parametrize("cw", range(5))
def test_verification_batch_hashes_a_pair_when_read(shape, cw, monkeypatch):
    """The states batch_verify sends for a real tree, each read for every
    mask as a stepwise snapshot step reads it: the nodes share most rows,
    and V is wide enough that one unchunked read would pass 2**16 cells."""
    vocab, n = 4096, 4
    model = synth(seed=cw, vocab=vocab, cw=cw)
    state = all_masked_state(prompt_len=3, gen_len=24, vocab=vocab, block_len=8)
    state = place_token(place_token(state, 4, 7), 6, 9)
    drafts = drafts_from_logits(softmax_matrix(full_logits(model, state)),
                                positions=draft_masks(state, n), rows=np.arange(len(state.tokens)))
    tree = build_tree(state, select_candidates(state, drafts, n), drafts, shape)
    spy = CountingModel(model)
    batch_verify(spy, tree)
    (states,) = spy.batches
    assert states is tree
    pairs = [(s, [p for p in range(len(s.tokens)) if s.is_masked(p)]) for s in states]
    assert max(len(rows) for _, rows in pairs) * vocab > 2**16
    check_read_law(model, pairs, monkeypatch)


def test_context_free_model_ignores_placements():
    """context_window=0: logits at one position never react to another."""
    model = synth(seed=7, cw=0)
    state = all_masked_state(gen_len=8)
    before = full_logits(model, state)
    after = full_logits(model, place_token(state, 2, 9))
    untouched = [i for i in range(8) if i != 2]
    assert np.array_equal(before[untouched], after[untouched])


def test_in_window_placement_changes_logits():
    model = synth(seed=7, cw=2)
    state = all_masked_state(gen_len=8)
    before = full_logits(model, state)
    after = full_logits(model, place_token(state, 2, 9))
    assert not np.array_equal(before[3], after[3])  # distance 1, in window
    assert np.array_equal(before[6], after[6])  # distance 4, out of window


def test_different_seeds_differ_on_32_position_probe():
    """Frozen probe: seeds 0 and 1 disagree on argmax somewhere in 32
    all-masked positions."""
    state = all_masked_state(gen_len=32)
    a = np.argmax(full_logits(synth(seed=0), state), axis=1)
    b = np.argmax(full_logits(synth(seed=1), state), axis=1)
    assert (a != b).any()


def test_sharpness_saturates_confidence():
    model = synth(seed=0, vocab=16, sharpness=10000.0)
    state = all_masked_state(gen_len=8)
    probs = softmax_matrix(full_logits(model, state))
    assert (probs.max(axis=1) > 0.999).all()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthModelConfig(seed=0, vocab_size=1)
    with pytest.raises(ValueError):
        SynthModelConfig(seed=0, vocab_size=8, sharpness=0.0)
    for sharpness in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SynthModelConfig(seed=0, vocab_size=8, sharpness=sharpness)
    for cw in (-1, 2**10 + 1):
        with pytest.raises(ValueError):
            SynthModelConfig(seed=0, vocab_size=8, context_window=cw)


_M64 = 2**64 - 1


def _mix_reference(x):
    """splitmix64 finalizer on one Python integer."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _M64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def reference_logits(config, state, rows):
    """The hash the SyntheticModel docstring documents, one cell at a time in
    Python integers and floats."""
    golden, pair = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
    cw, tokens = config.context_window, state.tokens
    out = []
    for i in rows:
        acc = 0
        for d in range(-cw, cw + 1):
            if d and 0 <= i + d < len(tokens) and tokens[i + d] != state.mask_id:
                acc += _mix_reference(((tokens[i + d] + 1) * golden + d * pair) & _M64)
        seed = _mix_reference(((i + 1) * golden + config.seed * golden + 0x9E) & _M64)
        row = _mix_reference(seed ^ (acc & _M64))
        out.append([config.sharpness
                    * (float(_mix_reference((row + (c + 1) * pair) & _M64) >> 11) * 2.0**-53)
                    for c in range(config.vocab_size)])
    return np.array(out)


# tokens a state may hold beside its mask and the vocabulary: a strip holding
# one as a non-mask token is hashed, never gathered from the pair table
WILD_TOKENS = (-1, -7, 2**20 + 1, 2**62, 2**63 - 1, -(2**63), -(2**63) + 1)


@st.composite
def vocab_and_window(draw):
    """A (V, cw) pair: a narrow vocabulary, one whose rows each take their own
    hash chunk, or one just inside or just past the pair table's cap of
    V * 2 * cw cells."""
    cw = draw(st.integers(0, 4))
    cap = [models._CHUNK_CELLS // (2 * cw) + k for k in (0, 1)] if cw else []
    return draw(st.sampled_from([*range(2, 10), models._CHUNK_CELLS // 2 + 3, *cap])), cw


@given(
    seed=st.integers(0, 2**40),
    window=vocab_and_window(),
    sharpness=st.sampled_from([6.0, 0.5, 12.0, 1e300, 1e-300, 5e-324]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_synthetic_forward_is_the_documented_hash_cell_for_cell(seed, window, sharpness, data):
    """A batch of states with different mask ids, in or past the vocabulary,
    and position sets, empty, gapped or nearer an edge than the context
    window, gives, bit for bit, the scalar reference; the tokens include
    negative ones, ones past the vocabulary and ones at the int64 limits;
    tiny sharpness pins the order of the two scale multiplies, and the wide
    vocabularies, on both sides of the pair table's cap, hash a read of a
    few rows in several _CHUNK_CELLS chunks."""
    vocab, cw = window
    config = SynthModelConfig(seed=seed, vocab_size=vocab, sharpness=sharpness,
                              context_window=cw)
    batch = []
    wide = vocab > 9  # one state, two or three rows, a chunk each
    for _ in range(data.draw(st.integers(1, 1 if wide else 4))):
        mask_id = data.draw(st.one_of(st.integers(0, vocab - 1), st.integers(vocab, vocab + 3)))
        tokens = st.sampled_from([mask_id, *range(min(vocab, 9))])
        if data.draw(st.booleans()):
            tokens |= st.sampled_from(WILD_TOKENS)
        prompt = data.draw(st.lists(tokens.filter(lambda t: t != mask_id), max_size=2))
        gen = data.draw(st.lists(tokens, min_size=1, max_size=8))
        state = SequenceState(tokens=tuple(prompt + gen), prompt_len=len(prompt),
                              gen_len=len(gen), mask_id=mask_id, block_len=3)
        rows = (min(2, len(state.tokens)), 3) if wide else (0, None)
        positions = data.draw(st.sets(st.integers(0, len(state.tokens) - 1), min_size=rows[0],
                                      max_size=rows[1]))
        batch.append((state, sorted(positions)))
    read = SyntheticModel(config).forward([state for state, _ in batch])
    for row, (state, positions) in enumerate(batch):
        want = reference_logits(config, state, positions)
        assert read(row, positions).tobytes() == want.tobytes()


GOLDEN_LOGITS_SHA256 = "5a3c689ea93f7d0122338add152d82e5d99528b84a60092da5028cca3c96b05e"


def test_synthetic_reads_match_the_golden_digest():
    """One sha256 over the reads of a fixed grid pins the kernel to the bit:
    V 2, 64, 4096 and 2**14 + 3 (a read spans several hash chunks), cw 0, 2,
    40 and 2**10, sharpness 6, 1e-300 and 5e-324, two seeds, and an empty, a
    gapped and an edge position set on a partly decoded state."""
    digest = hashlib.sha256()
    for vocab in (2, 64, 4096, 2**14 + 3):
        state = initial_state(prompt=(1, 0, 1), gen_len=45, mask_id=vocab, block_len=8)
        for pos in (3, 4, 10, 21, 22, 23, 40, 47):
            state = place_token(state, pos, pos * 7 % vocab)
        length = len(state.tokens)
        sets = ([], [0, 2, 5, 6, 9, 20, 30, 31, 44, 46], [0, 1, length - 2, length - 1])
        for cw, sharpness, seed in itertools.product((0, 2, 40, 2**10), (6.0, 1e-300, 5e-324),
                                                     (3, 2**63 + 5)):
            read = synth(seed=seed, vocab=vocab, sharpness=sharpness, cw=cw).forward([state])
            for positions in sets:
                rows = read(0, positions)
                assert rows.shape == (len(positions), vocab)
                digest.update(rows.tobytes())
    assert digest.hexdigest() == GOLDEN_LOGITS_SHA256


def test_concurrent_reads_into_own_buffers_are_the_single_threaded_reads():
    """Four threads read one SyntheticModel over and over, each into its own
    out and through its own reader or a shared one, at a width where numpy
    releases the GIL inside the hash and with a short switch interval: every
    read is the single-threaded read bit for bit, so no hash scratch is
    shared between threads."""
    vocab, threads = 4096, 4
    model = synth(seed=6, vocab=vocab, cw=3)
    state = all_masked_state(prompt_len=2, gen_len=30, vocab=vocab, block_len=8)
    for pos in (3, 9, 10, 20):
        state = place_token(state, pos, pos)
    length = len(state.tokens)
    sets = [list(range(length)), list(range(2, 12)), [0, 5, 17, 31], [4], list(range(1, length, 3))]
    want = [full_read(model, state, positions).tobytes() for positions in sets]
    shared = model.forward([state])
    barrier = threading.Barrier(threads)

    def work(k):
        read, out = (shared, model.forward([state]))[k % 2], np.empty((length, vocab))
        barrier.wait(timeout=60)
        return [read(0, sets[i % len(sets)], out).tobytes() == want[i % len(sets)]
                for i in range(k, k + 30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(work, k) for k in range(threads)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 30] * threads


def test_concurrent_reads_of_growing_states_are_the_single_threaded_reads():
    """Four threads read states of eight ascending lengths through one fresh
    model, two at a time in step and two a length ahead, so reads of longer
    states replace the row-seed table while other threads read from the one
    they took: every read is the single-threaded read of a second model, bit
    for bit, on the pair-table path and on the hash path."""
    threads, lengths = 4, (5, 60, 500, 3000, 12000, 30000, 70000, 2**17)
    for vocab, cw, models_read in ((64, 2, 20), (2**14, 3, 2)):
        config = SynthModelConfig(seed=vocab, vocab_size=vocab, context_window=cw)
        states = [SequenceState(tokens=tuple(vocab if p % 3 else p * 5 % vocab for p in range(n)),
                                prompt_len=0, gen_len=n, mask_id=vocab, block_len=4)
                  for n in lengths]
        sets = [list(range(max(0, n - 24), n, 2)) for n in lengths]  # the table's last rows
        reference = SyntheticModel(config)
        want = [full_read(reference, state, positions).tobytes()
                for state, positions in zip(states, sets)]
        for _ in range(models_read):
            read = SyntheticModel(config).forward(states)
            barrier = threading.Barrier(threads)

            def work(k):
                barrier.wait(timeout=60)
                return [read(i % 8, sets[i % 8]).tobytes() == want[i % 8]
                        for i in range(k, k + 16)]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(threads) as pool:
                    futures = [pool.submit(work, k // 2) for k in range(threads)]
                    results = [f.result(timeout=60) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            assert results == [[True] * 16] * threads


def test_a_read_at_the_widest_config_builds_no_pair_table():
    """At vocab_size 2**20 and context_window 2**10, the bounds of the
    config, a (V, 2 * cw) pair table would take 16 GiB: building the model
    allocates only its V column keys, and a read of two rows near placed
    tokens allocates its rows, on its thread's first read also its hash
    scratch (one V-wide row, after one chunk), and beside them less than
    256 KiB.  The process may map
    only 1 GiB more meanwhile, so a table fails fast with MemoryError."""
    vocab, cw, slack = 2**20, 2**10, 2**18
    state = all_masked_state(prompt_len=2, gen_len=3000, vocab=vocab)
    for pos in (900, 1000, 1100):
        state = place_token(state, pos, pos)
    with open("/proc/self/statm") as statm:  # the address space in use, in pages
        in_use = int(statm.read().split()[0]) * resource.getpagesize()
    tracemalloc.start()
    try:
        with address_space_capped(in_use + 2**30):
            model = synth(vocab=vocab, cw=cw)
            built = tracemalloc.get_traced_memory()[1]
            read = model.forward([state])
            peaks = []
            for _ in range(2):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                rows = read(0, [999, 1001])
                peaks.append(tracemalloc.get_traced_memory()[1] - base - rows.nbytes)
                del rows
    finally:
        tracemalloc.stop()
    assert built <= 2 * vocab * 8 + slack, built
    assert peaks[0] <= (vocab + models._CHUNK_CELLS) * 8 + slack and peaks[1] <= slack, peaks


class _GatherSpy(np.ndarray):
    """A view of a pair table that records the shape of each index it is
    read at."""

    def __getitem__(self, index):
        self.shapes.append(np.shape(index))
        return np.asarray(self).__getitem__(index)


@pytest.mark.parametrize("vocab", [3, 17])
def test_wide_context_window_is_hashed_in_bounded_chunks(vocab, monkeypatch):
    """At cw = 2**10 the (rows, 2 * cw) neighbour terms of 40 rows take
    several chunks of at most _CHUNK_CELLS cells and still give the
    reference hash: gathered from the pair table at V = 3, whose 3 * 2 * cw
    terms fit one chunk, and hashed at V = 17, whose terms do not."""
    cw = 2**10
    config = SynthModelConfig(seed=3, vocab_size=vocab, context_window=cw)
    state = all_masked_state(prompt_len=3, gen_len=60, vocab=vocab)
    for pos in (7, 20, 33, 50):
        state = place_token(state, pos, pos % 3)
    positions = [p for p in range(len(state.tokens)) if state.is_masked(p)][:40]
    model = SyntheticModel(config)
    assert (model._pairs is None) == (vocab * 2 * cw > models._CHUNK_CELLS)
    gathered = []
    if model._pairs is not None:
        model._pairs = model._pairs.view(_GatherSpy)
        model._pairs.shapes = gathered
    hashed = spy_mix64(monkeypatch, 2 * cw)
    got = full_read(model, state, positions)
    monkeypatch.undo()
    step = models._CHUNK_CELLS // (2 * cw)
    assert 1 <= step < len(positions) == 40
    want = [(min(step, 40 - a), 2 * cw) for a in range(0, 40, step)]
    assert (gathered, hashed) == ((want, []) if vocab == 3 else ([], want))
    assert got.tobytes() == reference_logits(config, state, positions).tobytes()


# --- position sets ---------------------------------------------------------


BACKENDS = ["synthetic", "table", "rows_only"]


def make_backend(name, inner, states):
    """The backend name, able to score states: the synthetic model inner, a
    table that replays its full rows, or a RowsOnlyModel of its vocabulary."""
    if name == "synthetic":
        return inner
    if name == "table":
        return TableModel({s.tokens: full_logits(inner, s) for s in states})
    return RowsOnlyModel(inner.vocab_size)


def position_backends(seed, vocab, cw, state):
    """Every backend, each able to score state."""
    model = synth(seed=seed, vocab=vocab, cw=cw)
    return {name: make_backend(name, model, [state]) for name in BACKENDS}


@given(
    seed=st.integers(0, 50),
    prompt_len=st.integers(0, 4),
    gen_len=st.integers(1, 10),
    cw=st.integers(0, 4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_every_position_set_is_the_full_rows_bit_for_bit(seed, prompt_len, gen_len, cw, data):
    """On a partially decoded state, any ascending position set reads
    those rows of the full-range read on every backend: empty sets,
    non-contiguous ones and ones nearer an edge than the context window
    included, and the reads of a batch equal the singleton reads."""
    vocab = 6
    state = all_masked_state(prompt_len=prompt_len, gen_len=gen_len, vocab=vocab)
    length = len(state.tokens)
    decoded = data.draw(st.sets(st.integers(prompt_len, length - 1)))
    for pos in sorted(decoded):
        state = place_token(state, pos, data.draw(st.integers(0, vocab - 1)))
    subsets = [sorted(data.draw(st.sets(st.integers(0, length - 1)))) for _ in range(8)]
    subsets += [[], [0], [length - 1], sorted({0, length - 1}), list(range(length))]
    subsets += [[p for p in range(length) if state.is_masked(p)]]
    for name, model in position_backends(seed, vocab, cw, state).items():
        full = full_logits(model, state)
        assert full.shape == (length, vocab), name
        singles = [full_read(model, state, np.array(pos, dtype=np.intp)) for pos in subsets]
        for pos, got in zip(subsets, singles):
            assert got.shape == (len(pos), vocab), (name, pos)
            assert np.array_equal(got, full[pos]), (name, pos)
        read = model.forward([state] * len(subsets))
        assert all(np.array_equal(read(row, pos), b)
                   for row, (pos, b) in enumerate(zip(subsets, singles))), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_bad_positions_raise_and_empty_ones_answer_no_rows(backend):
    """Empty position sets are valid; non-ascending, duplicate, out-of-range,
    non-integer and non-1-d ones raise when read, and the reader still
    answers good positions afterwards; an empty batch raises at forward."""
    state = all_masked_state(prompt_len=1, gen_len=4, vocab=6)
    model = position_backends(0, 6, 2, state)[backend]
    for empty in ([], (), range(2, 2), np.empty(0, dtype=np.intp)):
        assert full_read(model, state, empty).shape == (0, 6)
    alone, beside = model.forward([state]), model.forward([state, state])
    for bad in ([3, 1], [2, 2], [0, 2, 2, 4], [-1, 2], [0, 5], [5], range(0, 6), range(3, 1, -1),
                [[0, 1]], [0.0, 1.0], [True], slice(0, 2), 3):
        for read, row in ((alone, 0), (beside, 1)):
            with pytest.raises(ValueError):
                read(row, bad)
    assert np.array_equal(beside(1, [0, 4]), full_logits(model, state)[[0, 4]])
    with pytest.raises(ValueError):
        model.forward([])


@pytest.mark.parametrize("backend", BACKENDS)
def test_forward_returns_one_reader_for_the_batch(backend):
    """A forward answers with one reader for its batch, whose rows are the
    states in input order; each read is a fresh writable matrix, so writing
    into one changes no later read, or the first rows of the out it is
    given; and reads of the same state in different rows agree."""
    base = all_masked_state(prompt_len=1, gen_len=6, vocab=8)
    other = place_token(base, 2, 4)
    model = make_backend(backend, synth(seed=5, vocab=8), (base, other))
    read = model.forward([base, other, base])
    assert callable(read)
    first, again = read(0, [1, 2, 3]), read(0, [1, 2, 3])
    assert np.array_equal(first, again) and not np.shares_memory(first, again)
    first[:] = 0.0  # writable, and the next read is untouched
    assert np.array_equal(read(0, [1, 2, 3]), full_read(model, base, [1, 2, 3]))
    assert np.array_equal(read(2, [1, 2, 3]), again)
    assert np.array_equal(read(1, [1, 3, 4]), full_logits(model, other)[[1, 3, 4]])
    out = np.full((4, 8), np.nan)
    into = read(1, [1, 3, 4], out)
    assert into.base is out and np.array_equal(out[:3], full_logits(model, other)[[1, 3, 4]])
    assert np.isnan(out[3]).all()
    assert [read(row, []).shape for row in range(3)] == [(0, 8)] * 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_reader_is_unchanged_by_later_forwards(backend):
    """Later forwards on the model, and changes to the positions array after
    a read, change neither that read nor a later read of the same reader."""
    state = all_masked_state(prompt_len=1, gen_len=6, vocab=6)
    states = [state, place_token(state, 2, 4), place_token(state, 3, 1)]
    model = make_backend(backend, synth(seed=0, vocab=6, cw=2), states)
    positions = np.array([1, 2, 4], dtype=np.intp)
    want = full_logits(model, state)[positions].tobytes()
    early = model.forward([state])
    first = early(0, positions)
    model.forward(states[1:])
    later = model.forward(states[::-1])
    for row in range(len(states)):
        later(row, range(len(state.tokens)))
    positions[:] = [0, 5, 6]
    assert first.tobytes() == want
    assert early(0, [1, 2, 4]).tobytes() == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_forward_allocates_the_same_for_any_batch_size(backend):
    """A forward of a 512-node mix_order tree (n = 256) allocates no more
    than one of a 2-node greedy tree: nothing per state of the batch."""
    state = all_masked_state(gen_len=256, vocab=8, block_len=256)
    inner = synth(vocab=8)
    model = make_backend(backend, inner, [state])
    drafts = drafts_from_logits(softmax_matrix(full_logits(inner, state)),
                                positions=draft_masks(state, 256), rows=np.arange(256))
    trees = [build_tree(state, select_candidates(state, drafts, n), drafts, shape)
             for n, shape in ((1, "greedy"), (256, "mix_order"))]
    assert [len(tree) for tree in trees] == [2, 512]
    model.forward(trees[0])  # warm up anything allocated once
    sizes = []
    tracemalloc.start()
    try:
        for tree in trees:
            base = tracemalloc.get_traced_memory()[0]
            read = model.forward(tree)
            sizes.append(tracemalloc.get_traced_memory()[0] - base)
            del read
    finally:
        tracemalloc.stop()
    assert sizes[0] == sizes[1], sizes


# --- table model -----------------------------------------------------------


def tiny_table():
    state = all_masked_state(gen_len=2, vocab=4)
    rows = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
    return state, TableModel({state.tokens: rows})


def test_table_returns_rows_verbatim():
    state, model = tiny_table()
    got = full_logits(model, state)
    assert np.array_equal(got, [[0, 1, 2, 3], [3, 2, 1, 0]])
    assert model.vocab_size == 4


def test_stored_rows_are_a_copy():
    """A table stores a copy of the rows it is given, so a later change to
    them changes no read, and a read copies them out."""
    state = all_masked_state(gen_len=2, vocab=4)
    rows = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
    table = TableModel({state.tokens: rows})
    rows[0, 0] = 9.0
    assert full_logits(table, state)[0, 0] == 0.0
    read = full_logits(table, state)
    read[0, 0] += 1.0
    assert not np.array_equal(read, full_logits(table, state))


def test_table_misses_on_unknown_state():
    state, model = tiny_table()
    with pytest.raises(FixtureMissError):
        full_logits(model, place_token(state, 0, 1))


def test_table_fixture_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    table = {
        (4, 4, 4): rng.standard_normal((3, 5)),
        (0, 4, 4): rng.standard_normal((3, 5)) * 1e-8,
        (0, 1, 4): rng.standard_normal((3, 5)) * 1e12,
    }
    path = tmp_path / "table.jsonl"
    dump_table_fixture(table, str(path))
    assert path.read_text().startswith('{"logits": ')  # sorted keys
    loaded = load_table_fixture(str(path))
    for key, rows in table.items():
        state = SequenceState(tokens=key, prompt_len=0, gen_len=3, mask_id=4, block_len=3)
        assert np.array_equal(full_logits(loaded, state), rows)
    path.write_text('{"logits": [[0.0, 1.0]]}\n')
    with pytest.raises(ValueError, match="tokens"):
        load_table_fixture(str(path))
    row = '{"tokens": [1], "logits": [[0.0, 1.0]]}\n'
    for bad in ("[1]", '{"tokens": 5, "logits": [[0.0, 1.0]]}',
                '{"tokens": [[1]], "logits": [[0.0, 1.0]]}',
                '{"tokens": ["2"], "logits": [[0.0, 1.0]]}',
                '{"tokens": [2.5], "logits": [[0.0, 1.0]]}',
                '{"tokens": [2], "logits": [[0.0, "1.0"]]}',
                '{"tokens": [2], "logits": [[0.0, true]]}',
                '{"tokens": ["0", 4.9], "logits": [[0, 0, 0, 0], ["2.5", true, 0, 0]]}',
                '{"tokens": [2], "logits": [[0.0, %s]]}' % ("9" * 400)):  # no float holds it
        path.write_text(row + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 3"):
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


# --- recorded fixtures -----------------------------------------------------


def test_recording_model_replays_decode(tmp_path):
    """A table recorded from the states a stepwise decode reads, and
    written as a fixture file, replays that decode."""
    model = CountingModel(synth(seed=3, vocab=10))
    state = all_masked_state(gen_len=6, vocab=10, block_len=3)
    final, trace = stepwise_decode(model, state, topk=2)
    path = tmp_path / "replay.jsonl"
    dump_table_fixture(recorded_table(model), str(path))
    replay_model = load_table_fixture(str(path))
    replay_final, replay_trace = stepwise_decode(replay_model, state, topk=2)
    assert replay_final.tokens == final.tokens
    assert trace_to_lines(replay_trace) == trace_to_lines(trace)


@pytest.mark.parametrize("decoder", ["stepwise", "greedy", "mix_order"])
@given(
    seed=st.integers(0, 50),
    vocab=st.integers(2, 8),
    cw=st.integers(0, 3),
    prompt_len=st.integers(0, 3),
    gen_len=st.integers(1, 12),
    block_len=st.integers(1, 6),
    n=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_a_recorded_table_replays_every_decoder(decoder, seed, vocab, cw, prompt_len, gen_len,
                                                block_len, n):
    """A table recorded from the states a stepwise, a greedy or a
    mix_order decode reads, and no other, replays that decode on the table
    backend: the same tokens, and for the speculative decoders the same
    forward count and rounds."""
    prompt = tuple(t % vocab for t in range(prompt_len))
    state = initial_state(prompt=prompt, gen_len=gen_len, mask_id=vocab, block_len=block_len)
    model = CountingModel(synth(seed=seed, vocab=vocab, cw=cw))
    final, _ = stepwise_decode(model, state, topk=0)
    if decoder == "stepwise":
        replayed, _ = stepwise_decode(TableModel(recorded_table(model)), state, topk=0)
        assert replayed.tokens == final.tokens
        return
    model = CountingModel(synth(seed=seed, vocab=vocab, cw=cw))
    result = ssd_decode(model, state, n, decoder)
    replay = ssd_decode(TableModel(recorded_table(model)), state, n, decoder)
    assert replay.state.tokens == result.state.tokens == final.tokens
    assert replay.forward_count == result.forward_count
    assert replay.rounds == result.rounds
