"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Criterion 1's 1,026-case grid is computed once in a module-scoped fixture
and reused by criteria 3 and 6; the other criteria build their own smaller
worlds.  Beside the grid, a hypothesis law runs the same losslessness check
on tie-heavy logits.  Every tolerance is stated inline; exact laws use zero
tolerance.
"""

import json
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    MaskedModel,
    SynthModelConfig,
    SyntheticModel,
    build_tree,
    drafts_from_logits,
    initial_state,
    kary_tree_size,
    load_table_fixture,
    select_candidates,
    ssd_decode,
    stepwise_decode,
    topk_match_reduction,
    upper_bound,
)
from selfspec.cli import main

from conftest import (
    FIXTURES,
    CountingModel,
    check_block_order,
    full_logits,
    replay_dual_rounds,
)

GRID_SEEDS = tuple(range(19))  # prompt lengths seed % 17 cover 0..16
GRID_VOCAB = 48
GRID_GEN_LENGTHS = (8, 32, 128)
GRID_DRAFT_LENGTHS = (3, 4, 5)
GRID_SHAPES = ("greedy", "mix_order")

# 24 curated synthetic out-of-order scenarios plus the 3 committed fixtures;
# each (seed, vocab, context_window, gen_len, block_len, draft_len) exhibits
# at least one round where the skip-ahead branch rescues extra acceptances.
OUT_OF_ORDER_SCENARIOS = (
    (0, 12, 2, 24, 8, 3), (1, 12, 2, 24, 8, 3), (2, 12, 2, 24, 8, 3),
    (3, 12, 2, 24, 8, 3), (4, 12, 2, 24, 8, 3), (5, 12, 2, 24, 8, 3),
    (6, 12, 2, 24, 8, 3), (7, 12, 2, 24, 8, 3), (8, 12, 2, 24, 8, 3),
    (9, 12, 2, 32, 8, 5), (10, 12, 2, 24, 8, 3), (11, 20, 2, 24, 12, 3),
    (12, 12, 2, 24, 8, 3), (13, 12, 2, 24, 8, 3), (14, 12, 2, 24, 8, 3),
    (15, 12, 2, 24, 8, 3), (16, 12, 2, 24, 8, 3), (17, 12, 2, 24, 8, 3),
    (18, 12, 2, 24, 8, 3), (19, 16, 3, 24, 8, 4), (20, 12, 2, 24, 8, 3),
    (21, 12, 2, 24, 8, 3), (22, 16, 3, 24, 8, 4), (23, 12, 2, 24, 8, 3),
)

FIXTURE_SCENARIOS = (
    ("out_of_order_micro.jsonl", 5, 4, 4, 3),  # mask_id, gen_len, block_len, n
    ("out_of_order_small_a.jsonl", 8, 12, 6, 3),
    ("out_of_order_small_b.jsonl", 8, 16, 8, 3),
)


@pytest.fixture(scope="module")
def grid():
    """Run every grid combination once; share one stepwise baseline per
    (seed, gen_len, block_len) across draft lengths and shapes."""
    cases = []
    stepwise_traces = []
    start = time.monotonic()
    for seed in GRID_SEEDS:
        prompt = tuple(range(seed % 17))
        model = SyntheticModel(
            SynthModelConfig(seed=seed, vocab_size=GRID_VOCAB, context_window=2)
        )
        for gen_len in GRID_GEN_LENGTHS:
            for block_len in (4, 8, gen_len):
                state = initial_state(
                    prompt=prompt, gen_len=gen_len,
                    mask_id=GRID_VOCAB, block_len=block_len,
                )
                sw_final, sw_trace = stepwise_decode(model, state, topk=0)
                stepwise_traces.append(
                    (len(prompt), gen_len, block_len, tuple(sw_trace.positions.tolist()))
                )
                for n in GRID_DRAFT_LENGTHS:
                    for shape in GRID_SHAPES:
                        res = ssd_decode(model, state, n=n, shape=shape)
                        cases.append(
                            {
                                "seed": seed,
                                "prompt_len": len(prompt),
                                "gen_len": gen_len,
                                "block_len": block_len,
                                "n": n,
                                "shape": shape,
                                "identical": res.state.tokens == sw_final.tokens,
                                "forwards": res.forward_count,
                                "rounds": res.rounds,
                                "positions": tuple(res.trace.positions.tolist()),
                            }
                        )
    elapsed = time.monotonic() - start
    return {"cases": cases, "stepwise": stepwise_traces, "elapsed": elapsed}


def test_criterion_1_losslessness_suite(grid):
    """1,026 randomized (seed, prompt, L, B, N, shape) cases: speculative
    output token-identical to stepwise in 100% of them, under one minute."""
    cases = grid["cases"]
    assert len(cases) == 1026
    mismatches = [
        (c["seed"], c["gen_len"], c["block_len"], c["n"], c["shape"])
        for c in cases
        if not c["identical"]
    ]
    assert mismatches == []
    assert grid["elapsed"] < 60.0, f"grid took {grid['elapsed']:.1f}s"


class FlooredModel(MaskedModel):
    """Another model's logits floored to integers.  Synthetic logits at
    sharpness s lie in [0, s), so with s = 2..4 they take 2-4 distinct
    values and exact confidence ties, across positions and tokens, are
    common."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def vocab_size(self):
        return self._inner.vocab_size

    def forward(self, states):
        return partial(self._floored, self._inner.forward(states))

    @staticmethod
    def _floored(read, row, positions, out=None):
        rows = read(row, positions, out)
        return np.floor(rows, out=rows)


@given(
    seed=st.integers(0, 5),
    vocab=st.sampled_from((2, 3, 8)),
    levels=st.integers(2, 4),
    context_window=st.integers(0, 2),
    gen_len=st.sampled_from((13, 40)),
    block_len=st.sampled_from((1, 3, 8)),
    n=st.sampled_from((1, 2, 4)),
)
@settings(max_examples=100, deadline=None)
def test_tie_heavy_losslessness(seed, vocab, levels, context_window, gen_len, block_len, n):
    """Beside the grid, whose continuous logits almost never tie: on logits
    with 2-4 distinct values, which tie all the time, the tie rules of the
    stepwise choice, of candidate selection and of the walk's expectation
    match still make greedy and mix_order equal stepwise token for token,
    in at most gen_len + 1 forwards."""
    config = SynthModelConfig(seed=seed, vocab_size=vocab, sharpness=float(levels),
                              context_window=context_window)
    model = FlooredModel(SyntheticModel(config))
    state = initial_state(prompt=(), gen_len=gen_len, mask_id=vocab, block_len=block_len)
    want, _ = stepwise_decode(model, state, topk=0)
    for shape in GRID_SHAPES:
        counted = CountingModel(model)
        res = ssd_decode(counted, state, n=n, shape=shape)
        assert res.state.tokens == want.tokens
        assert counted.calls == res.forward_count <= gen_len + 1


def test_criterion_2_tree_size_laws():
    """Exact node counts: greedy 4/5/6 and mix-order 6/8/10 for N=3/4/5;
    k-ary sizes equal the geometric sum for k in {1,2,3}, N in 1..6."""
    model = SyntheticModel(SynthModelConfig(seed=2, vocab_size=16, context_window=2))
    state = initial_state(prompt=(), gen_len=12, mask_id=16, block_len=12)
    # the only block, whatever n
    drafts = drafts_from_logits(full_logits(model, state), 3, positions=np.arange(12),
                                rows=np.arange(12))

    for n, greedy_size, mix_size in ((3, 4, 6), (4, 5, 8), (5, 6, 10)):
        cands = select_candidates(state, drafts, n)
        assert len(build_tree(state, cands, drafts, "greedy")) == greedy_size
        assert len(build_tree(state, cands, drafts, "mix_order")) == mix_size

    for k in (1, 2, 3):
        for n in range(1, 7):
            cands = select_candidates(state, drafts, n)
            built = len(build_tree(state, cands, drafts, "kary", k=k))
            assert built == kary_tree_size(k, n) == sum(k**i for i in range(n + 1))
    assert kary_tree_size(2, 3) == 15


def test_criterion_3_upper_bound_law(grid):
    """upper_bound returns N/(N+1) exactly; every grid run's measured
    step reduction stays at or below it."""
    assert upper_bound(3) == 0.75
    assert upper_bound(4) == 0.8
    assert upper_bound(5) == 5 / 6
    for n, text in ((3, "75.0%"), (4, "80.0%"), (5, "83.3%")):
        assert f"{100 * upper_bound(n):.1f}%" == text

    for c in grid["cases"]:
        reduction = (c["gen_len"] - c["forwards"]) / c["gen_len"]
        assert reduction <= upper_bound(c["n"]) + 0.0, c


def test_criterion_4_full_acceptance_oracle():
    """Context-free model, (N+1) | L, B >= L: exactly L/(N+1) rounds of
    N+1 tokens and 1 + L/(N+1) forwards.  Tolerance zero."""
    gen_len = 60
    for seed in (31, 32, 33):
        model = SyntheticModel(
            SynthModelConfig(seed=seed, vocab_size=32, context_window=0)
        )
        for n in (3, 4, 5):
            for block_len in (60, 64):
                state = initial_state(
                    prompt=(), gen_len=gen_len, mask_id=32, block_len=block_len
                )
                sw, _ = stepwise_decode(model, state, topk=0)
                res = ssd_decode(model, state, n=n, shape="greedy")
                rounds = gen_len // (n + 1)
                assert res.state.tokens == sw.tokens
                assert len(res.rounds) == rounds
                assert all(r.accepted == n + 1 for r in res.rounds)
                assert res.forward_count == 1 + rounds
                assert res.fallback_steps == 0


def test_criterion_5_analyzer_laws():
    """On every recorded trace: reduction monotone in k, equal to N/(N+1)
    at k = vocab_size, and never above the bound.  Traces use L = 60 so all
    of N+1 in {4,5,6} divide the step count and the equality case is exact;
    absolute reduction values depend on the model, so the laws rather than
    any fixed percentages are the gate."""
    vocab = 24
    recorded = []
    for seed in (41, 42, 43):
        model = SyntheticModel(
            SynthModelConfig(seed=seed, vocab_size=vocab, context_window=2)
        )
        for block_len in (6, 60):
            state = initial_state(
                prompt=(), gen_len=60, mask_id=vocab, block_len=block_len
            )
            _, trace = stepwise_decode(model, state, topk=vocab)
            recorded.append(trace)

    assert len(recorded) == 6
    for trace in recorded:
        for n in (3, 4, 5):
            values = [
                topk_match_reduction(trace, n, k) for k in (1, 2, 3, 5, 12, vocab)
            ]
            assert values == sorted(values)
            assert all(v <= upper_bound(n) for v in values)
            assert values[-1] == pytest.approx(n / (n + 1), abs=0.0)


def test_criterion_6_progress_and_block_order(grid):
    """Every verification round accepts at least one token; no trace ever
    finalizes a block-(j+1) position while block j still has a mask."""
    for c in grid["cases"]:
        assert all(r.accepted >= 1 for r in c["rounds"]), c
        checked = check_block_order(
            c["positions"], c["prompt_len"], c["gen_len"], c["block_len"]
        )
        assert checked == c["gen_len"]
    for prompt_len, gen_len, block_len, positions in grid["stepwise"]:
        assert check_block_order(positions, prompt_len, gen_len, block_len) == gen_len


def test_criterion_7_mix_order_gain():
    """On 27 authored out-of-order scenarios, mix-order accepts strictly
    more than greedy in the failing round (identical round inputs), both
    stay lossless, and aggregate forwards/rounds go the direction the
    larger-batch tradeoff promises."""
    total = {"greedy_fw": 0, "mix_fw": 0, "greedy_rounds": 0, "mix_rounds": 0}
    scenario_count = 0

    def run_scenario(model, state, n):
        nonlocal scenario_count
        sw, _ = stepwise_decode(model, state, topk=0)
        greedy = ssd_decode(model, state, n=n, shape="greedy")
        mix = ssd_decode(model, state, n=n, shape="mix_order")
        assert greedy.state.tokens == sw.tokens
        assert mix.state.tokens == sw.tokens
        rounds = replay_dual_rounds(model, state, n)
        assert any(m > g for g, m in rounds), "no out-of-order round found"
        assert all(m >= g for g, m in rounds)
        for r in greedy.rounds:
            assert r.batch_size == n + 1
        for r in mix.rounds:
            assert r.batch_size == 2 * n
        total["greedy_fw"] += greedy.forward_count
        total["mix_fw"] += mix.forward_count
        total["greedy_rounds"] += len(greedy.rounds)
        total["mix_rounds"] += len(mix.rounds)
        scenario_count += 1

    for seed, vocab, cw, gen_len, block_len, n in OUT_OF_ORDER_SCENARIOS:
        model = SyntheticModel(
            SynthModelConfig(
                seed=seed, vocab_size=vocab, sharpness=3.0, context_window=cw
            )
        )
        state = initial_state(
            prompt=(), gen_len=gen_len, mask_id=vocab, block_len=block_len
        )
        run_scenario(model, state, n)

    for name, mask_id, gen_len, block_len, n in FIXTURE_SCENARIOS:
        model = load_table_fixture(str(FIXTURES / name))
        state = initial_state(
            prompt=(), gen_len=gen_len, mask_id=mask_id, block_len=block_len
        )
        run_scenario(model, state, n)

    assert scenario_count == 27 >= 20
    assert total["mix_fw"] < total["greedy_fw"], total
    assert total["mix_rounds"] < total["greedy_rounds"], total


def test_criterion_8_deterministic_reports(capsys):
    """Identical config, three consecutive runs, byte-identical output for
    every report-emitting subcommand."""
    base = [
        "--seed", "5", "--vocab-size", "32", "--gen-length", "40",
        "--block-length", "8", "--draft-length", "4",
    ]
    commands = (
        ["decode", *base, "--strategy", "mix_order"],
        ["decode", *base, "--strategy", "stepwise"],
        ["compare", *base, "--strategy", "greedy"],
        ["sweep", *base, "--draft-lengths", "3,4", "--strategies",
         "greedy,mix_order"],
    )
    for argv in commands:
        outputs = set()
        for _ in range(3):
            assert main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, argv
        parsed = [json.loads(line) for line in outputs.pop().splitlines()]
        assert parsed
