"""Shared fixtures and trace-replay helpers."""

import contextlib
import resource
from pathlib import Path

import numpy as np
import pytest

import selfspec.ssd as ssd_mod
from selfspec import (
    MaskedModel,
    batch_verify,
    block_partition,
    build_tree,
    initial_state,
    ssd_decode,
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


def full_logits(model, state):
    """The full (L, vocab) logit matrix of one state."""
    return model.forward([state])[0](range(len(state.tokens)))


def replay_dual_rounds(model, state, n):
    """Run the greedy-strategy decode, recording the (state, candidates,
    drafts) of every round it verifies; then build both tree shapes on each
    round's inputs and return the pairs of accepted counts."""
    inputs = []

    def recording_build(base, candidates, drafts, *shape):
        inputs.append((base, candidates, drafts))
        return build_tree(base, candidates, drafts, *shape)

    ssd_mod.build_tree = recording_build
    try:
        ssd_decode(model, state, n, "greedy")
    finally:
        ssd_mod.build_tree = build_tree
    return [
        tuple(len(batch_verify(model, build_tree(*args, shape)).accepted)
              for shape in ("greedy", "mix_order"))
        for args in inputs
    ]


def check_block_order(positions, prompt_len, gen_len, block_len):
    """Assert a sequence of decode positions never enters block j+1 while
    block j still has an undetermined position.  Returns the number of
    steps checked so callers can sanity-check coverage."""
    remaining = [set(block) for block in block_partition(prompt_len, gen_len, block_len)]
    for pos in positions:
        j = (pos - prompt_len) // block_len
        for earlier in range(j):
            assert not remaining[earlier], (
                f"position {pos} in block {j} decoded while block "
                f"{earlier} still had masks at {sorted(remaining[earlier])}"
            )
        assert pos in remaining[j], f"position {pos} decoded twice"
        remaining[j].discard(pos)
    return len(positions)


class CountingModel(MaskedModel):
    """Passes forwards through to a model, counting calls and rows, keeping
    each call's batch in batches, as passed, so no state is looked up that
    the inner model would not look up, and logging every read to reads as
    (call, index in the call, positions)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = self.rows = 0
        self.batches = []
        self.reads = []

    @property
    def vocab_size(self):
        return self.inner.vocab_size

    def forward(self, states):
        self.calls += 1
        self.rows += len(states)
        self.batches.append(states)
        readers = self.inner.forward(states)
        return [self._logged(self.calls - 1, i, read) for i, read in enumerate(readers)]

    def _logged(self, call, index, read):
        def logged(positions, out=None):
            self.reads.append((call, index, np.asarray(positions).tolist()))
            return read(positions, out)

        return logged


def recorded_table(model):
    """The table fixture that replays the decodes run through the
    CountingModel model: every state of every batch it passed on, once,
    first seen first, with the full rows of its inner model."""
    table = {}
    for batch in model.batches:
        for state in batch:
            if state.tokens not in table:
                table[state.tokens] = full_logits(model.inner, state)
    return table


class ForwardFails(MaskedModel):
    """A vocabulary-64 model whose forward fails the test that calls it."""

    vocab_size = 64

    def forward(self, states):
        raise AssertionError("forward was called")


@contextlib.contextmanager
def address_space_capped(limit=2**44):
    """Cap this process's address space at limit bytes (16 TiB) while the
    block runs, so an allocation past it raises MemoryError whatever the
    kernel's overcommit policy; the limits are restored afterwards."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap if soft == resource.RLIM_INFINITY
                                            else min(soft, cap), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
