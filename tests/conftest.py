"""Shared fixtures and trace-replay helpers."""

import contextlib
import resource
from pathlib import Path

import numpy as np
import pytest

import selfspec.ssd as ssd_mod
from selfspec.models import MaskedModel
from selfspec.sequence import initial_state
from selfspec.ssd import batch_verify, build_tree, ssd_decode

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
    return model.forward([state])(0, range(len(state.tokens)))


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
    remaining = [set(range(prompt_len + start, prompt_len + min(start + block_len, gen_len)))
                 for start in range(0, gen_len, block_len)]
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
    (call, row in the call, positions)."""

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
        read, call = self.inner.forward(states), self.calls - 1

        def logged(row, positions, out=None):
            self.reads.append((call, row, np.asarray(positions).tolist()))
            return read(row, positions, out)

        return logged

    def rows(self, state, positions, out=None):
        return self.inner.rows(state, positions, out)


def recorded_table(model):
    """The table fixture that replays the decodes run through the
    CountingModel model: every state they read, once, first read first,
    with the full rows of its inner model, and no state they only sent."""
    table = {}
    for call, i, _ in model.reads:
        state = model.batches[call][i]
        if state.tokens not in table:
            table[state.tokens] = full_logits(model.inner, state)
    return table


class ForwardFails(MaskedModel):
    """A vocabulary-64 model whose forward fails the test that calls it."""

    vocab_size = 64

    def forward(self, states):
        raise AssertionError("forward was called")

    def rows(self, state, positions, out=None):
        raise AssertionError("rows were read")


class RowsOnlyModel(MaskedModel):
    """A backend of only vocab_size and rows, so its forward, with the
    empty-batch error, the position checks and the lookups on read, is
    MaskedModel's: a row is an integer pattern of its position and the
    state's tokens, exact in float64."""

    def __init__(self, vocab):
        self._vocab = vocab

    @property
    def vocab_size(self):
        return self._vocab

    def rows(self, state, positions, out=None):
        salt = sum((i + 1) * t for i, t in enumerate(state.tokens)) % 101
        logits = np.empty((len(positions), self._vocab)) if out is None else out[: len(positions)]
        logits[:] = (positions[:, None] * 7 + np.arange(self._vocab) * 3 + salt) % 11
        return logits


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
