"""Self-speculative decoding: draft, verify in a tree, accept multiple tokens.

One forward pass drafts a greedy (token, confidence) pair for every masked
position.  The highest-confidence positions of the current block become an
ordered candidate list, and a verification tree materializes the states that
would exist if successive candidates were accepted.  A single batched
forward then scores every node, and a walk from the root accepts a candidate
exactly when the parent node's own stepwise choice matches it.  The deepest
validated node contributes one further token (its own stepwise choice), so a
draft of length N can yield N+1 tokens per round while the output stays
token-identical to plain stepwise decoding.

Tree shapes:

* greedy: a linear chain, N+1 nodes.  Fails as soon as stepwise order
  deviates from draft-confidence order.
* mix_order: the chain plus one skip-ahead branch leaf per chain node that
  has a grandchild (2N nodes total).  A branch absorbs the common failure
  where stepwise picks candidate d+2 before candidate d+1; branches get no
  children of their own.
* kary: every candidate position expands into its top-k draft tokens,
  sum(k^i, i=0..N) nodes.  Supported for analysis; too large to batch
  profitably, so the decode loop never builds one and drafts top-1 only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MaskedModel, softmax_matrix
from .sequence import (
    SequenceState,
    current_block,
    place_token,
    schedule_for,
)
from .stepwise import (
    DecodeTrace,
    StepRecord,
    choose_step,
    decode_remaining,
)

TREE_SHAPES = ("greedy", "mix_order", "kary")


@dataclass(frozen=True, eq=False)
class Drafts:
    """Drafts for the masked positions of one state, as parallel arrays.

    ``positions`` (P,) holds the masked positions, ascending; ``tokens``
    (P, k) their top-k draft tokens, highest probability first, so column 0
    is the greedy draft; ``confidences`` (P,) the greedy token's probability.
    """

    positions: np.ndarray
    tokens: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    def rows_of(self, positions: np.ndarray) -> np.ndarray:
        """Row index of each given position; ValueError if one is not drafted."""
        rows = np.searchsorted(self.positions, positions)
        found = rows < len(self.positions)
        found[found] = self.positions[rows[found]] == positions[found]
        if not found.all():
            raise ValueError(
                f"drafts do not cover masked position {positions[~found][0]}"
            )
        return rows


def drafts_from_logits(
    state: SequenceState, logits: np.ndarray, k: int = 1
) -> Drafts:
    """Extract top-k drafts for every masked position of state from a logit matrix.

    Used both for fresh drafting (logits from a forward on state itself) and
    for the free refresh after a verification round, where the logits come
    from the deepest accepted node and may be slightly stale; staleness only
    costs acceptance rate because every draft is re-verified before use.
    Column 0 and the confidences do not depend on k: the stable sort puts
    the first maximum first, exactly as argmax picks it.
    """
    positions = np.asarray(state.masked_positions(), dtype=np.int64)
    if not positions.size:
        raise ValueError("state has no masked positions to draft for")
    rows = softmax_matrix(np.asarray(logits, dtype=np.float64)[positions])
    if k == 1:
        tokens = np.argmax(rows, axis=1)[:, None]  # first max, lowest-id tie-break
    else:
        tokens = np.argsort(-rows, axis=1, kind="stable")[:, :k]
    confidences = rows[np.arange(len(positions)), tokens[:, 0]]
    return Drafts(positions=positions, tokens=tokens, confidences=confidences)


def select_candidates(
    state: SequenceState, drafts: Drafts, n: int
) -> tuple[tuple[int, int], ...]:
    """Choose up to n (position, draft token) pairs for verification.

    Verification order is current-block positions by descending confidence
    (ties to the lowest position), then, only if the block ran short,
    next-block positions by the same rule.  May return fewer than n entries
    when the current and next block together hold fewer masked positions;
    the decode loop treats that as the signal to fall back to stepwise
    decoding.
    """
    if n < 1:
        raise ValueError("candidate count must be >= 1")
    schedule = schedule_for(state)
    block_idx = current_block(state)
    if block_idx is None:
        return ()

    def ranked(block: range) -> list[tuple[int, int]]:
        positions = np.array([p for p in block if state.is_masked(p)], dtype=np.int64)
        rows = drafts.rows_of(positions)
        order = np.lexsort((positions, -drafts.confidences[rows]))
        tokens = drafts.tokens[rows[order], 0]
        return list(zip(positions[order].tolist(), tokens.tolist()))

    chosen = ranked(schedule[block_idx])[:n]
    if len(chosen) < n and block_idx + 1 < len(schedule):
        chosen += ranked(schedule[block_idx + 1])[: n - len(chosen)]
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Verification trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    index: int
    parent: int | None
    depth: int
    state: SequenceState
    # The (position, token) the parent's stepwise choice must equal for this
    # node to be validated; None for the root.
    expectation: tuple[int, int] | None
    is_branch: bool = False


@dataclass(frozen=True)
class VerificationTree:
    nodes: tuple[TreeNode, ...]
    children: dict[int, tuple[int, ...]]  # node index -> child indices

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]


def build_tree(
    base: SequenceState,
    candidates: tuple[tuple[int, int], ...],
    drafts: Drafts,
    shape: str = "greedy",
    k: int = 2,
) -> VerificationTree:
    """Materialize the verification tree for one round.

    Node counts are exact laws of the shape: N+1 for greedy, 2N for
    mix_order, and sum(k^i for i in 0..N) for kary.  Chain node at depth d
    holds the first d candidate tokens; a mix_order branch under depth d
    holds candidates 1..d plus candidate d+2's token, skipping d+1.  Node
    order is batch order: the chain 0..N, then the branches by depth; kary
    nodes breadth-first, parents in frontier order, tokens in draft order.
    """
    if not candidates:
        raise ValueError("cannot build a verification tree from zero candidates")
    if shape not in TREE_SHAPES:
        raise ValueError(f"unknown tree shape {shape!r}")

    nodes = [TreeNode(index=0, parent=None, depth=0, state=base, expectation=None)]
    children: dict[int, list[int]] = {}

    def grow(parent: int, pos: int, tok: int, is_branch: bool = False) -> int:
        """Append the node that places tok at pos on top of parent."""
        idx = len(nodes)
        nodes.append(
            TreeNode(index=idx, parent=parent, depth=nodes[parent].depth + 1,
                     state=place_token(nodes[parent].state, pos, tok),
                     expectation=(pos, tok), is_branch=is_branch)
        )
        children.setdefault(parent, []).append(idx)
        return idx

    if shape == "kary":
        if k < 1:
            raise ValueError("kary arity must be >= 1")
        if drafts.tokens.shape[1] < k:
            raise ValueError(
                f"kary tree needs {k} candidate tokens per position, "
                f"drafts record only {drafts.tokens.shape[1]}"
            )
        rows = drafts.rows_of(np.array([pos for pos, _ in candidates], dtype=np.int64))
        frontier = [0]
        for (pos, _), row in zip(candidates, rows):
            tokens = drafts.tokens[row, :k].tolist()
            frontier = [grow(parent, pos, tok) for parent in frontier for tok in tokens]
    else:
        for d, (pos, tok) in enumerate(candidates):
            grow(d, pos, tok)
        if shape == "mix_order":
            # One skip-ahead leaf per chain node that has a grandchild: the
            # parent at depth d may validate candidate d+2 directly when
            # stepwise passes over candidate d+1.
            for d, (pos, tok) in enumerate(candidates[1:]):
                grow(d, pos, tok, is_branch=True)

    return VerificationTree(
        nodes=tuple(nodes),
        children={p: tuple(c) for p, c in children.items()},
    )


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verification round."""

    accepted: tuple[tuple[int, int, float], ...]  # (position, token, confidence)
    leaf_logits: np.ndarray  # logits of the deepest validated node
    leaf_index: int


def batch_verify(model: MaskedModel, tree: VerificationTree) -> VerifyResult:
    """Score every node in one batched forward and walk the tree.

    At each validated node the stepwise choice is computed from that node's
    own logits; a child whose expectation equals the choice is validated in
    turn.  When no child matches (or none exists), the node's own choice is
    accepted as the final token of the round, which guarantees progress of
    at least one token.
    """
    batch = model.forward([node.state for node in tree.nodes])
    schedule = schedule_for(tree.root.state)

    accepted: list[tuple[int, int, float]] = []
    cur = 0
    # Stop once every position is decoded: nothing further to choose.
    while current_block(tree.nodes[cur].state) is not None:
        pos, tok, conf = choose_step(
            tree.nodes[cur].state, schedule, softmax_matrix(batch[cur])
        )
        accepted.append((pos, tok, conf))
        children = tree.children.get(cur, ())
        matched = next((c for c in children if tree.nodes[c].expectation == (pos, tok)), None)
        if matched is None:
            break
        cur = matched
    return VerifyResult(
        accepted=tuple(accepted), leaf_logits=batch[cur], leaf_index=cur
    )


# ---------------------------------------------------------------------------
# Full decode loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundStats:
    iteration: int
    batch_size: int
    accepted: int
    cumulative_forwards: int


@dataclass(frozen=True)
class SsdResult:
    state: SequenceState
    rounds: tuple[RoundStats, ...]
    trace: DecodeTrace
    forward_count: int
    fallback_steps: int


def ssd_decode(
    model: MaskedModel,
    state: SequenceState,
    n: int,
    shape: str = "greedy",
) -> SsdResult:
    """Decode with self-speculation: draft once, then verify rounds.

    Each round costs one batched forward pass and accepts between 1 and n+1
    tokens.  When fewer than n candidate positions remain in scope the loop
    falls back to plain stepwise decoding for the remainder.  Draft refresh
    after a round reuses the deepest accepted node's logits, so no extra
    forward is spent on drafting after the first.
    """
    if n < 1:
        raise ValueError("draft length must be >= 1")
    if shape not in ("greedy", "mix_order"):
        raise ValueError(f"decode supports shapes 'greedy' and 'mix_order', not {shape!r}")
    if not state.masked_positions():
        raise ValueError("state has no masked positions to decode")

    start = state
    schedule = schedule_for(state)
    drafts = drafts_from_logits(state, model.forward([state])[0])
    forwards = 1
    records: list[StepRecord] = []
    rounds: list[RoundStats] = []
    fallback_steps = 0

    while current_block(state) is not None:
        candidates = select_candidates(state, drafts, n)
        if len(candidates) < n:
            state, tail = decode_remaining(model, state, schedule, topk=0)
            records.extend(tail)
            forwards += len(tail)
            fallback_steps = len(tail)
            break
        tree = build_tree(state, candidates, drafts, shape)
        result = batch_verify(model, tree)
        forwards += 1
        for pos, tok, conf in result.accepted:
            state = place_token(state, pos, tok)
            records.append(StepRecord(position=pos, token=tok, confidence=conf))
        rounds.append(
            RoundStats(
                iteration=len(rounds),
                batch_size=len(tree),
                accepted=len(result.accepted),
                cumulative_forwards=forwards,
            )
        )
        if current_block(state) is not None:
            drafts = drafts_from_logits(state, result.leaf_logits)

    trace = DecodeTrace(
        decoder="ssd",
        prompt_len=start.prompt_len,
        gen_len=start.gen_len,
        block_len=start.block_len,
        mask_id=start.mask_id,
        topk=0,
        records=tuple(records),
    )
    return SsdResult(
        state=state,
        rounds=tuple(rounds),
        trace=trace,
        forward_count=forwards,
        fallback_steps=fallback_steps,
    )
