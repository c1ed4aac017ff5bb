"""Self-speculative decoding: draft, verify in a tree, accept multiple tokens.

Each round drafts a greedy (token, confidence) pair for every masked
position of the current block, and of the next block too when the current
one holds fewer than N masks.  The highest-confidence positions, current
block first, become an ordered candidate list, and a verification tree
lays out the states that would exist if successive candidates were
accepted; a node's state is built, by one placement on its parent's, only
when something asks for it.  One batched forward takes the whole tree, and
a walk from the root reads each node it visits for its current block's
masks, which every state knows, accepting a candidate exactly when the
parent node's own stepwise choice matches it; no other node is read or
built.  The deepest validated node contributes one further token (its own
stepwise choice), so a draft of length N can yield N+1 tokens per round
while the output stays token-identical to plain stepwise decoding.  Every
round drafts at a leaf from the choices in hand, reading it only past them:
round 1 at the start state, read from the one drafting forward, with none
in hand; a later round at the previous leaf, with the walk's choices there
(each row's argmax token and probability) less its bonus token's row.  So
no forward is spent on drafting after the first, and no softmaxed matrix
outlives its round: every read of a decode goes to one buffer.

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

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import MaskedModel, softmax_matrix
from .sequence import SequenceState, current_block, masked_in_blocks, place_token
from .sequence import schedule_for  # noqa: F401  (wrapped here by perfbench/tracer.py)
from .stepwise import DecodeTrace, argmax_rows, candidate_snapshot, choose_step, decode_remaining

DECODE_SHAPES = ("greedy", "mix_order")  # the tree shapes ssd_decode runs
TREE_SHAPES = (*DECODE_SHAPES, "kary")
MAX_DRAFT_LEN = 2**8  # keeps a decode tree at most 2 * 2**8 nodes


@dataclass(frozen=True, eq=False)
class Drafts:
    """Drafts for the masked positions draft_masks(state, n) of one state,
    as parallel arrays.

    ``positions`` (P,) holds those positions, ascending; ``tokens`` (P, k)
    their top-k draft tokens, highest probability first, so column 0 is the
    greedy draft; ``confidences`` (P,) the greedy token's probability.
    """

    positions: np.ndarray
    tokens: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


def draft_masks(state: SequenceState, n: int) -> np.ndarray:
    """The masks drafted for n candidates, ascending: the current block's
    when they number at least n, else two blocks' masks from a scan."""
    return state.masks if len(state.masks) >= n else masked_in_blocks(state, 2)


def drafts_from_logits(
    probs: np.ndarray, k: int = 1, *, positions: np.ndarray, rows: np.ndarray | None = None
) -> Drafts:
    """Extract top-k drafts for positions, a state's drafted masks in
    ascending order, from a probability matrix whose row i belongs to the
    ascending position rows[i], or to positions[i] without rows; no other
    position can be a candidate; ValueError unless the rows hold every
    drafted position.

    The decode loop calls this once a round, at the round's leaf, for the
    drafted masks past the choices in hand.  A later round's leaf lacks its
    own bonus token, so its drafts may be slightly stale; staleness only
    costs acceptance rate because every draft is re-verified before use.
    Column 0 and the confidences do not depend on k: candidate_snapshot
    puts the first maximum first, exactly as argmax_rows picks it.
    """
    if positions.size == 0:
        raise ValueError("state has no masked positions to draft for")
    if rows is not None:
        found = np.searchsorted(rows, positions)
        if found[-1] >= len(rows) or (rows[found] != positions).any():
            raise ValueError("probabilities do not cover the drafted blocks")
        probs = probs[found]
    first, confidences = argmax_rows(probs)
    tokens = first[:, None] if k == 1 else candidate_snapshot(probs, k)[0]
    return Drafts(positions=positions, tokens=tokens, confidences=confidences)


def select_candidates(
    state: SequenceState, drafts: Drafts, n: int
) -> tuple[tuple[int, int], ...]:
    """Choose up to n (position, draft token) pairs for verification.

    Verification order is current-block positions by descending confidence
    (ties to the lowest position), then, only if the block ran short,
    next-block positions by the same rule.  Returns min(n, len(drafts))
    pairs; the decode loop falls back to stepwise decoding before it drafts
    fewer than n.  The drafts are ranked as given, as the walk places no
    candidate that is not the stepwise choice.
    """
    if n < 1:
        raise ValueError("candidate count must be >= 1")
    positions = drafts.positions
    blocks = (positions - state.prompt_len) // state.block_len
    # lexsort is stable and positions ascend, so ties go to the lowest position
    order = np.lexsort((-drafts.confidences, blocks))[:n]
    return tuple(zip(positions[order].tolist(), drafts.tokens[order, 0].tolist()))


# ---------------------------------------------------------------------------
# Verification trees
# ---------------------------------------------------------------------------


class TreeNode(NamedTuple):
    parent: int | None
    depth: int
    # The (position, token) the parent's stepwise choice must equal for this
    # node to be validated; None for the root.
    expectation: tuple[int, int] | None
    is_branch: bool = False


class VerificationTree(Sequence[SequenceState]):
    """One verify round's batch: tree[i] is node i's state, its parent's
    state with its expectation placed.  Only the root's, base, exists up
    front; any other node's state is built by one placement when something
    first asks for it, and kept, so a node nobody asks for costs nothing.
    The layout is the parallel lists parent, pos and tok, the root first
    with None in each, a node's index its batch row, the last branches of
    them mix_order's branch leaves.  children maps (parent, position,
    token) to the parent's first child expecting that (position, token)."""

    def __init__(self, base: SequenceState, parent: list, pos: list, tok: list, branches=0):
        self.base, self.parent, self.pos, self.tok, self.branches = base, parent, pos, tok, branches
        keys = list(zip(parent, pos, tok))[:0:-1]  # every node but the root, last first
        self.children = dict(zip(keys, range(len(keys), 0, -1)))
        self._states: list[SequenceState | None] = [base] + [None] * len(keys)

    def __len__(self) -> int:
        return len(self.parent)

    def __getitem__(self, i: int) -> SequenceState:
        state = self._states[i]
        if state is None:
            state = self._states[i] = place_token(self[self.parent[i]], self.pos[i], self.tok[i])
        return state

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """The layout as one TreeNode per node, derived on each access."""
        nodes = [TreeNode(None, 0, None)]
        for i in range(1, len(self)):
            parent = self.parent[i]
            nodes.append(TreeNode(parent, nodes[parent].depth + 1, (self.pos[i], self.tok[i]),
                                  i >= len(self) - self.branches))
        return tuple(nodes)


def build_tree(
    base: SequenceState,
    candidates: tuple[tuple[int, int], ...],
    drafts: Drafts,
    shape: str = "greedy",
    k: int = 2,
) -> VerificationTree:
    """Lay out the verification tree for one round.

    Node counts are exact laws of the shape: N+1 for greedy, 2N for
    mix_order, and sum(k^i for i in 0..N) for kary.  Chain node at depth d
    holds the first d candidate tokens; a mix_order branch under depth d
    holds candidates 1..d plus candidate d+2's token, skipping d+1.  Node
    order is batch order: the chain 0..N, then the branches by depth; kary
    nodes breadth-first, parents in frontier order, tokens in draft order.
    Candidates are laid out unchecked: a bad one (a decoded, prompt or
    repeated position, or the mask token) raises what place_token raises
    when its node's state is built, which the walk never does.
    """
    if not candidates:
        raise ValueError("cannot build a verification tree from zero candidates")
    if shape not in TREE_SHAPES:
        raise ValueError(f"unknown tree shape {shape!r}")
    positions, tokens = zip(*candidates)
    n = len(candidates)
    if shape == "greedy":
        return VerificationTree(base, [None, *range(n)], [None, *positions], [None, *tokens])
    if shape == "mix_order":
        # One skip-ahead leaf per chain node that has a grandchild: the
        # parent at depth d may validate candidate d+2 directly when
        # stepwise passes over candidate d+1.
        return VerificationTree(base, [None, *range(n), *range(n - 1)],
                                [None, *positions, *positions[1:]],
                                [None, *tokens, *tokens[1:]], branches=n - 1)
    if k < 1:
        raise ValueError("kary arity must be >= 1")
    if drafts.tokens.shape[1] < k:
        raise ValueError(
            f"kary tree needs {k} candidate tokens per position, "
            f"drafts record only {drafts.tokens.shape[1]}"
        )
    parent, pos, tok = [None], [None], [None]
    frontier = range(1)
    for p, row in zip(positions, np.searchsorted(drafts.positions, positions)):
        drafted = drafts.tokens[row, :k].tolist()
        first = len(parent)
        parent += [f for f in frontier for _ in drafted]
        pos += [p] * (len(frontier) * k)
        tok += drafted * len(frontier)
        frontier = range(first, len(parent))
    return VerificationTree(base, parent, pos, tok)


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verification round: the leaf is the deepest validated
    node, tree[leaf_index]; the last accepted step is its own choice, its
    bonus token, unless the leaf is decoded.  held is the leaf's argmax_rows
    over the masks the walk read there, its current block's, less the bonus
    token's row."""

    accepted: tuple[tuple[int, int, float], ...]  # (position, token, confidence)
    state: SequenceState  # the round's next state: the base with accepted placed
    held: tuple[np.ndarray, np.ndarray]  # (tokens, confidences), one per leaf mask left
    read: Callable[..., np.ndarray]  # the batch's reader: read(leaf_index, positions, out)
    leaf_index: int


def batch_verify(model: MaskedModel, tree: VerificationTree,
                 out: np.ndarray | None = None) -> VerifyResult:
    """Send the tree to one batched forward and walk it from the root,
    reading each node into out (a block's rows), or a fresh array, of which
    only each row's argmax_rows choice is kept.

    At each validated node the stepwise choice is computed from that node's
    own logits; a child whose expectation equals the choice is validated in
    turn.  When no child matches (or none exists), the node's own choice is
    accepted as the final token of the round, which guarantees progress of
    at least one token; a fully decoded node chooses nothing.  The walk
    reads each node it visits once, for exactly its current block's masks,
    which the node's state knows, and no other node, so a forward, which
    looks a state up only on read, builds and scores only the accepted path.
    Each validated child costs one placement, and the leaf's own choice one
    more, so a round places exactly the tokens it accepts.
    """
    read = model.forward(tree)
    accepted: list[tuple[int, int, float]] = []
    cur, state = 0, tree.base
    while True:  # state is tree[cur]
        held = argmax_rows(softmax_matrix(read(cur, state.masks, out)))
        if not state.masks.size:  # every position decoded: nothing to choose
            break
        pos, tok, conf = choose_step(state.masks, *held)
        accepted.append((pos, tok, conf))
        matched = tree.children.get((cur, pos, tok))
        if matched is None:
            kept = state.masks != pos  # every row but the bonus token's
            held = held[0][kept], held[1][kept]
            state = place_token(state, pos, tok)
            break
        cur, state = matched, tree[matched]
    return VerifyResult(tuple(accepted), state, held, read, cur)


# ---------------------------------------------------------------------------
# Full decode loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundStats:
    batch_size: int
    accepted: int


@dataclass(frozen=True)
class SsdResult:
    state: SequenceState
    rounds: tuple[RoundStats, ...]
    trace: DecodeTrace
    fallback_steps: int

    @property
    def forward_count(self) -> int:
        """The drafting forward, one per round and one per fallback step."""
        return 1 + len(self.rounds) + self.fallback_steps


def ssd_decode(
    model: MaskedModel,
    state: SequenceState,
    n: int,
    shape: str = "greedy",
) -> SsdResult:
    """Decode with self-speculation: one drafting forward, then verify rounds.

    Each round drafts for the current block's masks, and the next block's
    too when they number fewer than n, at its leaf from the choices in hand,
    reading the leaf only past them: round 1 at the start state, from the
    drafting forward, with none in hand; a later round at the previous
    leaf, with its held choices.  Each round costs one batched forward pass
    and accepts between 1 and n+1 tokens.  When the current and next block
    together hold fewer than n masks, the loop falls back to plain stepwise
    decoding before it drafts.  Every read goes to one buffer of two blocks'
    rows, sized up front.
    """
    if n < 1:
        raise ValueError("draft length must be >= 1")
    if shape not in DECODE_SHAPES:
        raise ValueError(f"decode supports shapes 'greedy' and 'mix_order', not {shape!r}")
    if current_block(state) is None:
        raise ValueError("state has no masked positions to decode")

    out = np.empty((min(2 * state.block_len, state.gen_len), model.vocab_size))
    read, leaf = model.forward([state]), 0  # the drafting forward
    held = np.empty(0, dtype=np.intp), np.empty(0)
    steps: list[tuple[int, int, float]] = []
    rounds: list[RoundStats] = []
    fallback_steps = 0

    while True:
        drafted = draft_masks(state, n)
        if len(drafted) < n:
            state, tail, _ = decode_remaining(model, state, topk=0, out=out)
            steps.extend(tail)
            fallback_steps = len(tail)
            break
        tokens, confidences = held  # the first drafted masks' choices; read the rest
        if len(tokens) < len(drafted):
            past = drafted[len(tokens):]
            fresh = drafts_from_logits(softmax_matrix(read(leaf, past, out)), positions=past)
            tokens = np.concatenate((tokens, fresh.tokens[:, 0]))
            confidences = np.concatenate((confidences, fresh.confidences))
        drafts = Drafts(positions=drafted, tokens=tokens[:, None], confidences=confidences)
        candidates = select_candidates(state, drafts, n)
        tree = build_tree(state, candidates, drafts, shape)
        result = batch_verify(model, tree, out)
        steps.extend(result.accepted)
        rounds.append(RoundStats(batch_size=len(tree), accepted=len(result.accepted)))
        state = result.state
        if not state.masks.size:
            break
        read, leaf, held = result.read, result.leaf_index, result.held

    return SsdResult(
        state=state,
        rounds=tuple(rounds),
        trace=DecodeTrace.of("ssd", state, steps),
        fallback_steps=fallback_steps,
    )
