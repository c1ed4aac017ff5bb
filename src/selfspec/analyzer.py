"""Acceptance-rate analysis over recorded stepwise traces.

Given a stepwise trace that recorded top-K candidates at every step, estimate
the fraction of forward passes a drafting decoder could remove if every token
appearing among the draft's top-k candidates were accepted.  The trace is cut
into fixed windows of n+1 steps (the last may be shorter); the window-start
snapshot plays the role of the draft, and a step is matched when its token
appears among the top-k candidates recorded for its position at window start.
The first step of each window always costs a forward, so only matched steps
past the first count as saved.

This is an estimate, not a bound on any decoder: the next n steps are
scored against one snapshot per fixed window of n+1 steps, no re-drafting
inside a window is simulated, and matching ignores whether earlier
acceptances would have changed the model's predictions.  The speculative
decoder can save more than the estimate, because it re-drafts from the leaf
every round and its windows start where the last round stopped.
"""

from __future__ import annotations

import numpy as np

from .ssd import MAX_DRAFT_LEN
from .stepwise import DecodeTrace, snapshot_rows


def _ranks(trace: DecodeTrace, n: int) -> np.ndarray:
    """For each step that does not start its window of n+1 steps, the rank of
    its token among the candidates the window's first step recorded for its
    position, or trace.topk when the token is absent there.  A step is saved
    at k exactly when its rank is below k.  The first step's rows are its
    masks, the positions of it and of every later step, ascending."""
    steps = len(trace.positions)
    if not steps:
        raise ValueError("trace has no steps")
    if n < 1:
        raise ValueError("draft length must be >= 1")
    ranks = []
    for start in range(0, steps, n + 1):
        later, masks = slice(start + 1, start + n + 1), np.sort(trace.positions[start:])
        rows = snapshot_rows(start, steps).start + np.searchsorted(masks, trace.positions[later])
        hits = trace.snap_tokens[rows] == trace.tokens[later, None]
        ranks.append(np.where(hits.any(axis=1), hits.argmax(axis=1), trace.topk))
    return np.concatenate(ranks)


def topk_match_reduction(trace: DecodeTrace, n: int, k: int) -> float:
    """Fraction of steps removable under idealized top-k draft acceptance.

    Returns saved / total over the whole trace, where a step is saved iff it
    is not the first of its window and its token appears among the top-k
    candidates recorded for its position when the window started.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > trace.topk:
        raise ValueError(f"k={k} exceeds the trace's recorded top-{trace.topk} candidates")
    return np.count_nonzero(_ranks(trace, n) < k) / len(trace.positions)


def upper_bound(n: int) -> float:
    """Best possible step reduction for draft length n: every window of n+1
    steps must spend at least one forward."""
    if n < 1:
        raise ValueError("draft length must be >= 1")
    return n / (n + 1)


def kary_tree_size(k: int, n: int) -> int:
    """Node count of a full k-ary verification tree of depth n: sum of k^i
    for i in 0..n.  Grows as Theta(k^n), which is why wide trees are an
    analysis device rather than a decode strategy."""
    if k < 1:
        raise ValueError("arity must be >= 1")
    if n < 0:
        raise ValueError("depth must be >= 0")
    return sum(k**i for i in range(n + 1))


# ---------------------------------------------------------------------------
# Table-shaped reporting
# ---------------------------------------------------------------------------


def format_grid(
    trace: DecodeTrace, draft_lengths: tuple[int, ...], topk_values: tuple[int, ...]
) -> str:
    """Fixed-width text table of topk_match_reduction on one trace: one row
    per draft length, one column per k, both ascending without repeats, plus
    the upper-bound column.  Percentages at one decimal."""
    if not draft_lengths or not topk_values:
        raise ValueError("need at least one draft length and one k")
    if not all(1 <= n <= MAX_DRAFT_LEN for n in draft_lengths):
        raise ValueError("draft lengths must be in [1, 2**8]")

    def pct(x: float) -> str:
        return f"{100.0 * x:.1f}%"

    ks = sorted(set(topk_values))
    headers = ["draft_len"] + [f"top-{k}" for k in ks] + ["upper_bound"]
    body = [
        [str(n)] + [pct(topk_match_reduction(trace, n, k)) for k in ks] + [pct(upper_bound(n))]
        for n in sorted(set(draft_lengths))
    ]
    widths = [
        max(len(headers[c]), *(len(line[c]) for line in body))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for line in body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)
