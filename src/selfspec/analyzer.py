"""Acceptance-rate analysis over recorded stepwise traces.

Given a stepwise trace that recorded top-K candidates at every step, estimate
the fraction of forward passes a drafting decoder could remove if every token
appearing among the draft's top-k candidates were accepted.  The trace is cut
into fixed windows of n+1 steps (the last may be shorter); the window-start
snapshot plays the role of the draft, and a step is matched when its token
appears among the top-k candidates recorded for its position at window start.
The first step of each window always costs a forward, so only matched steps
past the first count as saved.

This is an upper-bound estimate by construction: no re-drafting inside a
window is simulated, and matching ignores whether earlier acceptances would
have changed the model's predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ssd import MAX_DRAFT_LEN
from .stepwise import DecodeTrace, StepRecord


@dataclass(frozen=True)
class RoundWindow:
    """A consecutive run of n+1 stepwise steps (the last window of a trace
    may be shorter) plus the top-K snapshot taken at the window's start."""

    start: int
    steps: tuple[StepRecord, ...]

    def __len__(self) -> int:
        return len(self.steps)


def trace_windows(trace: DecodeTrace, n: int) -> tuple[RoundWindow, ...]:
    """Tile the trace with windows of n+1 steps, in order."""
    if n < 1:
        raise ValueError("draft length must be >= 1")
    records = trace.records
    return tuple(
        RoundWindow(start=start, steps=records[start : start + n + 1])
        for start in range(0, len(records), n + 1)
    )


def topk_match_reduction(trace: DecodeTrace, n: int, k: int) -> float:
    """Fraction of steps removable under idealized top-k draft acceptance.

    Returns saved / total over the whole trace, where a step is saved iff it
    is not the first of its window and its token appears among the top-k
    candidates recorded for its position when the window started.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > trace.topk:
        raise ValueError(
            f"k={k} exceeds the trace's recorded top-{trace.topk} candidates"
        )
    if not trace.records:
        raise ValueError("trace has no steps")
    saved = 0
    for window in trace_windows(trace, n):
        snapshot = window.steps[0].topk
        if snapshot is None:
            raise ValueError(
                f"step at trace index {window.start} lacks a candidate snapshot"
            )
        for step in window.steps[1:]:
            candidates = snapshot.get(step.position)
            if candidates is None:
                continue  # not masked at window start; cannot have been drafted
            if any(tok == step.token for tok, _ in candidates[:k]):
                saved += 1
    return saved / len(trace.records)


def upper_bound(n: int) -> float:
    """Best possible step reduction for draft length n: every window of n+1
    steps must spend at least one forward."""
    if n < 1:
        raise ValueError("draft length must be >= 1")
    return n / (n + 1)


def exact_reduction_at_full_match(total_steps: int, n: int) -> Fraction:
    """Reduction when every non-initial step of every window matches: one
    mandatory forward per window, so (total - ceil(total/(n+1))) / total.

    Equals n/(n+1) exactly iff (n+1) divides total_steps.
    """
    if n < 1:
        raise ValueError("draft length must be >= 1")
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    windows = -(-total_steps // (n + 1))
    return Fraction(total_steps - windows, total_steps)


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


@dataclass(frozen=True)
class GridRow:
    draft_len: int
    reductions: tuple[float, ...]  # one per requested k, ascending k order
    upper: float


@dataclass(frozen=True)
class ReductionGrid:
    topk_values: tuple[int, ...]
    rows: tuple[GridRow, ...]


def reduction_grid(
    trace: DecodeTrace,
    draft_lengths: tuple[int, ...],
    topk_values: tuple[int, ...],
) -> ReductionGrid:
    """Measure reductions for every (draft length, k) pair on one trace."""
    if not draft_lengths or not topk_values:
        raise ValueError("need at least one draft length and one k")
    if not all(1 <= n <= MAX_DRAFT_LEN for n in draft_lengths):
        raise ValueError("draft lengths must be in [1, 2**8]")
    ks = tuple(sorted(set(topk_values)))
    rows = []
    for n in sorted(set(draft_lengths)):
        reductions = tuple(topk_match_reduction(trace, n, k) for k in ks)
        rows.append(GridRow(draft_len=n, reductions=reductions, upper=upper_bound(n)))
    return ReductionGrid(topk_values=ks, rows=tuple(rows))


def format_grid(grid: ReductionGrid) -> str:
    """Fixed-width text table: one row per draft length, one column per k,
    plus the upper-bound column.  Percentages at one decimal."""

    def pct(x: float) -> str:
        return f"{100.0 * x:.1f}%"

    headers = ["draft_len"] + [f"top-{k}" for k in grid.topk_values] + ["upper_bound"]
    body = [
        [str(row.draft_len)] + [pct(r) for r in row.reductions] + [pct(row.upper)]
        for row in grid.rows
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
