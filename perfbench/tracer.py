"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each public layer function in the namespace its
caller looks it up in (``ssd.place_token``, not ``sequence.place_token``,
because ``ssd`` imported the name) with a wrapper that records a span and,
for some functions, counts taken from the arguments or the result.  The
model returned by ``cli.build_model`` gets a traced ``forward``.  ``restore``
puts every original back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute, span name)
PATCH_POINTS = (
    ("cli", "build_model", "cli.build_model"),
    ("stepwise", "softmax_matrix", "models.softmax_matrix"),
    ("ssd", "softmax_matrix", "models.softmax_matrix"),
    ("stepwise", "place_token", "sequence.place_token"),
    ("ssd", "place_token", "sequence.place_token"),
    ("stepwise", "current_block", "sequence.current_block"),
    ("ssd", "current_block", "sequence.current_block"),
    ("stepwise", "schedule_for", "sequence.schedule_for"),
    ("ssd", "schedule_for", "sequence.schedule_for"),
    ("stepwise", "choose_step", "stepwise.choose_step"),
    ("ssd", "choose_step", "stepwise.choose_step"),
    ("stepwise", "candidate_snapshot", "stepwise.candidate_snapshot"),
    ("stepwise", "decode_remaining", "stepwise.decode_remaining"),
    ("ssd", "decode_remaining", "stepwise.decode_remaining"),
    ("ssd", "drafts_from_logits", "ssd.drafts_from_logits"),
    ("ssd", "select_candidates", "ssd.select_candidates"),
    ("ssd", "build_tree", "ssd.build_tree"),
    ("ssd", "batch_verify", "ssd.batch_verify"),
    ("reporting", "render_report", "reporting.render_report"),
)

REQUEST = "request"
MODULES = ("models", "sequence", "stepwise", "ssd", "reporting", "cli")


class Tracer:
    """Records spans ``(id, parent, request, name, start, end)`` and named
    counters per request.  Single-threaded: the open spans form a stack."""

    def __init__(self, selfspec_modules: dict):
        self._modules = selfspec_modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.request = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # request -> [(batch size, seconds)] of every forward call
        self.forwards: dict[int, list[tuple[int, float]]] = defaultdict(list)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.request, name, start, end))

    def add(self, key: str, value: int = 1) -> None:
        self.counts[self.request][key] += value

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at each boundary --------------------------------------

    def _count_build_model(self, args, kwargs, model):
        forward = model.forward

        def traced_forward(batch):
            out = self.span("models.forward", forward, batch)
            *_, start, end = self.spans[-1]
            self.forwards[self.request].append((len(batch), end - start))
            return out

        model.forward = traced_forward

    def _count_softmax(self, args, kwargs, result):
        self.add("softmax_rows", result.shape[0])

    def _count_snapshot(self, args, kwargs, snapshot):
        self.add("snapshot_entries", sum(len(c) for c in snapshot.values()))

    def _count_remaining(self, args, kwargs, result):
        self.add("decode_remaining_calls")
        self.add("decode_remaining_steps", len(result[1]))

    def _count_drafts(self, args, kwargs, drafts):
        self.add("draft_positions", len(drafts))

    def _count_verify(self, args, kwargs, result):
        tree = args[1] if len(args) > 1 else kwargs["tree"]
        leaf = tree.nodes[result.leaf_index]
        chain_depth = sum(1 for node in tree.nodes if not node.is_branch) - 1
        self.add("tree_nodes", len(tree))
        self.add("accepted", len(result.accepted))
        self.add("full_accept_rounds", int(not leaf.is_branch and leaf.depth == chain_depth))
        self.add("branch_leaf_rounds", int(leaf.is_branch))

    def _count_render(self, args, kwargs, text):
        self.add("report_bytes", len(text.encode("utf-8")))

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        counters = {
            "cli.build_model": self._count_build_model,
            "models.softmax_matrix": self._count_softmax,
            "stepwise.candidate_snapshot": self._count_snapshot,
            "stepwise.decode_remaining": self._count_remaining,
            "ssd.drafts_from_logits": self._count_drafts,
            "ssd.batch_verify": self._count_verify,
            "reporting.render_report": self._count_render,
        }
        try:
            for module_name, attr, span_name in PATCH_POINTS:
                module = self._modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original, counters.get(span_name)))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis --------------------------------------------------------------

    def span_totals(self, group_of: dict[int, str]) -> dict[str, dict[str, list[float]]]:
        """group -> span name -> [calls, inclusive seconds, self seconds],
        where ``group_of`` maps each request to its group."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        for sid, _parent, req, name, start, end in self.spans:
            entry = totals[group_of[req]][name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[sid]
        return totals

    def write(self, path, requests: dict[int, dict]) -> None:
        """Spans and counters as gzipped JSON lines: one line per request,
        then one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for req, info in sorted(requests.items()):
                counts = dict(self.counts.get(req, {}))
                fh.write(json.dumps({"request": req, **info, "counts": counts}) + "\n")
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, req, name, start, end]) + "\n")
