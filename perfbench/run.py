"""Decode benchmark: stepwise, greedy and mix_order on seeded request streams.

    python3 perfbench/run.py --workload long_seq --seed 0 --seconds 30 --trace 0

One process, one client, requests in sequence (a closed loop with no arrival
process: offline decoding).  Every request is decoded once per strategy, the
way ``selfspec decode`` does it: ``cli.run_decode`` and then
``reporting.render_report``; only ``strategy`` differs between the three.

``--trace 0`` makes whole passes over the request list while another pass
still fits in ``--seconds`` (at least one) and prints the end-to-end metrics.
Forward and row counts come from the first pass, so they repeat exactly for
a seed.

``--trace 1`` makes one pass; each decode runs twice, untraced and with every
layer function wrapped (see tracer.py), and the two must agree byte for byte.
It prints the per-layer metrics and writes the spans to perfbench/out/.

Every decode is checked: greedy and mix_order tokens must equal the stepwise
tokens, the report must parse back to itself, and forward counts must add
up.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import workloads
from workloads import STRATEGIES

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 11
SSD = STRATEGIES[1:]


class Mismatch(Exception):
    """A traced decode disagreed with its untraced twin or with the model's
    own count of forwards."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up exactly as a measured run would, print the clock, exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Program:
    """The selfspec modules the benchmark calls into, imported from src/."""

    def __init__(self):
        from selfspec import cli, reporting, sequence, ssd, stepwise

        self.cli = cli
        self.reporting = reporting
        self.modules = {
            "cli": cli, "reporting": reporting, "sequence": sequence,
            "ssd": ssd, "stepwise": stepwise,
        }

    def decode(self, config):
        report, _trace = self.cli.run_decode(config)
        return report, self.reporting.render_report(report)


def setup(args) -> tuple[Program, list]:
    """Imports, workload generation and one untimed warm-up decode per strategy."""
    program = Program()
    requests = workloads.make_requests(args.workload, args.seed)
    warm = workloads.warmup_request(requests)
    for strategy in STRATEGIES:
        program.decode(replace(warm, strategy=strategy))
    return program, requests


def _clock() -> float:
    """Seconds on the system-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sample_setup(args, count: int) -> list[float]:
    """Times of ``count`` fresh processes from starting the process until its
    setup has finished.  Each child reads the shared monotonic clock when
    setup ends, so neither its teardown nor the wait for it is counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        start = _clock()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def forward_rows(report) -> int:
    """Rows the decode must have sent through the model: one per stepwise or
    fallback step, one for the initial draft, and each round's tree size."""
    if report.config.strategy == "stepwise":
        return report.actual_forwards
    return 1 + sum(r.batch_size for r in report.rounds) + report.fallback_steps


def check_triple(program: Program, config, results: dict) -> list[str]:
    """Problems with one request's three decodes; empty when all is well."""
    problems = [f"{s}: {r}" for s, r in results.items() if isinstance(r, str)]
    if problems:
        return problems
    gen = slice(len(config.prompt), len(config.prompt) + config.gen_len)
    base, _ = results["stepwise"]
    if base.tokens[: len(config.prompt)] != config.prompt:
        problems.append("stepwise: prompt was rewritten")
    if len(base.tokens) != gen.stop or config.vocab_size in base.tokens[gen]:
        problems.append("stepwise: generation region not fully decoded")
    if base.actual_forwards != config.gen_len:
        problems.append(f"stepwise: {base.actual_forwards} forwards for {config.gen_len} tokens")
    for strategy, (report, text) in results.items():
        if strategy != "stepwise" and report.tokens != base.tokens:
            problems.append(f"{strategy}: tokens differ from stepwise")
        if strategy != "stepwise" and report.actual_forwards != (
            1 + len(report.rounds) + report.fallback_steps
        ):
            problems.append(f"{strategy}: forward count does not add up")
        try:
            parsed = program.reporting.report_from_lines(text.splitlines())
        except (ValueError, KeyError) as exc:
            parsed = exc
        if parsed != report:
            problems.append(f"{strategy}: rendered report does not parse back ({parsed!r:.80})")
    return problems


def run_triple(program: Program, config, timer) -> dict:
    """Decode one request with every strategy; a decode that raises is
    recorded as its error message."""
    results = {}
    for strategy in STRATEGIES:
        try:
            results[strategy] = timer(strategy, replace(config, strategy=strategy))
        except Exception as exc:  # any failure of the program is a failed request
            where = traceback.extract_tb(exc.__traceback__)[-1]
            results[strategy] = (f"{type(exc).__name__}: {exc} "
                                 f"(at {Path(where.filename).name}:{where.lineno})")
    return results


def report_failure(index: int, config, problems: list[str]) -> None:
    print(f"FAILED request {index}: {json.dumps(config.to_dict())}", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(program: Program, requests: list, seconds: float):
    wall = {s: {} for s in STRATEGIES}  # request -> wall time (s) of each pass
    first_pass = {s: [0, 0, 0] for s in STRATEGIES}  # gen tokens, forwards, rows
    attempted = failed = 0

    def timed(strategy, config):
        start = perf_counter()
        out = program.decode(config)
        wall[strategy].setdefault(config, []).append(perf_counter() - start)
        return out

    gc.collect()
    loop_start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for index, config in enumerate(requests):
            results = run_triple(program, config, timed)
            problems = check_triple(program, config, results)
            attempted += 1
            if problems:
                failed += 1
                report_failure(index, config, problems)
            elif passes == 0:
                for strategy, (report, _text) in results.items():
                    acc = first_pass[strategy]
                    acc[0] += config.gen_len
                    acc[1] += report.actual_forwards
                    acc[2] += forward_rows(report)
        passes += 1
        now = perf_counter()
        # whole passes only, so every request is timed equally often
        if now - loop_start + (now - pass_start) > seconds:
            break

    metrics = {}
    for s in STRATEGIES:
        tokens = sum(config.gen_len * len(times) for config, times in wall[s].items())
        seconds_spent = sum(sum(times) for times in wall[s].values())
        metrics[f"{s}_tok_s"] = (_ratio(tokens, seconds_spent), "tok/s")
    for s in SSD:
        gen, fwd, _rows = first_pass[s]
        metrics[f"{s}_fwd_per_tok"] = (_ratio(fwd, gen), "fwd/tok")
    for s in SSD:
        gen, _fwd, rows = first_pass[s]
        metrics[f"{s}_rows_per_tok"] = (_ratio(rows, gen), "rows/tok")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    # Printed for reading, not gated: a median over a few dozen requests moves
    # with the host's bursts by up to the largest bound allowed (METRICS.md).
    notes = [f"{passes} pass(es) over {len(requests)} requests in {now - loop_start:.1f} s"]
    for s in STRATEGIES:
        per_request = [1000.0 * statistics.mean(t) / c.gen_len for c, t in wall[s].items()]
        notes.append(f"{s}_ms_per_tok_p50 {_median(per_request):.6g} ms  (n={len(per_request)} "
                     f"requests, each the mean of its passes; not gated)")
    return metrics, notes, attempted, failed


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(program: Program, requests: list, out_path: Path):
    from tracer import MODULES, REQUEST, Tracer

    tracer = Tracer(program.modules)
    untraced_wall = {s: 0.0 for s in STRATEGIES}
    traced_wall = {s: 0.0 for s in STRATEGIES}
    info: dict[int, dict] = {}
    attempted = failed = 0

    def untraced(strategy, config):
        start = perf_counter()
        out = program.decode(config)
        untraced_wall[strategy] += perf_counter() - start
        return out

    def traced(strategy, config):
        tracer.request = len(info)
        info[tracer.request] = {"index": index, "strategy": strategy}
        tracer.install()
        try:
            start = perf_counter()
            out = tracer.span(REQUEST, program.decode, config)
            traced_wall[strategy] += perf_counter() - start
        finally:
            tracer.restore()
        return out

    def both(strategy, config):
        # alternate which twin runs first, so neither always finds caches warm
        if index % 2:
            (report, text), plain = traced(strategy, config), untraced(strategy, config)
        else:
            plain, (report, text) = untraced(strategy, config), traced(strategy, config)
        if text != plain[1]:
            raise Mismatch("traced report differs from the untraced report")
        forwards = tracer.forwards[tracer.request]
        if len(forwards) != report.actual_forwards:
            raise Mismatch(
                f"model served {len(forwards)} forwards, report says {report.actual_forwards}")
        if sum(b for b, _ in forwards) != forward_rows(report):
            raise Mismatch(
                f"model served {sum(b for b, _ in forwards)} rows, "
                f"report implies {forward_rows(report)}")
        return plain

    gc.collect()
    for index, config in enumerate(requests):
        results = run_triple(program, config, both)
        problems = check_triple(program, config, results)
        attempted += 1
        if problems:
            failed += 1
            report_failure(index, config, problems)

    strategy_of = {r: meta["strategy"] for r, meta in info.items()}
    totals = tracer.span_totals(strategy_of)
    metrics = {}
    self_table = {}
    for s in STRATEGIES:
        rids = [r for r, strategy in strategy_of.items() if strategy == s]
        spans = totals.get(s, {})
        counts: dict[str, float] = {}
        for r in rids:
            for key, value in tracer.counts[r].items():
                counts[key] = counts.get(key, 0) + value
        forwards = [f for r in rids for f in tracer.forwards[r]]

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def incl(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return spans.get(name, [0, 0.0, 0.0])[2]

        def put(name, value, unit):
            metrics[f"{name}.{s}"] = (value, unit)

        rows = sum(b for b, _ in forwards)
        b1 = [t for b, t in forwards if b == 1]
        put("models.forward_calls", calls("models.forward"), "count")
        put("models.forward_rows", rows, "count")
        put("models.forward_s", incl("models.forward"), "s")
        put("models.softmax_rows", counts.get("softmax_rows", 0), "count")
        put("models.softmax_s", incl("models.softmax_matrix"), "s")
        put("models.forward_ms_b1", 1000 * _median(b1), "ms")
        put("models.forward_ms_per_row", _ratio(1000 * incl("models.forward"), rows), "ms")
        if s in SSD:
            widest = max((b for b, _ in forwards), default=0)
            wide = [t for b, t in forwards if b == widest]
            put("models.batch_cost_ratio", _ratio(_median(wide), _median(b1)), "ratio")
            rounds = calls("ssd.batch_verify")
            accepted = counts.get("accepted", 0)
            put("ssd.draft_calls", calls("ssd.drafts_from_logits"), "count")
            put("ssd.draft_positions", counts.get("draft_positions", 0), "count")
            put("ssd.draft_s", incl("ssd.drafts_from_logits"), "s")
            put("ssd.select_s", incl("ssd.select_candidates"), "s")
            put("ssd.build_s", incl("ssd.build_tree"), "s")
            put("ssd.tree_nodes", counts.get("tree_nodes", 0), "count")
            put("ssd.verify_s", incl("ssd.batch_verify"), "s")
            put("ssd.walk_s", own("ssd.batch_verify"), "s")
            put("ssd.rounds", rounds, "count")
            put("ssd.accepted_per_round", _ratio(accepted, rounds), "tok/round")
            put("ssd.accept_per_row", _ratio(accepted, counts.get("tree_nodes", 0)), "tok/row")
            put("ssd.full_accept_share", _ratio(counts.get("full_accept_rounds", 0), rounds),
                "ratio")
            if s == "mix_order":
                put("ssd.branch_leaf_rounds", counts.get("branch_leaf_rounds", 0), "count")
            put("ssd.fallback_requests",
                sum(1 for r in rids if tracer.counts[r].get("decode_remaining_calls")), "count")
            put("stepwise.fallback_steps", counts.get("decode_remaining_steps", 0), "count")
        put("stepwise.choose_calls", calls("stepwise.choose_step"), "count")
        put("stepwise.choose_s", incl("stepwise.choose_step"), "s")
        if s == "stepwise":
            put("stepwise.snapshot_entries", counts.get("snapshot_entries", 0), "count")
            put("stepwise.snapshot_s", incl("stepwise.candidate_snapshot"), "s")
        put("sequence.place_calls", calls("sequence.place_token"), "count")
        put("sequence.place_s", incl("sequence.place_token"), "s")
        put("sequence.current_block_calls", calls("sequence.current_block"), "count")
        put("sequence.current_block_s", incl("sequence.current_block"), "s")
        put("sequence.schedule_s", incl("sequence.schedule_for"), "s")
        put("reporting.render_s", incl("reporting.render_report"), "s")
        put("reporting.report_bytes", counts.get("report_bytes", 0), "bytes")
        put("cli.build_model_s", incl("cli.build_model"), "s")
        for module in MODULES:
            self_table.setdefault(module, {})
            if module == "ssd" and s not in SSD:
                continue
            self_s = sum(v[2] for name, v in spans.items() if name.split(".")[0] == module)
            put(f"{module}.self_s", self_s, "s")
            self_table[module][s] = self_s
        self_table.setdefault("unattributed", {})[s] = own(REQUEST)
        self_table.setdefault("decode wall", {})[s] = incl(REQUEST)
        put("trace.overhead", _ratio(traced_wall[s], untraced_wall[s]), "ratio")
        put("trace.unattributed_s", own(REQUEST), "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(out_path, info)
    return metrics, self_table, attempted, failed


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.load_selfspec()
    if args.setup_probe:
        setup(args)
        print(repr(_clock()))
        return 0
    # Half the setup samples now and half after the timed loop, so that one
    # burst of load on the host does not decide their median.
    setup_samples = [] if args.trace else sample_setup(args, SETUP_SAMPLES // 2)
    program, requests = setup(args)

    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        metrics, self_table, attempted, failed = run_traced(program, requests, out_path)
        print(f"self time per module (s), {args.workload} seed {args.seed}, "
              f"{len(requests)} requests:")
        print(f"  {'module':<14}" + "".join(f"{s:>12}" for s in STRATEGIES))
        for module, row in self_table.items():
            print(f"  {module:<14}" + "".join(
                f"{row[s]:>12.4f}" if s in row else f"{'-':>12}" for s in STRATEGIES))
        notes = [f"spans written to {out_path.relative_to(workloads.ROOT)}"]
    else:
        metrics, notes, attempted, failed = run_untraced(program, requests, args.seconds)
        setup_samples += sample_setup(args, SETUP_SAMPLES - len(setup_samples))
        metrics = {"setup_s": (statistics.median(setup_samples), "s"), **metrics}

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("\n".join(notes))
    print(f"requests attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
