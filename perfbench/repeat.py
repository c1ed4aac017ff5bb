"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload long_seq --seeds 1-10 --out perfbench/out/long_seq.json

Each metric's values, one per seed in order, are kept in the output file.

Runs ``run.py`` in sequence, one process at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median.
The spread of each end-to-end metric is checked against the bound in
BENCHMARK.json: ``bound/3`` is the steadiness target.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    names = list(runs[0]["metrics"])
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--out", help="write the runs and the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = summarise(runs, bounds)
    steady = True
    for name, s in summary.items():
        flag = ""
        if s["bound"] is not None:
            steady &= s["spread"] < s["bound"] / 3
            flag = ("below bound/3" if s["spread"] < s["bound"] / 3 else
                    "below bound" if s["spread"] < s["bound"] else "OVER BOUND")
        print(f"{name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}")
    if args.out:
        outcome = [{k: run[k] for k in ("seed", "correct", "attempted", "failed")}
                   for run in runs]
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": outcome,
             "metrics": summary}, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
