"""Seeded request generators for the decode benchmark.

Each workload turns a seed into a fixed list of ``RunConfig`` requests; the
same (workload, seed) always gives the same list.  The program under test only
ever sees the generated configs.  ``strategy`` is left at its default here:
the benchmark runs every request once per strategy, changing nothing else.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

STRATEGIES = ("stepwise", "greedy", "mix_order")

# Seed 0 is the development seed.  HELD_OUT_SEED is never used while a change
# is written; a gain claimed on other seeds is confirmed on it afterwards.
DEV_SEED = 0
HELD_OUT_SEED = 7919


def load_selfspec() -> None:
    """Put the checkout's ``src`` first on the import path and import the
    package from there, never from an installed copy."""
    package = SRC / "selfspec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"selfspec sources not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import selfspec

    if Path(selfspec.__file__).resolve().parent != package:
        raise SystemExit(f"imported selfspec from {selfspec.__file__}, not {package}")


def _balanced(rng: random.Random, values, n: int) -> list:
    """n draws in which every value appears equally often (up to one)."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _spread(rng: random.Random, lo: int, hi: int, n: int, log: bool = False) -> list[int]:
    """n integers from [lo, hi], one from each of n equal strata (equal in
    log scale when ``log``), shuffled."""
    strata = [(i + rng.random()) / n for i in range(n)]
    if log:
        out = [min(hi, int(lo * ((hi + 1) / lo) ** u)) for u in strata]
    else:
        out = [lo + int(u * (hi - lo + 1)) for u in strata]
    rng.shuffle(out)
    return out


def _prompt(rng: random.Random, length: int, vocab: int) -> tuple[int, ...]:
    return tuple(rng.randrange(vocab) for _ in range(length))


def _long_seq(rng: random.Random):
    from selfspec.reporting import RunConfig

    return [
        RunConfig(
            seed=rng.randrange(2**31),
            vocab_size=64,
            prompt=_prompt(rng, 16, 64),
            gen_len=512,
            block_len=32,
            draft_len=4,
            topk=5,
        )
        for _ in range(5)
    ]


def _wide_vocab(rng: random.Random):
    from selfspec.reporting import RunConfig

    return [
        RunConfig(
            seed=rng.randrange(2**31),
            vocab_size=4096,
            prompt=_prompt(rng, 4, 4096),
            gen_len=64,
            block_len=8,
            draft_len=3,
            topk=5,
        )
        for _ in range(6)
    ]


def _mixed_short(rng: random.Random):
    from selfspec.reporting import RunConfig

    # The shapes are drawn once, from a fixed stream, and are the same for
    # every seed; the seed draws model seeds, prompt tokens and the order.
    # A per-seed draw of the shapes changes the cost mix by more than any
    # bound could tolerate (tokens/s moved by half between seeds).
    shapes = random.Random("mixed_short/shapes")
    n = 28
    vocab = _balanced(shapes, (32, 64, 256), n)
    block = _balanced(shapes, (2, 4, 8, 16), n)
    draft = _balanced(shapes, (2, 3, 4, 5), n)
    sharp = _balanced(shapes, (2.0, 6.0, 12.0), n)
    window = _balanced(shapes, (0, 2, 4), n)
    topk = _balanced(shapes, (0, 1, 5, 8), n)
    # log-uniform lengths: many short requests, where fixed costs weigh most
    gen = _spread(shapes, 32, 256, n, log=True)
    prompt_len = _spread(shapes, 0, 32, n)
    requests = [
        RunConfig(
            seed=rng.randrange(2**31),
            vocab_size=vocab[i],
            sharpness=sharp[i],
            context_window=window[i],
            prompt=_prompt(rng, prompt_len[i], vocab[i]),
            gen_len=gen[i],
            block_len=block[i],
            draft_len=draft[i],
            topk=topk[i],
        )
        for i in range(n)
    ]
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "long_seq": _long_seq,
    "wide_vocab": _wide_vocab,
    "mixed_short": _mixed_short,
}


def make_requests(workload: str, seed: int) -> list:
    """The request list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def warmup_request(requests: list):
    """The untimed warm-up: the request with the widest block (the shortest
    among those), cut to that single block, so drafting and verification run.

    Every seed of a workload has the same set of shapes, so the warm-up does
    the same work whatever the seed, and setup time does not move with it."""
    chosen = min(requests, key=lambda c: (-c.block_len, c.gen_len, c.vocab_size,
                                          c.draft_len, len(c.prompt), c.topk))
    return replace(chosen, gen_len=chosen.block_len)
