"""Masked-model forward contract and two deterministic desk-scale backends.

A masked model maps a batch of sequence states to per-position logit rows of
length ``vocab_size``.  Every backend here is a pure function of its input:
the same batch always yields bit-identical logits, which is what makes the
stepwise oracle and the speculative decoder exactly comparable.

Backends:

* ``SyntheticModel`` derives each position's logits from a seeded integer
  hash of the non-mask tokens near that position, so placing a token changes
  the predictions of its neighbours.  This reproduces the dynamics real
  denoisers show (context improves predictions; decode order can shuffle)
  without any learned weights.
* ``TableModel`` replays logits from an explicit fixture keyed by the exact
  token sequence, for hand-checkable unit tests.

Token ids run from 0 to vocab_size - 1.  The mask id should be chosen
outside that range (the conventional choice is ``mask_id == vocab_size``)
so that an argmax over a logit row can never propose the mask itself.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .sequence import SequenceState


class FixtureMissError(Exception):
    """A table backend was queried with a state it has no rows for."""


class MaskedModel(ABC):
    """Forward interface every decoder in this package runs against.

    Implementations must be deterministic (identical batch, bit-identical
    logits), per-sequence independent (a batch equals the concatenation of
    singleton batches), and immutable after construction so concurrent
    forward calls are safe.
    """

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @abstractmethod
    def forward(self, batch: list[SequenceState]) -> tuple[np.ndarray, ...]:
        """One (sequence length, vocab_size) float64 logit matrix per state,
        in input order."""


def softmax_matrix(mat: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a (positions, vocab) logit matrix."""
    shifted = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _read_only(rows: np.ndarray) -> np.ndarray:
    """A float64 copy of rows that can be handed out without copying again."""
    arr = np.array(rows, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Synthetic backend
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_C = 0xC2B2AE3D27D4EB4F


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays (wraps modulo 2**64)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class SynthModelConfig:
    """Parameters of the synthetic backend.

    sharpness scales the logit spread and therefore how peaked the softmax
    confidences are; context_window is how far (in positions, each side) a
    placed token influences its neighbours' logits.  context_window=0 gives
    a context-free model whose predictions never change during decoding.
    """

    seed: int
    vocab_size: int
    sharpness: float = 6.0
    context_window: int = 2

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not (math.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError("sharpness must be finite and positive")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")


class SyntheticModel(MaskedModel):
    """Deterministic hash-based mask predictor.

    The logits at position i are a pure function of (seed, i, the multiset
    of (offset, token) pairs of non-mask tokens within context_window of i).
    Masked neighbours carry no information, so predictions sharpen and can
    reorder as the sequence fills in, which is the behaviour speculative
    verification has to cope with.
    """

    def __init__(self, config: SynthModelConfig):
        self._config = config
        self._seed_base = np.uint64((config.seed * _GOLDEN + 0x9E) & _MASK64)

    @property
    def config(self) -> SynthModelConfig:
        return self._config

    @property
    def vocab_size(self) -> int:
        return self._config.vocab_size

    def forward(self, batch: list[SequenceState]) -> tuple[np.ndarray, ...]:
        if not batch:
            raise ValueError("forward requires a non-empty batch")
        return tuple(self._sequence_logits(s) for s in batch)

    def _sequence_logits(self, state: SequenceState) -> np.ndarray:
        cfg = self._config
        n = len(state.tokens)
        toks = np.asarray(state.tokens, dtype=np.int64)

        # Commutative accumulation over in-window (offset, token) pairs:
        # padding with the mask id makes out-of-range neighbours vanish.
        acc = np.zeros(n, dtype=np.uint64)
        cw = cfg.context_window
        if cw > 0:
            padded = np.full(n + 2 * cw, state.mask_id, dtype=np.int64)
            padded[cw : cw + n] = toks
            for delta in range(-cw, cw + 1):
                if delta == 0:
                    continue
                neigh = padded[cw + delta : cw + delta + n]
                nonmask = neigh != state.mask_id
                delta_term = np.uint64((delta * _PAIR_C) & _MASK64)
                pair = _mix64((neigh.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN) + delta_term)
                acc += np.where(nonmask, pair, np.uint64(0))

        pos = np.arange(1, n + 1, dtype=np.uint64)
        row_seed = _mix64(_mix64(pos * np.uint64(_GOLDEN) + self._seed_base) ^ acc)

        cols = np.arange(1, cfg.vocab_size + 1, dtype=np.uint64) * np.uint64(_PAIR_C)
        cells = _mix64(row_seed[:, None] + cols[None, :])
        uniform = (cells >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        return cfg.sharpness * uniform


# ---------------------------------------------------------------------------
# Table backend
# ---------------------------------------------------------------------------


class TableModel(MaskedModel):
    """Replays logits from an explicit (token sequence -> rows) table.

    The fingerprint is the exact token tuple; querying a state the table
    does not list raises FixtureMissError, which indicates a broken test
    fixture rather than a runtime condition.  Rows are stored read-only and
    served without copying.
    """

    def __init__(self, table: dict[tuple[int, ...], np.ndarray]):
        if not table:
            raise ValueError("table fixture is empty")
        self._table: dict[tuple[int, ...], np.ndarray] = {}
        vocab = None
        for tokens, rows in table.items():
            arr = _read_only(rows)
            if arr.ndim != 2 or arr.shape[0] != len(tokens):
                raise ValueError(
                    f"fixture rows for {tokens} must be (len(tokens), vocab)"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"fixture rows for {tokens} contain non-finite values")
            if vocab is None:
                vocab = arr.shape[1]
            elif arr.shape[1] != vocab:
                raise ValueError("inconsistent vocab size across fixture records")
            self._table[tuple(int(t) for t in tokens)] = arr
        self._vocab = int(vocab)

    @property
    def vocab_size(self) -> int:
        return self._vocab

    def __len__(self) -> int:
        return len(self._table)

    def rows_for(self, tokens: tuple[int, ...]) -> np.ndarray:
        if tokens not in self._table:
            raise FixtureMissError(f"no fixture rows for state {tokens}")
        return self._table[tokens]

    def forward(self, batch: list[SequenceState]) -> tuple[np.ndarray, ...]:
        if not batch:
            raise ValueError("forward requires a non-empty batch")
        return tuple(self.rows_for(state.tokens) for state in batch)


def dump_table_fixture(table: dict[tuple[int, ...], np.ndarray], path: str) -> None:
    """Write a fixture file: one JSON record per line, exact float round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, rows in table.items():
            rec = {
                "tokens": [int(t) for t in tokens],
                "logits": np.asarray(rows, dtype=np.float64).tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def load_table_fixture(path: str) -> TableModel:
    table: dict[tuple[int, ...], np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            try:
                table[tuple(rec["tokens"])] = np.asarray(rec["logits"], dtype=np.float64)
            except KeyError as exc:
                raise ValueError(f"table fixture line lacks field {exc.args[0]!r}") from None
    return TableModel(table)


class RecordingModel(MaskedModel):
    """Wraps a model and records every (state -> rows) pair it serves.

    Running a decode through a RecordingModel and dumping the recording
    produces a table fixture that replays that decode exactly.  Repeat
    states are served from the recording rather than recomputed, so the
    wrapper also works as a memo when several decodes share a model;
    served rows are read-only arrays.
    """

    def __init__(self, inner: MaskedModel):
        self._inner = inner
        self.recorded: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return self._inner.vocab_size

    def forward(self, batch: list[SequenceState]) -> tuple[np.ndarray, ...]:
        missing = [s for s in batch if s.tokens not in self.recorded]
        if missing:
            for state, rows in zip(missing, self._inner.forward(missing)):
                self.recorded.setdefault(state.tokens, _read_only(rows))
        return tuple(self.recorded[s.tokens] for s in batch)

    def dump(self, path: str) -> None:
        dump_table_fixture(self.recorded, path)
