"""Masked-model forward contract and two deterministic desk-scale backends.

A masked model's forward takes a batch of sequence states and returns one
row reader per state; reading positions from a state's reader gives one
logit row of length ``vocab_size`` per position.  The decoders read only the
masked positions they need, when they know them: the verify walk reads each
node it visits once, for its current block's masks, and no other node, so a
backend that looks a state up only when it reads never has the others
built.  A batched backend does its batch work in ``forward`` and runs only
the output head per read.  Every backend here is a pure function of its
input: the same state and positions always yield bit-identical logits,
which is what makes the stepwise oracle and the speculative decoder exactly
comparable.

Backends:

* ``SyntheticModel`` derives each position's logits from a seeded integer
  hash of the non-mask tokens near that position, so placing a token changes
  the predictions of its neighbours.  This reproduces the dynamics real
  denoisers show (context improves predictions; decode order can shuffle)
  without any learned weights.  Its forward does no work; a reader looks
  its state up and hashes the rows it is asked for, so a state nobody
  reads costs nothing, not even its building.
* ``TableModel`` replays logits from an explicit fixture keyed by the exact
  token sequence, for hand-checkable unit tests.

Token ids run from 0 to vocab_size - 1.  The mask id should be chosen
outside that range (the conventional choice is ``mask_id == vocab_size``)
so that an argmax over a logit row can never propose the mask itself.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .jsonl import dumps, integer, number, read_lines
from .sequence import SequenceState


class FixtureMissError(Exception):
    """A table backend was queried with a state it has no rows for."""


class MaskedModel(ABC):
    """Forward interface every decoder in this package runs against.

    Implementations must be deterministic (the same state and positions,
    bit-identical logits), per-sequence independent (a reader's rows do not
    depend on the other states of its batch), position-exact (row i of a
    read of ``positions`` equals row ``positions[i]`` of a read of
    ``range(L)``, bit for bit), and immutable after construction so
    concurrent forward calls and reads are safe.
    """

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @abstractmethod
    def forward(
        self, states: Sequence[SequenceState]
    ) -> list[Callable[[Sequence[int]], np.ndarray]]:
        """One row reader per state of a non-empty batch, any Sequence of
        states, in input order.  reader(positions) is a fresh
        (len(positions), vocab_size) float64 logit matrix the caller owns;
        positions ascend without repeats inside [0, L), may be empty, and
        are checked by check_positions when read.  A backend may look a
        state up in the batch only when its reader reads, so a state whose
        reader is never called need never exist (see VerificationTree)."""


def check_positions(length: int, positions: Sequence[int]) -> np.ndarray:
    """positions as an intp array; ValueError unless they are a 1-d integer
    sequence that ascends without repeats inside [0, length)."""
    pos = np.asarray(positions)
    if pos.ndim != 1 or (pos.size and pos.dtype.kind not in "iu"):
        raise ValueError(f"positions {positions!r} are not a 1-d integer sequence")
    pos = pos.astype(np.intp, copy=False)
    if len(pos) and not (0 <= pos[0] and pos[-1] < length and (pos[1:] > pos[:-1]).all()):
        raise ValueError(f"positions {positions!r} do not ascend inside [0, {length})")
    return pos


def _batch(states: Sequence[SequenceState]) -> Sequence[SequenceState]:
    """states, unless the batch is empty."""
    if not states:
        raise ValueError("forward requires a non-empty batch")
    return states


def softmax_matrix(mat: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a float64 (positions, vocab) logit matrix,
    in place: mat is overwritten and returned, so pass a fresh read or gather."""
    mat -= mat.max(axis=1, keepdims=True)
    np.exp(mat, out=mat)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def _read_only(rows: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of rows, so no caller can change a store."""
    arr = np.array(rows, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _serve(rows: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """A fresh copy of the stored rows at positions."""
    return rows[check_positions(len(rows), positions)]


# ---------------------------------------------------------------------------
# Synthetic backend
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_C = 0xC2B2AE3D27D4EB4F
_CHUNK_CELLS = 2**14  # cells hashed per step, so temporaries stay small at any V or cw


def _mix64(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer in place over uint64 x (mod 2**64), shifting into t."""
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)
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
        if not 2 <= self.vocab_size <= 2**20:  # the mask id fits int64, V-wide rows fit memory
            raise ValueError("vocab_size must be in [2, 2**20]")
        if not (math.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError("sharpness must be finite and positive")
        if not 0 <= self.context_window <= 2**10:  # a forward loops over 2 * context_window offsets
            raise ValueError("context_window must be in [0, 2**10]")


class SyntheticModel(MaskedModel):
    """Deterministic hash-based mask predictor.

    The logits at position i are a pure function of (seed, i, the multiset
    of (offset, token) pairs of non-mask tokens within context_window of i).
    Masked neighbours carry no information, so predictions sharpen and can
    reorder as the sequence fills in, which is the behaviour speculative
    verification has to cope with.

    Exactly, with mix the splitmix64 finalizer, G = 0x9E3779B97F4A7C15,
    C = 0xC2B2AE3D27D4EB4F and integer arithmetic modulo 2**64: let acc be
    the sum of mix((t + 1) * G + d * C) over the offsets 0 < |d| <= cw whose
    position i + d lies in the sequence and holds a non-mask token t, and
    row = mix(mix((i + 1) * G + seed * G + 0x9E) ^ acc).  Column c then
    holds sharpness * (float(mix(row + (c + 1) * C) >> 11) * 2**-53), the
    two float products in that order.  A row's logits depend on its row
    seed alone, so any position set gives the same rows as the full read;
    and a reader hashes its own state alone, so a batch is batch-invariant
    by construction.
    """

    def __init__(self, config: SynthModelConfig):
        self._config = config
        self._seed_base = np.uint64((config.seed * _GOLDEN + 0x9E) & _MASK64)
        self._cols = np.arange(1, config.vocab_size + 1, dtype=np.uint64) * np.uint64(_PAIR_C)
        self._cols.setflags(write=False)
        offsets = [d for d in range(-config.context_window, config.context_window + 1) if d]
        self._offsets = np.array(offsets, dtype=np.intp)
        self._offset_keys = np.array([(d * _PAIR_C) & _MASK64 for d in offsets], dtype=np.uint64)

    @property
    def vocab_size(self) -> int:
        return self._config.vocab_size

    def forward(self, states: Sequence[SequenceState]) -> list[partial]:
        return [partial(self._logits, states, i) for i in range(len(_batch(states)))]

    def _logits(self, states: Sequence[SequenceState], i: int,
                positions: Sequence[int]) -> np.ndarray:
        """The (len(positions), V) logits of states[i], looked up only now,
        at positions, in a fresh array."""
        state = states[i]
        positions = check_positions(len(state.tokens), positions)
        # Commutative accumulation over in-window (offset, token) pairs.  The
        # strip holds the covering range, from the first to the last position,
        # with cw cells on each side; padding with the mask id makes
        # out-of-range neighbours vanish.
        acc = np.zeros(len(positions), dtype=np.uint64)
        cw = self._config.context_window
        if cw > 0 and len(positions):
            first, stop = int(positions[0]) - cw, int(positions[-1]) + 1 + cw
            lo, hi = max(first, 0), min(stop, len(state.tokens))
            tokens = np.full(stop - first, state.mask_id, dtype=np.int64)
            tokens[lo - first : hi - first] = state.tokens[lo:hi]
            nonmask = (tokens != state.mask_id).astype(np.uint64)
            key = (tokens.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
            step = max(1, _CHUNK_CELLS // (2 * cw))
            for a in range(0, len(positions), step):
                neigh = positions[a : a + step, None] - first + self._offsets  # strip indices
                terms = _mix64(key[neigh] + self._offset_keys, np.empty(neigh.shape, np.uint64))
                terms *= nonmask[neigh]
                terms.sum(axis=1, out=acc[a : a + step])

        seeds = (positions + 1).astype(np.uint64) * np.uint64(_GOLDEN) + self._seed_base
        scratch = np.empty_like(seeds)
        return self._hash_rows(_mix64(_mix64(seeds, scratch) ^ acc, scratch))

    def _hash_rows(self, seeds: np.ndarray) -> np.ndarray:
        """The (len(seeds), V) logits of the given row seeds, hashed a bounded
        number of cells at a time; the output rows hold the shifts until written."""
        step = max(1, _CHUNK_CELLS // self._config.vocab_size)
        logits = np.empty((len(seeds), self._config.vocab_size))
        cells = np.empty((min(step, len(seeds)), self._config.vocab_size), dtype=np.uint64)
        for a in range(0, len(seeds), step):
            x = np.add(seeds[a : a + step, None], self._cols, out=cells[: len(seeds) - a])
            _mix64(x, logits[a : a + step].view(np.uint64))
            x >>= np.uint64(11)
            logits[a : a + step] = x
        logits *= 2.0**-53
        logits *= self._config.sharpness  # after the 2**-53 scale: a fused scale can be subnormal
        return logits


# ---------------------------------------------------------------------------
# Table backend
# ---------------------------------------------------------------------------


class TableModel(MaskedModel):
    """Replays logits from an explicit (token sequence -> rows) table.

    The fingerprint is the exact token tuple; querying a state the table
    does not list raises FixtureMissError, which indicates a broken test
    fixture rather than a runtime condition.  Rows are stored read-only, one
    full (L, vocab) matrix per state; forward looks each state up, and a
    read copies out the asked rows.
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

    def forward(self, states: Sequence[SequenceState]) -> list[partial]:
        return [partial(_serve, self.rows_for(state.tokens)) for state in _batch(states)]


def dump_table_fixture(table: dict[tuple[int, ...], np.ndarray], path: str) -> None:
    """Write a fixture file: one JSON record per line, exact float round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, rows in table.items():
            logits = np.asarray(rows, dtype=np.float64).tolist()
            fh.write(dumps({"tokens": [int(t) for t in tokens], "logits": logits}) + "\n")


def _table_record(obj: dict) -> tuple[tuple[int, ...], np.ndarray]:
    tokens = tuple(integer(t, "token") for t in obj["tokens"])
    logits = [[number(x, "logit") for x in row] for row in obj["logits"]]
    return tokens, np.array(logits, dtype=np.float64)


def load_table_fixture(path: str) -> TableModel:
    with open(path, "r", encoding="utf-8") as fh:
        return TableModel(dict(read_lines(fh, "table fixture", _table_record)))


class RecordingModel(MaskedModel):
    """Wraps a model and records every (state -> rows) pair it serves; the
    inner model is always read for every row, so fixtures stay full-shape.

    Running a decode through a RecordingModel and dumping the recording
    produces a table fixture that replays that decode exactly.  Repeat
    states, within one batch or across calls, are served from the recording
    rather than recomputed, so the wrapper also works as a memo when several
    decodes share a model.
    """

    def __init__(self, inner: MaskedModel):
        self._inner = inner
        self.recorded: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return self._inner.vocab_size

    def forward(self, states: Sequence[SequenceState]) -> list[partial]:
        missing: dict[tuple[int, ...], SequenceState] = {}
        for state in _batch(states):  # each unrecorded state once, first seen first
            if state.tokens not in self.recorded:
                missing.setdefault(state.tokens, state)
        if missing:
            for tokens, read in zip(missing, self._inner.forward(list(missing.values()))):
                self.recorded[tokens] = _read_only(read(range(len(tokens))))
        return [partial(_serve, self.recorded[state.tokens]) for state in states]

    def dump(self, path: str) -> None:
        dump_table_fixture(self.recorded, path)
