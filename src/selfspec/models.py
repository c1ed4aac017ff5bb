"""Masked-model forward contract and two deterministic desk-scale backends.

A masked model's forward takes a batch of sequence states and returns one
reader for the whole batch; reading a row's positions gives one logit row
of length ``vocab_size`` per position of that row's state.  ``forward``
is MaskedModel's own: the reader looks its row's state up only when it is
read and checks the positions, so a backend implements only ``rows``, the
logits of one state at checked positions.  The decoders read only the
masked positions they need, when they know them: the verify walk reads
each node it visits once, for its current block's masks, and no other
node, so a node nobody reads is never built.  Every backend here is a pure
function of its input: the same state and positions always yield
bit-identical logits, which is what makes the stepwise oracle and the
speculative decoder exactly comparable.

Backends:

* ``SyntheticModel`` derives each position's logits from a seeded integer
  hash of the non-mask tokens near that position, so placing a token changes
  the predictions of its neighbours.  This reproduces the dynamics real
  denoisers show (context improves predictions; decode order can shuffle)
  without any learned weights.  Its rows hash only the positions asked for.
* ``TableModel`` replays logits from an explicit fixture keyed by the exact
  token sequence, for hand-checkable unit tests.  A fixture needs only the
  states a decode reads.

Token ids run from 0 to vocab_size - 1.  The command line sets ``mask_id ==
vocab_size`` so no argmax proposes the mask.  A mask id in range is allowed:
every decoder raises place_token's ValueError at the step stepwise chooses it.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .jsonl import dumps, integer, number, read_lines
from .sequence import SequenceState


class FixtureMissError(Exception):
    """A table backend was queried with a state it has no rows for."""


class MaskedModel(ABC):
    """Forward interface every decoder in this package runs against.

    A backend implements vocab_size and rows.  Its rows must be
    deterministic (the same state and positions, bit-identical logits),
    finite, position-exact (row i of the rows at ``positions`` equals row
    ``positions[i]`` of the rows at ``range(L)``, bit for bit), and fixed
    in behaviour at construction; as they see one state, a batch is
    per-sequence independent by construction.  The only state rows may
    write is a read-only table that they replace whole, so concurrent
    forward calls and reads are safe.
    """

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @abstractmethod
    def rows(self, state: SequenceState, positions: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """The (len(positions), vocab_size) float64 logits of state at
        positions, an intp array that ascends without repeats inside [0, L):
        out[:len(positions)] written in place when out is given, else a
        fresh array."""

    def forward(self, states: Sequence[SequenceState]) -> Callable[..., np.ndarray]:
        """One reader for a non-empty batch, any Sequence of states, however
        long.  read(row, positions, out=None) looks states[row] up only then,
        so a state no read names need never exist (see VerificationTree),
        and returns its rows at positions, which may be empty and raise
        check_positions's ValueError unless they ascend inside [0, L)."""
        if not states:
            raise ValueError("forward requires a non-empty batch")

        def read(row: int, positions: Sequence[int], out: np.ndarray | None = None) -> np.ndarray:
            state = states[row]
            return self.rows(state, check_positions(len(state.tokens), positions), out)

        return read


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


def softmax_matrix(mat: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a float64 (positions, vocab) logit matrix,
    in place: mat is overwritten and returned, so pass a fresh read or gather."""
    mat -= mat.max(axis=1, keepdims=True)
    np.exp(mat, out=mat)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


# ---------------------------------------------------------------------------
# Synthetic backend
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIR_C = 0xC2B2AE3D27D4EB4F
_CHUNK_CELLS = 2**15  # cells hashed per step, so temporaries stay small at any V or cw
# the hash's uint64 operands, built once rather than by numpy on every operation
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))
_UG, _UM1, _UM2 = map(np.uint64, (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
# each thread's hash cells, so concurrent reads share none; they carry nothing
# from read to read, so one set per thread, not per model, stays warm across decodes
_SCRATCH = threading.local()


def _mix64(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer in place over uint64 x (mod 2**64), shifting into t."""
    x ^= np.right_shift(x, _U30, out=t)
    x *= _UM1
    x ^= np.right_shift(x, _U27, out=t)
    x *= _UM2
    x ^= np.right_shift(x, _U31, out=t)
    return x


def _cells(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) uint64 scratch from this thread's cache, grown when too
    small and kept, so reads allocate none after a thread's first."""
    flat = getattr(_SCRATCH, "cells", None)
    if flat is None or flat.size < rows * cols:
        flat = _SCRATCH.cells = np.empty(max(rows * cols, _CHUNK_CELLS), dtype=np.uint64)
    return flat[: rows * cols].reshape(rows, cols)


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
    seed alone, so any position set gives the same rows as the full read.
    Rows hash straight into their out rows, a bounded number of cells at a
    time, in a uint64 scratch that each thread keeps for its later reads;
    so concurrent reads share no scratch, and reads into a caller's buffer
    allocate no (rows, V) array.  Row seeds come from a read-only table
    that a read of a longer state replaces whole, and pair terms, when all
    (V, 2 * cw) fit one chunk and a strip's non-mask tokens lie in [0, V),
    from a read-only table built with the model.
    """

    def __init__(self, config: SynthModelConfig):
        self._config = config
        # (i + 1) * G + seed * G + 0x9E as one multiply-add of i
        self._seed_base = np.uint64((config.seed * _GOLDEN + 0x9E + _GOLDEN) & _MASK64)
        self._row_seeds = np.empty(0, dtype=np.uint64)  # grown by _seeds_for
        self._cols = np.arange(1, config.vocab_size + 1, dtype=np.uint64) * np.uint64(_PAIR_C)
        self._cols.setflags(write=False)
        offsets = [d for d in range(-config.context_window, config.context_window + 1) if d]
        self._offsets = np.array(offsets, dtype=np.intp)
        # a pair's key (t + 1) * G + d * C, as t * G plus the offset's G + d * C
        keys = [(_GOLDEN + d * _PAIR_C) & _MASK64 for d in offsets]
        self._offset_keys = np.array(keys, dtype=np.uint64)
        # each in-range token's pair terms mix(key), row t at t * 2cw of a flat
        # table, when they fit one chunk's cells
        self._pairs, self._pair_cols = None, np.arange(len(offsets), dtype=np.intp)
        if 0 < config.vocab_size * len(offsets) <= _CHUNK_CELLS:
            pairs = np.arange(config.vocab_size, dtype=np.uint64)[:, None] * _UG + self._offset_keys
            self._pairs = _mix64(pairs, np.empty_like(pairs)).ravel()
            self._pairs.setflags(write=False)
        scale = 2.0**-53 * config.sharpness  # when normal, exact: one product equals the two
        self._scales = (scale,) if scale >= 2.0**-1022 else (2.0**-53, config.sharpness)

    @property
    def vocab_size(self) -> int:
        return self._config.vocab_size

    def rows(self, state: SequenceState, positions: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        n, cw = len(positions), self._config.context_window
        seeds = self._seeds_for(len(state.tokens))[positions]  # a fresh array
        if cw and n:
            # Commutative accumulation over in-window (offset, token) pairs.  The
            # strip holds the covering range, from the first to the last position,
            # with cw cells on each side; padding with the mask id makes
            # out-of-range neighbours vanish.
            first, stop = int(positions[0]) - cw, int(positions[-1]) + 1 + cw
            lo, hi = max(first, 0), min(stop, len(state.tokens))
            tokens = np.full(stop - first, state.mask_id, dtype=np.int64)
            tokens[lo - first : hi - first] = state.tokens[lo:hi]
            nonmask = tokens != state.mask_id
            pairs = self._pairs
            if pairs is not None:
                tokens *= nonmask  # a mask reads row 0, which the reduce skips
                if tokens.view(np.uint64).max() >= self.vocab_size:  # negatives wrap high
                    pairs = None  # a token outside [0, V) is hashed
            key = tokens.view(np.uint64)  # in place, once the mask test is done:
            key *= _UG if pairs is None else np.uint64(2 * cw)  # t * G, or t's table row
            step = max(1, _CHUNK_CELLS // (2 * cw))
            for a in range(0, n, step):
                neigh = positions[a : a + step, None] - first + self._offsets  # strip indices
                terms = key[neigh]
                if pairs is None:
                    terms += self._offset_keys
                    _mix64(terms, _cells(*neigh.shape))
                else:
                    terms = pairs[terms.view(np.intp) + self._pair_cols]
                seeds[a : a + step] ^= np.add.reduce(terms, axis=1, where=nonmask[neigh])
        logits = np.empty((n, self.vocab_size)) if out is None else out[:n]
        self._hash_rows(_mix64(seeds, np.empty_like(seeds)), logits)
        return logits

    def _seeds_for(self, length: int) -> np.ndarray:
        """Read-only row seeds of at least the positions below length.  A read
        of a longer state publishes a new, complete table, so concurrent reads
        keep whole ones; a race lost to a shorter table costs only a rebuild."""
        table = self._row_seeds
        if len(table) < length:
            table = np.arange(length, dtype=np.uint64) * _UG + self._seed_base
            _mix64(table, np.empty_like(table)).setflags(write=False)
            self._row_seeds = table
        return table

    def _hash_rows(self, seeds: np.ndarray, logits: np.ndarray) -> None:
        """Write the logits of the given row seeds into the (len(seeds), V)
        logits, hashing a bounded number of cells at a time in this thread's
        scratch; the output rows hold the shifts until written."""
        step = max(1, _CHUNK_CELLS // self.vocab_size)
        cells = _cells(min(step, len(seeds)), self.vocab_size)
        for a in range(0, len(seeds), step):
            rows = logits[a : a + step]
            x = np.add(seeds[a : a + step, None], self._cols, out=cells[: len(rows)])
            _mix64(x, rows.view(np.uint64))
            x >>= _U11
            rows[...] = x.view(np.int64)  # below 2**53: exact, and faster than from uint64
            for scale in self._scales:
                rows *= scale


# ---------------------------------------------------------------------------
# Table backend
# ---------------------------------------------------------------------------


class TableModel(MaskedModel):
    """Replays logits from an explicit (token sequence -> rows) table.

    The fingerprint is the exact token tuple; querying a state the table
    does not list raises FixtureMissError, which indicates a broken test
    fixture rather than a runtime condition.  Rows are stored read-only, one
    full (L, vocab) matrix per state, and a read copies out the asked rows.
    """

    def __init__(self, table: dict[tuple[int, ...], np.ndarray]):
        if not table:
            raise ValueError("table fixture is empty")
        self._table: dict[tuple[int, ...], np.ndarray] = {}
        vocab = None
        for tokens, rows in table.items():
            arr = np.array(rows, dtype=np.float64)  # a copy, read-only: no caller changes it
            arr.setflags(write=False)
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

    def rows(self, state: SequenceState, positions: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        rows = self._table.get(state.tokens)
        if rows is None:
            raise FixtureMissError(f"no fixture rows for state {state.tokens}")
        return np.take(rows, positions, axis=0, out=None if out is None else out[: len(positions)])


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
