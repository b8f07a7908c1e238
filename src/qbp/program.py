"""Leveled quantum branching programs and their exact semantics.

A program of width d applies, at each level, one of two d x d unitaries
depending on the value of one input variable, then measures the final
configuration against a set of accepting basis states.  Bit i of an input
string is the value of variable x_{i+1}; the transformation at a level
reads ``input[var_index - 1]``.  A unitary is stored as a dense matrix or as
a ``Monomial`` (perm, phases): the universal and permutation constructions
build Monomials, and a dense matrix of that shape is read as one.
Evaluation reads the stored form; only ``u0``/``u1`` build (and keep) a
Monomial's dense matrix, for realify, and the file format builds one at a
time.  Also included: the JSON file format used by the command line tools.

Programs are oblivious, so every evaluation advances a d x m block of
configurations level by level (``_advance``): one column per input, or in
``evaluate_all`` per assignment to the variables read so far.  There the
block grows to ``_CHUNK_BYTES`` and is then walked in column slices of that
size (``_leaf_walk``), so it never holds the 2^|read|-column leaf block at
once.  What a block or a walk holds is checked against
``linalg.MEMORY_BUDGET_BYTES`` before it is allocated.

Acceptance at a margin is decided by one rule, ``_margin_masks``, which
``computes`` under a ``Margin`` criterion and the theta-component analysis
use.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import MARGIN_SLACK, NORMALIZATION_TOL, ONE_SIDED_TOL, STABLE_TOL

Bits = Sequence[int] | str


def _as_bits(input_bits: Bits, n_vars: int) -> tuple[int, ...]:
    if isinstance(input_bits, str):
        try:
            bits = tuple(int(c) for c in input_bits)
        except ValueError:
            raise ValueError(f"input string {input_bits!r} contains non-bit characters")
    else:
        bits = tuple(int(b) for b in input_bits)
    if len(bits) != n_vars:
        raise ValueError(f"input length {len(bits)} does not match n_vars {n_vars}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"input {input_bits!r} contains values other than 0 and 1")
    return bits


def bits_of_value(value: int, n_vars: int) -> tuple[int, ...]:
    """Bits of an input value, most significant bit = x_1."""
    return tuple((value >> (n_vars - 1 - i)) & 1 for i in range(n_vars))


@dataclass(frozen=True, eq=False)
class Monomial:
    """A unitary stored as built: row i holds ``phases[i]`` in column
    ``perm[i]`` and exact zeros elsewhere, so it is applied as a gather, bit
    for bit the dense product.  ``dense`` builds the matrix once, on first use."""

    perm: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        phases = linalg.as_cvector(self.phases)
        if not np.array_equal(np.sort(self.perm), np.arange(phases.size)):
            raise ValueError(f"perm must be a permutation of 0..{phases.size - 1}")
        object.__setattr__(self, "perm", linalg._frozen(np.array(self.perm, dtype=np.intp)))
        object.__setattr__(self, "phases", phases)

    @property
    def shape(self) -> tuple[int, int]:
        return self.phases.shape * 2

    @cached_property
    def dense(self) -> np.ndarray:
        d = self.phases.size
        linalg.check_budget(16 * d * d, "dense level", f"a {d} x {d} matrix")
        u = np.zeros((d, d), dtype=np.complex128)
        u[np.arange(d), self.perm] = self.phases
        return linalg._frozen(u)


def _stored(u) -> np.ndarray | Monomial:
    """A matrix with exactly one nonzero per row and column as a Monomial
    whose dense form it is (-0.0 entries included), else ``u`` as it is."""
    if isinstance(u, Monomial):
        return u
    u = linalg.as_cmatrix(u)
    nz = u != 0
    if not (nz.sum(axis=1) == 1).all() or not (nz.sum(axis=0) == 1).all():
        return u
    perm = nz.argmax(axis=1)
    m = Monomial(perm, u[np.arange(u.shape[0]), perm])
    m.__dict__["dense"] = u  # where cached_property keeps it
    return m


def _dense(u: np.ndarray | Monomial) -> np.ndarray:
    return u.dense if isinstance(u, Monomial) else u


@dataclass(frozen=True, eq=False, init=False)
class QuantumTransformation:
    """One program level: variable index plus the unitary applied per bit,
    each a dense matrix or a ``Monomial``, kept in ``unitaries`` by ``_stored``."""

    var_index: int
    unitaries: tuple[np.ndarray | Monomial, np.ndarray | Monomial]

    def __init__(self, var_index: int, u0: np.ndarray | Monomial, u1: np.ndarray | Monomial):
        object.__setattr__(self, "var_index", var_index)
        object.__setattr__(self, "unitaries", (_stored(u0), _stored(u1)))
        if var_index < 1:
            raise ValueError(f"var_index must be >= 1, got {var_index}")
        (d0, _), (d1, _) = (u.shape for u in self.unitaries)
        if d0 != d1:
            raise ValueError(f"u0 dimension {d0} does not match u1 dimension {d1}")

    u0 = property(lambda self: _dense(self.unitaries[0]))
    u1 = property(lambda self: _dense(self.unitaries[1]))

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    def _unitary_within(self, tol: float) -> bool:
        return all(float(np.max(np.abs(np.abs(u.phases) - 1.0))) <= tol if isinstance(u, Monomial)
                   else linalg.is_unitary(u, tol) for u in self.unitaries)

    def apply_to_columns(self, bit: int, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``u_bit @ cols`` for a d x m block, into ``out`` when given."""
        u = self.unitaries[1 if bit else 0]
        if isinstance(u, Monomial):
            return np.multiply(u.phases[:, None], cols[u.perm, :], out=out)
        return np.matmul(u, cols, out=out)


@dataclass(frozen=True, eq=False)
class QbProgram:
    """Transformation sequence, initial configuration, accepting state set.

    State indices are 1-based.  ``accepting`` may be empty (the degenerate
    constant-0 case); the acceptance probability is then identically zero.
    """

    n_vars: int
    width: int
    transformations: tuple[QuantumTransformation, ...]
    initial: np.ndarray
    accepting: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transformations", tuple(self.transformations))
        object.__setattr__(self, "initial", linalg.as_cvector(self.initial))
        object.__setattr__(self, "accepting", frozenset(int(s) for s in self.accepting))
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.initial.shape[0] != self.width:
            raise ValueError(
                f"initial vector dimension {self.initial.shape[0]} does not match width {self.width}"
            )
        if abs(linalg.norm(self.initial) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"initial configuration must have unit norm within {NORMALIZATION_TOL}")
        for s in self.accepting:
            if not 1 <= s <= self.width:
                raise ValueError(f"accepting state {s} outside [1, {self.width}]")
        for level, tf in enumerate(self.transformations, start=1):
            if tf.dim != self.width:
                raise ValueError(
                    f"transformation at level {level} has dimension {tf.dim}, expected {self.width}"
                )
            if not 1 <= tf.var_index <= self.n_vars:
                raise ValueError(
                    f"transformation at level {level} reads x_{tf.var_index}, "
                    f"outside [1, {self.n_vars}]"
                )
            if not tf._unitary_within(linalg.DEFAULT_UNITARY_TOL):
                raise ValueError(
                    f"transformation at level {level} is not unitary within "
                    f"{linalg.DEFAULT_UNITARY_TOL}"
                )

    @property
    def length(self) -> int:
        return len(self.transformations)

    @property
    def var_sequence(self) -> tuple[int, ...]:
        return tuple(tf.var_index for tf in self.transformations)

    @cached_property
    def _accept_index(self) -> np.ndarray:
        """The accepting states, sorted and 0-based, sorted once per program."""
        return linalg._frozen(np.array(sorted(self.accepting), dtype=np.intp) - 1)


def accept_probability(psi: np.ndarray, p: QbProgram) -> float:
    """Squared norm of the projection of ``psi`` onto the accepting states of ``p``."""
    return min(max(float(np.sum(np.abs(psi[p._accept_index]) ** 2)), 0.0), 1.0)


def _column_accept_probs(cols: np.ndarray, p: QbProgram) -> np.ndarray:
    return np.clip(np.sum(np.abs(cols[p._accept_index, :]) ** 2, axis=0), 0.0, 1.0)


def _check_per_input(n_vars: int, stage: str) -> None:
    # input values, leaf indices, one temporary and the result: 8 bytes each;
    # ``computes`` then holds the result, one float buffer and at most four
    # bool masks, 20 bytes per input, in the same room
    linalg.check_budget(32 << n_vars, stage, f"the per-input data of 2^{n_vars} inputs")


def _advance(tf: QuantumTransformation, cols: np.ndarray, bits: np.ndarray) -> None:
    """Apply one level to a d x m block in place: column k gets ``u_{bits[k]}``."""
    ones = np.asarray(bits, dtype=bool)
    for b, sel in ((0, ~ones), (1, ones)):
        cols[:, sel] = tf.apply_to_columns(b, cols[:, sel])


def _final_block(p: QbProgram, inputs) -> np.ndarray:
    """Final configurations of the rows of a (B, n) 0/1 array, one column each."""
    rows = np.asarray(inputs)
    if rows.ndim != 2 or rows.shape[1] != p.n_vars:
        raise ValueError(f"inputs must have shape (B, {p.n_vars}), got {rows.shape}")
    if not ((rows == 0) | (rows == 1)).all():
        raise ValueError("inputs contain values other than 0 and 1")
    b = rows.shape[0]
    linalg.check_budget(p.width * 16 * b, "evaluation", f"a batch of {b} inputs of width {p.width}")
    cols = np.repeat(p.initial[:, None], b, axis=1)
    for tf in p.transformations:
        _advance(tf, cols, rows[:, tf.var_index - 1])
    return cols


def final_configuration(p: QbProgram, input_bits: Bits) -> np.ndarray:
    """Pre-measurement configuration after applying every level to the input."""
    return _final_block(p, np.array([_as_bits(input_bits, p.n_vars)]))[:, 0]


def evaluate(p: QbProgram, input_bits: Bits) -> float:
    """Acceptance probability of the program on one input, clamped to [0, 1]."""
    return accept_probability(final_configuration(p, input_bits), p)


def evaluate_batch(p: QbProgram, inputs) -> np.ndarray:
    """Acceptance probabilities of the rows of a (B, n) array of 0/1 input
    bits, advanced together as one d x B block (B * width * 16 bytes, checked
    against ``linalg.MEMORY_BUDGET_BYTES``)."""
    return _column_accept_probs(_final_block(p, inputs), p)


def _margin_masks(probs, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The margin rule: (accepts, rejects) masks of acceptance probabilities.
    With s = min(MARGIN_SLACK, epsilon), p rejects if p <= 1/2 - epsilon + s,
    else accepts if p >= 1/2 + epsilon - s, else lies in the margin band.  So
    a margin equal to the measured one is met despite rounding, and at
    epsilon 0 exactly 1/2 rejects while anything above it accepts."""
    s = min(MARGIN_SLACK, epsilon)
    probs = np.asarray(probs)
    rejects = probs <= 0.5 - epsilon + s
    return (probs >= 0.5 + epsilon - s) & ~rejects, rejects


def is_read_once(p: QbProgram) -> bool:
    """True iff no variable is read by more than one level."""
    seq = p.var_sequence
    return len(set(seq)) == len(seq)


def _same_unitary(a: np.ndarray | Monomial, b: np.ndarray | Monomial) -> bool:
    """Entrywise equal within STABLE_TOL (unitary Monomials: same perm, close phases)."""
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return np.array_equal(a.perm, b.perm) and float(np.max(np.abs(a.phases - b.phases))) <= STABLE_TOL
    return float(np.max(np.abs(_dense(a) - _dense(b)))) <= STABLE_TOL


def is_stable(p: QbProgram) -> bool:
    """True iff every level applies the same (u0, u1) pair, entrywise within STABLE_TOL."""
    first = p.transformations[0].unitaries if p.length else ()
    return all(_same_unitary(a, b) for tf in p.transformations[1:] for a, b in zip(tf.unitaries, first))


# -- exhaustive evaluation ---------------------------------------------------

# bytes of configurations per chunk of the leaf walk, rounded up to a power of
# two of at least 8 columns: numpy's zgemm rounds 1-3 columns differently from
# 4 or more, and a re-read level multiplies half a chunk
_CHUNK_BYTES = 1 << 20


def _leaf_walk(p: QbProgram, whole: bool = False) -> tuple[np.ndarray, tuple[int, ...], np.ndarray | None]:
    """The acceptance probability of every leaf, one per assignment to the
    variables read (first-read order, first most significant), that order,
    and with ``whole`` the final configurations as one d x 2^|read| block.

    A fresh variable doubles the block (column c becomes 2c and 2c + 1); a
    re-read one takes each column's bit from its global index.  Once the
    block is a chunk, each doubling cuts it into two chunk-sized halves,
    walked depth first from a stack, and each final chunk's probabilities go
    straight into the result; ``whole`` walks one chunk.  A pending half
    keeps its doubled block alive, so the walk holds one doubled block per
    split level, or, when it never splits, its one block.  A level working
    on w columns adds 1.5 w columns (a re-read copies, gathers and
    multiplies the half of them its bit selects), or 3 w when the walk
    splits (a re-read bit may then be constant over a chunk), and 32 bytes
    per column of bits and indices, beside numpy's ufunc buffers (one of
    ``np.getbufsize()`` complex elements per operand).  That, with the
    result, is checked against ``linalg.MEMORY_BUDGET_BYTES`` before the
    first block is allocated.
    """
    plan, position = [], {}
    for tf in p.transformations:
        j = tf.var_index
        plan.append((tf, len(position) - 1 - position[j] if j in position else None))
        position.setdefault(j, len(position))
    d, k = p.width, len(position)
    chunk = -(-_CHUNK_BYTES // (16 * d))  # columns that reach _CHUNK_BYTES
    cap = 1 << k if whole else max(8, 1 << (chunk - 1).bit_length())
    splits = max(0, k + 1 - cap.bit_length())
    work = min(cap, 1 << k)  # columns of the block a level works on
    held = (2 * cap * splits or work) + (6 if splits else 3) * work // 2  # columns
    buffers = 3 * 16 * np.getbufsize()
    linalg.check_budget(16 * d * held + 32 * work + buffers + (8 << k), "evaluation",
                        f"the leaf walk over 2^{k} configurations of width {d}")
    probs = np.empty(1 << k)
    stack = [(0, 0, p.initial.reshape(-1, 1))]
    while stack:
        level, offset, cols = stack.pop()
        for level, (tf, shift) in enumerate(plan[level:], start=level + 1):
            m = cols.shape[1]
            if shift is not None:
                _advance(tf, cols, ((offset + np.arange(m)) >> shift) & 1)
                continue
            nxt = np.empty((d, 2 * m), dtype=np.complex128)
            tf.apply_to_columns(0, cols, out=nxt[:, 0::2])
            tf.apply_to_columns(1, cols, out=nxt[:, 1::2])
            cols, offset = nxt, 2 * offset
            del nxt  # else it keeps a walked block alive until the next doubling
            if 2 * m > cap:  # a doubled chunk: walk its left half now, its right half later
                stack.append((level, offset + m, cols[:, m:]))
                cols = cols[:, :m]
        probs[offset:offset + cols.shape[1]] = _column_accept_probs(cols, p)
    return probs, tuple(position), cols if whole else None


def _leaf_indices(var_sequence: Sequence[int], n_vars: int) -> np.ndarray:
    """For every input value, the leaf column index of its read-bit sequence."""
    values = np.arange(1 << n_vars, dtype=np.int64)
    idx = np.zeros(1 << n_vars, dtype=np.int64)
    for j in var_sequence:
        bit = (values >> (n_vars - j)) & 1
        idx = (idx << 1) | bit
    return idx


def evaluate_all(p: QbProgram) -> np.ndarray:
    """Acceptance probabilities for all 2^n inputs, indexed by input value.

    Any program, read-once or not, is evaluated by one walk over its leaves
    (``_leaf_walk``), where inputs with a common prefix in read order share
    their work.  What the walk holds (its chunk blocks and 2^|read|
    probabilities) and the per-input arrays (2^n x 32 bytes) must each fit in
    ``linalg.MEMORY_BUDGET_BYTES``, else ValueError is raised first.
    """
    n = p.n_vars
    _check_per_input(n, "evaluation")
    probs, order, _ = _leaf_walk(p)
    if order == tuple(range(1, n + 1)):
        return probs
    return probs[_leaf_indices(order, n)]


# -- truth tables and computation checking -----------------------------------

@dataclass(frozen=True, eq=False)
class TruthTable:
    """Explicit Boolean function: bit v is the value on the input with
    binary encoding v (x_1 most significant)."""

    n_vars: int
    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=bool)
        if arr.ndim != 1 or arr.shape[0] != 1 << self.n_vars:
            raise ValueError(
                f"truth table needs {1 << self.n_vars} bits for n_vars {self.n_vars}, "
                f"got shape {arr.shape}"
            )
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_function(cls, n_vars: int, fn: Callable[[tuple[int, ...]], object]) -> "TruthTable":
        bits = [bool(fn(bits_of_value(v, n_vars))) for v in range(1 << n_vars)]
        return cls(n_vars, np.array(bits))

    @classmethod
    def constant(cls, n_vars: int, value: bool) -> "TruthTable":
        return cls(n_vars, np.full(1 << n_vars, bool(value)))

    @classmethod
    def random(cls, n_vars: int, rng: np.random.Generator) -> "TruthTable":
        return cls(n_vars, rng.integers(0, 2, size=1 << n_vars).astype(bool))


@dataclass(frozen=True)
class Margin:
    """Symmetric criterion: 1-inputs accept with probability >= 1/2 + epsilon,
    0-inputs with probability <= 1/2 - epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError(f"epsilon must be in [0, 1/2], got {self.epsilon}")


@dataclass(frozen=True)
class OneSided:
    """One-sided criterion: 1-inputs accept with probability 1 within tol,
    0-inputs are rejected with probability >= reject_min - tol."""

    reject_min: float = 0.125
    tol: float = ONE_SIDED_TOL

    def __post_init__(self):
        if not 0.0 <= self.reject_min <= 1.0:
            raise ValueError(f"reject_min must be in [0, 1], got {self.reject_min}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


Criterion = Margin | OneSided


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]
    min_margin: float
    checked: int


def _criterion_mask(probs: np.ndarray, fbits: np.ndarray, criterion: Criterion,
                    buf: np.ndarray) -> np.ndarray:
    """Where each probability meets the criterion for its bit; ``buf``, a
    float array shaped like ``probs``, holds the one float temporary."""
    if isinstance(criterion, Margin):
        accepts, rejects = _margin_masks(probs, criterion.epsilon)
        return np.where(fbits, accepts, rejects)
    if isinstance(criterion, OneSided):
        ok1 = np.abs(np.subtract(probs, 1.0, out=buf), out=buf) <= criterion.tol
        ok0 = np.subtract(1.0, probs, out=buf) >= criterion.reject_min - criterion.tol
        return np.where(fbits, ok1, ok0)
    raise TypeError(f"unknown criterion {criterion!r}")


def computes(p: QbProgram, f: TruthTable, criterion: Criterion) -> CheckReport:
    """Exhaustively check the program against a truth table.

    Counterexamples are listed in increasing input-value order.  Beside the
    probabilities, the check holds one float buffer and its bool masks (see
    ``_check_per_input``).
    """
    if p.n_vars != f.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    probs = evaluate_all(p)
    buf = np.empty_like(probs)
    bad = np.nonzero(~_criterion_mask(probs, f.bits, criterion, buf))[0]
    return CheckReport(
        holds=bad.size == 0,
        counterexamples=tuple(bits_of_value(int(v), p.n_vars) for v in bad),
        min_margin=float(np.min(np.abs(np.subtract(probs, 0.5, out=buf), out=buf))),
        checked=int(probs.size),
    )


# -- program file format -------------------------------------------------------
#
# A program file is one JSON object followed by a newline, with keys in this
# order and json's default ", " / ": " separators:
#
#   {"n_vars": n, "width": d, "initial": [[re, im], ...], "accepting": [s, ...],
#    "transformations": [{"var": j, "u0": [[[re, im], ...], ...], "u1": ...}, ...]}
#
# Complex numbers are [re, im] pairs of float reprs, matrices are lists of
# rows, and accepting states are sorted and 1-based.  The digest of a program
# is the first 16 hex digits of the sha256 of the same object dumped with
# sorted keys and compact separators (",", ":").  ``save_program`` returns
# that digest, so a caller that writes a program need not format it again.
#
# Writing is streamed (``_stream_program``).  Each array is formatted once,
# as its compact text, and that text is fed to one sha256 in the canonical
# key order and, widened to ", ", written to the file at once; the digest
# alone only hashes.  So the writer holds the initial vector's text and one
# matrix's dense form and texts at a time, never a whole file.  An array's
# text formats each distinct [re, im] entry once (``_array_text``): the
# paper's constructions use a handful of amplitudes (0 and +-1, or the cos
# and sin of 2 pi k / p), so a level of d^2 entries has a few dozen distinct
# ones.  The budget counts the entries of the initial vector and one level.

class ProgramFormatError(ValueError):
    """Malformed program document; ``where`` locates the first error."""

    def __init__(self, where: str, problem: str):
        self.where = where
        self.problem = problem
        super().__init__(f"{where}: {problem}")


def _expect(obj, typ, where: str, what: str):
    # bool is an int subclass, but true and false are not integers here
    if not isinstance(obj, typ) or (typ is int and isinstance(obj, bool)):
        raise ProgramFormatError(where, f"expected {what}, got {type(obj).__name__}")
    return obj


def _complex_pair(obj, where: str) -> complex:
    pair = _expect(obj, list, where, "a [re, im] pair")
    if len(pair) != 2 or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
        raise ProgramFormatError(where, "expected a pair of two numbers")
    return complex(pair[0], pair[1])


def _bulk_pairs(cells: list) -> np.ndarray | None:
    """Complex values of a list of [re, im] number pairs, checked with a few
    C-level passes; None when a cell is not such a pair.

    The floats are reinterpreted in place as complex numbers, so a -0.0 real
    part survives (``re + 1j * im`` would turn it into 0.0).  ``bool`` is its
    own type, so exact type sets exclude it as a number.
    """
    if set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}:
        leaves = list(chain.from_iterable(cells))
        if set(map(type, leaves)) <= {int, float}:
            return np.array(leaves, dtype=np.float64).view(np.complex128)
    return None


def _complex_vector(obj, where: str) -> np.ndarray:
    cells = _expect(obj, list, where, "a list of pairs")
    vec = _bulk_pairs(cells)
    if vec is None:  # walk the cells to locate the first bad one
        vec = np.array(
            [_complex_pair(c, f"{where}[{i}]") for i, c in enumerate(cells)], dtype=np.complex128
        )
    return vec


def _complex_matrix(obj, where: str) -> np.ndarray:
    rows = _expect(obj, list, where, "a matrix (list of rows)")
    if not rows:
        raise ProgramFormatError(where, "matrix must be nonempty")
    d = len(rows)
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {d}:
        flat = _bulk_pairs(list(chain.from_iterable(rows)))
        if flat is not None:
            return flat.reshape(d, d)
    # walk the rows and cells to locate the first bad one
    out = []
    for i, row in enumerate(rows):
        cells = _expect(row, list, f"{where}[{i}]", "a row (list of pairs)")
        if len(cells) != d:
            raise ProgramFormatError(f"{where}[{i}]", f"row length {len(cells)} in a {d}-row matrix")
        out.append([_complex_pair(c, f"{where}[{i}][{j}]") for j, c in enumerate(cells)])
    return np.array(out, dtype=np.complex128)


def _pairs(a: np.ndarray) -> list:
    """[re, im] float pairs of a complex array, nested like the array."""
    return np.stack([a.real, a.imag], -1).tolist()


def program_from_obj(obj) -> QbProgram:
    top = _expect(obj, dict, "$", "an object")
    for key in ("n_vars", "width", "initial", "accepting", "transformations"):
        if key not in top:
            raise ProgramFormatError("$", f"missing field {key!r}")
    n_vars = _expect(top["n_vars"], int, "$.n_vars", "an integer")
    width = _expect(top["width"], int, "$.width", "an integer")
    initial = _complex_vector(top["initial"], "$.initial")
    accepting_obj = _expect(top["accepting"], list, "$.accepting", "a list of integers")
    accepting = set()
    for i, s in enumerate(accepting_obj):
        accepting.add(_expect(s, int, f"$.accepting[{i}]", "an integer"))
    tfs = []
    tf_list = _expect(top["transformations"], list, "$.transformations", "a list")
    for i, t in enumerate(tf_list):
        where = f"$.transformations[{i}]"
        t = _expect(t, dict, where, "an object")
        for key in ("var", "u0", "u1"):
            if key not in t:
                raise ProgramFormatError(where, f"missing field {key!r}")
        var = _expect(t["var"], int, f"{where}.var", "an integer")
        u0 = _complex_matrix(t["u0"], f"{where}.u0")
        u1 = _complex_matrix(t["u1"], f"{where}.u1")
        try:
            tfs.append(QuantumTransformation(var, u0, u1))
        except ValueError as e:
            raise ProgramFormatError(where, str(e)) from e
    try:
        return QbProgram(n_vars, width, tuple(tfs), initial, frozenset(accepting))
    except ValueError as e:
        raise ProgramFormatError("$", str(e)) from e


# bytes per complex entry of the initial vector and one level that formatting
# holds at its peak, one matrix's dense form, sort and texts at a time.
# Measured (tracemalloc) up to 198.5 with 24-character reprs in both parts of
# every entry, 191 with Haar entries, and 29-37 with the few distinct entries
# of the universal, realified and MOD_p programs.
_FORMAT_BYTES_PER_ENTRY = 216


def _array_text(a: np.ndarray) -> str:
    """The compact JSON text of a complex vector or matrix as [re, im] pairs,
    ``json.dumps(_pairs(a), separators=(",", ":"))``, formatting each
    distinct entry once.  Entries are told apart by their 16 raw bytes, so
    -0.0 and 0.0 stay distinct."""
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, 16))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    vocab = json.dumps(_pairs(distinct.view(np.complex128)), separators=(",", ":"))
    cells = np.array(vocab[2:-2].split("],["), dtype=object)[inverse.ravel()]
    rows = cells.reshape(-1, a.shape[-1]).tolist()
    text = ",".join("[[" + "],[".join(row) + "]]" for row in rows)
    return text if a.ndim == 1 else "[" + text + "]"


def _unitary_dense(u: np.ndarray | Monomial) -> np.ndarray:
    """The dense form of a stored unitary, built afresh for a Monomial that
    was not given one (``_stored``) and not cached, so that formatting holds
    one level's dense form at a time."""
    if isinstance(u, Monomial):
        return u.__dict__["dense"] if "dense" in u.__dict__ else Monomial.dense.func(u)
    return u


def _stream_program(p: QbProgram, path=None) -> str:
    """The digest of a program, and with ``path`` its file written there,
    both streamed piece by piece as the format notes describe.

    An array's compact text holds only numbers, brackets and commas, so its
    file form is that text with every comma widened to ", ".  The bytes of
    the largest step are checked against ``linalg.MEMORY_BUDGET_BYTES``
    before the file is opened.
    """
    d = p.width
    step = d * (1 + 2 * d * min(p.length, 1))
    linalg.check_budget(step * _FORMAT_BYTES_PER_ENTRY, "program format",
                        f"the text of {d * (1 + 2 * d * p.length)} complex entries, "
                        f"{step} of them (the initial vector and one level) at a time,")
    sha = hashlib.sha256()
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext() as fh:

        def put(canonical: str, file: str | None = None) -> None:
            """Hash a piece of the canonical text and write its file piece,
            by default the piece (an array's text) widened."""
            sha.update(canonical.encode("utf-8"))
            if fh is not None:
                fh.write(canonical.replace(",", ", ") if file is None else file)

        initial = _array_text(p.initial)
        accepting = json.dumps(sorted(p.accepting), separators=(",", ":"))
        sha.update(f'{{"accepting":{accepting},"initial":{initial},"n_vars":{p.n_vars},'
                   f'"transformations":['.encode("utf-8"))
        if fh is not None:
            fh.write(f'{{"n_vars": {p.n_vars}, "width": {d}, "initial": {initial.replace(",", ", ")}, '
                     f'"accepting": {accepting.replace(",", ", ")}, "transformations": [')
        for i, tf in enumerate(p.transformations):
            put(',{"u0":' if i else '{"u0":', f'{", " if i else ""}{{"var": {tf.var_index}, "u0": ')
            put(_array_text(_unitary_dense(tf.unitaries[0])))
            put(',"u1":', ', "u1": ')
            put(_array_text(_unitary_dense(tf.unitaries[1])))
            put(f',"var":{tf.var_index}}}', "}")
        put(f'],"width":{d}}}', "]}\n")
    return sha.hexdigest()[:16]


def save_program(p: QbProgram, path) -> str:
    """Write the program file, level by level; returns ``program_digest(p)``."""
    return _stream_program(p, path)


def load_program(path) -> QbProgram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProgramFormatError(f"line {e.lineno} column {e.colno}", e.msg) from e
    return program_from_obj(obj)


def program_digest(p: QbProgram) -> str:
    """Stable hex digest of the canonical serialization (see the format notes
    above ``ProgramFormatError``), hashed as it is formatted."""
    return _stream_program(p)
