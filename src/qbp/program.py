"""Leveled quantum branching programs and their exact semantics.

A program of width d applies, at each level, one of two d x d unitaries
depending on the value of one input variable, then measures the final
configuration against a set of accepting basis states.  Bit i of an input
string is the value of variable x_{i+1}; the transformation at a level
reads ``input[var_index - 1]``.  A unitary is stored as a dense matrix or as
a ``Monomial`` (perm, phases): the universal and permutation constructions
build Monomials, and a dense matrix of that shape is read as one.
Evaluation reads the stored form; only ``u0``/``u1`` build (and keep) a
Monomial's dense matrix, while ``is_stable``, realify and the file format
build one at a time (``_unitary_dense``) and keep none.  Levels may share a
stored unitary, as the levels of a stable program share one pair: a shared
one is scanned, checked, formatted, parsed and realified once.  Also
included: the JSON file format used by the command line tools.

Programs are oblivious, so evaluation advances a d x m block of
configurations level by level (``_advance``): one column per input, or in
``evaluate_all`` per assignment to the variables read so far, where a fresh
variable doubles the block (``_doubled``).  ``evaluate_all`` gives every
input's acceptance by one of three paths.  A program whose u0 is the
identity and whose levels all apply one u1 (``_counted``), as the paper's
MOD_p program does, is counted: a leaf accepts as U1^c ``initial`` does, for
c the number of levels that read a 1, and its count form (``_count_form``)
holds that table T and the counts of two halves of the read variables,
through which T is gathered to the leaves.  Else a read-once program of
Monomial levels started from a basis vector (``_one_hot``) is walked as
(index, phase) pairs.  Else the block grows to ``_CHUNK_BYTES`` and is
walked in column slices of that size (``_leaf_walk``), never holding the
2^|read|-column leaf block at once.  The one-hot walk gives the walk's
probabilities bit for bit, and the count within a stated bound, bit for bit
on the paper's MOD_p programs and on permutation programs.  What a block, a
walk or a count holds is checked against ``linalg.MEMORY_BUDGET_BYTES``
before it is allocated.

Which inputs miss a criterion is decided by one rule, ``_failing``, for
``computes`` and the theta-component analysis alike; at a margin it reads
``_margin_masks``.  ``computes`` applies it to every input's probability
from ``evaluate_all``, except on a counted program: there it applies it to T
once per bit and gathers the verdicts through the count form
(``_counted_check``), never holding the 2^n probabilities.  The
theta-component analysis (``analysis._classified_final_configs``) applies it
to the probabilities of the final configurations it enumerates, gathered to
the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Sequence

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


def _integer(x, what: str) -> int:
    """``x`` as an int when it is a Python or numpy integer other than a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _integers(values, what: str):
    """An integer or empty array as it is, anything else as a list of ``_integer``s."""
    if isinstance(values, np.ndarray) and (values.dtype.kind in "iu" or not values.size):
        return values
    return [_integer(x, what) for x in values]


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
        perm = np.array(_integers(self.perm, "perm entry"), dtype=np.intp)
        object.__setattr__(self, "perm", linalg._frozen(perm))
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
    whose dense form it is (-0.0 entries included), else ``u`` as it is.
    The given matrix is kept as the Monomial's dense form only where that
    form, built from (perm, phases), would put 0.0 in place of a -0.0 (as
    in a realified level's zero slots)."""
    if isinstance(u, Monomial):
        return u
    u = linalg.as_cmatrix(u)
    nz = u != 0
    if not (nz.sum(axis=1) == 1).all() or not (nz.sum(axis=0) == 1).all():
        return u
    perm = nz.argmax(axis=1)
    m = Monomial(perm, u[np.arange(u.shape[0]), perm])
    if np.signbit(u[~nz].view(np.float64)).any():
        m.__dict__["dense"] = u  # where cached_property keeps it
    return m


def _dense(u: np.ndarray | Monomial) -> np.ndarray:
    return u.dense if isinstance(u, Monomial) else u


def _unitary_within(u: np.ndarray | Monomial, tol: float) -> bool:
    if isinstance(u, Monomial):
        return float(np.max(np.abs(np.abs(u.phases) - 1.0))) <= tol
    return linalg.is_unitary(u, tol)


@dataclass(frozen=True, eq=False, init=False)
class QuantumTransformation:
    """One program level: variable index plus the unitary applied per bit,
    each a dense matrix or a ``Monomial``, kept in ``unitaries`` by ``_stored``."""

    var_index: int
    unitaries: tuple[np.ndarray | Monomial, np.ndarray | Monomial]

    def __init__(self, var_index: int, u0: np.ndarray | Monomial, u1: np.ndarray | Monomial):
        self._keep(var_index, _stored(u0), _stored(u1))

    @classmethod
    def _sharing(cls, var_index: int, u0: np.ndarray | Monomial,
                 u1: np.ndarray | Monomial) -> "QuantumTransformation":
        """A level of unitaries already stored (another level's, or
        ``_stored`` results), kept as they are: a level that repeats a stored
        unitary does not scan its d^2 entries again."""
        tf = cls.__new__(cls)
        tf._keep(var_index, u0, u1)
        return tf

    def _keep(self, var_index: int, u0: np.ndarray | Monomial, u1: np.ndarray | Monomial) -> None:
        object.__setattr__(self, "var_index", var_index)
        object.__setattr__(self, "unitaries", (u0, u1))
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

    def apply_to_columns(self, bit: int, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``u_bit @ cols`` for a d x m block, into ``out`` when given."""
        u = self.unitaries[1 if bit else 0]
        if isinstance(u, Monomial):
            return np.multiply(u.phases[:, None], cols[u.perm, :], out=out)
        return np.matmul(u, cols, out=out)


def _state_set(states, width: int) -> np.ndarray:
    """Any iterable of integer states as a frozen, sorted, duplicate-free
    int64 array, with no Python loop over an integer array (a frozen
    increasing one is kept).  The ValueError names a state that is not an
    integer, or the smallest outside [1, width], found before any cast."""
    arr = _integers(states, "accepting state")
    outside = (arr[(arr < 1) | (arr > width)] if isinstance(arr, np.ndarray)
               else [s for s in arr if not 1 <= s <= width])
    if len(outside):
        raise ValueError(f"accepting state {min(outside)} outside [1, {width}]")
    arr = np.asarray(arr, dtype=np.int64)
    return arr if not arr.flags.writeable and (arr[1:] > arr[:-1]).all() else linalg._frozen(np.unique(arr))


@dataclass(frozen=True, eq=False)
class QbProgram:
    """Transformation sequence, initial configuration, accepting state set.

    State indices are 1-based.  ``accepting``, any iterable of ints, is kept
    as a sorted int64 array (``_state_set``).  It may be empty (the degenerate
    constant-0 case); the acceptance probability is then identically zero.
    """

    n_vars: int
    width: int
    transformations: tuple[QuantumTransformation, ...]
    initial: np.ndarray
    accepting: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transformations", tuple(self.transformations))
        object.__setattr__(self, "initial", linalg.as_cvector(self.initial))
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
        object.__setattr__(self, "accepting", _state_set(self.accepting, self.width))
        checked = set()  # ids of the stored unitaries found unitary: a shared one is checked once
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
            for u in tf.unitaries:
                if id(u) in checked:
                    continue
                if not _unitary_within(u, linalg.DEFAULT_UNITARY_TOL):
                    raise ValueError(
                        f"transformation at level {level} is not unitary within "
                        f"{linalg.DEFAULT_UNITARY_TOL}"
                    )
                checked.add(id(u))

    @property
    def length(self) -> int:
        return len(self.transformations)

    @property
    def var_sequence(self) -> tuple[int, ...]:
        return tuple(tf.var_index for tf in self.transformations)


def accept_probability(psi: np.ndarray, p: QbProgram) -> float:
    """Squared norm of the projection of ``psi`` onto the accepting states of ``p``."""
    return float(_column_accept_probs(psi[:, None], p)[0])


def _column_accept_probs(cols: np.ndarray, p: QbProgram, index: np.ndarray | None = None) -> np.ndarray:
    """``accept_probability`` of each column of a d x m block, clipped to [0, 1]."""
    if index is not None:  # the one-hot configurations cols[i] e_index[i], bit for bit
        return np.clip(np.abs(cols) ** 2 * np.isin(index, p.accepting - 1), 0.0, 1.0)
    return np.clip(np.sum(np.abs(cols[p.accepting - 1, :]) ** 2, axis=0), 0.0, 1.0)


def _advance(tf: QuantumTransformation, cols: np.ndarray, bits: np.ndarray) -> None:
    """Apply one level to a d x m block in place: column k gets ``u_{bits[k]}``."""
    ones = np.asarray(bits, dtype=bool)
    if ones.all() or not ones.any():  # one bit selects the whole block: no copy of it
        tf.apply_to_columns(int(ones.any()), cols, out=cols)
        return
    for b, sel in ((0, ~ones), (1, ones)):
        cols[:, sel] = tf.apply_to_columns(b, cols[:, sel])


def _final_block(p: QbProgram, inputs) -> np.ndarray:
    """Final configurations of the rows of a (B, n) 0/1 array, one column each."""
    rows = np.asarray(inputs)
    if rows.ndim != 2 or rows.shape[1] != p.n_vars:
        raise ValueError(f"inputs must have shape (B, {p.n_vars}), got {rows.shape}")
    if not ((rows == 0) | (rows == 1)).all():
        raise ValueError("inputs contain values other than 0 and 1")
    (b, n), d = rows.shape, p.width
    linalg.check_budget(64 * d * b + 32 * b + 3 * b * n + 3 * 16 * np.getbufsize(), "evaluation",
                        f"a batch of {b} inputs of width {d}")
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
    bits, advanced together as one d x B block.  A level copies the columns
    each bit selects and multiplies (or, for a Monomial, gathers) the copy,
    or the whole block where one bit selects all B.  4 blocks, 32 bytes per
    column of bits and indices, the 0/1 check's 3 bytes per input bit and
    numpy's ufunc buffers are checked against ``linalg.MEMORY_BUDGET_BYTES``
    first.  Traced (tracemalloc) at B=1024: 2.0-2.1 blocks with constant
    bits and 2.1-2.7 with mixed bits, for universal n=10, MOD_13 and Haar."""
    return _column_accept_probs(_final_block(p, inputs), p)


def _margin_masks(probs, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The margin rule: (accepts, rejects) masks of acceptance probabilities.
    With s = min(MARGIN_SLACK, epsilon), p rejects if p <= 1/2 - epsilon + s,
    else accepts if p >= 1/2 + epsilon - s, else lies in the margin band.  So
    a margin equal to the measured one is met despite rounding, and at
    epsilon 0 exactly 1/2 rejects while anything above it accepts."""
    s = min(MARGIN_SLACK, epsilon)
    rejects = probs <= 0.5 - epsilon + s
    return np.greater(probs >= 0.5 + epsilon - s, rejects), rejects  # a > b is a & ~b


def is_read_once(p: QbProgram) -> bool:
    """True iff no variable is read by more than one level."""
    seq = p.var_sequence
    return len(set(seq)) == len(seq)


def _same_unitary(a: np.ndarray | Monomial, b: np.ndarray | Monomial, tol: float = STABLE_TOL) -> bool:
    """Entrywise equal within ``tol`` (unitary Monomials: same perm, close
    phases); a level that shares its stored unitary is equal at once."""
    if a is b:
        return True
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return np.array_equal(a.perm, b.perm) and float(np.max(np.abs(a.phases - b.phases))) <= tol
    return float(np.max(np.abs(_unitary_dense(a) - _unitary_dense(b)))) <= tol


def is_stable(p: QbProgram) -> bool:
    """True iff every level applies the same (u0, u1) pair, entrywise within STABLE_TOL."""
    first = p.transformations[0].unitaries if p.length else ()
    return all(_same_unitary(a, b) for tf in p.transformations[1:] for a, b in zip(tf.unitaries, first))


# -- exhaustive evaluation ---------------------------------------------------

# bytes of configurations per chunk of the leaf walk, rounded up to a power of
# two of at least 8 columns: numpy's zgemm rounds 1-3 columns differently from
# 4 or more, and a re-read level multiplies half a chunk
_CHUNK_BYTES = 1 << 20


def _doubled(tf: QuantumTransformation, cols: np.ndarray) -> np.ndarray:
    """A d x m block through a level on a fresh variable, as a new d x 2m
    block: column c goes to 2c under ``u0`` and to 2c + 1 under ``u1``."""
    out = np.empty((cols.shape[0], 2 * cols.shape[1]), dtype=np.complex128)
    tf.apply_to_columns(0, cols, out=out[:, 0::2])
    tf.apply_to_columns(1, cols, out=out[:, 1::2])
    return out


def _one_hot(p: QbProgram) -> int | None:
    """The index of ``initial``'s one nonzero if ``p`` is read-once and every
    level is a Monomial (so every configuration c e_k is one-hot), else None.
    ``evaluate_all`` walks such a program as (index, phase) pairs unless it is
    ``_counted``, and the theta-component analysis keeps such pairs."""
    start = np.flatnonzero(p.initial)
    monomial = all(isinstance(u, Monomial) for tf in p.transformations for u in tf.unitaries)
    return int(start[0]) if start.size == 1 and monomial and is_read_once(p) else None


def _one_hot_doubled(tf: QuantumTransformation, index: np.ndarray, phase: np.ndarray):
    """``_doubled`` of the one-hot configurations phase[i] e_index[i], bit for bit."""
    out_index = np.empty(2 * index.size, dtype=np.intp)
    out_phase = np.empty(2 * index.size, dtype=np.complex128)
    for b, u in enumerate(tf.unitaries):
        row_of = np.empty_like(u.perm)
        row_of[u.perm] = np.arange(u.perm.size)
        out_index[b::2] = row_of[index]
        np.multiply(u.phases[out_index[b::2]], phase, out=out_phase[b::2])
    return out_index, out_phase


def _leaf_walk(p: QbProgram) -> tuple[np.ndarray, tuple[int, ...]]:
    """The acceptance probability of every leaf, one per assignment to the
    variables read (first-read order, first most significant), and that
    order, for any program: the path in ``evaluate_all`` of programs that
    are neither counted nor one-hot, and the reference the others are
    tested against.

    A fresh variable doubles the block (column c becomes 2c and 2c + 1); a
    re-read one takes each column's bit from its global index.  Once the
    block is a chunk, each doubling cuts it into two chunk-sized halves,
    walked depth first from a stack, and each final chunk's probabilities go
    straight into the result.  A pending half keeps its doubled block alive,
    so the walk holds one doubled block per split level, or, when it never
    splits, its one block.  A level working on w columns adds 1.5 w columns
    (a re-read copies, gathers and multiplies the half of them its bit
    selects), or 3 w when the walk splits (a re-read bit may then be
    constant over a chunk), and 32 bytes per column of bits and indices,
    beside numpy's ufunc buffers (one of ``np.getbufsize()`` complex
    elements per operand).  That, with the result, is checked against
    ``linalg.MEMORY_BUDGET_BYTES`` before the first block is allocated.
    """
    plan, position = [], {}
    for tf in p.transformations:
        j = tf.var_index
        plan.append((tf, len(position) - 1 - position[j] if j in position else None))
        position.setdefault(j, len(position))
    d, k = p.width, len(position)
    chunk = -(-_CHUNK_BYTES // (16 * d))  # columns that reach _CHUNK_BYTES
    cap = max(8, 1 << (chunk - 1).bit_length())
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
            cols, offset = _doubled(tf, cols), 2 * offset
            if 2 * m > cap:  # a doubled chunk: walk its left half now, its right half later
                stack.append((level, offset + m, cols[:, m:]))
                cols = cols[:, :m]
        probs[offset:offset + cols.shape[1]] = _column_accept_probs(cols, p)
    return probs, tuple(position)


def _counted(p: QbProgram) -> bool:
    """True iff every level's u0 is the identity Monomial and every level's
    u1 the first level's (``_leaf_count``): the same kind of stored unitary
    and equal, not within STABLE_TOL; one shared by several levels is
    compared once."""
    if not p.length:
        return False
    first, identity = p.transformations[0].unitaries[1], np.arange(p.width)
    u0s, u1s = ({id(tf.unitaries[b]): tf.unitaries[b] for tf in p.transformations}.values() for b in (0, 1))
    return (all(isinstance(u, Monomial) and (u.perm == identity).all() and (u.phases == 1).all() for u in u0s)
            and all(type(u) is type(first) and _same_unitary(u, first, 0.0) for u in u1s))


def _half_counts(mults: Sequence[int], dtype) -> np.ndarray:
    """The number of levels that read a 1 on each assignment to variables
    read ``mults`` times each (the first most significant), by doubling."""
    counts = np.zeros(1 << len(mults), dtype=dtype)
    for i, mult in enumerate(reversed(mults)):
        np.add(counts[:1 << i], mult, out=counts[1 << i:2 << i])
    return counts


class _CountForm(NamedTuple):
    """The leaves of a program that ``_counted`` takes, as a table over
    counts: the variables of ``order`` are cut into a high and a low half,
    and the leaf of high assignment i and low assignment j (the first
    variable most significant) has count hi[i] + lo[j]."""

    table: np.ndarray  # T[c], the acceptance of U1^c applied to ``initial``
    hi: np.ndarray  # the high half's counts, by ``_half_counts``
    lo: np.ndarray  # the low half's
    most: int  # the low half's largest count
    order: tuple[int, ...]  # the variables read, in first-read order

    def gather(self, values: np.ndarray) -> np.ndarray:
        """values[hi[i] + lo[j]] at every leaf, for ``values`` indexed by
        count: row r of R holds values[r + lo[j]] for every j, and the leaves
        are the rows of R that hi picks."""
        rows = np.lib.stride_tricks.sliding_window_view(values, self.most + 1)[:, self.lo]  # R
        return rows[self.hi].reshape(-1)


def _count_form(p: QbProgram, leaf_bytes: int, input_bytes: int) -> _CountForm:
    """The count form of a program that ``_counted`` takes: u0 is the
    identity and every level applies one u1, so a leaf accepts with T[c],
    where c is the number of levels that read a 1.  The paper's MOD_p
    program, after the unary automaton of Ambainis and Freivalds (FOCS
    1998), is one.

    T is read off a block of 8 equal columns that u1 is applied to L times,
    so zgemm rounds it as it rounds a chunk of the walk (``_CHUNK_BYTES``).
    That gave the walk's leaves bit for bit on every read-once MOD_p program
    tried, plain and realified, and on every program with a Monomial u1.
    zgemm rounds 1-3 trailing columns otherwise, and the walk puts 1-3
    columns through u1 on its first levels and on re-reads there, so on other
    programs a leaf may differ from the walk's, within 2 (L + d) 2^-52
    (measured at up to 0.31 of that on Haar and read-k MOD_p programs).

    The form, with what the caller gathers through it (``leaf_bytes`` per
    leaf and per entry of R) and holds per input (``input_bytes``), is
    checked against ``linalg.MEMORY_BUDGET_BYTES`` first.
    """
    reads = Counter(p.var_sequence)  # in first-read order
    order, mults = tuple(reads), list(reads.values())
    levels, k, d = p.length, len(order), p.width
    hi, lo = mults[:k // 2], mults[k // 2:]
    dtype, most = np.min_scalar_type(levels), sum(lo)
    linalg.check_budget(leaf_bytes * ((1 << k) + (levels - most + 1 << len(lo))) + (input_bytes << p.n_vars)
                        + 8 * (levels + 1) + 64 * 8 * d
                        + (dtype.itemsize + 8) * ((1 << len(hi)) + (1 << len(lo))) + 3 * 16 * np.getbufsize(),
                        "evaluation", f"counting over 2^{k} configurations of {levels} levels of width {d}")
    cols = np.repeat(p.initial[:, None], 8, axis=1)
    table = np.empty(levels + 1)
    table[0] = _column_accept_probs(cols, p)[0]
    tf = p.transformations[0]
    for c in range(1, levels + 1):
        cols = tf.apply_to_columns(1, cols)
        table[c] = _column_accept_probs(cols, p)[0]
    return _CountForm(table, _half_counts(hi, dtype), _half_counts(lo, dtype), most, order)


def _leaf_count(p: QbProgram) -> tuple[np.ndarray, tuple[int, ...]]:
    """``_leaf_walk`` of a program that ``_counted`` takes, by counting: T
    gathered through the count form, 8 bytes a leaf and an entry of R."""
    form = _count_form(p, 8, 0)
    return form.gather(form.table), form.order


def _by_input(leaves: np.ndarray, order: Sequence[int], n_vars: int) -> np.ndarray:
    """Leaves, one per assignment to the variables of ``order`` (the first
    most significant), by input value: a cube with an axis per variable,
    transposed to 1..n and broadcast along the unread ones, copied once."""
    shape = [2 if j in order else 1 for j in range(1, n_vars + 1)]
    cube = leaves.reshape((2,) * len(order)).transpose(np.argsort(order)).reshape(shape)
    if len(order) < n_vars:
        cube = np.ascontiguousarray(np.broadcast_to(cube, (2,) * n_vars))  # a writable copy
    return cube.reshape(-1)


def evaluate_all(p: QbProgram) -> np.ndarray:
    """Acceptance probabilities for all 2^n inputs, indexed by input value.

    Every leaf, one per assignment to the variables read, is reached by one
    pass, and the leaves are put in input order by ``_by_input``.  A
    ``_counted`` program is counted (``_leaf_count``); else a ``_one_hot``
    program is walked one (index, phase) pair a leaf; else the leaves are
    walked in chunks (``_leaf_walk``), where inputs with a common prefix in
    read order share their work.  What the pass holds and the per-input
    arrays (2^n x 32 bytes) must each fit in ``linalg.MEMORY_BUDGET_BYTES``,
    else ValueError is raised first.
    """
    n = p.n_vars
    # the leaves and the result reordered from them, 16 bytes per input;
    # ``computes`` on a program that is not counted then holds the result, a
    # one-sided q = 1 - p, two bool masks and the failing inputs, at most 18
    # bytes per input, in the same room (a counted one holds 10, counted by
    # ``_counted_check``)
    linalg.check_budget(32 << n, "evaluation", f"the per-input data of 2^{n} inputs")
    if _counted(p):
        probs, order = _leaf_count(p)
    elif (start := _one_hot(p)) is None:
        probs, order = _leaf_walk(p)
    else:  # the walk's probabilities, bit for bit; traced at up to 56 bytes a leaf
        linalg.check_budget((60 << p.length) + 24 * p.width + 3 * 16 * np.getbufsize(), "evaluation",
                            f"the one-hot walk over 2^{p.length} configurations of width {p.width}")
        index, phase = np.array([start]), p.initial[start:start + 1]
        for tf in p.transformations:
            index, phase = _one_hot_doubled(tf, index, phase)
        probs, order = _column_accept_probs(phase, p, index), p.var_sequence
    return _by_input(probs, order, n)


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


@dataclass(frozen=True, eq=False)
class CheckReport:
    """``counterexamples`` holds the failing input values, in increasing
    order, as a frozen int64 array (``bits_of_value`` gives an input's bits)."""

    holds: bool
    counterexamples: np.ndarray
    min_margin: float
    checked: int


def _failing(probs: np.ndarray, bits: np.ndarray, criterion: Criterion) -> np.ndarray:
    """The input values (increasing, int64) whose probability misses the
    criterion for their bit: by ``_margin_masks``, or one-sided by q = 1 - p,
    which is |p - 1| bit for bit on [0, 1].  Beside ``probs`` it holds two
    bool masks, combined in place, and q."""
    if isinstance(criterion, Margin):
        ok1, ok0 = _margin_masks(probs, criterion.epsilon)
    elif isinstance(criterion, OneSided):
        q = np.subtract(1.0, probs)
        ok0 = q >= criterion.reject_min - criterion.tol
        ok1 = q <= criterion.tol
        del q
    else:
        raise TypeError(f"unknown criterion {criterion!r}")
    np.copyto(ok0, ok1, where=bits)  # every input's verdict
    return np.flatnonzero(np.logical_not(ok0, out=ok0)).astype(np.int64, copy=False)


def _counted_check(p: QbProgram, bits: np.ndarray, criterion: Criterion) -> tuple[np.ndarray, float]:
    """The failing input values and the least |p - 1/2| of a ``_counted``
    program, from its count form.  ``_failing`` is applied to T once per bit,
    giving bool tables bad0[c] and bad1[c]; bad0 and bad0 ^ bad1 are gathered
    to the leaves and put in input order, and an input fails where
    bad0 ^ (bit & (bad0 ^ bad1)).  The least |T[c] - 1/2| is taken over the
    counts that occur (a read-twice counter reaches only even ones).  Every
    input accepts with exactly its T[c], so both are bit for bit those over
    ``evaluate_all``.  It holds 2 bytes per leaf and per entry of R, and 10
    per input: two bool arrays and up to 8 bytes per failing value."""
    form = _count_form(p, 2, 10)
    bad = np.zeros((2, form.table.size), dtype=bool)
    for b in (0, 1):
        bad[b, _failing(form.table, np.bool_(b), criterion)] = True
    failing = _by_input(form.gather(bad[0]), form.order, p.n_vars)
    flips = _by_input(form.gather(bad[0] ^ bad[1]), form.order, p.n_vars)  # a 1 bit changes the verdict
    np.logical_xor(failing, np.logical_and(flips, bits, out=flips), out=failing)
    del flips
    reached = np.add.outer(np.unique(form.hi), np.unique(form.lo))
    return np.flatnonzero(failing).astype(np.int64, copy=False), float(np.min(np.abs(form.table[reached] - 0.5)))


def computes(p: QbProgram, f: TruthTable, criterion: Criterion) -> CheckReport:
    """Exhaustively check the program against a truth table.

    Counterexamples are the failing input values in increasing order, by
    ``_failing``'s rule.  A ``_counted`` program is checked from its count
    form, at 2 bytes a leaf and 10 bytes per input (``_counted_check``),
    and never holds the 2^n probabilities.  Any other program's come from
    ``evaluate_all``; beside them the check holds what ``_failing`` holds
    and the failing values (counted by ``evaluate_all``), and
    ``min_margin``, the least |p - 1/2|, is taken one ``_CHUNK_BYTES`` slice
    at a time.
    """
    if p.n_vars != f.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    if _counted(p):
        bad, margin = _counted_check(p, f.bits, criterion)
    else:
        probs = evaluate_all(p)
        bad = _failing(probs, f.bits, criterion)
        step = _CHUNK_BYTES // 8
        margin = min(float(np.min(np.abs(probs[i:i + step] - 0.5))) for i in range(0, probs.size, step))
    return CheckReport(
        holds=bad.size == 0,
        counterexamples=linalg._frozen(bad),
        min_margin=margin,
        checked=1 << p.n_vars,
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
# as its compact text, encoded once, and fed to one sha256 in the canonical
# key order; its file form, the text widened to ", ", is encoded once beside
# it and written to the file at once; the digest alone only hashes.  So the
# writer holds one matrix's dense form and texts at a time, and the texts of
# a repeated pair, never a whole file.  An array's
# text formats each distinct [re, im] entry once (``_array_text``): the
# paper's constructions use a handful of amplitudes (0 and +-1, or the cos
# and sin of 2 pi k / p), so a level of d^2 entries has a few dozen distinct
# ones.  A unitary that is the same object as the previous level's reuses
# that level's two texts, kept only while the next level repeats it: a stable
# program's pair is formatted once, and a universal program's identity u0.
# The budget counts the entries of the initial vector and one level.
#
# Reading takes a fast path for exactly the writer's text (``_load_canonical``):
# string scans split each array into rows on "]], [[" and cells on "], [", and
# parse each distinct cell once, as two JSON numbers with a "." or an exponent
# (float() then gives json's float, -0.0 included).  An array whose text
# equals one of the previous level's two is that level's stored unitary, so
# a repeated level is parsed once and a loaded program shares it again.  Any
# other text goes to ``json.load`` and ``program_from_obj``, so a file gives
# the same program or the same error on either path.

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


def _complex_vector(obj, where: str) -> np.ndarray:
    cells = _expect(obj, list, where, "a list of pairs")
    return np.array([_complex_pair(c, f"{where}[{i}]") for i, c in enumerate(cells)], dtype=np.complex128)


def _complex_matrix(obj, where: str) -> np.ndarray:
    rows = _expect(obj, list, where, "a matrix (list of rows)")
    if not rows:
        raise ProgramFormatError(where, "matrix must be nonempty")
    d = len(rows)
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
    accepting = _expect(top["accepting"], list, "$.accepting", "a list of integers")
    for i, s in enumerate(accepting):
        _expect(s, int, f"$.accepting[{i}]", "an integer")
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
    return _checked_program(n_vars, width, tfs, initial, accepting)


def _checked_program(n_vars, width, tfs, initial, accepting) -> QbProgram:
    try:
        return QbProgram(n_vars, width, tuple(tfs), initial, accepting)
    except ValueError as e:
        raise ProgramFormatError("$", str(e)) from e


# bytes per complex entry of the initial vector and one level that formatting
# holds at its peak, one matrix's dense form, sort and texts at a time, beside
# the encoded texts of a repeated pair.  Measured (tracemalloc) with
# 24-character reprs in both parts of every entry at up to 201 where no
# level repeats an array and 252.6 where every level repeats its pair, with
# Haar entries at up to 193 and 236.6, and at 33-46 with the few distinct
# entries of the universal, realified and MOD_p programs.
_FORMAT_BYTES_PER_ENTRY = 264
# Bytes that the json path of loading holds per byte of the file, for the
# parsed JSON document and the arrays built from it.  Measured (tracemalloc)
# at 13.4-13.7 for universal, realified and MOD_p files, and 4.2 for Haar files.
_LOAD_BYTES_PER_FILE_BYTE = 16


def _array_text(a: np.ndarray) -> str:
    """The compact JSON text of a complex vector or matrix as [re, im] pairs,
    ``json.dumps(_pairs(a), separators=(",", ":"))``, formatting each
    distinct entry once.  Entries are told apart by their 16 raw bytes, the
    two uint64 halves that one lexsort orders, so -0.0 and 0.0 stay
    distinct."""
    halves = np.ascontiguousarray(a).reshape(-1).view(np.uint64)
    order = np.lexsort((halves[1::2], halves[0::2]))
    re, im = halves[0::2][order], halves[1::2][order]
    # an entry starts a group where either half differs from the one before
    first = np.ones(order.size, dtype=bool)
    first[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    distinct = a.reshape(-1)[order[first]]
    del order, re, im, first  # the text is built from the groups alone
    vocab = json.dumps(_pairs(distinct), separators=(",", ":"))
    cells = np.array(vocab[2:-2].split("],["), dtype=object)[inverse]
    rows = cells.reshape(-1, a.shape[-1]).tolist()
    text = ",".join("[[" + "],[".join(row) + "]]" for row in rows)
    return text if a.ndim == 1 else "[" + text + "]"


def _unitary_dense(u: np.ndarray | Monomial) -> np.ndarray:
    """The dense form of a stored unitary, built afresh and not cached for a
    Monomial that keeps none (``_stored`` keeps one only for a -0.0 in a zero
    slot), so that formatting holds one level's dense form at a time and a
    stability check leaves the program as it found it."""
    if isinstance(u, Monomial):
        return u.__dict__["dense"] if "dense" in u.__dict__ else Monomial.dense.func(u)
    return u


def _stream_program(p: QbProgram, path=None) -> str:
    """The digest of a program, and with ``path`` its file written there,
    both streamed piece by piece as the format notes describe.

    An array's compact text holds only numbers, brackets and commas, so its
    file form is that text with every comma widened to ", ".  Both are
    encoded once, and a repeated array's pair is kept.  The bytes of
    the largest step are checked against ``linalg.MEMORY_BUDGET_BYTES``
    before the file is opened.
    """
    d = p.width
    step = d * (1 + 2 * d * min(p.length, 1))
    linalg.check_budget(step * _FORMAT_BYTES_PER_ENTRY, "program format",
                        f"the text of {d * (1 + 2 * d * p.length)} complex entries, "
                        f"{step} of them (the initial vector and one level) at a time,")
    sha = hashlib.sha256()
    with open(path, "wb") if path is not None else nullcontext() as fh:

        def encoded(a: np.ndarray) -> tuple[bytes, bytes | None]:
            """An array's canonical text and, when a file is written, its
            file form (the text widened), each encoded once."""
            text = _array_text(a).encode()
            return text, None if fh is None else text.replace(b",", b", ")

        def put(canonical: bytes, file: bytes | None) -> None:
            """Hash a piece of the canonical text and write its file piece."""
            sha.update(canonical)
            if fh is not None:
                fh.write(file)

        initial, initial_file = encoded(p.initial)
        accepting = json.dumps(p.accepting.tolist(), separators=(",", ":")).encode()
        sha.update(b'{"accepting":%s,"initial":%s,"n_vars":%d,"transformations":['
                   % (accepting, initial, p.n_vars))
        if fh is not None:
            fh.write(b'{"n_vars": %d, "width": %d, "initial": %s, "accepting": %s, "transformations": ['
                     % (p.n_vars, d, initial_file, accepting.replace(b",", b", ")))
        del initial, initial_file
        kept = [None, None]  # this level's encoded arrays that the next level repeats
        for i, tf in enumerate(p.transformations):
            after = p.transformations[i + 1].unitaries if i + 1 < p.length else (None, None)
            put(b',{"u0":' if i else b'{"u0":', b'%s{"var": %d, "u0": ' % (b", " if i else b"", tf.var_index))
            for k, (u, v) in enumerate(zip(tf.unitaries, after)):
                if k:
                    put(b',"u1":', b', "u1": ')
                pieces = kept[k] or encoded(_unitary_dense(u))
                put(*pieces)
                kept[k] = pieces if v is u else None
                del pieces  # else they are held while the next array is formatted
            put(b',"var":%d}' % tf.var_index, b"}")
        put(b'],"width":%d}' % d, b"]}\n")
    return sha.hexdigest()[:16]


def save_program(p: QbProgram, path) -> str:
    """Write the program file, level by level; returns ``program_digest(p)``."""
    return _stream_program(p, path)


_INT = rb"[1-9]\d{0,8}"
_NUMBER = rb"-?(?:0|[1-9]\d*)(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)"  # not an integer
_HEAD = re.compile(rb'\{"n_vars": (%s), "width": (%s), "initial": \[\[(.*?)\]\], "accepting": '
                   rb'\[((?:%s(?:, %s)*)?)\], "transformations": \[' % ((_INT,) * 4))
_CELL = re.compile(rb"(%s), (%s)" % (_NUMBER, _NUMBER))


def _canonical_cells(text: bytes, shape: tuple[int, ...]) -> np.ndarray | None:
    """The complex array of ``shape`` whose text between its outer brackets
    is ``text`` in the writer's layout, each distinct cell parsed once; None
    for any other text."""
    parts = [row.split(b"], [") for row in text.split(b"]], [[")]
    if len(parts) != math.prod(shape[:-1]) or set(map(len, parts)) != {shape[-1]}:
        return None
    cells = list(chain.from_iterable(parts))
    ids, values = dict.fromkeys(cells), []
    for i, cell in enumerate(ids):
        m = _CELL.fullmatch(cell)
        if m is None:
            return None
        values += (float(m[1]), float(m[2]))
        ids[cell] = i
    index = np.fromiter(map(ids.__getitem__, cells), np.intp, len(cells)).reshape(shape)
    return linalg._frozen(np.array(values).view(np.complex128)[index])


def _load_canonical(raw: bytes) -> QbProgram | None:
    """The program of a file's bytes in exactly the writer's layout, each
    level built as soon as its two arrays are read; None for any other text."""
    head = _HEAD.match(raw)
    if head is None or not raw.endswith(b"]}\n"):
        return None
    d = int(head[2])
    initial = _canonical_cells(head[3], (d,))
    if initial is None:
        return None
    tfs, pos, end, start = [], head.end(), len(raw) - 3, b'{"var": '
    last = ()  # (text, stored unitary) of the last level's two arrays

    def stored(lo: int, hi: int) -> tuple[bytes, np.ndarray | Monomial | None]:
        """The text raw[lo:hi] of an array and its stored unitary, None for
        other text: an array with the text of one of the last level's is
        that level's stored unitary, neither parsed nor scanned again."""
        for t, u in last:
            if len(t) == hi - lo and raw.startswith(t, lo):
                return t, u
        text = raw[lo:hi]
        cells = _canonical_cells(text, (d, d))
        return text, None if cells is None else _stored(cells)

    while pos != end:
        a = raw.find(b', "u0": [[[', pos)
        b = raw.find(b']]], "u1": [[[', a)
        c = raw.find(b"]]]}", b)
        var = raw[pos + len(start):a] if 0 <= a <= pos + len(start) + 9 else b""
        if min(b, c) < 0 or not raw.startswith(start, pos) or re.fullmatch(_INT, var) is None:
            return None
        try:
            last = (stored(a + 11, b), stored(b + 14, c))
            (_, u0), (_, u1) = last
            if u0 is None or u1 is None:
                return None
            tfs.append(QuantumTransformation._sharing(int(var), u0, u1))
        except ValueError:  # the json path locates it, after any earlier format error
            return None
        pos, start = c + 4, b', {"var": '
    accepting = np.fromstring(head[4], dtype=np.int64, sep=",")
    return _checked_program(int(head[1]), d, tfs, initial, accepting)


def load_program(path) -> QbProgram:
    """Read a program file, on the fast path when it is in the writer's
    layout (format notes above ``ProgramFormatError``): 1.6-2.5 bytes per file
    byte traced for universal, realified and MOD_p files.  The path a file
    takes is known only once it is read, so what the json path holds,
    counted from the file's size, is checked against
    ``linalg.MEMORY_BUDGET_BYTES`` before it is read."""
    size = os.path.getsize(path)
    linalg.check_budget(size * _LOAD_BYTES_PER_FILE_BYTE, "program load",
                        f"parsing a program file of {size} bytes")
    with open(path, "rb") as fh:
        p = _load_canonical(fh.read())
    if p is not None:
        return p
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
