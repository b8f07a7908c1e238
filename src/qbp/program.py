"""Leveled quantum branching programs and their exact semantics.

A program of width d applies, at each level, one of two d x d unitaries
depending on the value of one input variable, then measures the final
configuration against a set of accepting basis states.  Bit i of an input
string is the value of variable x_{i+1}; the transformation at a level
reads ``input[var_index - 1]``.

Also included: the classical stable probabilistic OBDD model (a fixed pair
of row-stochastic matrices driven over a distribution row vector), and the
JSON file format used by the command line tools.

Programs are oblivious, so every evaluation advances one d x m block of
configurations level by level (``_advance``): one column per input, or in
``evaluate_all`` per assignment to the variables read so far.  Each block is
checked against ``EVAL_BUDGET_BYTES`` before it is allocated.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg

# bytes of one evaluation block: d x 2^|read| configurations for all inputs,
# d x B for a batch; width 4 passes at n = 24 (1 GiB) and width 8 stops
EVAL_BUDGET_BYTES = 1 << 30
# entrywise tolerance under which two levels count as the same (``is_stable``)
_STABLE_TOL = 1e-12

Bits = Sequence[int] | str


class Classification(enum.Enum):
    ACCEPTS = "accepts"
    REJECTS = "rejects"
    UNDETERMINED = "undetermined"


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


def _phase_permutation(u: np.ndarray):
    """Decompose ``u`` as (perm, phases) when it has exactly one nonzero per
    row and column; used as an exact O(d) application path.  All remaining
    entries must be exact zeros, so the gather reproduces the dense product
    bit for bit.  Returns None for matrices without this structure."""
    nz = u != 0
    if not (nz.sum(axis=1) == 1).all() or not (nz.sum(axis=0) == 1).all():
        return None
    perm = nz.argmax(axis=1)
    phases = u[np.arange(u.shape[0]), perm]
    return perm, phases


@dataclass(frozen=True, eq=False)
class QuantumTransformation:
    """One program level: variable index plus the unitary applied per bit."""

    var_index: int
    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u0", linalg.as_cmatrix(self.u0))
        object.__setattr__(self, "u1", linalg.as_cmatrix(self.u1))
        if self.var_index < 1:
            raise ValueError(f"var_index must be >= 1, got {self.var_index}")
        if self.u0.shape != self.u1.shape:
            raise ValueError(
                f"u0 dimension {self.u0.shape[0]} does not match u1 dimension {self.u1.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.u0.shape[0]

    @cached_property
    def _structure(self):
        return (_phase_permutation(self.u0), _phase_permutation(self.u1))

    def _unitary_within(self, tol: float) -> bool:
        for u, struct in zip((self.u0, self.u1), self._structure):
            if struct is not None:
                if float(np.max(np.abs(np.abs(struct[1]) - 1.0))) <= tol:
                    continue
            if not linalg.is_unitary(u, tol):
                return False
        return True

    def apply_to_columns(self, bit: int, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``u_bit @ cols`` for a d x m block, into ``out`` when given."""
        struct = self._structure[1 if bit else 0]
        if struct is not None:
            perm, phases = struct
            return np.multiply(phases[:, None], cols[perm, :], out=out)
        return np.matmul(self.u1 if bit else self.u0, cols, out=out)


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
        if abs(linalg.norm(self.initial) - 1.0) > 1e-10:
            raise ValueError("initial configuration must have unit norm within 1e-10")
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


def _accept_indices(accepting: frozenset[int]) -> np.ndarray:
    return np.array(sorted(accepting), dtype=np.intp) - 1


def accept_probability(psi: np.ndarray, accepting: frozenset[int]) -> float:
    """Squared norm of the projection of ``psi`` onto the accepting states."""
    if not accepting:
        return 0.0
    p = float(np.sum(np.abs(psi[_accept_indices(accepting)]) ** 2))
    return min(max(p, 0.0), 1.0)


def _column_accept_probs(cols: np.ndarray, accepting: frozenset[int]) -> np.ndarray:
    if not accepting:
        return np.zeros(cols.shape[1])
    probs = np.sum(np.abs(cols[_accept_indices(accepting), :]) ** 2, axis=0)
    return np.clip(probs, 0.0, 1.0)


def _check_budget(need: int, what: str) -> None:
    if need > EVAL_BUDGET_BYTES:
        raise ValueError(
            f"evaluation budget exceeded: {what} needs {need} bytes, limit {EVAL_BUDGET_BYTES}"
        )


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
    _check_budget(p.width * 16 * rows.shape[0], f"a batch of {rows.shape[0]} inputs of width {p.width}")
    cols = np.repeat(p.initial[:, None], rows.shape[0], axis=1)
    for tf in p.transformations:
        _advance(tf, cols, rows[:, tf.var_index - 1])
    return cols


def final_configuration(p: QbProgram, input_bits: Bits) -> np.ndarray:
    """Pre-measurement configuration after applying every level to the input."""
    return _final_block(p, np.array([_as_bits(input_bits, p.n_vars)]))[:, 0]


def evaluate(p: QbProgram, input_bits: Bits) -> float:
    """Acceptance probability of the program on one input, clamped to [0, 1]."""
    return accept_probability(final_configuration(p, input_bits), p.accepting)


def evaluate_batch(p: QbProgram, inputs) -> np.ndarray:
    """Acceptance probabilities of the rows of a (B, n) array of 0/1 input
    bits, advanced together as one d x B block (B * width * 16 bytes, checked
    against ``EVAL_BUDGET_BYTES``)."""
    return _column_accept_probs(_final_block(p, inputs), p.accepting)


def classify_probability(prob: float, epsilon: float) -> Classification:
    """Threshold an acceptance probability at margin ``epsilon``.

    Exactly 1/2 with epsilon 0 resolves to REJECTS (acceptance requires
    strictly more than 1/2 in the unbounded-error reading).
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 1/2], got {epsilon}")
    if prob <= 0.5 - epsilon:
        return Classification.REJECTS
    if prob >= 0.5 + epsilon:
        return Classification.ACCEPTS
    return Classification.UNDETERMINED


def classify(p: QbProgram, input_bits: Bits, epsilon: float) -> Classification:
    return classify_probability(evaluate(p, input_bits), epsilon)


def is_read_once(p: QbProgram) -> bool:
    """True iff no variable is read by more than one level."""
    seq = p.var_sequence
    return len(set(seq)) == len(seq)


def is_stable(p: QbProgram) -> bool:
    """True iff every level applies the same (u0, u1) pair, entrywise within 1e-12."""
    if p.length <= 1:
        return True
    first = p.transformations[0]
    for tf in p.transformations[1:]:
        if float(np.max(np.abs(tf.u0 - first.u0))) > _STABLE_TOL:
            return False
        if float(np.max(np.abs(tf.u1 - first.u1))) > _STABLE_TOL:
            return False
    return True


# -- exhaustive evaluation ---------------------------------------------------

def _leaf_matrix(p: QbProgram) -> tuple[np.ndarray, tuple[int, ...]]:
    """Final configurations, one column per assignment to the variables read
    (first-read order, first most significant), and that order.  A fresh
    variable doubles the block (column c becomes 2c and 2c + 1); a re-read
    one takes each column's bit from its index.  The final, largest block is
    checked against ``EVAL_BUDGET_BYTES`` before the first is allocated."""
    k = len(set(p.var_sequence))
    _check_budget(p.width * 16 << k, f"a block of 2^{k} configurations of width {p.width}")
    cols = p.initial.reshape(-1, 1)
    position: dict[int, int] = {}
    for tf in p.transformations:
        j = tf.var_index
        m = cols.shape[1]
        if j in position:
            shift = len(position) - 1 - position[j]
            _advance(tf, cols, (np.arange(m) >> shift) & 1)
            continue
        nxt = np.empty((p.width, 2 * m), dtype=np.complex128)
        tf.apply_to_columns(0, cols, out=nxt[:, 0::2])
        tf.apply_to_columns(1, cols, out=nxt[:, 1::2])
        cols = nxt
        position[j] = len(position)
    return cols, tuple(position)


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

    Any program, read-once or not, is evaluated on one block (``_leaf_matrix``)
    where inputs with a common prefix in read order share their work.  The
    block (d x 2^|read| x 16 bytes) and the per-input arrays (2^n x 32 bytes)
    must each fit in ``EVAL_BUDGET_BYTES``, else ValueError is raised first.
    """
    n = p.n_vars
    # input values, leaf indices, one temporary and the result: 8 bytes each
    _check_budget(32 << n, f"the per-input data of 2^{n} inputs")
    cols, order = _leaf_matrix(p)
    probs = _column_accept_probs(cols, p.accepting)
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
    tol: float = 1e-9


Criterion = Margin | OneSided


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]
    min_margin: float
    checked: int


def _criterion_mask(probs: np.ndarray, fbits: np.ndarray, criterion: Criterion) -> np.ndarray:
    if isinstance(criterion, Margin):
        eps = criterion.epsilon
        rejects = probs <= 0.5 - eps
        accepts = (probs >= 0.5 + eps) & ~rejects
        return np.where(fbits, accepts, rejects)
    if isinstance(criterion, OneSided):
        ok1 = np.abs(probs - 1.0) <= criterion.tol
        ok0 = (1.0 - probs) >= criterion.reject_min - criterion.tol
        return np.where(fbits, ok1, ok0)
    raise TypeError(f"unknown criterion {criterion!r}")


def computes(p: QbProgram, f: TruthTable, criterion: Criterion) -> CheckReport:
    """Exhaustively check the program against a truth table.

    Counterexamples are listed in increasing input-value order.
    """
    if p.n_vars != f.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    probs = evaluate_all(p)
    ok = _criterion_mask(probs, f.bits, criterion)
    bad = np.nonzero(~ok)[0]
    return CheckReport(
        holds=bad.size == 0,
        counterexamples=tuple(bits_of_value(int(v), p.n_vars) for v in bad),
        min_margin=float(np.min(np.abs(probs - 0.5))),
        checked=int(probs.size),
    )


@dataclass(frozen=True)
class SampledReport:
    violations: int
    checked: int
    min_margin: float
    counterexamples: tuple[tuple[int, ...], ...]


def computes_sampled(
    p: QbProgram,
    f: TruthTable | Callable[[tuple[int, ...]], object],
    criterion: Criterion,
    samples: int,
    seed: int,
    max_recorded: int = 16,
) -> SampledReport:
    """Sampling-mode check for inputs too numerous to enumerate.

    Reports a violation count over uniformly random inputs, evaluated as one
    batch; no "holds" verdict is produced.  A callable ``f`` is called once
    per sample with the input's bits as a tuple.
    """
    if isinstance(f, TruthTable) and f.n_vars != p.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, 2, size=(samples, p.n_vars))
    probs = evaluate_batch(p, inputs)
    if isinstance(f, TruthTable):
        fbits = f.bits[inputs @ (1 << np.arange(p.n_vars - 1, -1, -1))]
    else:
        fbits = np.array([bool(f(tuple(row))) for row in inputs.tolist()], dtype=bool)
    bad = np.nonzero(~_criterion_mask(probs, fbits, criterion))[0]
    recorded = tuple(tuple(inputs[i].tolist()) for i in bad[:max_recorded])
    return SampledReport(bad.size, samples, float(np.min(np.abs(probs - 0.5), initial=0.5)), recorded)


# -- stable probabilistic OBDDs ----------------------------------------------

def _as_stochastic(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if np.any(arr < 0):
        row = int(np.nonzero((arr < 0).any(axis=1))[0][0])
        raise ValueError(f"{what} row {row + 1} has a negative entry")
    sums = arr.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-10)[0]
    if bad.size:
        raise ValueError(
            f"{what} row {int(bad[0]) + 1} sums to {sums[bad[0]]!r}, expected 1 within 1e-10"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StableProbObdd:
    """Level-independent probabilistic OBDD: one stochastic matrix per bit
    value, iterated over a distribution row vector in variable order."""

    width: int
    a0: np.ndarray
    a1: np.ndarray
    initial_dist: np.ndarray
    accepting: frozenset[int]
    var_order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a0", _as_stochastic(self.a0, "a0"))
        object.__setattr__(self, "a1", _as_stochastic(self.a1, "a1"))
        object.__setattr__(self, "accepting", frozenset(int(s) for s in self.accepting))
        object.__setattr__(self, "var_order", tuple(int(v) for v in self.var_order))
        mu = np.asarray(self.initial_dist, dtype=np.float64)
        if mu.ndim != 1 or mu.shape[0] != self.width:
            raise ValueError(f"initial distribution must have length {self.width}")
        if np.any(mu < 0) or abs(float(mu.sum()) - 1.0) > 1e-10:
            raise ValueError("initial distribution must be nonnegative and sum to 1 within 1e-10")
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "initial_dist", mu)
        if self.a0.shape[0] != self.width or self.a1.shape[0] != self.width:
            raise ValueError("stochastic matrices must match the declared width")
        n = len(self.var_order)
        if sorted(self.var_order) != list(range(1, n + 1)):
            raise ValueError(f"var_order must be a permutation of 1..{n}")
        for s in self.accepting:
            if not 1 <= s <= self.width:
                raise ValueError(f"accepting state {s} outside [1, {self.width}]")


def state_distributions(m: StableProbObdd, input_bits: Bits) -> list[np.ndarray]:
    """Distribution row vector after every step, starting with the initial one."""
    bits = _as_bits(input_bits, len(m.var_order))
    mu = m.initial_dist
    out = [mu]
    for j in m.var_order:
        mu = mu @ (m.a1 if bits[j - 1] else m.a0)
        out.append(mu)
    return out


def evaluate_stable_prob_obdd(m: StableProbObdd, input_bits: Bits) -> float:
    """Acceptance probability: final distribution mass on accepting states."""
    mu = state_distributions(m, input_bits)[-1]
    if not m.accepting:
        return 0.0
    p = float(mu[_accept_indices(m.accepting)].sum())
    return min(max(p, 0.0), 1.0)


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

class ProgramFormatError(ValueError):
    """Malformed program document; ``where`` locates the first error."""

    def __init__(self, where: str, problem: str):
        self.where = where
        self.problem = problem
        super().__init__(f"{where}: {problem}")


def _expect(obj, typ, where: str, what: str):
    if not isinstance(obj, typ):
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


def program_to_obj(p: QbProgram) -> dict:
    return {
        "n_vars": p.n_vars,
        "width": p.width,
        "initial": _pairs(p.initial),
        "accepting": sorted(p.accepting),
        "transformations": [
            {"var": tf.var_index, "u0": _pairs(tf.u0), "u1": _pairs(tf.u1)}
            for tf in p.transformations
        ],
    }


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


def _program_texts(p: QbProgram) -> tuple[str, str]:
    """(file text, canonical text) of a program, formatting each array once.

    The file text equals ``json.dumps(program_to_obj(p))`` and the canonical
    text equals the same dump with ``sort_keys=True, separators=(",", ":")``.
    An array's compact dump holds only numbers, brackets and commas, so its
    file form is that dump with every comma widened to ", ".
    """
    def compact(x) -> str:
        return json.dumps(x, separators=(",", ":"))

    def wide(text: str) -> str:
        return text.replace(",", ", ")

    initial = compact(_pairs(p.initial))
    accepting = compact(sorted(p.accepting))
    levels = [
        (compact(tf.var_index), compact(_pairs(tf.u0)), compact(_pairs(tf.u1)))
        for tf in p.transformations
    ]
    n_vars, width = compact(p.n_vars), compact(p.width)
    file_text = (
        f'{{"n_vars": {n_vars}, "width": {width}, "initial": {wide(initial)}, '
        f'"accepting": {wide(accepting)}, "transformations": ['
        + ", ".join(f'{{"var": {v}, "u0": {wide(u0)}, "u1": {wide(u1)}}}' for v, u0, u1 in levels)
        + "]}"
    )
    canonical_text = (
        f'{{"accepting":{accepting},"initial":{initial},"n_vars":{n_vars},"transformations":['
        + ",".join(f'{{"u0":{u0},"u1":{u1},"var":{v}}}' for v, u0, u1 in levels)
        + f'],"width":{width}}}'
    )
    return file_text, canonical_text


def _digest(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:16]


def save_program(p: QbProgram, path) -> str:
    """Write the program file; returns ``program_digest(p)``."""
    file_text, canonical_text = _program_texts(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(file_text)
        fh.write("\n")
    return _digest(canonical_text)


def load_program(path) -> QbProgram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProgramFormatError(f"line {e.lineno} column {e.colno}", e.msg) from e
    return program_from_obj(obj)


def program_digest(p: QbProgram) -> str:
    """Stable hex digest of the canonical serialization (see the format notes
    above ``ProgramFormatError``)."""
    return _digest(_program_texts(p)[1])
