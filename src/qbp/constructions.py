"""Generators for the programs the toolkit studies.

* a universal exact read-once program of width 2^n for any Boolean function,
* width-2 rotation blocks deciding divisibility of the count of ones by a
  prime, their "good" multiplier sets, and the parallel composition that
  yields a one-sided-error divisibility program of width O(log p),
* an embedding of classical permutation branching programs.

Randomized good-set selection uses numpy's PCG64 generator so every draw is
reproducible from its seed; seeds are part of the experiment record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .program import Monomial, QbProgram, QuantumTransformation, TruthTable, _integer


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def mod_truth_table(p: int, n: int) -> TruthTable:
    """MOD_p: 1 iff the number of ones in the input is divisible by p.  The
    counts of ones mod p are built by doubling in one byte per entry: the
    inputs s..2s-1 are those below s with one more 1, so their counts are
    (counts[:s] + 1) mod p, and the table is the test of the counts for 0,
    made in their place.  1.5 bytes per entry at the peak, the counts and
    the last step's wrapped copy, within the 2 checked first."""
    _require_prime(p)
    linalg.check_budget(2 << n, "truth table", f"MOD_{p} on 2^{n} inputs")
    if p > n:  # no count of ones but 0 is divisible by p
        bits = np.zeros(1 << n, dtype=bool)
        bits[0] = True
    else:
        counts = np.empty(1 << n, dtype=np.uint8)
        counts[0] = 0
        s = 1
        while s < counts.size:
            step = counts[s:2 * s]
            np.add(counts[:s], 1, out=step)
            # step is 1..p, and p <= n < 30 within the budget: step - p wraps
            # above step unless it is 0, so the minimum is step mod p
            np.minimum(step, step - np.uint8(p), out=step)
            s *= 2
        bits = np.equal(counts, 0, out=counts.view(bool))
    bits.flags.writeable = False  # the table keeps it as its bits, uncopied
    return TruthTable(n, bits)


# -- universal exact program ---------------------------------------------------


def universal_exact_qbp(f: TruthTable) -> QbProgram:
    """Read-once program of width 2^n that exactly computes ``f``.

    The single 1-amplitude starts at position 1 and, when x_i is 1, moves
    2^(n-i) positions to the right (cyclically); the final position is
    therefore 1 plus the input value, distinct for distinct inputs.  The
    accepting set marks the positions of the inputs mapped to 1, one int64
    array of 8 bytes per state made in place and kept as it is; it is empty
    for the constant-0 function.  Its levels are n + 1 Monomials (the
    identity and n shifts) sharing one phase vector.  24 bytes per state and
    level, which also cover the initial vector and the accepting set, are
    checked against ``linalg.MEMORY_BUDGET_BYTES`` first: n = 20 passes and
    n = 21 stops.
    """
    n = f.n_vars
    linalg.check_budget((n + 1) * 24 << n, "universal construction",
                        f"{n + 1} monomial levels of width 2^{n}")
    width = 1 << n
    states = np.arange(width)
    ident = Monomial(states, np.ones(width))
    # row j of the shift by s reads position j - s
    tfs = tuple(QuantumTransformation(i, ident, Monomial(np.roll(states, 1 << (n - i)), ident.phases))
                for i in range(1, n + 1))
    accepting = np.flatnonzero(f.bits)
    accepting += 1
    return QbProgram(n, width, tfs, np.eye(1, width)[0], linalg._frozen(accepting))


# -- rotation blocks -------------------------------------------------------------

@dataclass(frozen=True)
class ModBlockSpec:
    """Width-2 rotation block: multiplier k for prime modulus p on n variables."""

    p: int
    k: int
    n: int

    def __post_init__(self):
        _require_prime(self.p)
        if not 1 <= self.k <= self.p - 1:
            raise ValueError(f"multiplier k must be in [1, {self.p - 1}], got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def angle(self) -> float:
        return 2.0 * math.pi * self.k / self.p


def mod_block(spec: ModBlockSpec) -> QbProgram:
    """Stable read-once (2, n) program: reading a one rotates the plane by
    2*pi*k/p, reading a zero does nothing; accepting state is the first axis.
    """
    u0 = Monomial(np.arange(2), np.ones(2))
    u1 = linalg.rotation_matrix(spec.angle)
    tfs = tuple(QuantumTransformation(i, u0, u1) for i in range(1, spec.n + 1))
    return QbProgram(spec.n, 2, tfs, np.array([1.0, 0.0]), (1,))


def block_final_amplitudes(spec: ModBlockSpec, ones_count: int) -> tuple[float, float]:
    """Closed form for the block's final configuration on any input with
    ``ones_count`` ones: (cos, sin) of 2*pi*ones_count*k/p."""
    if ones_count < 0:
        raise ValueError(f"ones_count must be >= 0, got {ones_count}")
    theta = 2.0 * math.pi * ones_count * spec.k / spec.p
    return (math.cos(theta), math.sin(theta))


# -- good multiplier sets ---------------------------------------------------------

def _is_good(p: int, l, k):
    """The good-multiplier rule, elementwise over broadcast residues ``l``
    and multipliers ``k``: cos^2(2*pi*l*k/p) <= 1/2, within GOOD_COS2_SLACK."""
    return np.cos(2.0 * np.pi * l * k / p) ** 2 <= 0.5 + linalg.GOOD_COS2_SLACK


def good_multipliers(p: int, l: int) -> frozenset[int]:
    """Multipliers k whose block rejects inputs with l ones (mod p) with
    probability at least 1/2, i.e. cos^2(2*pi*l*k/p) <= 1/2.

    For every odd prime at least (p-1)/2 multipliers qualify; p = 2 is
    degenerate (the single rotation by pi accepts everything) and yields the
    empty set.
    """
    _require_prime(p)
    if not 1 <= l <= p - 1:
        raise ValueError(
            f"residue l must be in [1, {p - 1}]; multiples of p are accepted "
            f"with probability 1 by every block"
        )
    ks = np.arange(1, p)
    return frozenset(int(k) for k in ks[_is_good(p, l, ks)])


def _good_table(p: int) -> np.ndarray:
    """Boolean table[l-1, k-1]: is multiplier k good for residue l.  Its
    temporaries peak at 16 bytes per entry."""
    linalg.check_budget(16 * (p - 1) ** 2, "good set", f"the {p - 1} x {p - 1} multiplier table")
    return _is_good(p, np.arange(1, p).reshape(-1, 1), np.arange(1, p).reshape(1, -1))


def failing_residues(p: int, multipliers: Sequence[int]) -> tuple[int, ...]:
    """Residues whose good fraction within ``multipliers`` falls below 1/4."""
    _require_prime(p)
    ms = np.asarray(list(multipliers), dtype=np.int64)
    if ms.size == 0:
        raise ValueError("multiplier multiset must be nonempty")
    if np.any((ms < 1) | (ms > p - 1)):
        raise ValueError(f"multipliers must lie in [1, {p - 1}]")
    table = _good_table(p)
    counts = table[:, ms - 1].sum(axis=1)
    bad = np.nonzero(4 * counts < ms.size)[0]
    return tuple(int(l) + 1 for l in bad)


class GoodSetError(ValueError):
    def __init__(self, p: int, failing: tuple[int, ...], message: str):
        self.p = p
        self.failing_residues = failing
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class GoodSet:
    """Multiset of multipliers certified so that every nonzero residue has a
    good fraction of at least 1/4; verified exhaustively at construction."""

    p: int
    multipliers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "multipliers", tuple(int(k) for k in self.multipliers))
        failing = failing_residues(self.p, self.multipliers)
        if failing:
            raise GoodSetError(
                self.p, failing,
                f"multiset is not good for residues {failing} of modulus {self.p}",
            )

    @property
    def t(self) -> int:
        return len(self.multipliers)


def target_set_size(p: int) -> int:
    """Size used by randomized selection: ceil(16 ln p)."""
    return math.ceil(16.0 * math.log(p))


# seeds that sample_good_set tries, seed, seed + 1, ..., before it gives up
_SAMPLE_ATTEMPTS = 64


def sample_good_set(p: int, seed: int) -> GoodSet:
    """Draw ceil(16 ln p) multipliers i.i.d. uniformly from [1, p-1] with a
    PCG64 generator seeded by ``seed`` and certify the result exhaustively
    over residues; on failure retry with seed+1, up to ``_SAMPLE_ATTEMPTS`` draws.
    """
    _require_prime(p)
    if p < 3:
        raise ValueError(f"randomized selection needs p >= 3, got {p}")
    t = target_set_size(p)
    failing: tuple[int, ...] = ()
    for attempt in range(_SAMPLE_ATTEMPTS):
        try:
            return GoodSet(p, np.random.default_rng(seed + attempt).integers(1, p, size=t))
        except GoodSetError as e:
            failing = e.failing_residues
    raise GoodSetError(
        p, failing,
        f"no certified draw after {_SAMPLE_ATTEMPTS} attempts from seed {seed}; "
        f"last failing residues {failing}",
    )


def greedy_good_set(p: int) -> GoodSet:
    """Deterministic small multiset: repeatedly add the multiplier that is
    good for the most currently deficient residues (ties to the smallest k).

    If the greedy loop has not certified by size p-1 it falls back to one
    copy of every multiplier, which is always good."""
    _require_prime(p)
    if p < 3:
        raise ValueError(f"good-set construction needs p >= 3, got {p}")
    table = _good_table(p)
    chosen: list[int] = []
    counts = np.zeros(p - 1, dtype=np.int64)
    while len(chosen) < p - 1:
        if chosen and np.all(4 * counts >= len(chosen)):
            return GoodSet(p, tuple(chosen))
        deficient = (4 * counts < len(chosen) + 1) if chosen else np.ones(p - 1, dtype=bool)
        scores = table[deficient, :].sum(axis=0)
        k = int(np.argmax(scores)) + 1
        chosen.append(k)
        counts += table[:, k - 1]
    if np.all(4 * counts >= len(chosen)):
        return GoodSet(p, tuple(chosen))
    return GoodSet(p, tuple(range(1, p)))


# -- parallel composition -----------------------------------------------------------

# bytes per level of a MOD_p program, whose levels share one (u0, u1) pair:
# its QuantumTransformation object, traced (tracemalloc) at up to 181
_LEVEL_BYTES = 256


def compose_parallel(blocks: Sequence[QbProgram]) -> QbProgram:
    """Block-diagonal composition of programs over the same variable sequence.

    The initial configuration concatenates the blocks' initial vectors scaled
    by sqrt(1/len(blocks)); acceptance of the composite is then the mean of
    the blocks' acceptances.  Each composite level gets dense u0 and u1 of
    its own.  ``build_mod_program`` builds, bit for bit, the composition of
    its rotation blocks without composing them; this is its oracle.
    """
    if not blocks:
        raise ValueError("need at least one block")
    first = blocks[0]
    for b in blocks[1:]:
        if b.n_vars != first.n_vars:
            raise ValueError("blocks disagree on n_vars")
        if b.var_sequence != first.var_sequence:
            raise ValueError("blocks disagree on their variable sequences")
    width = sum(b.width for b in blocks)
    offsets = np.cumsum([0] + [b.width for b in blocks])

    tfs = []
    for level in range(first.length):
        u0 = np.zeros((width, width), dtype=np.complex128)
        u1 = np.zeros((width, width), dtype=np.complex128)
        for b, off in zip(blocks, offsets):
            sl = slice(off, off + b.width)
            u0[sl, sl] = b.transformations[level].u0
            u1[sl, sl] = b.transformations[level].u1
        tfs.append(QuantumTransformation(first.transformations[level].var_index, u0, u1))

    initial = np.concatenate([math.sqrt(1.0 / len(blocks)) * b.initial for b in blocks])
    accepting = np.concatenate([off + b.accepting for b, off in zip(blocks, offsets)])
    return QbProgram(first.n_vars, width, tuple(tfs), initial, accepting)


def build_mod_program(p: int, n: int, strategy: str = "greedy", seed: int = 0) -> QbProgram:
    """Divisibility program: one rotation block per multiplier in a certified
    good set, composed in parallel.

    Accepts inputs whose count of ones is divisible by p with probability 1
    and rejects the rest with probability at least 1/8.  Width is twice the
    good-set size.  The usual regime is p <= n/2; outside it a warning is
    emitted but the construction still goes through.

    The program is stable, so its pair is built once, as
    ``compose_parallel`` of the ``mod_block`` programs would build it at
    every level: u0 the identity Monomial, u1 the block-diagonal rotations
    by 2*pi*k/p.  All n levels share that pair, and the initial vector has
    sqrt(1/t) at the blocks' first states.  The dense u1 and its unitarity
    check's temporaries, counted as 4 u1 and numpy's ufunc buffers (traced
    at up to 4.7 u1 in all for widths 84 to 268), ``_LEVEL_BYTES`` per level
    and 16 KiB once are checked against ``linalg.MEMORY_BUDGET_BYTES``
    before the pair is built.
    """
    _require_prime(p)
    if strategy == "greedy":
        good = greedy_good_set(p)
    elif strategy == "sampled":
        good = sample_good_set(p, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; use 'greedy' or 'sampled'")
    width = 2 * good.t
    linalg.check_budget(16 * (4 * width * width + 2 * np.getbufsize()) + n * _LEVEL_BYTES + (16 << 10),
                        "mod construction", f"{n} levels of width {width} sharing one pair")
    if p > n / 2:
        warnings.warn(
            f"modulus {p} exceeds n/2 = {n / 2}; counts of ones cover fewer residues",
            stacklevel=2,
        )
    u1 = np.zeros((width, width), dtype=np.complex128)
    for i, k in enumerate(good.multipliers):
        u1[2 * i:2 * i + 2, 2 * i:2 * i + 2] = linalg.rotation_matrix(ModBlockSpec(p, k, n).angle)
    first = QuantumTransformation(1, Monomial(np.arange(width), np.ones(width)), linalg._frozen(u1))
    tfs = (first, *(QuantumTransformation._sharing(j, *first.unitaries) for j in range(2, n + 1)))
    initial = np.zeros(width)
    initial[0::2] = math.sqrt(1.0 / good.t)
    return QbProgram(n, width, tfs, initial, np.arange(1, width, 2))


# -- permutation branching programs ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class PermutationBp:
    """Classical leveled permutation branching program.

    Each level holds (var_index, perm0, perm1); ``perm[s-1]`` is the 1-based
    successor of state s when the read bit selects that permutation.
    """

    width: int
    levels: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    start: int
    accepting: frozenset[int]

    def __post_init__(self):
        levels = tuple(
            (_integer(var, f"level {i} var"),
             tuple(_integer(x, f"level {i} perm0 entry") for x in p0),
             tuple(_integer(x, f"level {i} perm1 entry") for x in p1))
            for i, (var, p0, p1) in enumerate(self.levels, start=1)
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "width", _integer(self.width, "width"))
        object.__setattr__(self, "start", _integer(self.start, "start state"))
        object.__setattr__(self, "accepting",
                           frozenset(_integer(s, "accepting state") for s in self.accepting))
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 1 <= self.start <= self.width:
            raise ValueError(f"start state {self.start} outside [1, {self.width}]")
        for s in self.accepting:
            if not 1 <= s <= self.width:
                raise ValueError(f"accepting state {s} outside [1, {self.width}]")
        for i, (var, p0, p1) in enumerate(levels, start=1):
            if var < 1:
                raise ValueError(f"level {i} reads variable {var} < 1")
            for name, perm in (("perm0", p0), ("perm1", p1)):
                if sorted(perm) != list(range(1, self.width + 1)):
                    raise ValueError(f"level {i} {name} is not a permutation of 1..{self.width}")


def permutation_bp_to_qbp(b: PermutationBp, n_vars: int | None = None) -> QbProgram:
    """Exact quantum embedding: permutation matrices keep the configuration a
    standard basis vector, so acceptance is 0 or 1 and equals the classical
    decision."""
    if n_vars is None:
        n_vars = max(var for var, _, _ in b.levels) if b.levels else 1
    # state s moves to perm[s - 1]: row k reads column argsort(perm)[k]
    ones = linalg.as_cvector(np.ones(b.width))
    tfs = tuple(QuantumTransformation(var, Monomial(np.argsort(p0), ones), Monomial(np.argsort(p1), ones))
                for var, p0, p1 in b.levels)
    return QbProgram(n_vars, b.width, tfs, np.eye(1, b.width, b.start - 1)[0], b.accepting)
