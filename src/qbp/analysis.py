"""Configuration-space analysis of read-once programs.

The reachable configurations per level form a deterministic automaton whose
transitions preserve Euclidean distance (they are restrictions of the
program's unitaries).  Partitioning each level's configurations into
theta-components (transitive closure of steps of length at most theta) and
tracking where components go yields a deterministic OBDD that classifies
inputs exactly like the program does at a given margin, with width bounded
by a sphere-packing count of (1 + 2/theta)^(2d).  The automaton and the OBDD
are leveled DAGs: the program's check on its final configurations and
``Obdd.classify_all`` gather a value per node of the last level to every
input by one split walk (``program._split_walk``), which cuts the DAG where
the fewest ids are walked.

Both geometric steps, collapsing configurations within 1e-9 of each other
and chaining them into theta-components, rest on one query of one
fixed-radius near-neighbour primitive, the pairs of rows of one block
within a radius (``_near_pairs``): sort the configurations by
their projection Re<x, r> onto one fixed unit direction r and compare only
those whose projections lie within the radius.  The projection is
1-Lipschitz (|Re<x - y, r>| <= ||x - y||), so no pair within the radius is
skipped, and every pair kept or ruled out is decided by its explicit
distance: the result is exact, not an approximation, in any width.

The universal program and a permutation BP's embedding reach only one-hot
configurations c e_k, kept as (index, phase) pairs (``program._one_hot``).
Two of one index lie |c - c'| apart, others sqrt(|c|^2 + |c'|^2), and the
keyed rows [c, 4k] differ by [c - c', 0] or by 4 or more: so below the
fallback line sqrt(2 min |c|^2) ``_near_pairs`` pairs them as the dense
rows, at the same distances, and above it the dense rows are built.

The derived OBDD and the minimal OBDD of a function share one type,
``Obdd``.  The minimal one is built bottom up, as a quasi-reduced OBDD with
one unique table per level: the leaves are the table's values in
input-value order for the variable order, and the nodes of a level are the
distinct (low, high) pairs of nodes of the level below, keyed as
low * width + high.  The keys of a level lie below width^2, so where width^2
is at most the number of pairs they are ranked through a presence table of
width^2 flags: the keys present, in order, and each pair's rank among them
(a running count of the flags, in the narrowest unsigned dtype that holds
the level's width), in linear time and without a sort.  Only the wide
levels near the root of an unstructured table, with more possible keys than
pairs, sort their pairs with ``np.unique``.  The last three variables of the
order are not reduced over the table: they are folded into one byte per node
of level n - 3, its subfunction, and only the at most 256 distinct bytes are
reduced to the bottom three levels.  A level's nodes depend only on the set
of pairs present, so the result is the same as reducing every level over the
table, in less time and memory (see ``min_obdd_width``).

Also here: the measured accept/reject separation of a read-once program
(the theta of the lower bound, over its last reachable level), read off the
accept x reject Gram block, with explicit distances where the Gram form
cancels; the two closed-form separation lower bounds, and integer width
lower bounds derived from the packing inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import CHAIN_INSET, CHAIN_SLACK, CONFIG_DEDUP_TOL, NORM_DRIFT_TOL, _frozen, check_budget
from .program import (
    Margin,
    QbProgram,
    TruthTable,
    _by_input,
    _column_accept_probs,
    _failing_by_node,
    _one_hot,
    _one_hot_doubled,
    _split_walk,
    bits_of_value,
    is_read_once,
)

_PROJECTION_SEED = 20030205
_GRAM_BLOCK_ROWS = 128
_DIFF_BLOCK_ELEMS = 1 << 20
_ONE_HOT_BYTES = 192  # bytes per one-hot candidate of a level: traced at up to 182, earlier levels included
_DEDUP_BYTES = 64  # dedup bookkeeping (projections, order, bounds) per dense candidate: traced at up to 52


def _explicit_sq_distances(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """sum |b[j] - a[i]|^2 per pair, from explicit differences."""
    out = np.empty(i.shape[0], dtype=np.float64)
    step = max(1, _DIFF_BLOCK_ELEMS // max(1, a.shape[1]))
    for s in range(0, i.shape[0], step):
        diff = b[j[s:s + step]] - a[i[s:s + step]]
        out[s:s + step] = np.sum(np.abs(diff) ** 2, axis=1)
    return out


def _near_pairs(mat: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of rows at distance at most ``radius``, exactly.

    Returns index arrays ``i`` < ``j`` and the squared distances ``d2`` of
    all pairs of rows of ``mat`` with ||mat[i] - mat[j]|| <= radius.

    Fixed-radius sort and sweep (Bentley, Stanat & Williams 1977): every row
    is projected onto one fixed unit direction r, as Re<x, r>.  The
    projection is 1-Lipschitz, so the rows within ``radius`` of x all
    project into a window of half-width ``radius`` around x's projection,
    widened by a bound on the projection's rounding.  Only the window pairs
    are scored, in blocks of Gram products ||x||^2 + ||y||^2 - 2 Re<x, y>,
    which discard every pair whose Gram value exceeds radius^2 by more than
    its rounding bound.  The pairs left are decided, and their ``d2``
    computed, by explicit differences sum |y - x|^2.  So the result is the
    set of pairs whose explicitly computed squared distance is at most
    radius^2: the set an all-pairs scan gives, in any dimension.
    """
    a = np.ascontiguousarray(mat, dtype=np.complex128)
    # real rows of twice the length: Re<x, y> is their plain dot product
    ra = a.view(np.float64)
    direction = np.random.default_rng(_PROJECTION_SEED).standard_normal(ra.shape[1])
    direction /= np.linalg.norm(direction)
    sq = np.einsum("ij,ij->i", ra, ra)
    max_sq = float(sq.max(initial=0.0))
    # Rounding bounds, each with a factor of 2 or more to spare: a length-k
    # dot product errs by at most k*eps/2*|x||y|; the explicit squared
    # distance of a pair near the radius, by k*eps*radius^2.
    eps = np.finfo(np.float64).eps
    k = ra.shape[1] + 4
    r2 = radius * radius
    half = radius * (1.0 + k * eps) + 4.0 * k * eps * math.sqrt(max_sq)
    gram_err = 4.0 * k * eps * (max_sq + r2)

    proj = ra @ direction
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    lo = np.arange(1, a.shape[0] + 1)
    hi = np.searchsorted(sorted_proj, sorted_proj + half, side="right")

    empty = np.empty(0, dtype=np.intp)
    found_i, found_j, found_d2 = [empty], [empty], [np.empty(0)]
    for s0 in range(0, a.shape[0], _GRAM_BLOCK_ROWS):
        blo, bhi = lo[s0:s0 + _GRAM_BLOCK_ROWS], hi[s0:s0 + _GRAM_BLOCK_ROWS]
        rows = np.nonzero(bhi > blo)[0]
        if rows.size == 0:
            continue
        blo, bhi = blo[rows], bhi[rows]
        c0, c1 = int(blo[0]), int(bhi[-1])
        cover = np.zeros(c1 - c0 + 1, dtype=np.int64)
        np.add.at(cover, blo - c0, 1)
        np.add.at(cover, bhi - c0, -1)
        cols = c0 + np.nonzero(np.cumsum(cover[:-1]) > 0)[0]
        ii, jj = order[s0 + rows], order[cols]
        d2 = sq[ii][:, None] + sq[jj][None, :] - 2.0 * (ra[ii] @ ra[jj].T)
        window = (cols[None, :] >= blo[:, None]) & (cols[None, :] < bhi[:, None])
        pi, pj = np.nonzero(window & (d2 <= r2 + gram_err))
        exact = _explicit_sq_distances(a, a, ii[pi], jj[pj])
        keep = exact <= r2
        found_i.append(ii[pi[keep]])
        found_j.append(jj[pj[keep]])
        found_d2.append(exact[keep])
    i, j, d2 = np.concatenate(found_i), np.concatenate(found_j), np.concatenate(found_d2)
    return np.minimum(i, j), np.maximum(i, j), d2


def _greedy_dedup(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Collapse rows in order: a row is kept unless a kept earlier row lies
    within ``tol``; then it maps to the nearest such row, the lowest index on
    ties.  Returns the kept rows (a frozen block) and, for every row, the
    index among the kept rows that it maps to.

    One ``_near_pairs`` query finds every pair within ``tol``.  One pass over
    the pairs in order of their later row decides which rows are kept (a
    pair's earlier row is settled before it), and one lexsort maps each
    dropped row to its nearest kept row.  Distances come from explicit
    differences, so nearest rows and ties are those of the plain sequential
    loop.  The rows are the candidates of one read-once level, and the
    u0-images of the previous level's kept rows are pairwise more than
    ``tol`` apart, as are its u1-images, so no large cluster of near rows
    (and no quadratic number of pairs) arises.
    """
    i, j, d2 = _near_pairs(rows, tol)
    order = np.argsort(j, kind="stable")
    is_new = [True] * rows.shape[0]
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if is_new[a]:
            is_new[b] = False
    is_new = np.array(is_new, dtype=bool)
    index = np.cumsum(is_new) - 1
    # per dropped row, the nearest kept earlier row, the lowest index on ties
    near = is_new[i]
    i, j, d2 = i[near], j[near], d2[near]
    order = np.lexsort((i, d2, j))
    first = order[np.unique(j[order], return_index=True)[1]]
    index[j[first]] = index[i[first]]
    out = rows[is_new]
    out.flags.writeable = False
    return out, index


@dataclass(frozen=True, eq=False)
class LevelConfigurations:
    """The ``len`` distinct configurations reachable at one level.

    ``configs`` is a frozen (m, width) block, one configuration per row:
    ``block``, or built on each read (budget checked) from a one-hot level's
    ``index`` and ``phase``, row i being phase[i] e_index[i].  Walking
    ``prev_transitions[i, b]``, the row reached from row i of the previous
    level on bit b (empty at level 0), from row 0 gives an input's row.
    """

    prev_transitions: np.ndarray
    width: int
    block: np.ndarray | None = None
    index: np.ndarray | None = None
    phase: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.block if self.index is None else self.index)

    @property
    def configs(self) -> np.ndarray:
        if self.index is None:
            return self.block
        check_budget(16 * len(self) * self.width, "configuration",
                     f"{len(self)} one-hot configurations of width {self.width}")
        out = np.zeros((len(self), self.width), dtype=np.complex128)
        out[np.arange(len(self)), self.index] = self.phase
        return _frozen(out)


def _require_read_once(p: QbProgram) -> None:
    if not is_read_once(p):
        raise ValueError("reachable-configuration enumeration requires a read-once program")


def reachable_configurations(p: QbProgram) -> list[LevelConfigurations]:
    """Enumerate distinct configurations per level, deduplicated at 1e-9.

    Requires a read-once program (each level branches on a fresh variable,
    so length-j prefixes are exactly the 2^j read-bit sequences).  Each
    level applies both unitaries to the whole block of the previous level's
    configurations and collapses the 2m candidates (configuration i on bit
    b is candidate 2i + b) greedily in candidate order: a candidate within
    1e-9 of a kept earlier one maps to the nearest, lowest index on ties.
    Near candidates are found by an exact sort and sweep (``_near_pairs``),
    not by comparing all pairs.  Before a level's candidates are built, they
    and the kept block of their dedup, 2 * 2m * width * 16 bytes, and the
    dedup's bookkeeping, ``_DEDUP_BYTES`` per candidate, beside the levels
    already kept, numpy's ufunc buffer and 16 KiB, are checked against
    ``linalg.MEMORY_BUDGET_BYTES``: the count of the whole call so far.
    A one-hot program's levels, the same ones, are found on keyed rows, with
    ``_ONE_HOT_BYTES`` checked per candidate instead.
    """
    _require_read_once(p)
    start = _one_hot(p)
    first = (dict(block=p.initial[None, :]) if start is None
             else dict(index=_frozen(np.array([start])), phase=p.initial[start:start + 1]))
    levels = [LevelConfigurations(np.empty((0, 2), dtype=np.int64), p.width, **first)]
    held = 16 * np.getbufsize() + (16 << 10)
    for tf in p.transformations:
        prev, m = levels[-1], len(levels[-1])
        if start is None:
            held += prev.block.nbytes + prev.prev_transitions.nbytes
            check_budget(2 * m * (2 * p.width * 16 + _DEDUP_BYTES) + held, "configuration",
                         f"level {len(levels)} ({2 * m} candidates of width {p.width}, their kept block, "
                         f"their dedup and the {len(levels)} levels kept)")
            candidates = np.empty((2 * m, p.width), dtype=np.complex128)
            candidates[0::2] = tf.apply_to_columns(0, prev.block.T).T
            candidates[1::2] = tf.apply_to_columns(1, prev.block.T).T
        else:
            check_budget(_ONE_HOT_BYTES * 2 * m, "configuration",
                         f"level {len(levels)} ({2 * m} one-hot candidates)")
            k, c = _one_hot_doubled(tf, prev.index, prev.phase)
            candidates = np.stack((c, 4.0 * k), axis=1)  # keyed rows
        block, index = _greedy_dedup(candidates, CONFIG_DEDUP_TOL)
        del candidates  # release it before the next level allocates its own
        norms = np.linalg.norm(block if start is None else block[:, :1], axis=1)
        if np.any(np.abs(norms - 1.0) > NORM_DRIFT_TOL):
            raise RuntimeError("reachable configuration drifted off unit norm")
        kept = (dict(block=block) if start is None  # else the keyed rows [c, 4k] as the pairs (k, c)
                else dict(index=_frozen(block[:, 1].real.astype(np.intp) >> 2),
                          phase=_frozen(block[:, 0].copy())))
        levels.append(LevelConfigurations(_frozen(index.reshape(-1, 2)), p.width, **kept))
    return levels


@dataclass(frozen=True, eq=False)
class ThetaPartition:
    """Partition of a block of configurations into theta-components (pairs
    at distance <= theta, with a 1e-12 slack, chained transitively).

    ``component_of[i]`` is the component of row i, as a frozen int array;
    components are numbered in order of their smallest member.
    """

    component_of: np.ndarray
    count: int


def _connected_components(m: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component of each vertex 0..m-1 of the graph with edges (i[k], j[k]),
    numbered in order of the components' smallest members.

    Hook and compress: every edge whose endpoints lie in different trees
    hooks the larger root under the smaller one, then every vertex jumps to
    its root.  Each round removes a root, and a root is the smallest vertex
    of its tree, so when no edge joins two trees every root is the smallest
    member of its component.
    """
    root = np.arange(m)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            break
        i, j, ri, rj = i[cross], j[cross], ri[cross], rj[cross]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(root[root], root):
            root = root[root]
    return np.unique(root, return_inverse=True)[1]


def theta_components(configs: np.ndarray, theta: float) -> ThetaPartition:
    """Connected components of the pairs of rows at distance <= theta + 1e-12.

    The pairs come from ``_near_pairs``, an exact fixed-radius sort and
    sweep: each pair it returns, and each it rules out, is decided by its
    explicit distance, so the partition is that of a dense all-pairs scan
    without the m x m distance matrix.  At theta = inf every pair is within
    reach, so the rows form one component without a query.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    mat = np.asarray(configs, dtype=np.complex128)
    if theta == math.inf:
        component_of = np.zeros(len(mat), dtype=np.intp)
    else:
        ii, jj, _ = _near_pairs(mat, theta + CHAIN_SLACK)
        component_of = _connected_components(len(mat), ii, jj)
    component_of.flags.writeable = False
    count = int(component_of.max()) + 1 if component_of.size else 0
    return ThetaPartition(component_of, count)


def _chained_rows(lv: LevelConfigurations, theta: float) -> np.ndarray:
    """Rows with the ``theta_components`` of ``lv.configs``: keyed below the fallback line."""
    r = theta + CHAIN_SLACK
    if lv.index is not None and (theta == math.inf or r * r < 2.0 * float(np.min(np.abs(lv.phase) ** 2))):
        return np.stack((lv.phase, 4.0 * lv.index), axis=1)
    return lv.configs


# -- separation bounds -----------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    """Closed-form separation bounds for a margin and width.

    theta1 = epsilon / sqrt(d).  theta2 = sqrt(1 + 2 eps - 4 sqrt(1/2 - eps))
    when the radicand is positive (roughly eps > 0.33), else 0; the radicand
    is reported so callers can see its sign.
    """

    epsilon: float
    d: int
    theta1: float
    theta2: float
    theta2_radicand: float


def theta_bounds(epsilon: float, d: int) -> SeparationReport:
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if d < 1:
        raise ValueError(f"width must be >= 1, got {d}")
    theta1 = epsilon / math.sqrt(d)
    radicand = 1.0 + 2.0 * epsilon - 4.0 * math.sqrt(0.5 - epsilon)
    theta2 = math.sqrt(radicand) if radicand > 0 else 0.0
    return SeparationReport(epsilon, d, theta1, theta2, radicand)


def _classified_final_configs(
    p: QbProgram, f: TruthTable, epsilon: float
) -> tuple[float, np.ndarray, list[LevelConfigurations]]:
    """The least distance between a distinct final configuration of a
    read-once program that accepts at margin ``epsilon`` and one that
    rejects (``_min_cross_distance``), the mask of those that accept (every
    other one rejects), and the reachable levels, so callers need not
    enumerate them again.

    A program that is not read-once is refused first.  The final
    configurations are the last reachable level, and every input accepts as
    the row that the levels' transitions take it to, so the program is
    checked against ``f`` at the margin on the rows: ``_failing`` decides
    each row once per bit, and the verdicts are gathered to the inputs
    (``_failing_by_node``), with no second pass over the inputs and no
    probability held per input.  A refusal names the first failing input and
    the acceptance of its row.  Every final configuration is some input's,
    so one inside the margin band fails that input.  A one-hot level's two
    classes, if they share no index, are measured on their phases alone.
    """
    _require_read_once(p)
    if p.n_vars != f.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    levels = reachable_configurations(p)
    final = levels[-1]
    final_probs = _column_accept_probs(final.block.T if final.index is None else final.phase, p, final.index)
    tables = [lv.prev_transitions for lv in levels[1:]]
    bad = _failing_by_node(tables, final_probs, p.var_sequence, f.bits, Margin(epsilon))
    if bad.size:
        bits, node = bits_of_value(int(bad[0]), p.n_vars), 0
        for table, j in zip(tables, p.var_sequence):
            node = table[node, bits[j - 1]]
        raise ValueError(
            f"program does not compute the table with margin {epsilon}: input "
            f"{''.join(map(str, bits))} has acceptance {float(final_probs[node])!r}"
        )
    accepts = final_probs > 0.5  # the margin rule's class, as every final configuration meets it
    one_hot = final.index is not None and not np.intersect1d(final.index[accepts], final.index[~accepts]).size
    rows, width = (final.phase[:, None], final.width) if one_hot else (final.configs, None)
    return _min_cross_distance(rows[accepts], rows[~accepts], width), accepts, levels


def _min_cross_distance(a: np.ndarray, b: np.ndarray, width: int | None = None) -> float:
    """Smallest explicit distance between a row of ``a`` and a row of ``b``;
    inf when either block is empty.  With ``width``, the rows are the phases
    of two classes of one-hot configurations with no index in common, so each
    pair lies sqrt(|c|^2 + |c'|^2) apart.

    Otherwise the Gram block ||x||^2 + ||y||^2 - 2 Re<x, y> finds the pairs
    whose Gram value is within twice its rounding bound err of the Gram
    minimum g; they hold the nearest pair, and the least of their explicit
    distances sum |y - x|^2 is returned, so a small distance, where the Gram
    form cancels, is exact too.  The Gram block and its temporaries, 32 bytes
    per pair, are checked against ``linalg.MEMORY_BUDGET_BYTES`` first.
    """
    if not len(a) or not len(b):
        return math.inf
    if width is not None:
        return math.sqrt(float(np.min(np.abs(a) ** 2) + np.min(np.abs(b) ** 2)))
    sa, sb = (np.einsum("ij,ij->i", x, x.conj()).real for x in (a, b))
    check_budget(32 * len(a) * len(b), "separation",
                 f"the Gram matrix of {len(a)} x {len(b)} final configurations")
    two_re = 2.0 * (a @ b.conj().T).real  # before the sums, so the complex product is freed first
    d2 = np.maximum(sa[:, None] + sb[None, :] - two_re, 0.0)
    g = float(d2.min())
    # the rounding bound of the Gram values, for rows of length 2d
    err = 4.0 * (2 * a.shape[1] + 4) * np.finfo(np.float64).eps * (max(sa.max(), sb.max()) + g)
    i, j = np.nonzero(d2 <= g + 2.0 * err)
    return math.sqrt(float(_explicit_sq_distances(a, b, i, j).min()))


def measured_separation(p: QbProgram, f: TruthTable, epsilon: float) -> float:
    """Minimum distance between a final configuration accepted at margin
    epsilon and one rejected at that margin, over all inputs of a read-once
    program: the separation theta of the read-once lower bound.

    Returns ``math.inf`` when one of the two classes is empty (for example a
    program accepting every input).  Raises if the program is not read-once
    or does not compute ``f`` with the given margin.
    """
    return _classified_final_configs(p, f, epsilon)[0]


# -- OBDDs ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Obdd:
    """Leveled deterministic OBDD: ``transitions[j][c, b]`` is the node at
    level j+1 reached from node c of level j when variable
    ``var_sequence[j]`` is b.  The root is node 0; ``accepting`` holds the
    accepting nodes of the last level, 0-based, as a frozen, sorted,
    duplicate-free int array.  Only a derived OBDD sets ``theta``
    and ``reachable_counts``: its nodes at level j are theta-components of
    the ``reachable_counts[j]`` distinct reachable configurations.
    """

    n_vars: int
    var_sequence: tuple[int, ...]
    level_widths: tuple[int, ...]
    transitions: tuple[np.ndarray, ...]
    accepting: np.ndarray
    theta: float | None = None
    reachable_counts: tuple[int, ...] | None = None

    @property
    def level_counts(self) -> tuple[int, ...]:
        """Alias of ``level_widths``; ``perfbench/workloads.py`` reads this name."""
        return self.level_widths

    @property
    def max_width(self) -> int:
        return max(self.level_widths)

    def classify_all(self) -> np.ndarray:
        """Boolean decision for every input value: whether each node of the
        last level accepts, gathered to the leaves by ``_split_walk`` and
        put in input order (a byte per input)."""
        accepts = np.isin(np.arange(self.level_widths[-1]), self.accepting)
        return _by_input(_split_walk(self.transitions, accepts, 1, self.n_vars), self.var_sequence, self.n_vars)


def packing_width_bound(theta: float, d: int) -> float:
    """Sphere-packing bound (1 + 2/theta)^(2d) on the number of
    theta-components of unit-norm configurations in width d; ``math.inf``
    when it exceeds the float range (about 10^308)."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if d < 1:
        raise ValueError(f"width must be >= 1, got {d}")
    try:
        return (1.0 + 2.0 / theta) ** (2 * d)
    except OverflowError:
        return math.inf


def derive_deterministic_obdd(
    p: QbProgram, f: TruthTable, theta: float | None, epsilon: float
) -> Obdd:
    """Build the component OBDD for a program that computes ``f`` with margin
    ``epsilon``, under the hypothesis theta <= measured separation.  With
    ``theta`` None, the measured separation itself is used (``obdd.theta``).

    Components are chained strictly inside ``theta`` (threshold theta -
    CHAIN_INSET) so that accept/reject pairs at exactly the measured
    separation stay in distinct components; ``theta`` itself is what the
    packing bound is quoted against.  A transition mapping one component to
    two would contradict distance preservation and raises RuntimeError.  A
    program that is not read-once is refused before any configuration is
    computed.
    """
    if theta is not None and not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    sep, accepts, levels = _classified_final_configs(p, f, epsilon)
    if theta is None:
        theta = sep
    elif theta > sep + CHAIN_SLACK:
        raise ValueError(
            f"theta {theta} exceeds the measured accept/reject separation {sep}; "
            f"an accepting and a rejecting configuration lie at distance {sep}"
        )
    chain_theta = theta - CHAIN_INSET if theta > 2 * CHAIN_INSET else theta / 2
    parts = [theta_components(_chained_rows(lv, chain_theta), chain_theta) for lv in levels]

    tables: list[np.ndarray] = []
    for j in range(1, len(levels)):
        src = parts[j - 1].component_of
        tgt = parts[j].component_of[levels[j].prev_transitions]
        # each component moves as its smallest member does; any other member
        # that moves elsewhere is a clash
        table = tgt[np.unique(src, return_index=True)[1]]
        clash = np.argwhere(table[src] != tgt)
        if clash.size:
            i, b = (int(x) for x in clash[0])
            c = int(src[i])
            raise RuntimeError(
                f"transition ambiguity at level {j} on bit {b}: component {c} "
                f"maps to components {int(table[c, b])} and {int(tgt[i, b])}; "
                f"distance preservation was violated"
            )
        table.flags.writeable = False
        tables.append(table)

    final = parts[-1].component_of
    accepting = np.unique(final[accepts])
    mixed = np.intersect1d(accepting, final[~accepts])
    if mixed.size:
        raise RuntimeError(
            f"final component {int(mixed[0])} mixes accepting and rejecting configurations"
        )
    return Obdd(
        n_vars=p.n_vars,
        var_sequence=p.var_sequence,
        level_widths=tuple(pt.count for pt in parts),
        transitions=tuple(tables),
        accepting=_frozen(accepting),
        theta=theta,
        reachable_counts=tuple(len(lv) for lv in levels),
    )


def _ranked_pairs(ids: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of a level from the ids of the level below, shaped (x, 2, y)
    and paired along axis 1: the keys low * w + high present, in order, and
    each pair's rank among them.  The pairs are cast to ``intp`` once; where
    w^2 is at most their number they are ranked through a presence table and
    a running count of its flags in the narrowest unsigned dtype that holds
    the level's width, so the ids stay narrow, and by ``np.unique`` otherwise."""
    pairs = ids[:, 0].astype(np.intp)
    pairs *= w
    pairs += ids[:, 1]
    pairs = pairs.reshape(-1)
    if w * w > pairs.size:
        return np.unique(pairs, return_inverse=True)
    present = np.zeros(w * w, dtype=bool)
    present[pairs] = True
    keys = np.flatnonzero(present)
    rank = np.cumsum(present, dtype=np.min_scalar_type(keys.size))
    rank -= 1
    return keys, rank.take(pairs)


def min_obdd_width(f: TruthTable, order: Sequence[int] | None = None) -> Obdd:
    """The minimal quasi-reduced OBDD of ``f`` for a variable order (default
    1..n), built bottom up with one unique table per level (Bryant 1986; see
    the module docstring).  Its nodes at level j are the distinct
    subfunctions after fixing the first j variables of the order.

    The last k = min(n, 3) variables of the order are folded into one byte
    per node of level n - k, its subfunction: bit j is the table's value at
    the bottom assignment j, the last variable its lowest bit.  Each fold
    pairs the slices along its variable's axis of the table, an axis per
    variable in ``axes`` (not yet removed), so no order transposes the table.
    The bytes present are found through a presence table of 256 flags, and
    only those distinct bytes are unpacked and reduced to the bottom k levels;
    the nodes of level n - k are their ranks, gathered through a 256-entry
    table.  The levels above are reduced from these ranks, each level's ids
    in the narrowest unsigned dtype that holds its width (``_ranked_pairs``).
    Leaf values present come from ``any`` and ``all``, and every transition
    table is ``intp``.  The arrays peak at up to 4.8 bytes per table entry
    for a random table, whose level n - 4 is sorted below n = 20, and at 1.5
    to 2.9 for MOD_p and constant tables (tracemalloc, n = 16 to 22, with and
    without an order), within the 6 checked against
    ``linalg.MEMORY_BUDGET_BYTES`` first."""
    n = f.n_vars
    check_budget(6 << n, "width oracle", f"a table of 2^{n} entries")
    order = tuple(range(1, n + 1)) if order is None else tuple(int(v) for v in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    # the values present, in order; a leaf's id is its value's rank among them
    any_true = bool(f.bits.any())
    values = [False, True] if any_true and not f.bits.all() else [any_true]
    k, axes = min(n, 3), list(range(1, n + 1))
    packed = np.ascontiguousarray(f.bits).view(np.uint8)
    for i, v in enumerate(reversed(order[n - k:])):
        # fold v in as bit 2^i of the bottom assignment: high slice << s | low
        # slice, s = 2^i.  A byte holds s bits before the fold, so no shift
        # carries into the next byte and the slices are shifted as words: a
        # slice of r < 8 bytes as one little-endian word, low slice then high,
        # shifted right by 8r - s and or-ed with itself into its low r bytes;
        # longer slices as 8-byte words
        lead = 1 << axes.index(v)
        axes.remove(v)
        r, s = packed.size // (2 * lead), 1 << i
        if r < 8:
            pair = packed.view(f"<u{2 * r}")
            out = np.empty(pair.size, f"<u{r}")
            np.right_shift(pair, 8 * r - s, out=out, casting="unsafe")
            np.bitwise_or(out, pair, out=out, casting="unsafe")
        else:
            halves = packed.reshape(lead, 2, r).view(np.uint64)
            out = halves[:, 1] << np.uint64(s)
            out |= halves[:, 0]
        packed = out.view(np.uint8).reshape(-1)
    present = np.zeros(256, dtype=bool)
    present[packed] = True
    distinct = np.flatnonzero(present)
    leaves = np.unpackbits(distinct.astype(np.uint8)[:, None], axis=1, count=1 << k, bitorder="little")
    leaves -= np.uint8(values[0])
    widths, tables = [len(values)], []

    def reduce(ids: np.ndarray, lead: int, axes: list[int], variables: Sequence[int]) -> np.ndarray:
        for v in reversed(variables):
            w = widths[-1]
            keys, ids = _ranked_pairs(ids.reshape(lead << axes.index(v), 2, -1), w)
            axes.remove(v)
            table = np.stack(np.divmod(keys.astype(np.intp, copy=False), w), axis=1)
            table.flags.writeable = False
            widths.append(keys.size)
            tables.append(table)
        return ids

    bottom = reduce(leaves, distinct.size, list(order[n - k:]), order[n - k:])
    rank = np.zeros(256, dtype=bottom.dtype)
    rank[distinct] = bottom.reshape(-1)
    reduce(rank.take(packed), 1, axes, order[:n - k])
    return Obdd(
        n_vars=n,
        var_sequence=order,
        level_widths=tuple(widths[::-1]),
        transitions=tuple(tables[::-1]),
        accepting=_frozen(np.flatnonzero(values)),
    )


def lower_bound_width(t: int, epsilon: float, mode: str = "general") -> int:
    """Smallest program width consistent with a minimal OBDD width of ``t``.

    mode "general": smallest d with (1 + 2 sqrt(d)/epsilon)^(2d) >= t, the
    packing inequality at separation epsilon/sqrt(d).  mode "margin": uses
    the d-free separation theta2 and returns
    ceil(log2 t / (2 log2(1 + 1/theta2))); requires a positive radicand.
    """
    if t < 2:
        raise ValueError(f"need a minimal OBDD width of at least 2, got {t}")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if mode == "general":
        log_t = math.log(t)
        d = 1
        while 2.0 * d * math.log1p(2.0 * math.sqrt(d) / epsilon) < log_t:
            d += 1
        return d
    if mode == "margin":
        rep = theta_bounds(epsilon, 1)
        if rep.theta2_radicand <= 0:
            raise ValueError(
                f"margin mode needs a positive radicand; epsilon {epsilon} "
                f"gives {rep.theta2_radicand}"
            )
        return max(1, math.ceil(math.log2(t) / (2.0 * math.log2(1.0 + 1.0 / rep.theta2))))
    raise ValueError(f"unknown mode {mode!r}; use 'general' or 'margin'")
