"""Configuration-space analysis of read-once programs.

The reachable configurations per level form a deterministic automaton whose
transitions preserve Euclidean distance (they are restrictions of the
program's unitaries).  Partitioning each level's configurations into
theta-components (transitive closure of steps of length at most theta) and
tracking where components go yields a deterministic OBDD that classifies
inputs exactly like the program does at a given margin, with width bounded
by a sphere-packing count of (1 + 2/theta)^(2d).

Both geometric steps, collapsing configurations within 1e-9 of each other
and chaining them into theta-components, rest on one fixed-radius
near-neighbour primitive (``_near_pairs``): sort the configurations by
their projection Re<x, r> onto one fixed unit direction r and compare only
those whose projections lie within the radius.  The projection is
1-Lipschitz (|Re<x - y, r>| <= ||x - y||), so no pair within the radius is
skipped, and every pair kept or ruled out is decided by its explicit
distance: the result is exact, not an approximation, in any width.

The derived OBDD and the minimal OBDD of a function share one type,
``Obdd``.  The minimal one is built bottom up, as a quasi-reduced OBDD with
one unique table per level: the leaves are the table's values in
input-value order for the variable order, and the nodes of a level are the
distinct (low, high) pairs of nodes of the level below, keyed as
low * width + high and found with one ``np.unique``.

Also here: the measured accept/reject separation of a program, the two
closed-form separation lower bounds, and integer width lower bounds derived
from the packing inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import CHAIN_INSET, CHAIN_SLACK, CONFIG_DEDUP_TOL, NORM_DRIFT_TOL, check_budget
from .program import (
    QbProgram,
    TruthTable,
    _check_per_input,
    _column_accept_probs,
    _leaf_indices,
    _leaf_walk,
    _margin_masks,
    bits_of_value,
    is_read_once,
)

_PROJECTION_SEED = 20030205
_GRAM_BLOCK_ROWS = 128
_DIFF_BLOCK_ELEMS = 1 << 20
_DEDUP_CHUNK_ROWS = 256


def _explicit_sq_distances(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """sum |b[j] - a[i]|^2 per pair, from explicit differences."""
    out = np.empty(i.shape[0], dtype=np.float64)
    step = max(1, _DIFF_BLOCK_ELEMS // max(1, a.shape[1]))
    for s in range(0, i.shape[0], step):
        diff = b[j[s:s + step]] - a[i[s:s + step]]
        out[s:s + step] = np.sum(np.abs(diff) ** 2, axis=1)
    return out


def _near_pairs(
    mat: np.ndarray, radius: float, other: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of rows at distance at most ``radius``, exactly.

    Returns index arrays ``i``, ``j`` and the squared distances ``d2`` of
    all pairs with ||mat[i] - other[j]|| <= radius; with ``other`` None, of
    all pairs i < j of rows of ``mat``.

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
    b = a if other is None else np.ascontiguousarray(other, dtype=np.complex128)
    empty = np.empty(0, dtype=np.int64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return empty, empty, np.empty(0)
    # real rows of twice the length: Re<x, y> is their plain dot product
    ra, rb = a.view(np.float64), b.view(np.float64)
    direction = np.random.default_rng(_PROJECTION_SEED).standard_normal(ra.shape[1])
    direction /= np.linalg.norm(direction)
    sq_a = np.einsum("ij,ij->i", ra, ra)
    sq_b = sq_a if other is None else np.einsum("ij,ij->i", rb, rb)
    max_sq = float(max(sq_a.max(), sq_b.max()))
    # Rounding bounds, each with a factor of 2 or more to spare: a length-k
    # dot product errs by at most k*eps/2*|x||y|; the explicit squared
    # distance of a pair near the radius, by k*eps*radius^2.
    eps = np.finfo(np.float64).eps
    k = ra.shape[1] + 4
    r2 = radius * radius
    half = radius * (1.0 + k * eps) + 4.0 * k * eps * math.sqrt(max_sq)
    gram_err = 4.0 * k * eps * (max_sq + r2)

    proj_b = rb @ direction
    order_b = np.argsort(proj_b, kind="stable")
    sorted_b = proj_b[order_b]
    if other is None:
        order_a, sorted_a = order_b, sorted_b
        lo = np.arange(1, a.shape[0] + 1)
    else:
        proj_a = ra @ direction
        order_a = np.argsort(proj_a, kind="stable")
        sorted_a = proj_a[order_a]
        lo = np.searchsorted(sorted_b, sorted_a - half, side="left")
    hi = np.searchsorted(sorted_b, sorted_a + half, side="right")

    found_i, found_j, found_d2 = [], [], []
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
        ia, jb = order_a[s0 + rows], order_b[cols]
        d2 = sq_a[ia][:, None] + sq_b[jb][None, :] - 2.0 * (ra[ia] @ rb[jb].T)
        window = (cols[None, :] >= blo[:, None]) & (cols[None, :] < bhi[:, None])
        pi, pj = np.nonzero(window & (d2 <= r2 + gram_err))
        exact = _explicit_sq_distances(a, b, ia[pi], jb[pj])
        keep = exact <= r2
        found_i.append(ia[pi[keep]])
        found_j.append(jb[pj[keep]])
        found_d2.append(exact[keep])
    if not found_i:
        return empty, empty, np.empty(0)
    i, j, d2 = np.concatenate(found_i), np.concatenate(found_j), np.concatenate(found_d2)
    if other is None:
        i, j = np.minimum(i, j), np.maximum(i, j)
    return i, j, d2


def _greedy_dedup(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Collapse rows in order: a row is kept unless a kept earlier row lies
    within ``tol``; then it maps to the nearest such row, the lowest index on
    ties.  Returns the kept rows (a frozen block) and, for every row, the
    index among the kept rows that it maps to.

    Distances come from explicit differences (see ``_near_pairs``), so
    nearest rows and ties are those of the plain sequential loop.  Rows go
    in chunks, each checked first against the rows kept so far; only the
    rows left unmatched are swept against each other, so a large cluster of
    equal rows costs time linear in its size, not quadratic.
    """
    n = rows.shape[0]
    kept = np.empty_like(rows)
    count = 0
    index = np.empty(n, dtype=np.int64)
    no_pairs = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    for c0 in range(0, n, _DEDUP_CHUNK_ROWS):
        chunk = rows[c0:c0 + _DEDUP_CHUNK_ROWS]
        earlier = _near_pairs(chunk, tol, kept[:count]) if count else no_pairs
        free = np.setdiff1d(np.arange(chunk.shape[0]), earlier[0])
        # a row with no kept row from earlier chunks near it is kept unless
        # a row kept earlier in this chunk is near it
        fi, fj, _ = _near_pairs(chunk[free], tol)
        is_new = np.ones(free.shape[0], dtype=bool)
        for a, b in zip(*(x[np.argsort(fj, kind="stable")] for x in (fi, fj))):
            if is_new[a]:
                is_new[b] = False
        new = free[is_new]
        kept[count:count + new.shape[0]] = chunk[new]
        rest = np.setdiff1d(np.arange(chunk.shape[0]), new)
        i, j, d2 = _near_pairs(chunk[rest], tol, chunk[new])
        i = rest[i]
        before = new[j] < i
        i = np.concatenate([earlier[0], i[before]])
        j = np.concatenate([earlier[1], count + j[before]])
        d2 = np.concatenate([earlier[2], d2[before]])
        # per row, the nearest kept row, the lowest kept index on ties
        order = np.lexsort((j, d2, i))
        first = order[np.unique(i[order], return_index=True)[1]]
        index[c0 + i[first]] = j[first]
        index[c0 + new] = count + np.arange(new.shape[0])
        count += new.shape[0]
    out = kept if count == n else kept[:count].copy()
    out.flags.writeable = False
    return out, index


@dataclass(frozen=True, eq=False)
class LevelConfigurations:
    """Distinct configurations reachable at one level.

    ``configs`` is a frozen (m, width) block, one configuration per row.
    ``prefix_map[v]`` is the row reached by the length-j read-bit prefix
    with value v (first bit most significant).  ``prev_transitions[i, b]``
    is the row at this level reached from row i of the previous level on
    bit b (empty at level 0).
    """

    level: int
    configs: np.ndarray
    prefix_map: np.ndarray
    prev_transitions: np.ndarray


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
    and the kept block of their dedup, 2 * 2m * width * 16 bytes, are checked
    against ``linalg.MEMORY_BUDGET_BYTES``.
    """
    _require_read_once(p)
    block = p.initial[None, :]
    prefix = np.zeros(1, dtype=np.int64)
    levels = [LevelConfigurations(0, block, prefix, np.empty((0, 2), dtype=np.int64))]
    for tf in p.transformations:
        m = block.shape[0]
        check_budget(2 * 2 * m * p.width * 16, "configuration",
                     f"level {len(levels)} ({2 * m} candidates of width {p.width} and their kept block)")
        candidates = np.empty((2 * m, p.width), dtype=np.complex128)
        candidates[0::2] = tf.apply_to_columns(0, block.T).T
        candidates[1::2] = tf.apply_to_columns(1, block.T).T
        block, index = _greedy_dedup(candidates, CONFIG_DEDUP_TOL)
        del candidates  # release it before the next level allocates its own
        if np.any(np.abs(np.linalg.norm(block, axis=1) - 1.0) > NORM_DRIFT_TOL):
            raise RuntimeError("reachable configuration drifted off unit norm")
        trans = index.reshape(-1, 2)
        trans.flags.writeable = False
        nxt_prefix = np.empty(2 * prefix.shape[0], dtype=np.int64)
        nxt_prefix[0::2] = trans[prefix, 0]
        nxt_prefix[1::2] = trans[prefix, 1]
        nxt_prefix.flags.writeable = False
        levels.append(LevelConfigurations(len(levels), block, nxt_prefix, trans))
        prefix = nxt_prefix
    return levels


@dataclass(frozen=True, eq=False)
class ThetaPartition:
    """Partition of a block of configurations into theta-components (pairs
    at distance <= theta, with a 1e-12 slack, chained transitively).

    ``component_of[i]`` is the component of row i, as a frozen int array;
    components are numbered in order of their smallest member.
    """

    level: int
    theta: float
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


def theta_components(configs: np.ndarray, theta: float, level: int = 0) -> ThetaPartition:
    """Connected components of the pairs of rows at distance <= theta + 1e-12.

    The pairs come from ``_near_pairs``, an exact fixed-radius sort and
    sweep: each pair it returns, and each it rules out, is decided by its
    explicit distance, so the partition is that of a dense all-pairs scan
    without the m x m distance matrix.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    mat = np.asarray(configs, dtype=np.complex128)
    ii, jj, _ = _near_pairs(mat, theta + CHAIN_SLACK)
    component_of = _connected_components(len(mat), ii, jj)
    component_of.flags.writeable = False
    count = int(component_of.max()) + 1 if component_of.size else 0
    return ThetaPartition(level, theta, component_of, count)


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
) -> tuple[np.ndarray, np.ndarray, list[LevelConfigurations] | None]:
    """The distinct final configurations as an (m, width) block and the mask
    of the rows that accept at margin ``epsilon``; every other row rejects.
    Also returns the reachable levels of a read-once program (None for any
    other program), so callers need not enumerate them again.

    One walk over the leaves (``_leaf_walk``) first gives every input's
    acceptance probability, to verify that the program computes ``f`` at the
    margin.  A read-once program's walk goes in chunks, and its final
    configurations are then its last reachable level.  A read-k program's
    walk keeps the whole leaf block, whose rows, one per input in input-value
    order and deduplicated at 1e-9, are its final configurations.  The
    per-input data and, for a read-k program, the leaf block with its rows
    and their kept block are checked against ``linalg.MEMORY_BUDGET_BYTES``
    first.
    """
    n = p.n_vars
    if p.n_vars != f.n_vars:
        raise ValueError(f"program has n_vars {p.n_vars}, truth table has {f.n_vars}")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    _check_per_input(n, "separation")
    read_once = is_read_once(p)
    if not read_once:
        check_budget(3 * p.width * 16 << n, "separation",
                     f"the leaf block, its 2^{n} rows of width {p.width} and their kept block")
    probs, order, cols = _leaf_walk(p, whole=not read_once)
    leaves = _leaf_indices(order, n)
    probs = probs[leaves]
    accepts, rejects = _margin_masks(probs, epsilon)
    bad = np.flatnonzero(np.where(f.bits, ~accepts, ~rejects))
    if bad.size:
        v = int(bad[0])
        raise ValueError(
            f"program does not compute the table with margin {epsilon}: input "
            f"{''.join(map(str, bits_of_value(v, n)))} has acceptance {float(probs[v])!r}"
        )
    levels = None
    if read_once:
        levels = reachable_configurations(p)
        configs = levels[-1].configs
    else:
        configs, _ = _greedy_dedup(cols[:, leaves].T, CONFIG_DEDUP_TOL)
    probs = _column_accept_probs(configs.T, p)
    accepts, rejects = _margin_masks(probs, epsilon)
    band = np.flatnonzero(~(accepts | rejects))
    if band.size:
        raise RuntimeError(
            f"final configuration with acceptance {float(probs[band[0]])!r} "
            f"is inside the margin band"
        )
    return configs, accepts, levels


def _min_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between a row of ``a`` and a row of ``b``; inf when
    either block is empty.

    The Gram minimum g of ||x||^2 + ||y||^2 - 2 Re<x, y> is kept when the
    distances its rounding bound allows span less than CHAIN_INSET, the
    accuracy the component chain at theta - CHAIN_INSET needs.  Otherwise (a
    small distance, where the Gram form cancels) the minimum is taken over
    the explicit distances of the pairs within sqrt(g + bound), found by
    ``_near_pairs``.  The Gram block and its temporaries, 32 bytes per pair,
    are checked against ``linalg.MEMORY_BUDGET_BYTES`` first.
    """
    if not len(a) or not len(b):
        return math.inf
    check_budget(32 * len(a) * len(b), "separation",
                 f"the Gram matrix of {len(a)} x {len(b)} final configurations")
    sa = np.einsum("ij,ij->i", a, a.conj()).real
    sb = np.einsum("ij,ij->i", b, b.conj()).real
    gram = (a @ b.conj().T).real
    d2 = np.maximum(sa[:, None] + sb[None, :] - 2.0 * gram, 0.0)
    g = float(d2.min())
    # the rounding bound of _near_pairs' Gram values, for rows of length 2d
    err = 4.0 * (2 * a.shape[1] + 4) * np.finfo(np.float64).eps * (max(sa.max(), sb.max()) + g)
    if math.sqrt(g + err) - math.sqrt(max(g - err, 0.0)) < CHAIN_INSET:
        return math.sqrt(g)
    return math.sqrt(float(_near_pairs(a, math.sqrt(g + err), b)[2].min()))


def measured_separation(p: QbProgram, f: TruthTable, epsilon: float) -> float:
    """Minimum distance between a final configuration accepted at margin
    epsilon and one rejected at that margin, over all inputs.

    Returns ``math.inf`` when one of the two classes is empty (for example a
    program accepting every input).  Raises if the program does not compute
    ``f`` with the given margin.
    """
    configs, accepts, _ = _classified_final_configs(p, f, epsilon)
    return _min_cross_distance(configs[accepts], configs[~accepts])


# -- OBDDs ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Obdd:
    """Leveled deterministic OBDD: ``transitions[j][c, b]`` is the node at
    level j+1 reached from node c of level j when variable
    ``var_sequence[j]`` is b.  The root is node 0; ``accepting`` holds
    accepting nodes of the last level.  Only a derived OBDD sets ``theta``
    and ``reachable_counts``: its nodes at level j are theta-components of
    the ``reachable_counts[j]`` distinct reachable configurations.
    """

    n_vars: int
    var_sequence: tuple[int, ...]
    level_widths: tuple[int, ...]
    transitions: tuple[np.ndarray, ...]
    accepting: frozenset[int]
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
        """Boolean decision for every input value, vectorized."""
        values = np.arange(1 << self.n_vars, dtype=np.int64)
        node = np.zeros(values.shape, dtype=np.int64)
        for table, j in zip(self.transitions, self.var_sequence):
            node = table[node, (values >> (self.n_vars - j)) & 1]
        mask = np.zeros(self.level_widths[-1], dtype=bool)
        mask[sorted(self.accepting)] = True
        return mask[node]


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
    _require_read_once(p)
    configs, accepts, levels = _classified_final_configs(p, f, epsilon)
    sep = _min_cross_distance(configs[accepts], configs[~accepts])
    if theta is None:
        theta = sep
    elif theta > sep + CHAIN_SLACK:
        raise ValueError(
            f"theta {theta} exceeds the measured accept/reject separation {sep}; "
            f"an accepting and a rejecting configuration lie at distance {sep}"
        )
    chain_theta = theta - CHAIN_INSET if theta > 2 * CHAIN_INSET else theta / 2
    parts = [theta_components(lv.configs, chain_theta, level=lv.level) for lv in levels]

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
        accepting=frozenset(accepting.tolist()),
        theta=theta,
        reachable_counts=tuple(len(lv.configs) for lv in levels),
    )


def min_obdd_width(f: TruthTable, order: Sequence[int] | None = None) -> Obdd:
    """The minimal quasi-reduced OBDD of ``f`` for a variable order (default
    1..n), built bottom up with one unique table per level (Bryant 1986; see
    the module docstring).  Its nodes at level j are the distinct
    subfunctions after fixing the first j variables of the order.  Its arrays
    peak at 16.25 bytes per table entry, checked against
    ``linalg.MEMORY_BUDGET_BYTES`` first."""
    n = f.n_vars
    check_budget((65 << n) // 4, "width oracle", f"a table of 2^{n} entries")
    order = tuple(range(1, n + 1)) if order is None else tuple(int(v) for v in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    leaves = np.transpose(f.bits.reshape((2,) * n), [v - 1 for v in order]).reshape(-1)
    values = np.unique(leaves)
    # a leaf's id is the rank of its value among the values present
    ids = leaves.astype(np.uint8) - np.uint8(values[0])
    widths, tables = [values.size], []
    for _ in range(n):
        w = widths[-1]
        keys, ids = np.unique(ids[0::2] * w + ids[1::2], return_inverse=True)
        table = np.stack([keys // w, keys % w], axis=1)
        table.flags.writeable = False
        widths.append(keys.size)
        tables.append(table)
    return Obdd(
        n_vars=n,
        var_sequence=order,
        level_widths=tuple(widths[::-1]),
        transitions=tuple(tables[::-1]),
        accepting=frozenset(np.flatnonzero(values).tolist()),
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
