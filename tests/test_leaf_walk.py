"""The two ways ``evaluate_all`` reaches every leaf.  The chunked leaf walk
against the one-block leaf matrix it replaces: bit-identical at every chunk
size, and within 1e-12 of the dense matrix-chain oracle.  The
meet-in-the-middle join against the walk: within its stated rounding bound
at every split, with the same ``computes`` decisions, and taken by the
narrow read-once programs only.  And what each holds against its budget
count."""

import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import linalg, program
from qbp.constructions import (
    PermutationBp,
    build_mod_program,
    mod_truth_table,
    permutation_bp_to_qbp,
    universal_exact_qbp,
)
from qbp.program import (
    Margin,
    OneSided,
    QbProgram,
    QuantumTransformation,
    TruthTable,
    bits_of_value,
    computes,
)
from qbp.realify import realify_program

from conftest import chain_probability, haar_unitary, leaf_indices, random_state


def reference_leaf_matrix(p: QbProgram) -> tuple[np.ndarray, tuple[int, ...]]:
    """The whole leaf block, built breadth first as before the walk: a fresh
    variable doubles the block (column c becomes 2c and 2c + 1); a re-read
    one takes each column's bit from its index."""
    cols = p.initial.reshape(-1, 1)
    position: dict[int, int] = {}
    for tf in p.transformations:
        j = tf.var_index
        m = cols.shape[1]
        if j in position:
            shift = len(position) - 1 - position[j]
            program._advance(tf, cols, (np.arange(m) >> shift) & 1)
            continue
        nxt = np.empty((p.width, 2 * m), dtype=np.complex128)
        tf.apply_to_columns(0, cols, out=nxt[:, 0::2])
        tf.apply_to_columns(1, cols, out=nxt[:, 1::2])
        cols = nxt
        position[j] = len(position)
    return cols, tuple(position)


def reference_evaluate_all(p: QbProgram) -> np.ndarray:
    cols, order = reference_leaf_matrix(p)
    probs = program._column_accept_probs(cols, p)
    return probs[leaf_indices(order, p.n_vars)]


# chunk sizes in columns (100 rounds up to 128); None is the whole leaf block
CHUNK_COLUMNS = (8, 16, 100, None)


def _walked(p: QbProgram, columns: int | None) -> np.ndarray:
    chunk_bytes = 1 << 62 if columns is None else 16 * p.width * columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program, "_CHUNK_BYTES", chunk_bytes)
        probs, order = program._leaf_walk(p)
    return probs[leaf_indices(order, p.n_vars)]


def _assert_walk_matches(p: QbProgram) -> None:
    want = reference_evaluate_all(p)
    for columns in CHUNK_COLUMNS:
        assert np.array_equal(_walked(p, columns), want), columns
    chain = np.array([chain_probability(p, bits_of_value(v, p.n_vars)) for v in range(1 << p.n_vars)])
    assert np.max(np.abs(want - chain)) <= 1e-12  # the bound of test_every_evaluator_matches_chain_oracle


@st.composite
def haar_programs(draw):
    """Haar programs of odd, small and wide widths, read once in a drawn
    order or reading variables any number of times."""
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 84]))
    n = draw(st.integers(1, 6 if d > 8 else 9))
    if draw(st.booleans()):
        seq = draw(st.permutations(range(1, n + 1)))
    else:
        seq = draw(st.lists(st.integers(1, n), min_size=1, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tfs = tuple(QuantumTransformation(j, haar_unitary(rng, d), haar_unitary(rng, d)) for j in seq)
    accepting = draw(st.sets(st.integers(1, d), min_size=1))
    return QbProgram(n, d, tfs, random_state(rng, d), frozenset(accepting))


@settings(max_examples=30, deadline=None)
@given(haar_programs())
def test_walk_is_bit_identical_on_haar_programs(p):
    _assert_walk_matches(p)


@pytest.mark.parametrize("p, n", [(3, 9), (5, 10), (7, 8), (11, 9)])
def test_walk_is_bit_identical_on_mod_programs(p, n):
    with pytest.warns(UserWarning, match="exceeds n/2") if p > n / 2 else nullcontext():
        prog = build_mod_program(p, n)
    _assert_walk_matches(prog)


def _counter(w: int, order) -> PermutationBp:
    """A classical MOD_w counter reading the variables in ``order``."""
    step = tuple(s % w + 1 for s in range(1, w + 1))
    return PermutationBp(w, tuple((v, tuple(range(1, w + 1)), step) for v in order), 1, frozenset({1}))


@pytest.mark.parametrize("w, order", [
    (3, [1, 2, 3, 4, 5, 6, 7, 8, 9]),
    (5, [4, 1, 7, 3, 6, 2, 5]),
    (5, [3, 1, 8, 5, 2, 7, 4, 6, 6, 2, 4, 8, 1, 7, 3, 5]),  # read twice, shuffled
])
def test_walk_is_bit_identical_on_permutation_programs(w, order):
    _assert_walk_matches(permutation_bp_to_qbp(_counter(w, order)))


def _read_twice_counter(w: int, n: int) -> QbProgram:
    rng = np.random.default_rng(n)
    return permutation_bp_to_qbp(_counter(w, [int(v) + 1 for _ in range(2) for v in rng.permutation(n)]))


@pytest.mark.parametrize("p, chunk_bytes", [
    (_read_twice_counter(5, 14), program._CHUNK_BYTES),  # never splits: one 2^14 block
    (_read_twice_counter(5, 14), 1 << 16),  # splits: a re-read bit is constant over a chunk
    (build_mod_program(5, 14), 1 << 16),
], ids=["read twice", "read twice, chunked", "mod, chunked"])
def test_walk_holds_at_most_its_checked_count(monkeypatch, p, chunk_bytes):
    # the walk's traced peak is within what its budget check counts
    real, checked = linalg.check_budget, []

    def spy(need, stage, what):
        checked.append(need)
        real(need, stage, what)

    monkeypatch.setattr(linalg, "check_budget", spy)
    monkeypatch.setattr(program, "_CHUNK_BYTES", chunk_bytes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program._leaf_walk(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0], (peak, checked)


# -- the meet-in-the-middle join ---------------------------------------------------

def join_bound(p: QbProgram) -> float:
    """How far ``_leaf_join`` may round from the walk, as its docstring states."""
    return 4 * (p.length + p.width) * p.width * 2.0 ** -52


def _monomial(rng: np.random.Generator, d: int) -> program.Monomial:
    return program.Monomial(rng.permutation(d), np.exp(2j * np.pi * rng.random(d)))


@st.composite
def read_once_programs(draw):
    """Read-once Haar, Monomial, MOD_p (greedy and sampled) and counter
    programs, some realified, reading a drawn order of some of the variables."""
    kind = draw(st.sampled_from(["haar", "monomial", "mod", "counter"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    seq = [int(v) + 1 for v in rng.permutation(n)[:draw(st.integers(0, n))]]
    if kind == "mod":
        strategy = draw(st.sampled_from(["greedy", "sampled"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # p > n/2
            p = build_mod_program(draw(st.sampled_from([3, 5, 7, 13])), n, strategy, seed=draw(st.integers(0, 9)))
        p = QbProgram(n, p.width, tuple(QuantumTransformation(j, *p.transformations[0].unitaries) for j in seq),
                      p.initial, p.accepting)
    elif kind == "counter":
        p = permutation_bp_to_qbp(_counter(draw(st.integers(1, 7)), seq), n)
    else:
        d = draw(st.sampled_from([1, 2, 3, 5, 8, 84]))
        level = (lambda: haar_unitary(rng, d)) if kind == "haar" else (lambda: _monomial(rng, d))
        tfs = tuple(QuantumTransformation(j, level(), level()) for j in seq)
        p = QbProgram(n, d, tfs, random_state(rng, d), frozenset(draw(st.sets(st.integers(1, d)))))
    return realify_program(p) if p.width <= 8 and draw(st.booleans()) else p


@settings(max_examples=40, deadline=None)
@given(read_once_programs())
def test_join_matches_the_walk_at_every_split(p):
    walk, order = program._leaf_walk(p)
    chain = np.array([chain_probability(p, bits_of_value(v, p.n_vars)) for v in range(1 << p.n_vars)])
    for s in range(p.length + 1):
        joined, joined_order = program._leaf_join(p, s)
        assert joined_order == order and joined.shape == walk.shape
        assert 0.0 <= joined.min() and joined.max() <= 1.0
        assert np.max(np.abs(joined - walk)) <= join_bound(p), s
        by_input = joined[leaf_indices(order, p.n_vars)]
        assert np.max(np.abs(by_input - chain)) <= 1e-12, s  # the bound of the walk against the chain


def _haar_program(d: int, n: int, seed: int) -> QbProgram:
    rng = np.random.default_rng(seed)
    seq = [int(v) + 1 for v in rng.permutation(n)]
    tfs = tuple(QuantumTransformation(j, haar_unitary(rng, d), haar_unitary(rng, d)) for j in seq)
    return QbProgram(n, d, tfs, random_state(rng, d), frozenset(range(1, d // 2 + 1)))


JOINED = {
    "mod 5 greedy n=14": lambda: build_mod_program(5, 14),
    "mod 7 greedy n=16": lambda: build_mod_program(7, 16),
    "mod 5 sampled n=14": lambda: build_mod_program(5, 14, "sampled", seed=1),
    "haar 8 n=12": lambda: _haar_program(8, 12, 8),
    "counter 5 n=12": lambda: permutation_bp_to_qbp(_counter(5, [4, 9, 1, 12, 7, 3, 10, 6, 2, 11, 8, 5])),
}


@pytest.mark.parametrize("make", JOINED.values(), ids=JOINED.keys())
def test_computes_decides_as_the_walk_does(make, monkeypatch):
    p = make()
    assert program._join_split(p) is not None
    walk = program._leaf_walk(p)[0][leaf_indices(p.var_sequence, p.n_vars)]
    tables = [mod_truth_table(5, p.n_vars), TruthTable(p.n_vars, walk > 0.5), TruthTable(p.n_vars, walk > 0.9)]
    criteria = [OneSided(), OneSided(0.2), Margin(0.0), Margin(0.1), Margin(0.3)]
    joined = [computes(p, f, c) for f in tables for c in criteria]
    monkeypatch.setattr(program, "_join_split", lambda p: None)
    walked = [computes(p, f, c) for f in tables for c in criteria]
    for a, b in zip(joined, walked):
        assert (a.holds, a.checked) == (b.holds, b.checked)
        assert np.array_equal(a.counterexamples, b.counterexamples)
        assert abs(a.min_margin - b.min_margin) <= join_bound(p)


def _read_twice(w: int, n: int) -> QbProgram:
    return permutation_bp_to_qbp(_counter(w, [v for _ in range(2) for v in range(1, n + 1)]))


@pytest.mark.parametrize("make, joins", [
    (lambda: build_mod_program(5, 20), True),
    (lambda: build_mod_program(7, 20), True),
    (lambda: build_mod_program(11, 20), True),
    (lambda: build_mod_program(13, 14, "sampled", seed=1), False),  # width 84
    (lambda: universal_exact_qbp(TruthTable.random(9, np.random.default_rng(9))), False),
    (lambda: realify_program(universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6)))), False),
    (lambda: _read_twice(5, 14), False),
], ids=["mod 5", "mod 7", "mod 11", "sampled mod 13", "universal n=9", "realified universal n=6",
        "read twice"])
def test_the_benchmark_programs_take_their_path(make, joins):
    # the narrow MOD_p programs of mod-exhaustive are joined; the wide and
    # read-twice programs of cli-wide and theta-universal are walked
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = make()
    assert (program._join_split(p) is not None) == joins


def test_a_join_over_the_budget_walks(monkeypatch):
    # width-84 MOD_13 at n = 16 joins in 96 MB, d^2 entries per prefix and
    # suffix; with less room it is walked, in 19 MB
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = build_mod_program(13, 16, "sampled", seed=1)
    need = program._join_need(p.width, p.length, len(p.accepting), program._join_split(p))
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", need - 1)
    assert program._join_split(p) is None
    walk = program._leaf_walk(p)[0]
    assert np.array_equal(program.evaluate_all(p), walk)


@pytest.mark.parametrize("make, s", [
    (lambda: build_mod_program(5, 16), 9),
    (lambda: build_mod_program(5, 16), 0),
    (lambda: build_mod_program(5, 16), 16),
    (lambda: _haar_program(8, 14, 3), 8),
    (lambda: realify_program(_haar_program(3, 14, 4)), 8),
    (lambda: permutation_bp_to_qbp(_counter(5, list(range(1, 15)))), 7),
], ids=["mod", "mod, all suffix", "mod, all prefix", "haar", "realified", "counter"])
def test_join_holds_at_most_its_checked_count(monkeypatch, make, s):
    p = make()
    real, checked = linalg.check_budget, []

    def spy(need, stage, what):
        checked.append(need)
        real(need, stage, what)

    monkeypatch.setattr(linalg, "check_budget", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program._leaf_join(p, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0], (peak, checked)
