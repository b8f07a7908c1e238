"""Two of the ways ``evaluate_all`` reaches every leaf.  The chunked leaf
walk against the one-block leaf matrix it replaces: bit-identical at every
chunk size, and within 1e-12 of the dense matrix-chain oracle.  The count
of a stable program with an identity u0 against the walk: bit-identical on
read-once MOD_p programs and on permutation programs, within its stated
rounding bound on the rest, with the same ``computes`` decisions, and taken
by exactly the programs its rule names.  And what each holds against its
budget count."""

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


# -- the count of a stable program with an identity u0 ------------------------------

def count_bound(p: QbProgram) -> float:
    """How far ``_leaf_count`` may round from the walk, as its docstring states."""
    return 2 * (p.length + p.width) * 2.0 ** -52


def _walk_by_input(p: QbProgram) -> np.ndarray:
    return program._by_input(*program._leaf_walk(p), p.n_vars)


def _counted_by_input(p: QbProgram) -> np.ndarray:
    assert program._counted(p)
    return program._by_input(*program._leaf_count(p), p.n_vars)


def _on(p: QbProgram, n: int, seq) -> QbProgram:
    """``p``'s first pair, shared by one level per entry of ``seq``, on n variables."""
    u0, u1 = p.transformations[0].unitaries
    return QbProgram(n, p.width, tuple(QuantumTransformation._sharing(j, u0, u1) for j in seq),
                     p.initial, p.accepting)


@st.composite
def stable_programs(draw, read_once: bool):
    """MOD_p programs (greedy and sampled, some realified) and MOD_w
    counters, read once in a drawn order of some of the variables (so some
    may go unread), or read any number of times."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    if read_once:
        seq = [int(v) + 1 for v in rng.permutation(n)[:draw(st.integers(1, n))]]
    else:
        seq = draw(st.lists(st.integers(1, n), min_size=1, max_size=3 * n))
    if draw(st.booleans()):
        return permutation_bp_to_qbp(_counter(draw(st.integers(1, 7)), seq), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = build_mod_program(draw(st.sampled_from([3, 5, 7, 13])), n, draw(st.sampled_from(["greedy", "sampled"])),
                              seed=draw(st.integers(0, 9)))
    p = _on(p, n, seq)
    return realify_program(p) if p.width <= 8 and draw(st.booleans()) else p


@settings(max_examples=60, deadline=None)
@given(stable_programs(read_once=True))
def test_count_is_the_walk_on_read_once_programs(p):
    assert np.array_equal(_counted_by_input(p), _walk_by_input(p))


@settings(max_examples=60, deadline=None)
@given(stable_programs(read_once=False))
def test_count_is_the_walk_on_read_k_programs(p):
    # a Monomial u1 is a gather, exact in any block; a dense one is rounded
    # by zgemm per group of 4 columns, and a re-read of the walk's first
    # levels puts 1 or 2 columns through it
    counted, walk = _counted_by_input(p), _walk_by_input(p)
    if isinstance(p.transformations[0].unitaries[1], program.Monomial):
        assert np.array_equal(counted, walk)
    assert np.max(np.abs(counted - walk)) <= count_bound(p)


def _stable_haar(d: int, seq, seed: int) -> QbProgram:
    rng = np.random.default_rng(seed)
    u0, u1 = program.Monomial(np.arange(d), np.ones(d)), program._stored(haar_unitary(rng, d))
    tfs = tuple(QuantumTransformation._sharing(j, u0, u1) for j in seq)
    return QbProgram(max(seq), d, tfs, random_state(rng, d), frozenset(range(1, d // 2 + 2)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 8, 84]), st.lists(st.integers(1, 7), min_size=1, max_size=16),
       st.integers(0, 2**32 - 1))
def test_count_is_within_its_bound_on_dense_complex_programs(d, seq, seed):
    # a Haar u1 rounds differently in 1-3 columns than in 4 or more, even
    # read once
    p = _stable_haar(d, seq, seed)
    counted = _counted_by_input(p)
    assert np.max(np.abs(counted - _walk_by_input(p))) <= count_bound(p)
    chain = np.array([chain_probability(p, bits_of_value(v, p.n_vars)) for v in range(1 << p.n_vars)])
    assert np.max(np.abs(counted - chain)) <= 1e-12


def _with_level(p: QbProgram, level: int, u0=None, u1=None) -> QbProgram:
    """``p`` with one level's u0 or u1 replaced."""
    tfs = list(p.transformations)
    old = tfs[level].unitaries
    tfs[level] = QuantumTransformation(tfs[level].var_index, old[0] if u0 is None else u0,
                                       old[1] if u1 is None else u1)
    return QbProgram(p.n_vars, p.width, tuple(tfs), p.initial, p.accepting)


def _nudged(u) -> np.ndarray | program.Monomial:
    """``u`` with one entry one ulp larger."""
    if isinstance(u, program.Monomial):
        phases = u.phases.copy()
        phases[0] = np.nextafter(phases[0].real, 2.0) + 1j * phases[0].imag
        return program.Monomial(u.perm, phases)
    u = u.copy()
    u[0, 0] = np.nextafter(u[0, 0].real, 2.0) + 1j * u[0, 0].imag
    return u


MOD_5 = build_mod_program(5, 10, "sampled", seed=2)
COUNTER = permutation_bp_to_qbp(_counter(5, [3, 1, 8, 5, 2, 7, 4, 6, 6, 2, 4, 8, 1, 7, 3, 5]))
ONE_OFF = {
    "u0 phase -1": lambda p: _with_level(p, 3, u0=program.Monomial(np.arange(p.width),
                                                                    np.r_[-1.0, np.ones(p.width - 1)])),
    "permuted u0": lambda p: _with_level(p, 3, u0=program.Monomial(np.r_[1, 0, np.arange(2, p.width)],
                                                                    np.ones(p.width))),
    "u1 one ulp off": lambda p: _with_level(p, 3, u1=_nudged(p.transformations[3].unitaries[1])),
}


@pytest.mark.parametrize("base", [MOD_5, COUNTER], ids=["mod 5", "counter"])
@pytest.mark.parametrize("change", ONE_OFF.values(), ids=ONE_OFF.keys())
def test_a_program_one_thing_off_the_rule_is_walked(base, change):
    assert program._counted(base)
    p = change(base)
    assert not program._counted(p)
    got = program.evaluate_all(p)
    chain = np.array([chain_probability(p, bits_of_value(v, p.n_vars)) for v in range(1 << p.n_vars)])
    assert np.max(np.abs(got - chain)) <= 1e-12


def test_an_equal_u1_of_the_same_kind_is_counted():
    # an equal copy counts as the shared u1; a Monomial and its dense form
    # are different stored unitaries; a program with no levels is walked
    p = build_mod_program(5, 10)
    assert program._counted(_with_level(p, 2, u1=np.array(p.transformations[2].unitaries[1])))
    (first, *rest), u0, u1 = COUNTER.transformations, *COUNTER.transformations[0].unitaries
    dense_first = QuantumTransformation._sharing(first.var_index, u0, np.array(u1.dense))
    assert not program._counted(QbProgram(COUNTER.n_vars, COUNTER.width, (dense_first, *rest),
                                          COUNTER.initial, COUNTER.accepting))
    assert not program._counted(QbProgram(3, p.width, (), p.initial, p.accepting))


def _read_twice(w: int, n: int) -> QbProgram:
    return permutation_bp_to_qbp(_counter(w, [v for _ in range(2) for v in range(1, n + 1)]))


@pytest.mark.parametrize("make, path", [
    (lambda: build_mod_program(5, 20), "counted"),
    (lambda: build_mod_program(7, 20), "counted"),
    (lambda: build_mod_program(11, 20), "counted"),
    (lambda: build_mod_program(13, 14, "sampled", seed=1), "counted"),  # width 84
    (lambda: _read_twice(5, 14), "counted"),
    (lambda: universal_exact_qbp(TruthTable.random(9, np.random.default_rng(9))), "one-hot"),
    (lambda: realify_program(universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6)))), "one-hot"),
], ids=["mod 5", "mod 7", "mod 11", "sampled mod 13", "read twice", "universal n=9", "realified universal n=6"])
def test_the_benchmark_programs_take_their_path(make, path):
    # the MOD_p programs of mod-exhaustive and cli-wide and cli-wide's
    # read-twice program are counted; the universal programs of
    # theta-universal and cli-wide are walked as (index, phase) pairs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = make()
    taken = "counted" if program._counted(p) else "one-hot" if program._one_hot(p) is not None else "walked"
    assert taken == path


COUNTED = {
    "mod 5 greedy n=14": lambda: build_mod_program(5, 14),
    "mod 7 greedy n=16": lambda: build_mod_program(7, 16),
    "mod 5 sampled n=14": lambda: build_mod_program(5, 14, "sampled", seed=1),
    "haar 8 n=12": lambda: _stable_haar(8, [int(v) + 1 for v in np.random.default_rng(8).permutation(12)], 8),
    "counter 5 n=12": lambda: permutation_bp_to_qbp(_counter(5, [4, 9, 1, 12, 7, 3, 10, 6, 2, 11, 8, 5])),
    "realified mod 5 n=12": lambda: realify_program(build_mod_program(5, 12)),
    "counter read twice n=7": lambda: _read_twice(5, 7),
}


@pytest.mark.parametrize("make", COUNTED.values(), ids=COUNTED.keys())
def test_computes_decides_as_the_walk_does(make, monkeypatch):
    p = make()
    assert program._counted(p)
    walk = _walk_by_input(p)
    tables = [mod_truth_table(5, p.n_vars), TruthTable(p.n_vars, walk > 0.5), TruthTable(p.n_vars, walk > 0.9)]
    criteria = [OneSided(), OneSided(0.2), Margin(0.0), Margin(0.1), Margin(0.3)]
    counted = [computes(p, f, c) for f in tables for c in criteria]
    monkeypatch.setattr(program, "_counted", lambda p: False)
    monkeypatch.setattr(program, "_one_hot", lambda p: None)
    walked = [computes(p, f, c) for f in tables for c in criteria]
    for a, b in zip(counted, walked):
        assert (a.holds, a.checked) == (b.holds, b.checked)
        assert np.array_equal(a.counterexamples, b.counterexamples)
        assert abs(a.min_margin - b.min_margin) <= count_bound(p)


@pytest.mark.parametrize("make", [
    lambda: build_mod_program(5, 16),
    lambda: _on(build_mod_program(13, 26, "sampled", seed=1), 14, range(1, 15)),  # width 84
    lambda: realify_program(build_mod_program(7, 15)),
    lambda: _on(build_mod_program(5, 17), 17, [4, 9, 1, 12, 7, 3, 10, 6, 2, 11, 8, 5, 13, 15]),
    lambda: _read_twice(5, 14),
    lambda: permutation_bp_to_qbp(_counter(3, [1, 2, 3] * 300), 15),
], ids=["mod", "wide mod", "realified", "shuffled, unread", "read twice", "read 300 times"])
def test_count_holds_at_most_its_checked_count(monkeypatch, make):
    p = make()
    real, checked = linalg.check_budget, []

    def spy(need, stage, what):
        checked.append(need)
        real(need, stage, what)

    monkeypatch.setattr(linalg, "check_budget", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        program._leaf_count(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0], (peak, checked)
