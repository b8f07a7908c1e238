"""The chunked leaf walk of ``evaluate_all`` against the one-block leaf matrix
it replaces: bit-identical at every chunk size, and within 1e-12 of the
dense matrix-chain oracle; and what the walk holds against its budget count."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import linalg, program
from qbp.constructions import PermutationBp, build_mod_program, permutation_bp_to_qbp
from qbp.program import QbProgram, QuantumTransformation, bits_of_value, evaluate_all

from conftest import chain_probability, haar_unitary, random_state


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
    return probs[program._leaf_indices(order, p.n_vars)]


# chunk sizes in columns (100 rounds up to 128); None is the whole leaf block
CHUNK_COLUMNS = (8, 16, 100, None)


def _walked(p: QbProgram, columns: int | None) -> np.ndarray:
    chunk_bytes = 1 << 62 if columns is None else 16 * p.width * columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program, "_CHUNK_BYTES", chunk_bytes)
        return evaluate_all(p)


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
    _assert_walk_matches(build_mod_program(p, n))


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
