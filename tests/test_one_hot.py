"""One-hot configurations: a read-once program of Monomial levels started at a
basis vector (the universal program, a permutation BP's embedding, their
real doubles) keeps every configuration c e_k as the pair (k, c).  Its
analysis and exhaustive evaluation must equal those of the dense path,
which serves as the oracle here."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbp.analysis
import qbp.program
from qbp import analysis, program
from qbp.analysis import derive_deterministic_obdd, measured_separation, reachable_configurations, theta_components
from qbp.constructions import universal_exact_qbp
from qbp.linalg import CHAIN_INSET, CHAIN_SLACK
from qbp.program import Monomial, QbProgram, QuantumTransformation, TruthTable, evaluate_all
from qbp.realify import realify_program

from conftest import superposed

EPSILON = 0.49


@contextmanager
def dense_path():
    """Every program takes the dense path while the context is open."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qbp.program, "_one_hot", lambda p: None)
        mp.setattr(qbp.analysis, "_one_hot", lambda p: None)
        yield


def universal(n: int, seed: int) -> QbProgram:
    return universal_exact_qbp(TruthTable.random(n, np.random.default_rng(seed)))


def permutation_program(n: int, seed: int) -> QbProgram:
    """A read-once embedding of a random permutation BP of width 1 to 8, its
    phases drawn from 1, -1, i and e^{i phi}, started at a random basis
    vector with a random phase; any accepting set, the empty one included."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 9))
    choices = np.array([1, -1, 1j, np.exp(1j * rng.uniform(0, 2 * np.pi))])

    def level():
        return Monomial(rng.permutation(width), choices[rng.integers(0, 4, size=width)])

    tfs = tuple(QuantumTransformation(int(v) + 1, level(), level()) for v in rng.permutation(n))
    initial = np.zeros(width, dtype=np.complex128)
    initial[rng.integers(width)] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    accepting = np.flatnonzero(rng.integers(0, 2, size=width)) + 1
    return QbProgram(n, width, tfs, initial, accepting)


PROGRAMS = {
    "universal": lambda n, seed: universal(n, seed),
    "realified universal": lambda n, seed: realify_program(universal(min(n, 6), seed)),
    "permutation": permutation_program,
}


def both_paths(fn):
    """``fn()`` on the one-hot path and on the dense path."""
    fast = fn()
    with dense_path():
        return fast, fn()


def same_obdd(a, b) -> bool:
    return (a.theta == b.theta and a.level_widths == b.level_widths
            and a.reachable_counts == b.reachable_counts and np.array_equal(a.accepting, b.accepting)
            and all(np.array_equal(s, t) for s, t in zip(a.transitions, b.transitions))
            and np.array_equal(a.classify_all(), b.classify_all()))


@given(st.sampled_from(sorted(PROGRAMS)), st.integers(1, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_one_hot_path_equals_dense_path(kind, n, seed):
    p = PROGRAMS[kind](n, seed)
    assert program._one_hot(p) is not None

    fast, slow = both_paths(lambda: evaluate_all(p))
    assert fast.tobytes() == slow.tobytes()
    assert fast.tobytes() == evaluate_all(p).tobytes()

    fast, slow = both_paths(lambda: reachable_configurations(p))
    assert slow[-1].index is None and fast[-1].index is not None
    assert [len(lv) for lv in fast] == [len(lv) for lv in slow]
    for a, b in zip(fast, slow):
        assert np.array_equal(a.configs, b.configs)
        assert np.array_equal(a.prev_transitions, b.prev_transitions)

    f = TruthTable(p.n_vars, evaluate_all(p) > 0.5)
    fast, slow = both_paths(lambda: measured_separation(p, f, EPSILON))
    assert fast == slow
    fast, slow = both_paths(lambda: derive_deterministic_obdd(p, f, None, EPSILON))
    assert same_obdd(fast, slow)
    assert np.array_equal(fast.classify_all(), f.bits)


def fallback_line(lv) -> float:
    """The chain radius theta at which (theta + CHAIN_SLACK)^2 reaches twice
    the level's smallest |c|^2: from it on, the dense rows are chained."""
    return math.sqrt(2.0 * float(np.min(np.abs(lv.phase) ** 2))) - CHAIN_SLACK


@given(st.sampled_from(sorted(PROGRAMS)), st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_components_at_and_above_the_fallback_line(kind, n, seed):
    # keyed rows below the line, dense rows from it on: each partition is
    # the dense one's
    p = PROGRAMS[kind](n, seed)
    for lv in reachable_configurations(p):
        line = fallback_line(lv)
        keyed = np.stack((lv.phase, 4.0 * lv.index), axis=1)
        for theta in (line * (1 - 1e-9), np.nextafter(line, 0), line, np.nextafter(line, 3), line * (1 + 1e-9),
                      1.9, 2.5, math.inf):
            rows = analysis._chained_rows(lv, theta)
            if abs(theta - line) > 1e-12 and lv.width > 2:  # clear of the line, whose rounding decides at it
                assert np.array_equal(rows, keyed) == (theta < line or theta == math.inf)
            assert np.array_equal(theta_components(rows, theta).component_of,
                                  theta_components(lv.configs, theta).component_of)


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_derivation_at_and_above_the_fallback_line(kind):
    # a constant table separates nothing, so any theta is admitted: just
    # below the line, at it and above it, the derived OBDD is the dense one's
    p = PROGRAMS[kind](6, 6)
    f = TruthTable.constant(p.n_vars, True)
    q = QbProgram(p.n_vars, p.width, p.transformations, p.initial, np.arange(1, p.width + 1))
    line = fallback_line(reachable_configurations(q)[-1]) + CHAIN_INSET
    for theta in (line - 1e-7, line, line + 1e-7, 2.5):
        fast, slow = both_paths(lambda: derive_deterministic_obdd(q, f, theta, EPSILON))
        assert same_obdd(fast, slow)


def test_dense_levels_are_built_on_each_read_within_the_budget(monkeypatch):
    # a one-hot level keeps 24 bytes a configuration; its dense block, 16
    # width, is built on each read and checked first
    lv = reachable_configurations(universal(6, 6))[-1]
    assert lv.block is None and lv.index.nbytes + lv.phase.nbytes == 24 * 64
    assert lv.configs is not lv.configs
    monkeypatch.setattr(qbp.linalg, "MEMORY_BUDGET_BYTES", 16 * 64 * 64 - 1)
    with pytest.raises(ValueError, match="^configuration budget exceeded: 64 one-hot configurations"):
        lv.configs


def test_other_programs_stay_dense():
    # a second nonzero in the initial vector, a dense level or a re-read
    # variable keeps the dense path
    p = universal(4, 4)
    rotated = QbProgram(4, 16, p.transformations[:3] + (QuantumTransformation(4, np.eye(16), np.fft.fft(
        np.eye(16), norm="ortho")),), p.initial, p.accepting)
    twice = QbProgram(4, 16, p.transformations + p.transformations[:1], p.initial, p.accepting)
    assert program._one_hot(p) == 0
    assert [program._one_hot(q) for q in (superposed(p), rotated, twice)] == [None] * 3


def test_universal_n12_derives_one_hot():
    # every level and the separation stay (index, phase) pairs: the dense
    # path held a 4096 x 4096 block of 256 MiB for the last level alone
    f = TruthTable.random(12, np.random.default_rng(12))
    obdd = derive_deterministic_obdd(universal_exact_qbp(f), f, None, 0.5)
    assert obdd.theta == math.sqrt(2)
    assert obdd.level_widths == obdd.reachable_counts == tuple(1 << j for j in range(13))
    assert np.array_equal(obdd.classify_all(), f.bits)
