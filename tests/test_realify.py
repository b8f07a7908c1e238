import itertools
import math

import numpy as np
import pytest

from qbp import linalg
from qbp import realify as realify_module
from qbp.constructions import ModBlockSpec, TruthTable, mod_block, universal_exact_qbp
from qbp.program import Monomial, _stored, _unitary_dense, evaluate_all, is_stable
from qbp.realify import _realified_monomial, realify_matrix, realify_program, realify_vector

from conftest import haar_unitary, random_program


def test_realify_matrix_scalar_one():
    out = realify_matrix([[1.0]])
    assert np.array_equal(out.real, np.eye(2))
    assert np.all(out.imag == 0.0)


def test_realify_matrix_imaginary_unit():
    out = realify_matrix([[1j]])
    assert np.array_equal(out.real, [[0.0, 1.0], [-1.0, 0.0]])


def test_realify_matrix_real_rotation():
    u = linalg.rotation_matrix(2 * math.pi / 5)
    out = realify_matrix(u)
    c, s = math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)
    expected = np.zeros((4, 4))
    expected[0::2, 0::2] = [[c, -s], [s, c]]
    expected[1::2, 1::2] = [[c, -s], [s, c]]
    assert np.allclose(out.real, expected, atol=1e-15)


def test_realify_vector_examples():
    assert np.array_equal(realify_vector([1.0, 0.0]).real, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(realify_vector([1j]).real, [0.0, 1.0])
    z = (1 + 1j) / math.sqrt(2)
    out = realify_vector([z]).real
    assert out == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-15)


def test_realify_vector_preserves_norm(rng):
    for _ in range(20):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.linalg.norm(realify_vector(v)) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def test_realify_matrix_is_homomorphism(rng):
    # holds for arbitrary complex matrices, not only unitary ones
    for _ in range(10):
        u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = realify_matrix(u @ v)
        rhs = realify_matrix(u) @ realify_matrix(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_realify_of_unitary_is_orthogonal(rng):
    for d in (2, 3, 5):
        assert linalg.is_unitary(realify_matrix(haar_unitary(rng, d)), 1e-10)


def test_realify_program_accepting_pairs(rng):
    p = random_program(rng, d=3, n=2)
    real = realify_program(p)
    expected = frozenset(s for i in p.accepting for s in (2 * i - 1, 2 * i))
    assert real.accepting.tolist() == sorted(expected)
    assert real.width == 2 * p.width
    assert real.var_sequence == p.var_sequence


def test_realify_already_real_program():
    p = mod_block(ModBlockSpec(5, 1, 8))
    real = realify_program(p)
    assert np.max(np.abs(evaluate_all(real) - evaluate_all(p))) <= 1e-12
    assert is_stable(real)


def test_realify_universal_program(rng):
    f = TruthTable.random(4, rng)
    p = universal_exact_qbp(f)
    real = realify_program(p)
    assert np.max(np.abs(evaluate_all(real) - evaluate_all(p))) <= 1e-12


def test_realify_random_complex_programs_preserve_acceptance(rng):
    # complex unitaries and complex initial configurations
    for _ in range(10):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        p = random_program(rng, d=d, n=n, complex_initial=True)
        real = realify_program(p)
        assert np.max(np.abs(evaluate_all(real) - evaluate_all(p))) <= 1e-12


def test_realify_entries_stay_in_unit_interval(rng):
    p = random_program(rng, d=4, n=3)
    real = realify_program(p)
    for tf in real.transformations:
        for u in (tf.u0, tf.u1):
            assert np.max(np.abs(u.real)) <= 1.0 + 1e-12
            assert np.max(np.abs(u.imag)) == 0.0
    assert np.max(np.abs(real.initial.real)) <= 1.0 + 1e-12


def test_realify_double_application_squares_width(rng):
    p = random_program(rng, d=2, n=2)
    twice = realify_program(realify_program(p))
    assert twice.width == 4 * p.width
    assert np.max(np.abs(evaluate_all(twice) - evaluate_all(p))) <= 1e-12


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_a_real_phase_monomial_is_doubled_as_the_dense_doubling_stores_it(d):
    # every source tile of at most 1 x 1, and +-0.0 imaginary parts, alike
    # or mixed: the double is the dense doubling's tiled Monomial bit for
    # bit, or None exactly where that keeps its matrix (no tile fits)
    rng = np.random.default_rng(d)
    zeros = [None] + [np.array([[z]]) for z in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))]
    for tile, imag in itertools.product(zeros, ("+0", "-0", "mixed")):
        signs = {"+0": [0.0] * d, "-0": [-0.0] * d, "mixed": rng.choice([0.0, -0.0], d)}[imag]
        phases = [complex(a, b) for a, b in zip(rng.choice([1.0, -1.0], d), signs)]
        m = Monomial(rng.permutation(d), phases, tile)
        want = _stored(realify_matrix(_unitary_dense(m)))
        got = _realified_monomial(m)
        assert isinstance(want, Monomial)
        if "dense" in vars(want):
            assert got is None
            continue
        assert np.array_equal(got.perm, want.perm) and np.array_equal(_bits(got.phases), _bits(want.phases))
        assert np.array_equal(_bits(got.zeros), _bits(want.zeros))
        assert np.array_equal(_bits(got.dense), _bits(realify_matrix(_unitary_dense(m))))


@pytest.mark.parametrize("phase", [1j, (1 + 1j) / math.sqrt(2)])
def test_a_complex_phase_monomial_is_doubled_densely(phase):
    m = Monomial([1, 0], [phase, 1.0])
    assert _realified_monomial(m) is None


def test_realify_of_a_monomial_program_builds_no_dense_level(monkeypatch):
    def refused(*args):
        raise AssertionError("a dense level was built")

    p = universal_exact_qbp(TruthTable.random(5, np.random.default_rng(5)))
    monkeypatch.setattr(realify_module, "realify_matrix", refused)
    monkeypatch.setattr(realify_module, "_stored", refused)
    real = realify_program(p)
    levels = [u for tf in real.transformations for u in tf.unitaries]
    assert all(isinstance(u, Monomial) and "dense" not in vars(u) for u in levels)
    assert np.array_equal(evaluate_all(real), evaluate_all(p))
