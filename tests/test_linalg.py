import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import linalg

from conftest import haar_unitary, random_state


COS72 = 0.30901699437494745
SIN72 = 0.9510565162951535


def test_apply_identity_leaves_vector_unchanged():
    psi = np.array([0.6, 0.8j])
    out = np.eye(2) @ psi
    assert np.allclose(out, psi, atol=1e-15)


def test_apply_rotation_72_degrees():
    out = linalg.rotation_matrix(2 * math.pi / 5) @ np.array([1.0, 0.0])
    assert out[0] == pytest.approx(COS72, abs=1e-12)
    assert out[1] == pytest.approx(SIN72, abs=1e-12)


def test_apply_signed_permutation():
    u = linalg.as_cmatrix([[0, 1], [-1, 0]])
    out = u @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0], atol=1e-15)


def test_is_unitary_identity_and_rotations():
    assert linalg.is_unitary(np.eye(4))
    for angle in (0.1, 1.0, 2 * math.pi / 5, math.pi):
        assert linalg.is_unitary(linalg.rotation_matrix(angle))


def test_is_unitary_rejects_shear():
    assert not linalg.is_unitary([[1, 1], [0, 1]])


def test_is_unitary_requires_positive_tolerance():
    with pytest.raises(ValueError):
        linalg.is_unitary(np.eye(2), tol=0.0)


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        linalg.as_cvector([1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_cmatrix([[1.0, 0.0], [0.0, float("inf")]])


def test_vectors_are_frozen():
    v = linalg.as_cvector([1.0, 0.0])
    with pytest.raises(ValueError):
        v[0] = 5


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=200, deadline=None)
def test_unitaries_preserve_distance(seed, d):
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, d)
    psi = random_state(rng, d)
    xi = random_state(rng, d)
    before = np.linalg.norm(psi - xi)
    after = np.linalg.norm(u @ psi - u @ xi)
    assert abs(before - after) <= 1e-9


@given(st.floats(0.0, 2 * math.pi, allow_nan=False), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rotations_preserve_norm(angle, seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, 2)
    out = linalg.rotation_matrix(angle) @ psi
    assert abs(linalg.norm(out) - 1.0) <= 1e-10


def test_norm_conserved_over_long_sequences(rng):
    psi = random_state(rng, 2)
    angles = rng.uniform(0, 2 * math.pi, size=10_000)
    for a in angles:
        psi = linalg.rotation_matrix(a) @ psi
    assert abs(linalg.norm(psi) - 1.0) <= 1e-9
