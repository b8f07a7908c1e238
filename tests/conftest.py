import numpy as np
import pytest
from hypothesis import settings

from qbp.program import QbProgram, QuantumTransformation

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run, so
# a failing property reproduces
settings.register_profile("ci", derandomize=True, deadline=None)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state(rng: np.random.Generator, d: int, complex_entries: bool = True) -> np.ndarray:
    v = rng.normal(size=d).astype(np.complex128)
    if complex_entries:
        v += 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_program(
    rng: np.random.Generator,
    d: int,
    n: int,
    complex_initial: bool = True,
    length: int | None = None,
) -> QbProgram:
    """Read-once program with Haar-random unitaries reading x_1..x_length."""
    length = n if length is None else length
    tfs = tuple(
        QuantumTransformation(i, haar_unitary(rng, d), haar_unitary(rng, d))
        for i in range(1, length + 1)
    )
    initial = random_state(rng, d, complex_entries=complex_initial)
    size = int(rng.integers(1, d))
    accepting = frozenset(int(s) + 1 for s in rng.choice(d, size=size, replace=False))
    return QbProgram(n, d, tfs, initial, accepting)


def chain_probability(p: QbProgram, bits) -> float:
    """Independent oracle: plain dense matrix-chain evaluation."""
    bits = tuple(int(b) for b in bits)
    psi = np.array(p.initial, dtype=np.complex128)
    for tf in p.transformations:
        u = np.array(tf.u1 if bits[tf.var_index - 1] else tf.u0)
        psi = u @ psi
    return float(sum(abs(psi[s - 1]) ** 2 for s in p.accepting))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
