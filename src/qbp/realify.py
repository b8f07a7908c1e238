"""Simulate a complex-amplitude program with real amplitudes at twice the width.

Each complex entry z = a + ib becomes the 2x2 real block [[a, b], [-b, a]]
and each configuration entry becomes the interleaved pair (a, b).  That block
is the matrix of multiplication by the conjugate of z, so a doubled matrix
acting on an encoded vector yields the encoding of conj(U) applied to it.
Chaining levels therefore produces the entrywise conjugate of the complex
computation; storing the *conjugated* initial configuration makes every
final amplitude the conjugate of the original one, which leaves all
measurement probabilities exactly unchanged.  Real programs are unaffected
(their conjugates are themselves).

Accepting state i of the source program maps to the pair {2i-1, 2i}, whose
combined measurement weight is a^2 + b^2 = |z|^2.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .program import QbProgram, QuantumTransformation


def realify_matrix(u) -> np.ndarray:
    """Double a matrix: entry z = a + ib becomes [[a, b], [-b, a]].

    The map is a homomorphism (products of doubled matrices are doubled
    products) and sends unitary matrices to orthogonal ones.  The result is
    stored as a complex matrix with zero imaginary parts so it can be used
    directly in program transformations.
    """
    u = linalg.as_cmatrix(u)
    d = u.shape[0]
    a, b = u.real, u.imag
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[0::2, 0::2] = a
    out[0::2, 1::2] = b
    out[1::2, 0::2] = -b
    out[1::2, 1::2] = a
    out.flags.writeable = False
    return out


def realify_vector(psi) -> np.ndarray:
    """Interleave real and imaginary parts: (z_1, ..., z_d) becomes
    (a_1, b_1, ..., a_d, b_d).  Norms are preserved."""
    psi = linalg.as_cvector(psi)
    out = np.zeros(2 * psi.shape[0], dtype=np.complex128)
    out[0::2] = psi.real
    out[1::2] = psi.imag
    out.flags.writeable = False
    return out


def realify_program(p: QbProgram) -> QbProgram:
    """Width-2d real program whose acceptance equals the source program's on
    every input (exactly, up to floating rounding).

    The initial configuration is encoded conjugated (see module docstring);
    for programs with a real initial configuration this is the plain
    interleaving.
    """
    tfs = tuple(
        QuantumTransformation(tf.var_index, realify_matrix(tf.u0), realify_matrix(tf.u1))
        for tf in p.transformations
    )
    initial = realify_vector(np.conj(p.initial))
    accepting = frozenset(
        s for i in p.accepting for s in (2 * i - 1, 2 * i)
    )
    return QbProgram(p.n_vars, 2 * p.width, tfs, initial, accepting)
