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
from .program import QbProgram, QuantumTransformation, _stored, _unitary_dense


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
    interleaving.  A source ``Monomial``'s dense form is built for its
    level only (``_unitary_dense``) and not cached on the source, so the
    call leaves the source program as it found it.  A source unitary that
    several levels share is doubled once, and its double is shared by the
    same levels.  The realified unitaries it keeps (one per distinct source
    unitary, told apart by identity) and one level's temporaries (the
    unitarity check's products of a dense level, traced with tracemalloc at
    up to 3.7 realified unitaries) are checked against
    ``linalg.MEMORY_BUDGET_BYTES`` before the first level is built, counted
    as 1 unitary per distinct source unitary and 4 for the temporaries.
    Beside them, 2 KiB per level and 16 KiB once count the Python objects,
    traced at up to 1.2 KiB a level and 7.2 KiB once for programs of width 2
    to 8.
    """
    level = 16 * (2 * p.width) ** 2
    distinct = len({id(u) for tf in p.transformations for u in tf.unitaries})
    linalg.check_budget(level * (distinct + 4) + 2048 * p.length + (16 << 10), "realify",
                        f"{distinct} realified unitaries of width {2 * p.width} for {p.length} levels, "
                        f"with one level's temporaries,")
    doubled = {}  # id of a source unitary -> its stored double: a shared one is doubled once
    tfs = []
    for tf in p.transformations:
        for u in tf.unitaries:
            if id(u) not in doubled:
                doubled[id(u)] = _stored(realify_matrix(_unitary_dense(u)))
        tfs.append(QuantumTransformation._sharing(tf.var_index, *(doubled[id(u)] for u in tf.unitaries)))
    initial = realify_vector(np.conj(p.initial))
    accepting = (2 * p.accepting[:, None] - (1, 0)).reshape(-1)  # 2a - 1, 2a for each a, in order
    return QbProgram(p.n_vars, 2 * p.width, tuple(tfs), initial, accepting)
