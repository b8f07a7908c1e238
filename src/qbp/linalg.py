"""Dense complex linear algebra for program configurations.

Vectors and matrices are numpy ``complex128`` arrays frozen after
construction (``writeable = False``), so they can be shared between
programs and threads without defensive copies.  Unitarity is checked at
1e-10 by default; metric assertions elsewhere in the package work at 1e-9.
"""

from __future__ import annotations

import numpy as np

DEFAULT_UNITARY_TOL = 1e-10


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _coerce(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if arr.flags.writeable:
        arr = _frozen(arr.copy())
    return arr


def as_cvector(data) -> np.ndarray:
    """Validate and freeze a complex vector (finite entries, length >= 1)."""
    return _coerce(data, 1, "vector")


def as_cmatrix(data) -> np.ndarray:
    """Validate and freeze a square complex matrix."""
    arr = _coerce(data, 2, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    return arr


def identity(dim: int) -> np.ndarray:
    return _frozen(np.eye(dim, dtype=np.complex128))


def rotation_matrix(angle: float) -> np.ndarray:
    """2x2 real rotation by ``angle`` radians (counterclockwise)."""
    c, s = np.cos(angle), np.sin(angle)
    return _frozen(np.array([[c, -s], [s, c]], dtype=np.complex128))


def is_unitary(u, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True iff the max-entry deviation of ``u* u`` from the identity is <= tol."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    u = as_cmatrix(u)
    gram = u.conj().T @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[0])))) <= tol


def norm(psi) -> float:
    return float(np.linalg.norm(as_cvector(psi)))


def distance(a, b) -> float:
    """Euclidean distance between two complex vectors of equal dimension."""
    a = as_cvector(a)
    b = as_cvector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"vector dimension {a.shape[0]} does not match vector dimension {b.shape[0]}"
        )
    return float(np.linalg.norm(a - b))
