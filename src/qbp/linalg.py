"""Dense complex linear algebra for program configurations.

Vectors and matrices are numpy ``complex128`` arrays frozen after
construction (``writeable = False``), so they can be shared between
programs and threads without defensive copies.  Every tolerance of the
package is defined once, in the table below, and so is its one resource
limit, ``MEMORY_BUDGET_BYTES``.
"""

from __future__ import annotations

import numpy as np

# -- tolerances: every one the package uses, each with its reason -----------
DEFAULT_UNITARY_TOL = 1e-10  # max-entry deviation of u* u from I of a unitary level
NORMALIZATION_TOL = 1e-10  # unit norm of an initial configuration
STABLE_TOL = 1e-12  # entrywise difference of two levels that count as the same (is_stable)
MARGIN_SLACK = 1e-12  # margin rule slack: a margin equal to the measured one is met
ONE_SIDED_TOL = 1e-9  # default OneSided.tol: an accepting probability's distance from 1
CONFIG_DEDUP_TOL = 1e-9  # distance under which two reachable configurations are collapsed
NORM_DRIFT_TOL = 1e-9  # drift off unit norm that a reachable configuration may accumulate
CHAIN_SLACK = 1e-12  # slack on the theta-component radius and on theta vs the separation
CHAIN_INSET = 1e-9  # components are chained at theta - CHAIN_INSET, strictly inside theta
GOOD_COS2_SLACK = 1e-12  # slack on cos^2 <= 1/2 in the good-multiplier test
RANGE_SLACK = 1e-12  # overshoot of a float range's stop that still includes it

# -- memory: the package's one resource limit -----------------------------------
# Every array sized by an outside integer (n, p, a table's length) is counted
# in bytes where that size is first known, and refused before it is allocated.
MEMORY_BUDGET_BYTES = 1 << 30


def check_budget(need: int, stage: str, what: str) -> None:
    """Refuse a step whose arrays need more than ``MEMORY_BUDGET_BYTES``."""
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{stage} budget exceeded: {what} needs {need} bytes, limit {MEMORY_BUDGET_BYTES}"
        )


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
