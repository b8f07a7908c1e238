"""Reference computations for the benchmark's output checks.

None of these calls into qbp: program files are parsed with the json module
and evaluated by a plain dense matrix chain, truth tables and minimal OBDD
widths are computed from their definitions.
"""

from __future__ import annotations

import json
import math

import numpy as np


def mod_bits(p: int, n: int) -> np.ndarray:
    """MOD_p truth table: input value v is accepted iff popcount(v) % p == 0."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)) % p == 0


def table_file_text(bits: np.ndarray) -> str:
    """Expected contents of a truth-table file for ``bits``."""
    n = int(bits.size).bit_length() - 1
    chars = np.where(bits, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return f"{n}\n{chars}\n"


def mod_widths(p: int, n: int) -> list[int]:
    """Minimal OBDD level widths of MOD_p in any order: after j variables the
    subfunction depends only on the count c of ones read, and is the symmetric
    function accepting k more ones iff (c + k) % p == 0."""
    return [
        len({tuple((c + k) % p == 0 for k in range(n - j + 1)) for c in range(j + 1)})
        for j in range(n + 1)
    ]


def subfunction_widths(bits: np.ndarray) -> list[int]:
    """Distinct subfunctions after fixing x_1..x_j, counted per level j."""
    n = int(bits.size).bit_length() - 1
    raw = np.ascontiguousarray(bits, dtype=np.uint8)
    widths = []
    for j in range(n + 1):
        step = 1 << (n - j)
        widths.append(len({raw[i:i + step].tobytes() for i in range(0, raw.size, step)}))
    return widths


def packing_bound_holds(count: int, theta: float, width: int) -> bool:
    """count <= (1 + 2/theta)^(2 width), compared in log space."""
    return math.log(count) <= 2 * width * math.log1p(2.0 / theta) + 1e-9


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def program_from_file(path) -> tuple[np.ndarray, list, list[int]]:
    """(initial, [(var, u0, u1), ...], accepting) read straight from JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    levels = [(t["var"], _complex(t["u0"]), _complex(t["u1"])) for t in obj["transformations"]]
    return _complex(obj["initial"]), levels, list(obj["accepting"])


def chain_probability(initial, levels, accepting, bits) -> float:
    """Acceptance probability by multiplying the dense matrices in order."""
    psi = np.array(initial, dtype=np.complex128)
    for var, u0, u1 in levels:
        psi = (u1 if bits[var - 1] else u0) @ psi
    return float(sum(abs(psi[s - 1]) ** 2 for s in accepting))


def input_bits(value: int, n: int) -> tuple[int, ...]:
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))
