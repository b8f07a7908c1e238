"""The text of complex arrays in the program file format, and its reading.

An array is nested [re, im] pairs of float reprs, as json writes them, in
one of two layouts: the compact one (separators ",") that the digest
hashes, and the file's (", ").  A cell is one pair, and a matrix a list of
rows.  The text of a dense array formats each distinct entry once
(``_array_text``), and ``_canonical_cells`` reads it back, parsing each
distinct cell once.

A Monomial's zero slots hold signed zeros that follow a tile (``_zero_tile``),
so its text is built by rows (``_Rows``): each row is the template of its
parity, the row of the tile's zero cells, with the row's one phase cell
spliced in.  ``_read_rows`` reads such a text back by rows, parsing only the
d phase cells, and accepts it only if it equals the templates with them
spliced in.

Nothing here knows the program model: ``program`` builds the stored
unitaries from what these functions give.
"""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from . import linalg

# the signed zeros by code: 1 for a -0.0 real part, plus 2 for a -0.0 imaginary part
_SIGNED_ZEROS = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


def _zero_tile(codes: Sequence[int]) -> np.ndarray | None:
    """The canonical tile of zero slots whose class (i % 2, j % 2) holds
    the signed zero of code ``codes[2 (i % 2) + j % 2]``, or -1 where a
    class has no zero slot: None when every slot holds 0.0 + 0.0j, 1 x 1
    when they all hold one zero, else 2 x 2 with 0.0 + 0.0j in an empty
    class."""
    present = {c for c in codes if c >= 0}
    if present <= {0}:
        return None
    if len(present) == 1:
        return linalg._frozen(_SIGNED_ZEROS[list(present)].reshape(1, 1))
    return linalg._frozen(_SIGNED_ZEROS[[max(c, 0) for c in codes]].reshape(2, 2))


def _pairs(a: np.ndarray) -> list:
    """[re, im] float pairs of a complex array, nested like the array."""
    return np.stack([a.real, a.imag], -1).tolist()


def _array_text(a: np.ndarray) -> str:
    """The compact JSON text of a complex vector or matrix as [re, im] pairs,
    ``json.dumps(_pairs(a), separators=(",", ":"))``, formatting each
    distinct entry once.  Entries are told apart by their 16 raw bytes, the
    two uint64 halves that one lexsort orders, so -0.0 and 0.0 stay
    distinct."""
    halves = np.ascontiguousarray(a).reshape(-1).view(np.uint64)
    order = np.lexsort((halves[1::2], halves[0::2]))
    re, im = halves[0::2][order], halves[1::2][order]
    # an entry starts a group where either half differs from the one before
    first = np.ones(order.size, dtype=bool)
    first[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    distinct = a.reshape(-1)[order[first]]
    del order, re, im, first  # the text is built from the groups alone
    vocab = json.dumps(_pairs(distinct), separators=(",", ":"))
    cells = np.array(vocab[2:-2].split("],["), dtype=object)[inverse]
    rows = cells.reshape(-1, a.shape[-1]).tolist()
    text = ",".join("[[" + "],[".join(row) + "]]" for row in rows)
    return text if a.ndim == 1 else "[" + text + "]"


def _cell_texts(a: np.ndarray, sep: bytes = b",") -> list[bytes]:
    """The cell texts b"[re,im]" (``sep`` between the parts) of the
    entries of a complex vector, each distinct entry formatted once.
    Entries are told apart by their 16 raw bytes, so -0.0 and 0.0 stay
    distinct, and each part is its float repr, as json writes it."""
    keys = np.ascontiguousarray(a).view("V16").tolist()
    texts = dict.fromkeys(keys)
    for key, z in zip(texts, np.frombuffer(b"".join(texts), np.complex128).tolist()):
        texts[key] = b"[%r%s%r]" % (z.real, sep, z.imag)
    return [texts[key] for key in keys]


# the zero cells' texts by sign code (as in ``_SIGNED_ZEROS``), in each layout
_ZERO_TEXTS = {sep: _cell_texts(_SIGNED_ZEROS, sep) for sep in (b",", b", ")}


class _Rows:
    """The text of width-d Monomials whose zero slots follow one tile, in
    the compact layout (``sep`` b",") or the file's (b", "), built row by
    row: row i is the template of its parity, the row of the tile's zero
    cells, with the Monomial's one cell for it spliced in at column perm[i].
    Each zero cell is formatted once, when the templates are built."""

    def __init__(self, d: int, zeros: np.ndarray | None, sep: bytes):
        k = 1 if zeros is None else zeros.shape[0]
        cells = _ZERO_TEXTS[sep][:1] if zeros is None else _cell_texts(zeros.reshape(-1), sep)  # row major
        self.sep, self.templates = sep, []
        for i in range(k):
            row = [cells[i * k + j % k] for j in range(d)]
            starts = list(accumulate((len(c) + len(sep) for c in row[:-1]), initial=1))
            self.templates.append((memoryview(b"[" + sep.join(row) + b"]"), starts,
                                   [s + len(c) for s, c in zip(starts, row)]))

    def text(self, perm: Sequence[int], cells: Sequence[bytes]) -> bytes:
        """The array's text, with ``cells[i]`` (brackets included) the cell
        of row i, in column ``perm[i]``."""
        pieces, k = [b"["], len(self.templates)
        for i, (j, cell) in enumerate(zip(perm, cells)):
            row, starts, ends = self.templates[i % k]
            pieces += (row[:starts[j]], cell, row[ends[j]:], self.sep)
        pieces[-1] = b"]"
        return b"".join(pieces)

    def cells(self, raw: bytes, lo: int, perm: Sequence[int]) -> list[bytes]:
        """The cell of each row i at column perm[i] of the array whose text
        starts at raw[lo], found where the templates put it: each row is
        taken to follow its template, which the caller checks by ``text``."""
        cells, at, k = [], lo + 1, len(self.templates)
        for i, j in enumerate(perm):
            row, starts, ends = self.templates[i % k]
            end = raw.find(b"]", at + starts[j]) + 1
            cells.append(raw[at + starts[j]:end])
            at = end + len(row) - ends[j] + len(self.sep)
        return cells


def _monomial_texts(m, rows: dict, wide: bool) -> tuple[bytes, bytes | None]:
    """The compact text of a Monomial and, if ``wide``, its file form, each
    built by ``_Rows``: only its d phases are told apart and formatted.
    ``rows`` keeps the row templates by layout and tile, so a program builds
    them once."""
    perm, cells = m.perm.tolist(), _cell_texts(m.phases)

    def text(sep: bytes, cells: list[bytes]) -> bytes:
        key = sep, None if m.zeros is None else m.zeros.tobytes()
        if key not in rows:
            rows[key] = _Rows(len(perm), m.zeros, sep)
        return rows[key].text(perm, cells)

    return text(b",", cells), text(b", ", [c.replace(b",", b", ") for c in cells]) if wide else None


_NUMBER = rb"-?(?:0|[1-9]\d*)(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)"  # not an integer
_CELL = re.compile(rb"(%s), (%s)" % (_NUMBER, _NUMBER))


def _canonical_cells(text: bytes, shape: tuple[int, ...]) -> np.ndarray | None:
    """The complex array of ``shape`` whose text between its outer brackets
    is ``text`` in the file's layout, each distinct cell parsed once, as two
    JSON numbers with a "." or an exponent (float() then gives json's float,
    -0.0 included); None for any other text."""
    parts = [row.split(b"], [") for row in text.split(b"]], [[")]
    if len(parts) != math.prod(shape[:-1]) or set(map(len, parts)) != {shape[-1]}:
        return None
    cells = list(chain.from_iterable(parts))
    ids, values = dict.fromkeys(cells), []
    for i, cell in enumerate(ids):
        m = _CELL.fullmatch(cell)
        if m is None:
            return None
        values += (float(m[1]), float(m[2]))
        ids[cell] = i
    index = np.fromiter(map(ids.__getitem__, cells), np.intp, len(cells)).reshape(shape)
    return linalg._frozen(np.array(values).view(np.complex128)[index])


# the sign code (as in ``_SIGNED_ZEROS``) of each zero cell's text in the file's layout
_ZERO_CODES = {text: code for code, text in enumerate(_ZERO_TEXTS[b", "])}
# ``bytes.translate`` arguments that keep only "]" and the digits 1-9, each digit as "1"
_DIGITS = bytes.maketrans(b"23456789", b"11111111")
_NOT_DIGITS = bytes(sorted(set(range(256)) - set(b"]123456789")))


def _read_rows(raw: bytes, lo: int, hi: int, d: int,
               rows: dict) -> tuple[np.ndarray, list[complex], np.ndarray | None] | None:
    """(perm, phases, zeros) of the Monomial whose text in the file's layout
    is raw[lo:hi], from its outer "[" to its outer "]", read by rows; None
    for any other text, and below width 4, for ``_canonical_cells`` to read.

    A zero cell holds no digit 1-9, so a row's one nonzero cell holds the
    row's first such digit.  With every other byte but "]" deleted (one
    ``bytes.translate`` of the text), a zero cell is one "]": the first
    digit after a row's start lies as many bytes on as its column, and the
    row ends d - column bytes after that cell's "]".  So two ``find``s a
    row give perm.  Four zero cells, one of each class (i % 2, j % 2) in
    rows 0 and 1, give the tile (``_zero_tile``), and its row templates
    (``_Rows``, kept in ``rows`` by tile) give where each row's cell lies.
    Only those d cells are parsed, and the text is accepted only if it
    equals the templates with them spliced in.  A text whose first row does
    not hold d - 1 zero cells, as a dense level's, is turned away first."""
    row1 = raw.find(b"]]", lo) + 6  # in row 1's first cell, after row 0's "]], [[["
    if d < 4 or sum(map(raw[lo:row1].count, _ZERO_CODES)) != d - 1:
        return None
    ones, perm, at = raw[lo:hi].translate(_DIGITS, _NOT_DIGITS), [], 0
    for _ in range(d):
        first = ones.find(b"1", at)
        if first < 0:
            return None
        perm.append(first - at)
        at = ones.find(b"]", first) + 1 + d - perm[-1]
    if max(perm) >= d or len(set(perm)) < d:
        return None
    zeros = []
    for p, start in ((0, lo + 3), (1, row1)):
        cells = raw[start:raw.find(b"]]", start)].split(b"], [", 4)  # the row's first four cells
        zeros += (b"[%s]" % cells[q + 2 * (perm[p] == q)] for q in (0, 1) if len(cells) >= 4)
    codes = tuple(_ZERO_CODES.get(text, -1) for text in zeros)
    if len(codes) < 4 or -1 in codes:
        return None
    if codes not in rows:
        tile = _zero_tile(codes)
        rows[codes] = tile, _Rows(d, tile, b", ")
    tile, form = rows[codes]
    cells = form.cells(raw, lo, perm)
    values = {}
    for text in dict.fromkeys(cells):
        m = _CELL.fullmatch(text, 1, len(text) - 1)
        if m is None:
            return None
        values[text] = complex(float(m[1]), float(m[2]))
    text = form.text(perm, cells)
    if 0 in values.values() or len(text) != hi - lo or not raw.startswith(text, lo):
        return None
    return np.array(perm), [values[text] for text in cells], tile
