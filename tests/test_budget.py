"""The one memory budget: every site that sizes arrays from an outside integer
refuses, before allocating, a step that needs more than
``linalg.MEMORY_BUDGET_BYTES``, and accepts one that needs exactly that."""

import tracemalloc

import numpy as np
import pytest

from qbp import analysis, cli, constructions, linalg, program
from qbp.program import QbProgram, QuantumTransformation, TruthTable

MiB = 1 << 20


def _identity_program(n: int, width: int, var_sequence) -> QbProgram:
    ident = np.eye(width)
    tfs = tuple(QuantumTransformation(j, ident, ident) for j in var_sequence)
    return QbProgram(n, width, tfs, np.eye(width)[0], frozenset({1}))


def _truncated(p: QbProgram, length: int) -> QbProgram:
    return QbProgram(p.n_vars, p.width, p.transformations[:length], p.initial, p.accepting)


# Each case returns (call, need, stage, prefix): ``call`` runs the site,
# which needs exactly ``need`` bytes at its budget check; ``prefix`` is None,
# or the work the site has already done when it reaches the check.  Inputs
# are built here, before any budget is patched or memory traced.

def _batch():
    p = _identity_program(4, 16, range(1, 5))
    inputs = np.zeros((8192, 4), dtype=np.int8)
    return (lambda: program.evaluate_batch(p, inputs)), 16 * 16 * 8192, "evaluation", None


def _leaf_block():
    # width 8 at n = 16: chunks of 2^13 columns, so three split levels; the
    # walk holds three doubled blocks of 2^14 columns, three chunks of one
    # level's temporaries, 32 bytes per chunk column, numpy's ufunc buffers
    # and 2^16 probabilities
    p = _identity_program(16, 8, range(1, 17))
    need = 8 * 16 * ((3 << 14) + (3 << 13)) + (32 << 13) + 3 * 16 * np.getbufsize() + (8 << 16)
    return (lambda: program.evaluate_all(p)), need, "evaluation", None


def _per_input():
    p = _identity_program(16, 1, ())
    return (lambda: program.evaluate_all(p)), 32 << 16, "evaluation", None


def _reachable_level():
    # level 9 of the universal n=9 program: 512 candidates of width 512
    p = constructions.universal_exact_qbp(TruthTable.random(9, np.random.default_rng(9)))
    prefix = _truncated(p, 8)
    return ((lambda: analysis.reachable_configurations(p)), 2 * 512 * 512 * 16, "configuration",
            lambda: analysis.reachable_configurations(prefix))


def _separation_per_input():
    p = _identity_program(16, 1, ())
    f = TruthTable.constant(16, True)
    return (lambda: analysis.measured_separation(p, f, 0.5)), 32 << 16, "separation", None


def _separation_leaf_rows():
    # the MOD_3 block with every variable read twice (rotation by 4*pi*|x|/3),
    # padded to width 8 so that this check, not the leaf walk's, binds
    pad = np.eye(8, dtype=complex)

    def padded(u):
        out = pad.copy()
        out[:2, :2] = u
        return out

    blocks = tuple(QuantumTransformation(tf.var_index, padded(tf.u0), padded(tf.u1)) for tf in
                   constructions.mod_block(constructions.ModBlockSpec(3, 1, 15)).transformations)
    p = QbProgram(15, 8, blocks + blocks, np.eye(8)[0], frozenset({1}))
    f = constructions.mod_truth_table(3, 15)
    return (lambda: analysis.measured_separation(p, f, 0.25)), 3 * 8 * 16 << 15, "separation", None


def _gram():
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)) for _ in range(2))
    return (lambda: analysis._min_cross_distance(a, b)), 32 * 256 * 256, "separation", None


def _width_oracle():
    f = TruthTable.random(17, np.random.default_rng(17))
    return (lambda: analysis.min_obdd_width(f)), (65 << 17) // 4, "width oracle", None


def _universal():
    f = TruthTable.random(13, np.random.default_rng(13))
    return (lambda: constructions.universal_exact_qbp(f)), 14 * 24 << 13, "universal construction", None


def _dense_level():
    m = program.Monomial(np.arange(512)[::-1], np.ones(512))
    return (lambda: m.dense), 16 * 512 * 512, "dense level", None


def _program_format():
    # width 128, two levels, formatted one at a time: the initial vector and
    # one level, 128 * (1 + 2 * 128) complex entries
    p = _identity_program(2, 128, (1, 2))
    return ((lambda: program.program_digest(p)), 128 * 257 * program._FORMAT_BYTES_PER_ENTRY,
            "program format", None)


def _mod_construction():
    width = 2 * constructions.greedy_good_set(3).t
    need = 2000 * width * (2 * 16 * width + constructions._LEVEL_BYTES_PER_STATE)
    return (lambda: constructions.build_mod_program(3, 2000)), need, "mod construction", None


def _good_set():
    return (lambda: constructions.failing_residues(367, (1, 2))), 16 * 366 * 366, "good set", None


def _truth_table():
    return (lambda: constructions.mod_truth_table(3, 19)), 5 << 19, "truth table", None


def _sweep_range():
    return ((lambda: cli._parse_range("0:99999", "p range")), 100000 * cli._SWEEP_POINT_BYTES,
            "sweep", None)


SITES = {
    "evaluation batch": _batch,
    "evaluation leaf block": _leaf_block,
    "evaluation per-input data": _per_input,
    "reachable level": _reachable_level,
    "separation per-input data": _separation_per_input,
    "separation read-k leaf rows": _separation_leaf_rows,
    "separation Gram matrix": _gram,
    "min_obdd_width": _width_oracle,
    "universal_exact_qbp": _universal,
    "Monomial.dense": _dense_level,
    "program format": _program_format,
    "build_mod_program": _mod_construction,
    "_good_table": _good_set,
    "mod_truth_table": _truth_table,
    "sweep range": _sweep_range,
}


def _traced(fn) -> tuple[int, int]:
    """(peak, held) bytes traced while ``fn`` runs: ``held`` is what its
    result still holds when it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # noqa: F841 - held while the traced memory is read
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("site", SITES)
def test_budget_site_refuses_before_allocating(site, monkeypatch):
    call, need, stage, prefix = SITES[site]()
    assert need >= 2 * MiB
    # the refusing call may allocate what its prefix does, plus under 1 MiB;
    # the refused block, on top of what the prefix holds, would exceed that
    prefix_peak, prefix_held = (0, 0) if prefix is None else _traced(prefix)
    allowed = prefix_peak + MiB
    assert allowed < prefix_held + need

    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", need - 1)

    def refused():
        with pytest.raises(ValueError, match=f"^{stage} budget exceeded: .* needs {need} bytes"):
            call()

    assert _traced(refused)[0] < allowed

    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", need)
    call()


def test_memory_budget_is_one_gib():
    assert linalg.MEMORY_BUDGET_BYTES == 1 << 30
    linalg.check_budget(1 << 30, "any", "a block")
    with pytest.raises(ValueError, match=r"^any budget exceeded: a block needs 1073741825 bytes, "
                                         r"limit 1073741824$"):
        linalg.check_budget((1 << 30) + 1, "any", "a block")
