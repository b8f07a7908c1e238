import hashlib
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import linalg
from qbp import program as program_module
from qbp.analysis import measured_separation
from qbp.cli import ParseFailure, load_truth_table, save_truth_table
from qbp.constructions import (
    ModBlockSpec,
    build_mod_program,
    mod_block,
    mod_truth_table,
    universal_exact_qbp,
)
from qbp.program import (
    Margin,
    Monomial,
    OneSided,
    ProgramFormatError,
    QbProgram,
    QuantumTransformation,
    TruthTable,
    accept_probability,
    bits_of_value,
    computes,
    evaluate,
    evaluate_all,
    evaluate_batch,
    final_configuration,
    is_read_once,
    is_stable,
    load_program,
    program_digest,
    program_from_obj,
    save_program,
)
from qbp.realify import realify_program

from conftest import chain_probability, haar_unitary, leaf_indices, random_program, random_state


def identity_program(width=2, n_vars=1, accepting=frozenset({1}), initial=None, levels=1):
    if initial is None:
        initial = np.zeros(width)
        initial[0] = 1.0
    ident = np.eye(width)
    tfs = tuple(QuantumTransformation(1, ident, ident) for _ in range(levels))
    return QbProgram(n_vars, width, tfs, initial, accepting)


def probability_program(prob: float) -> QbProgram:
    """Transformation-free program whose acceptance probability is ``prob``."""
    initial = np.array([math.sqrt(prob), math.sqrt(1.0 - prob)])
    return QbProgram(1, 2, (), initial, frozenset({1}))


# -- evaluate / final_configuration -------------------------------------------

def test_evaluate_mod5_block_all_ones_accepts():
    p = mod_block(ModBlockSpec(5, 1, 5))
    assert evaluate(p, "11111") == pytest.approx(1.0, abs=1e-12)


def test_evaluate_identity_program():
    assert evaluate(identity_program(), "0") == pytest.approx(1.0, abs=1e-15)


def test_evaluate_mod5_block_single_one():
    p = mod_block(ModBlockSpec(5, 1, 5))
    got = evaluate(p, "10000")
    # independent oracle: explicit matrix chain, cross-checked against cos^2
    assert got == pytest.approx(chain_probability(p, (1, 0, 0, 0, 0)), abs=1e-15)
    assert got == pytest.approx(math.cos(2 * math.pi / 5) ** 2, abs=1e-12)
    assert got == pytest.approx(0.09549150281252627, abs=1e-12)


def test_evaluate_input_length_mismatch():
    p = mod_block(ModBlockSpec(5, 1, 5))
    with pytest.raises(ValueError, match="length"):
        evaluate(p, "111")


def test_final_configuration_identity():
    p = identity_program()
    out = final_configuration(p, "1")
    assert np.allclose(out, p.initial, atol=1e-15)


def test_final_configuration_mod3_returns_to_start():
    p = mod_block(ModBlockSpec(3, 1, 3))
    out = final_configuration(p, "111")
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_final_configuration_mod5_two_ones():
    p = mod_block(ModBlockSpec(5, 1, 5))
    out = final_configuration(p, "11000")
    assert out[0].real == pytest.approx(math.cos(4 * math.pi / 5), abs=1e-12)
    assert out[1].real == pytest.approx(math.sin(4 * math.pi / 5), abs=1e-12)


def test_final_configuration_norm_is_one(rng):
    p = random_program(rng, d=5, n=6)
    for v in (0, 17, 63):
        psi = final_configuration(p, bits_of_value(v, 6))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


def test_evaluate_matches_projection_of_final_configuration(rng):
    p = random_program(rng, d=4, n=5)
    for v in range(32):
        bits = bits_of_value(v, 5)
        psi = final_configuration(p, bits)
        proj = sum(abs(psi[s - 1]) ** 2 for s in p.accepting)
        assert evaluate(p, bits) == pytest.approx(proj, abs=1e-12)


# -- classification by the margin rule -------------------------------------------

def margin_class(prob: float, epsilon: float) -> str:
    accepts, rejects = program_module._margin_masks(prob, epsilon)
    return "rejects" if rejects else "accepts" if accepts else "undetermined"


def test_classify_exact_accept():
    assert margin_class(evaluate(probability_program(1.0), "0"), 0.5) == "accepts"


def test_classify_seven_eighths_margin_quarter():
    assert margin_class(evaluate(probability_program(7 / 8), "1"), 0.25) == "accepts"


def test_classify_undetermined():
    assert margin_class(evaluate(probability_program(0.6), "0"), 0.2) == "undetermined"


def test_classify_half_with_zero_margin_rejects():
    assert margin_class(0.5, 0.0) == "rejects"


def test_classify_epsilon_out_of_range():
    with pytest.raises(ValueError, match="epsilon must be in"):
        Margin(0.7)


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 0.5, allow_nan=False),
)
@settings(max_examples=300)
def test_classify_probability_is_total_and_consistent(prob, eps):
    # the margin rule gives each bound a slack of min(MARGIN_SLACK, eps)
    s = min(linalg.MARGIN_SLACK, eps)
    got = margin_class(prob, eps)
    if got == "undetermined":
        assert eps > 0.0
        assert 0.5 - eps + s < prob < 0.5 + eps - s
    elif got == "accepts":
        assert prob >= 0.5 + eps - s and prob > 0.5 - eps + s
    else:
        assert prob <= 0.5 - eps + s


@pytest.mark.parametrize("prob, want", [
    (0.75 - 0.5e-12, "accepts"),
    (0.75 - 2e-12, "undetermined"),
    (0.25 + 0.5e-12, "rejects"),
    (0.25 + 2e-12, "undetermined"),
])
def test_margin_slack_is_pinned(prob, want):
    assert margin_class(prob, 0.25) == want


def _margin_rule_agrees(prob: float) -> None:
    # a program checked at its own reported min_margin computes its table,
    # in computes and in the separation analysis alike
    p = probability_program(prob)
    f = TruthTable.constant(1, evaluate(p, "0") > 0.5)
    m = computes(p, f, Margin(0.0)).min_margin
    assert computes(p, f, Margin(m)).holds
    if m > 0.0:
        assert measured_separation(p, f, m) == math.inf


def test_margin_rule_holds_at_the_reported_min_margin():
    _margin_rule_agrees(0.2)


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_margin_rule_holds_at_the_reported_min_margin_everywhere(prob):
    _margin_rule_agrees(prob)


# -- computes ---------------------------------------------------------------------

def test_computes_constant_zero_program_vs_constant_one_table():
    p = identity_program(width=2, n_vars=3, accepting=frozenset({2}))
    report = computes(p, TruthTable.constant(3, True), Margin(0.5))
    assert not report.holds
    assert report.counterexamples.dtype == np.int64 and not report.counterexamples.flags.writeable
    assert report.counterexamples.tolist() == list(range(8))


def test_computes_counterexamples_sorted_by_value():
    p = probability_program(1.0)
    f = TruthTable(1, np.array([True, False]))  # accepts everything but f(1) = 0
    report = computes(p, f, Margin(0.5))
    assert report.counterexamples.tolist() == [1]


def test_computes_nvars_mismatch():
    p = identity_program(n_vars=2)
    with pytest.raises(ValueError, match="n_vars"):
        computes(p, TruthTable.constant(3, True), Margin(0.5))


def test_computes_min_margin():
    p = probability_program(0.75)
    report = computes(p, TruthTable.constant(1, True), Margin(0.2499))
    assert report.holds
    assert report.min_margin == pytest.approx(0.25, abs=1e-12)


def test_computes_one_sided():
    p = mod_block(ModBlockSpec(3, 1, 6))
    f = TruthTable.from_function(6, lambda bits: sum(bits) % 3 == 0)
    report = computes(p, f, OneSided(reject_min=0.5, tol=1e-9))
    assert report.holds  # single block is good for every residue of 3


@pytest.mark.parametrize("kwargs, message", [
    ({"reject_min": math.nan}, "reject_min must be in \\[0, 1\\]"),
    ({"reject_min": -3.0, "tol": -1.0}, "reject_min must be in \\[0, 1\\]"),
    ({"reject_min": 1.5}, "reject_min must be in \\[0, 1\\]"),
    ({"tol": math.nan}, "tol must be finite and >= 0"),
    ({"tol": math.inf}, "tol must be finite and >= 0"),
    ({"tol": -1e-9}, "tol must be finite and >= 0"),
])
def test_one_sided_refuses_out_of_range_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        OneSided(**kwargs)


def test_one_sided_accepts_its_closed_range():
    assert OneSided(reject_min=0.0, tol=0.0) == OneSided(0.0, 0.0)
    assert OneSided(reject_min=1.0).reject_min == 1.0


def reference_failing(probs: np.ndarray, bits: np.ndarray, criterion) -> np.ndarray:
    """Oracle for ``program._failing``: the rule as it was, one mask per class
    of the table (|p - 1| taken for a 1-input) joined by ``np.where``."""
    if isinstance(criterion, Margin):
        eps = criterion.epsilon
        s = min(linalg.MARGIN_SLACK, eps)
        rejects = probs <= 0.5 - eps + s
        ok = np.where(bits, (probs >= 0.5 + eps - s) & ~rejects, rejects)
    else:
        ok = np.where(bits, np.abs(probs - 1.0) <= criterion.tol,
                      1.0 - probs >= criterion.reject_min - criterion.tol)
    return np.flatnonzero(~ok)


def _around(*centres: float) -> np.ndarray:
    """Each centre in [0, 1] and its three neighbouring doubles on each side."""
    out = []
    for c in centres:
        for direction in (0.0, 1.0):
            x = c
            for _ in range(4):
                out.append(x)
                x = np.nextafter(x, direction)
    return np.clip(np.unique(out), 0.0, 1.0)


@pytest.mark.parametrize("criterion", [
    *(Margin(eps) for eps in (0.0, linalg.MARGIN_SLACK / 2, linalg.MARGIN_SLACK, 0.05, 0.25, 0.5)),
    *(OneSided(reject_min, tol) for reject_min in (0.0, 0.125, 1.0)
      for tol in (0.0, linalg.ONE_SIDED_TOL, 0.25, 0.6)),
], ids=repr)
def test_failing_matches_the_mask_rule_on_boundary_floats(criterion):
    if isinstance(criterion, Margin):
        gap = criterion.epsilon - min(linalg.MARGIN_SLACK, criterion.epsilon)
        probs = _around(0.0, 0.5 - gap, 0.5, 0.5 + gap, 1.0)
    else:
        probs = _around(0.0, 1.0 - criterion.tol, 1.0 - (criterion.reject_min - criterion.tol), 1.0)
    probs = np.concatenate([probs, probs])
    bits = np.arange(probs.size) >= probs.size // 2
    got = program_module._failing(probs, bits, criterion)
    want = reference_failing(probs, bits, criterion)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert 0 < got.size < probs.size, "every boundary case fails or none does"


def _min_margin_of(probs: np.ndarray) -> float:
    """``computes``' min_margin when ``evaluate_all`` gives ``probs``."""
    n = probs.size.bit_length() - 1
    with mock.patch.object(program_module, "evaluate_all", return_value=probs):
        return computes(identity_program(n_vars=n), TruthTable.constant(n, True), Margin(0.0)).min_margin


def _padded(probs: np.ndarray) -> np.ndarray:
    return np.resize(probs, 1 << (probs.size - 1).bit_length())


@pytest.mark.parametrize("probs", [
    _padded(_around(0.0, 0.5, 1.0)),
    _padded(_around(0.0, 0.25, 0.5 - 2.0 ** -30, 1.0)),  # nearest to 1/2 from below only
    _padded(_around(0.0, 0.5 + 2.0 ** -40)),  # from above only
    _padded(_around(0.0, 1e-300, 0.125)),  # all below 1/2, rounded in p - 1/2
    _padded(_around(0.5, 0.75, 1.0)[3:]),  # all at or above 1/2
    np.full(4, 0.5),
    np.random.default_rng(1).random(1 << 12),
    np.clip(0.5 + 1e-15 * np.random.default_rng(2).standard_normal(1 << 10), 0.0, 1.0),
    np.random.default_rng(3).random(1 << 10) ** 40,
    np.r_[np.random.default_rng(4).random((1 << 18) - 1), 0.5 + 2.0 ** -50],  # least in the last slice
], ids=["around 1/2", "below", "above", "all below", "all above", "all 1/2", "random", "near 1/2",
        "near 0", "several slices"])
def test_min_margin_is_the_least_rounded_distance_to_one_half(probs):
    # bit for bit the expression over the whole array, which held 8 bytes per
    # input where computes now holds one slice
    want = float(np.min(np.abs(probs - 0.5)))
    assert np.float64(_min_margin_of(probs)).tobytes() == np.float64(want).tobytes()


def test_evaluate_all_matches_per_input_evaluation(rng):
    p = random_program(rng, d=3, n=4)
    probs = evaluate_all(p)
    for v in range(16):
        assert probs[v] == pytest.approx(evaluate(p, bits_of_value(v, 4)), abs=1e-12)


def test_evaluate_all_nonnatural_read_order(rng):
    ident = np.eye(2)
    rot = linalg.rotation_matrix(1.0)
    tfs = (
        QuantumTransformation(3, ident, rot),
        QuantumTransformation(1, ident, rot),
        QuantumTransformation(2, ident, rot),
    )
    p = QbProgram(3, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))
    probs = evaluate_all(p)
    for v in range(8):
        assert probs[v] == pytest.approx(chain_probability(p, bits_of_value(v, 3)), abs=1e-14)


def test_evaluate_all_read_twice_fallback():
    ident = np.eye(2)
    rot = linalg.rotation_matrix(0.5)
    tfs = (QuantumTransformation(1, ident, rot), QuantumTransformation(1, ident, rot))
    p = QbProgram(2, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))
    probs = evaluate_all(p)
    assert probs[0b10] == pytest.approx(math.cos(1.0) ** 2, abs=1e-12)
    assert probs[0b01] == pytest.approx(1.0, abs=1e-12)  # x1 = 0, both levels idle


# -- one evaluation block for every program ------------------------------------------

def _level_unitary(rng, kind: str, d: int) -> np.ndarray | Monomial:
    if kind == "haar":
        return haar_unitary(rng, d)
    perm = rng.permutation(d)
    phases = np.exp(2j * np.pi * rng.random(d)) if kind.endswith("phase") else np.ones(d)
    return Monomial(perm, phases) if kind.startswith("monomial") else _dense_of(perm, phases)


def _dense_of(perm, phases) -> np.ndarray:
    u = np.zeros((len(perm), len(perm)), dtype=np.complex128)
    u[np.arange(len(perm)), perm] = phases
    return u


@st.composite
def read_k_programs(draw, read_once: bool = False):
    """Programs with n <= 6 reading any variable any number of times (or each
    at most once), with Haar, permutation and phase-permutation levels, the
    last two given as dense matrices or as Monomials."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 6))
    if read_once:
        seq = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    else:
        seq = draw(st.lists(st.integers(1, n), max_size=3 * n))
    kinds = draw(st.lists(st.sampled_from(["haar", "perm", "phase", "monomial perm", "monomial phase"]),
                          min_size=2 * len(seq), max_size=2 * len(seq)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tfs = tuple(
        QuantumTransformation(j, _level_unitary(rng, kinds[2 * i], d),
                              _level_unitary(rng, kinds[2 * i + 1], d))
        for i, j in enumerate(seq)
    )
    accepting = draw(st.sets(st.integers(1, d)))
    return QbProgram(n, d, tfs, random_state(rng, d), frozenset(accepting))


@settings(max_examples=60, deadline=None)
@given(read_k_programs(), st.integers(0, 2**32 - 1))
def test_every_evaluator_matches_chain_oracle(p, seed):
    n = p.n_vars
    every = np.array([bits_of_value(v, n) for v in range(1 << n)])
    want = np.array([chain_probability(p, bits) for bits in every])
    assert np.max(np.abs(evaluate_all(p) - want)) <= 1e-12
    assert np.max(np.abs(evaluate_batch(p, every) - want)) <= 1e-12
    subset = np.random.default_rng(seed).integers(0, 1 << n, size=7)
    assert np.max(np.abs(evaluate_batch(p, every[subset]) - want[subset])) <= 1e-12
    for v in subset:
        psi = final_configuration(p, every[v])
        assert abs(float(np.sum(np.abs(psi[[s - 1 for s in p.accepting]]) ** 2)) - want[v]) <= 1e-12


def reference_read_once_evaluate_all(p: QbProgram) -> np.ndarray:
    """Read-once exhaustive evaluation as it was before the single block path:
    both branch products, then interleaved; columns mapped to input values."""
    cols = p.initial.reshape(-1, 1)
    for tf in p.transformations:
        a0 = tf.apply_to_columns(0, cols)
        a1 = tf.apply_to_columns(1, cols)
        nxt = np.empty((p.width, 2 * cols.shape[1]), dtype=np.complex128)
        nxt[:, 0::2] = a0
        nxt[:, 1::2] = a1
        cols = nxt
    if p.accepting.size:
        acc = np.array(sorted(p.accepting.tolist())) - 1
        probs = np.clip(np.sum(np.abs(cols[acc, :]) ** 2, axis=0), 0.0, 1.0)
    else:
        probs = np.zeros(cols.shape[1])
    values = np.arange(1 << p.n_vars)
    idx = np.zeros(1 << p.n_vars, dtype=np.int64)
    for j in p.var_sequence:
        idx = (idx << 1) | ((values >> (p.n_vars - j)) & 1)
    return probs[idx]


def reference_final_configuration(p: QbProgram, bits) -> np.ndarray:
    """The per-input loop as it was: one vector, one level at a time."""
    psi = p.initial
    for tf in p.transformations:
        u = tf.unitaries[int(bits[tf.var_index - 1])]
        psi = u.phases * psi[u.perm] if isinstance(u, Monomial) else u @ psi
    return psi


def _walked(p: QbProgram) -> np.ndarray:
    """The leaf walk's probabilities, indexed by input value."""
    probs, order = program_module._leaf_walk(p)
    return probs[leaf_indices(order, p.n_vars)]


@settings(max_examples=60, deadline=None)
@given(read_k_programs())
def test_by_input_puts_the_walks_leaves_in_input_order(p):
    # read-k orders, variables never read and programs of no levels
    probs, order = program_module._leaf_walk(p)
    want = probs[leaf_indices(order, p.n_vars)]
    assert np.array_equal(program_module._by_input(probs, order, p.n_vars), want)
    assert np.array_equal(program_module._by_input(probs > 0.5, order, p.n_vars), want > 0.5)


@settings(max_examples=40, deadline=None)
@given(read_k_programs(read_once=True))
def test_read_once_evaluate_all_is_bit_identical_to_reference(p):
    assert np.array_equal(_walked(p), reference_read_once_evaluate_all(p))


def test_read_once_constructions_bit_identical_to_reference(rng):
    for p in (
        build_mod_program(7, 14),
        build_mod_program(5, 10, strategy="sampled", seed=2),
        universal_exact_qbp(TruthTable.random(6, rng)),
        realify_program(random_program(rng, d=3, n=5)),
    ):
        assert np.array_equal(_walked(p), reference_read_once_evaluate_all(p))


@settings(max_examples=40, deadline=None)
@given(read_k_programs())
def test_single_input_is_bit_identical_to_reference_loop(p):
    for v in range(min(1 << p.n_vars, 8)):
        bits = bits_of_value(v, p.n_vars)
        psi = reference_final_configuration(p, bits)
        assert np.array_equal(final_configuration(p, bits), psi)
        assert evaluate(p, bits) == accept_probability(psi, p)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_accept_probability_is_the_projection_norm_bit_for_bit(d):
    # one column of ``_column_accept_probs``, against the scalar sum it replaced
    rng = np.random.default_rng(d)
    for _ in range(200):
        psi = random_state(rng, d) * rng.choice([1.0, 1.0 + 1e-9])
        p = QbProgram(1, d, (), np.eye(d)[0], rng.choice(d, size=rng.integers(0, d + 1), replace=False) + 1)
        want = min(max(float(np.sum(np.abs(psi[p.accepting - 1]) ** 2)), 0.0), 1.0)
        assert accept_probability(psi, p) == want


def _with_levels_as(p: QbProgram, monomial: bool) -> QbProgram:
    """``p`` with every monomial level given as a Monomial, or as the dense
    matrix built here from its (perm, phases)."""
    def level(u):
        if not isinstance(u, Monomial):
            return u
        return Monomial(u.perm, u.phases) if monomial else _dense_of(u.perm, u.phases)

    tfs = tuple(QuantumTransformation(tf.var_index, *map(level, tf.unitaries)) for tf in p.transformations)
    return QbProgram(p.n_vars, p.width, tfs, p.initial, p.accepting)


@settings(max_examples=40, deadline=None)
@given(read_k_programs())
def test_monomial_and_dense_levels_are_bit_identical(p):
    mono, dense = _with_levels_as(p, True), _with_levels_as(p, False)
    assert np.array_equal(evaluate_all(mono), evaluate_all(dense))
    for v in range(min(1 << p.n_vars, 8)):
        bits = bits_of_value(v, p.n_vars)
        assert np.array_equal(final_configuration(mono, bits), final_configuration(dense, bits))
    saved = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, q in enumerate((mono, dense)):
            path = os.path.join(tmp, f"{i}.json")
            digest = save_program(q, path)
            with open(path, "rb") as fh:
                saved.append((digest, program_digest(q), fh.read()))
    assert saved[0] == saved[1]


@pytest.mark.parametrize("n", [5, 6, 9, 16, 31, 32, 33])
def test_evaluate_batch_matches_per_input_loop(rng, n):
    p = random_program(rng, d=3, n=n)
    inputs = np.random.default_rng(n).integers(0, 2, size=(200, n))
    got = evaluate_batch(p, inputs)
    ref = np.array([evaluate(p, row) for row in inputs.tolist()])
    # a block product rounds differently from one vector product: a few ulps per level
    assert np.max(np.abs(got - ref)) <= n * p.width * np.finfo(float).eps


def test_evaluation_budget_refuses_before_allocating(monkeypatch):
    p = random_program(np.random.default_rng(3), d=3, n=3)  # one 3 x 8 leaf block
    every = np.array([bits_of_value(v, 3) for v in range(8)])
    # the walk also holds 1.5 blocks of one level's temporaries, 32 bytes per
    # column of bits and indices, numpy's ufunc buffers and 8 probabilities
    walk = 3 * (8 + 12) * 16 + 32 * 8 + 3 * 16 * np.getbufsize() + 8 * 8
    # the batch holds its block and the copy, gather and product of the
    # columns one bit selects (4 blocks), 32 bytes per column, the 0/1 check
    # of 8 x 3 input bits and numpy's ufunc buffers
    batch = 4 * 3 * 8 * 16 + 32 * 8 + 3 * 8 * 3 + 3 * 16 * np.getbufsize()
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", walk)
    assert evaluate_all(p).shape == (8,)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", walk - 1)
    with pytest.raises(ValueError, match="evaluation budget exceeded: the leaf walk over 2\\^3 "
                                         f"configurations of width 3 needs {walk} bytes"):
        evaluate_all(p)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", batch)
    assert evaluate_batch(p, every).shape == (8,)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", batch - 1)
    with pytest.raises(ValueError, match="evaluation budget exceeded: a batch of 8 inputs"):
        evaluate_batch(p, every)
    assert evaluate_batch(p, every[:7]).shape == (7,)


def _traced(fn) -> tuple[int, object]:
    """The traced peak of bytes that ``fn()`` allocates, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore:modulus 37 exceeds")
def test_computes_holds_one_float_buffer_beside_the_walk():
    # width 8 at n = 22: after the walk, ``computes`` holds the probabilities,
    # one float buffer and at most four bool masks, so its peak is the walk's
    # or 20 bytes per input
    n = 22
    p = build_mod_program(37, n)
    assert p.width == 8
    walk, probs = _traced(lambda: evaluate_all(p))
    for f, criterion in ((mod_truth_table(37, n), OneSided()), (TruthTable(n, probs > 0.5), Margin(0.0))):
        peak, report = _traced(lambda: computes(p, f, criterion))
        assert report.holds and report.checked == 1 << n
        assert peak <= max(walk, (8 + 8 + 4) << n)


def test_computes_lists_counterexamples_as_one_int64_array():
    # greedy MOD_5 against the MOD_7 table at n = 20 fails on about a third
    # of the inputs; their values are one frozen int64 array, 8 bytes each,
    # so the check stays within the 32 bytes per input that evaluate_all counts
    n = 20
    p = build_mod_program(5, n)
    f = mod_truth_table(7, n)
    walk, probs = _traced(lambda: evaluate_all(p))
    peak, report = _traced(lambda: computes(p, f, OneSided()))
    tol = OneSided().tol
    ok = np.where(f.bits, np.abs(probs - 1.0) <= tol, 1.0 - probs >= 0.125 - tol)
    bad = report.counterexamples
    assert not report.holds and bad.size == 332045
    assert bad.dtype == np.int64 and not bad.flags.writeable
    assert np.array_equal(bad, np.flatnonzero(~ok))
    assert peak <= max(walk, (8 + 8 + 4 + 8) << n)


class _Admitted(Exception):
    pass


def test_evaluation_budget_width_8_at_n_24(monkeypatch):
    # the one-block leaf matrix needed 2 GiB and was refused.  The walk goes in
    # chunks of 2^13 columns: it holds eleven doubled blocks of 2^14 columns
    # (one per split level), three chunks of temporaries for the level in
    # progress, 32 bytes per chunk column, numpy's ufunc buffers and 2^24
    # probabilities, so its check admits it.  evaluate_all counts this
    # program instead, since u0 and u1 are the identity: the 2^24 leaves,
    # 13 rows of the 2^12 low-half counts' table entries, the halves' 2^12
    # uint8 counts and their index copies, 25 table entries and the table's
    # block of 8 columns.  Both evaluation checks admit it; the 2^24-input
    # run itself is not made
    ident = np.eye(8)
    tfs = tuple(QuantumTransformation(j, ident, ident) for j in range(1, 25))
    p = QbProgram(24, 8, tfs, np.eye(8)[0], frozenset({1}))
    real, checked = linalg.check_budget, []

    def admit_then_stop(need, stage, what):
        real(need, stage, what)
        checked.append((stage, need))
        if "leaf walk" in what or "counting" in what:
            raise _Admitted

    monkeypatch.setattr(linalg, "check_budget", admit_then_stop)
    with pytest.raises(_Admitted):
        evaluate_all(p)
    count = (8 << 24) + 8 * (13 << 12) + 9 * (2 << 12) + 8 * 25 + 64 * 8 * 8 + 3 * 16 * np.getbufsize()
    assert checked == [("evaluation", 32 << 24), ("evaluation", count)]
    checked.clear()
    with pytest.raises(_Admitted):
        program_module._leaf_walk(p)
    walk = 16 * 8 * ((11 << 14) + (3 << 13)) + (32 << 13) + 3 * 16 * np.getbufsize() + (8 << 24)
    assert checked == [("evaluation", walk)]
    assert max(count, walk) < linalg.MEMORY_BUDGET_BYTES < 16 * 8 << 24
    # a program on many variables that reads few still has 2^n outputs
    monkeypatch.setattr(linalg, "check_budget", real)
    wide = QbProgram(40, 2, (), np.array([1.0, 0.0]), frozenset({1}))
    with pytest.raises(ValueError, match="per-input data of 2\\^40 inputs"):
        evaluate_all(wide)


@pytest.mark.parametrize("inputs", [
    np.zeros(3, dtype=int), np.zeros((2, 4), dtype=int), np.zeros((1, 2, 3), dtype=int),
])
def test_evaluate_batch_rejects_bad_shape(inputs):
    with pytest.raises(ValueError, match="shape"):
        evaluate_batch(mod_block(ModBlockSpec(3, 1, 3)), inputs)


def test_evaluate_batch_rejects_non_bits():
    with pytest.raises(ValueError, match="other than 0 and 1"):
        evaluate_batch(mod_block(ModBlockSpec(3, 1, 3)), [[0, 1, 2]])


# -- structural predicates ----------------------------------------------------------

def test_is_read_once():
    assert is_read_once(mod_block(ModBlockSpec(5, 1, 5)))
    ident = np.eye(2)
    twice = QbProgram(
        2, 2,
        (QuantumTransformation(1, ident, ident), QuantumTransformation(1, ident, ident)),
        np.array([1.0, 0.0]), frozenset({1}),
    )
    assert not is_read_once(twice)
    empty = QbProgram(1, 2, (), np.array([1.0, 0.0]), frozenset({1}))
    assert is_read_once(empty)


def test_is_stable():
    assert is_stable(mod_block(ModBlockSpec(5, 2, 6)))
    ident = np.eye(2)
    mixed = QbProgram(
        2, 2,
        (
            QuantumTransformation(1, ident, linalg.rotation_matrix(0.3)),
            QuantumTransformation(2, ident, linalg.rotation_matrix(0.7)),
        ),
        np.array([1.0, 0.0]), frozenset({1}),
    )
    assert not is_stable(mixed)
    single = QbProgram(
        1, 2, (QuantumTransformation(1, ident, linalg.rotation_matrix(0.3)),),
        np.array([1.0, 0.0]), frozenset({1}),
    )
    assert is_stable(single)


def _two_level_program(u, v) -> QbProgram:
    tfs = (QuantumTransformation(1, u, u), QuantumTransformation(2, v, v))
    return QbProgram(2, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))


@pytest.mark.parametrize("v, stable", [
    (Monomial([1, 0], [1.0, 1.0 + 1e-13]), True),
    (Monomial([1, 0], [1.0, 1j]), False),
    (Monomial([0, 1], [1.0, 1.0]), False),
])
def test_is_stable_reads_stored_monomials_as_their_dense_matrices(v, stable):
    swap = Monomial([1, 0], [1.0, 1.0])
    assert is_stable(_two_level_program(swap, v)) == stable
    assert is_stable(_two_level_program(np.array(swap.dense), np.array(v.dense))) == stable


@pytest.mark.parametrize("angle, stable", [(1e-14, True), (0.3, False)])
def test_is_stable_compares_a_monomial_with_a_dense_level(angle, stable):
    rotation = linalg.rotation_matrix(angle)
    assert is_stable(_two_level_program(Monomial([0, 1], [1.0, 1.0]), rotation)) == stable


def test_is_stable_keeps_no_dense_form_on_the_program():
    # an identity Monomial beside a dense level of width 64, either way round:
    # the check builds the Monomial's dense form for one comparison and
    # leaves the program as it found it
    d = 64
    near = np.eye(d, dtype=np.complex128)
    near[:2, :2] = linalg.rotation_matrix(1e-14)
    ident = Monomial(np.arange(d), np.ones(d))
    for first, second in ((ident, near), (near, ident)):
        tfs = (QuantumTransformation(1, first, first), QuantumTransformation(2, second, second))
        p = QbProgram(2, d, tfs, np.eye(d)[0], frozenset({1}))
        assert is_stable(p)
        assert "dense" not in vars(ident)


def test_evaluation_reads_monomials_without_building_dense_levels(rng):
    p = universal_exact_qbp(TruthTable.random(6, rng))
    evaluate_all(p)
    evaluate_batch(p, np.eye(6, dtype=np.int8))
    final_configuration(p, "011010")
    assert not is_stable(p)
    QbProgram(p.n_vars, p.width, p.transformations, p.initial, p.accepting)
    assert not any("dense" in vars(u) for tf in p.transformations for u in tf.unitaries)


@pytest.mark.parametrize("perm", [[0, 0], [0, 2], [0], [1, 0, 2], [0.5, 1]])
def test_monomial_perm_must_permute_its_rows(perm):
    with pytest.raises(ValueError, match=r"^perm must be a permutation of 0\.\.1$"):
        Monomial(perm, [1.0, 1.0])


def test_program_reports_non_unitary_monomial_level():
    ident = Monomial([0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="level 2 is not unitary"):
        _two_level_program(ident, Monomial([1, 0], [1.0, 1.0 + 1e-9]))


def test_accepting_order_does_not_matter(rng):
    p = random_program(rng, d=4, n=3)
    q = QbProgram(
        p.n_vars, p.width, p.transformations, p.initial,
        frozenset(sorted(p.accepting, reverse=True)),
    )
    assert evaluate(p, "101") == evaluate(q, "101")


# -- program validation ---------------------------------------------------------------

def test_program_rejects_unnormalized_initial():
    with pytest.raises(ValueError, match="unit norm"):
        QbProgram(1, 2, (), np.array([1.0, 1.0]), frozenset({1}))


def test_program_rejects_bad_accepting_state():
    with pytest.raises(ValueError, match="accepting state"):
        QbProgram(1, 2, (), np.array([1.0, 0.0]), frozenset({3}))


@pytest.mark.parametrize("states", [
    {3, 1}, [3, 1], [3, 3, 1, 3], range(1, 4, 2), (s for s in (1, 3)),
    np.array([1, 3]), np.array([3, 1, 3], dtype=np.int32), [np.int64(3), 1],
], ids=["set", "list", "duplicates", "range", "generator", "array", "int32 array", "numpy scalars"])
def test_accepting_is_a_frozen_sorted_int64_array(states):
    acc = QbProgram(1, 4, (), np.eye(4)[0], states).accepting
    assert acc.dtype == np.int64 and not acc.flags.writeable
    assert acc.tolist() == [1, 3]


def test_accepting_array_is_copied_unless_frozen():
    given = np.array([1, 2])
    acc = QbProgram(1, 4, (), np.eye(4)[0], given).accepting
    assert acc is not given and given.flags.writeable
    assert QbProgram(1, 4, (), np.eye(4)[0], acc).accepting is acc


def test_empty_accepting_set_is_an_empty_array():
    for states in (frozenset(), [], np.array([], dtype=np.int64)):
        acc = QbProgram(1, 2, (), np.array([1.0, 0.0]), states).accepting
        assert acc.dtype == np.int64 and acc.shape == (0,)


@pytest.mark.parametrize("states, bad", [
    ([0], 0), ([2, -1, 7], -1), ([1, 5], 5), ([3, 4, 5, 9], 5), (np.array([6, 0]), 0),
    ([1, 10 ** 30], 10 ** 30), ([10 ** 30, -5], -5), ([2 ** 63], 2 ** 63),
    (np.array([2 ** 64 - 1], dtype=np.uint64), 2 ** 64 - 1), (np.array([3, 2 ** 63], dtype=np.uint64), 2 ** 63),
])
def test_accepting_state_outside_the_width_is_named(states, bad):
    # the smallest state outside [1, width], compared before any cast: one
    # beyond int64 as a Python int or in its array's own dtype, never wrapped
    with pytest.raises(ValueError, match=rf"^accepting state {bad} outside \[1, 4\]$"):
        QbProgram(1, 4, (), np.eye(4)[0], states)


@pytest.mark.parametrize("states, bad", [
    ([1.5], "1.5"), (["1"], "'1'"), ([True], "True"), ([1, True], "True"), ([2, 3.0], "3.0"),
    (np.array([1.0, 2.0]), r"np.float64\(1.0\)"), (np.array([True]), r"np.True_"), (np.array(["1"]), "np.str_"),
], ids=["float", "string", "bool", "bool among ints", "integral float", "float array", "bool array",
        "string array"])
def test_accepting_state_that_is_not_an_integer_is_refused(states, bad):
    # not truncated or parsed: 1.5, "1" and True are not state 1
    with pytest.raises(ValueError, match=rf"^accepting state must be an integer, got {bad}"):
        QbProgram(1, 4, (), np.eye(4)[0], states)


def test_empty_accepting_array_of_any_dtype_is_the_empty_set():
    # numpy reads an empty iterable as float64; no state in it is a float
    for states in (np.array([]), np.array([], dtype=bool), iter(())):
        assert QbProgram(1, 2, (), np.array([1.0, 0.0]), states).accepting.tolist() == []


@pytest.mark.parametrize("perm, message", [
    (np.array([1.0, 0.0]), "perm entry must be an integer"), ([1.0, 0.0], "perm entry must be an integer"),
    ([True, False], "perm entry must be an integer"), (np.array([1, 0], dtype=bool), "perm entry must be an integer"),
    (["1", "0"], r"perm must be a permutation of 0\.\.1$"),
], ids=["float array", "floats", "bools", "bool array", "strings"])
def test_monomial_perm_that_is_not_integer_is_refused(perm, message):
    # a float or bool perm that permutes 0..1 is refused, not cast; strings
    # do not sort as a permutation of integers
    with pytest.raises(ValueError, match=f"^{message}"):
        Monomial(perm, np.ones(2))


def test_monomial_perm_of_any_integer_kind_is_kept():
    for perm in ([1, 0], [np.int64(1), 0], np.array([1, 0], dtype=np.uint8), np.array([1, 0], dtype=object)):
        m = Monomial(perm, np.ones(2))
        assert m.perm.dtype == np.intp and m.perm.tolist() == [1, 0]


def test_program_reports_non_unitary_level():
    ident = np.eye(2)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    good = QuantumTransformation(1, ident, ident)
    bad = QuantumTransformation(2, ident, shear)
    with pytest.raises(ValueError, match="level 2"):
        QbProgram(2, 2, (good, bad), np.array([1.0, 0.0]), frozenset({1}))


def test_program_rejects_var_index_out_of_range():
    ident = np.eye(2)
    with pytest.raises(ValueError, match="x_5"):
        QbProgram(2, 2, (QuantumTransformation(5, ident, ident),),
                  np.array([1.0, 0.0]), frozenset({1}))


def test_empty_accepting_set_evaluates_to_zero():
    p = QbProgram(2, 2, (), np.array([1.0, 0.0]), frozenset())
    assert evaluate(p, "01") == 0.0


# -- serialization ----------------------------------------------------------------------

def saved_obj(p: QbProgram, tmp_path) -> dict:
    """The JSON object of the file that ``save_program`` writes."""
    path = tmp_path / "saved.json"
    save_program(p, path)
    return json.loads(path.read_text())


def test_program_roundtrip_is_exact(tmp_path, rng):
    p = random_program(rng, d=3, n=4)
    path = tmp_path / "prog.json"
    save_program(p, path)
    q = load_program(path)
    assert q.n_vars == p.n_vars and q.width == p.width
    assert np.array_equal(q.accepting, p.accepting)
    assert np.array_equal(q.initial, p.initial)
    for a, b in zip(q.transformations, p.transformations):
        assert a.var_index == b.var_index
        assert np.array_equal(a.u0, b.u0)
        assert np.array_equal(a.u1, b.u1)
    assert program_digest(q) == program_digest(p)


def test_program_serialization_fixed_point(tmp_path, rng):
    p = random_program(rng, d=2, n=3)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_program(p, first)
    save_program(load_program(first), second)
    assert first.read_text() == second.read_text()


def test_load_program_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    with pytest.raises(ProgramFormatError, match="line 1"):
        load_program(path)


def test_load_program_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"n_vars": 1, "width": 2}))
    with pytest.raises(ProgramFormatError, match="initial"):
        load_program(path)


def test_load_program_bad_matrix_reports_path(tmp_path, rng):
    obj = saved_obj(random_program(rng, d=2, n=1), tmp_path)
    obj["transformations"][0]["u0"][0][1] = [1.0]  # not a pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ProgramFormatError, match=r"u0\[0\]\[1\]"):
        load_program(path)


# -- file text and digest against the per-entry reference serialiser ------------------

def reference_program_obj(p: QbProgram) -> dict:
    """The per-entry serialiser the format was defined with."""
    def pairs_vec(v):
        return [[float(z.real), float(z.imag)] for z in v]

    def pairs_mat(m):
        return [pairs_vec(row) for row in m]

    return {
        "n_vars": p.n_vars,
        "width": p.width,
        "initial": pairs_vec(p.initial),
        "accepting": sorted(p.accepting.tolist()),
        "transformations": [
            {"var": tf.var_index, "u0": pairs_mat(tf.u0), "u1": pairs_mat(tf.u1)}
            for tf in p.transformations
        ],
    }


def reference_file_text(p: QbProgram) -> str:
    buf = io.StringIO()
    json.dump(reference_program_obj(p), buf)
    buf.write("\n")
    return buf.getvalue()


def reference_digest(p: QbProgram) -> str:
    blob = json.dumps(reference_program_obj(p), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def bit_pattern(a: np.ndarray) -> np.ndarray:
    """The raw float64 bits of a complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def has_negative_zero(p: QbProgram) -> bool:
    parts = [p.initial] + [m for tf in p.transformations for m in (tf.u0, tf.u1)]
    return any(
        np.any((x == 0) & np.signbit(x)) for a in parts for x in (a.real, a.imag)
    )


def wide_mod_program(modulus: int, n: int, seed: int) -> QbProgram:
    """A sampled MOD program of width 64 to 84 on few variables (p > n/2 warns)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_mod_program(modulus, n, strategy="sampled", seed=seed)


def signed_zeros_program(rng: np.random.Generator, n: int) -> QbProgram:
    """Arrays holding 0.0 and -0.0 in both parts: the initial vector, a dense
    level (a Hadamard block beside a phase) and a monomial one."""
    s = math.sqrt(0.5)
    z = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    initial = np.array([z[0], complex(1.0, -0.0), z[3]])
    dense = np.array([[s, s, z[1]], [s, -s, z[2]], [z[3], z[0], complex(-0.0, 1.0)]])
    mono = np.array([[z[2], complex(-1.0, 0.0), z[1]], [z[3], z[0], complex(0.0, 1.0)],
                     [complex(1.0, -0.0), z[1], z[2]]])
    levels = [(dense, mono) if rng.integers(2) else (mono, dense) for _ in range(n)]
    tfs = tuple(QuantumTransformation(j, u0, u1) for j, (u0, u1) in enumerate(levels, start=1))
    return QbProgram(n, 3, tfs, initial, frozenset({1, 3}))


@st.composite
def format_programs(draw):
    kind = draw(st.sampled_from(["haar", "mod", "wide", "signed-zeros", "universal", "realified"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return kind, random_program(rng, d=draw(st.integers(2, 5)), n=draw(st.integers(1, 4)))
    if kind == "mod":
        modulus = draw(st.sampled_from([3, 5, 7]))
        strategy = draw(st.sampled_from(["greedy", "sampled"]))
        n = 2 * modulus + draw(st.integers(0, 2))
        return kind, build_mod_program(modulus, n, strategy=strategy, seed=int(rng.integers(100)))
    if kind == "wide":  # a Haar program of width 64 or a MOD program of width 64 to 84
        modulus = draw(st.sampled_from([None, 7, 11, 13]))
        if modulus is None:
            return kind, random_program(rng, d=64, n=1)
        return kind, wide_mod_program(modulus, 1, int(rng.integers(100)))
    if kind == "signed-zeros":
        return kind, signed_zeros_program(rng, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 3))
    universal = universal_exact_qbp(TruthTable.random(n, rng))
    if kind == "universal":
        return kind, universal
    return kind, realify_program(universal)


@settings(max_examples=40, deadline=None)
@given(format_programs())
def test_save_and_digest_match_reference_serialiser(case):
    kind, p = case
    if kind == "realified":
        assert has_negative_zero(p)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prog.json")
        digest = save_program(p, path)
        with open(path, "rb") as fh:
            data = fh.read()
        loaded = load_program(path)
    assert data == reference_file_text(p).encode("utf-8")
    assert digest == program_digest(p) == reference_digest(p)
    assert program_digest(loaded) == digest
    assert np.array_equal(bit_pattern(loaded.initial), bit_pattern(p.initial))
    for a, b in zip(loaded.transformations, p.transformations):
        assert a.var_index == b.var_index
        assert np.array_equal(bit_pattern(a.u0), bit_pattern(b.u0))
        assert np.array_equal(bit_pattern(a.u1), bit_pattern(b.u1))


@pytest.mark.parametrize("make", [
    lambda: wide_mod_program(13, 2, 0),
    lambda: signed_zeros_program(np.random.default_rng(0), 3),
    lambda: random_program(np.random.default_rng(64), d=64, n=1),
], ids=["mod width 84", "signed zeros", "haar width 64"])
def test_new_format_cases_match_reference_serialiser(tmp_path, make):
    # the cases the property test above may draw, each made once for sure
    p = make()
    assert p.width >= 64 or has_negative_zero(p)
    path = tmp_path / "prog.json"
    digest = save_program(p, path)
    assert path.read_bytes() == reference_file_text(p).encode("utf-8")
    assert digest == program_digest(p) == reference_digest(p)
    loaded = load_program(path)
    for a, b in zip(loaded.transformations, p.transformations):
        assert np.array_equal(bit_pattern(a.u0), bit_pattern(b.u0))
        assert np.array_equal(bit_pattern(a.u1), bit_pattern(b.u1))


@pytest.mark.parametrize("shape", [(9,), (6, 6), (1, 1)])
@pytest.mark.parametrize("transpose", [False, True])
def test_array_text_matches_json_dumps(shape, transpose):
    # entries repeat, and in the larger arrays 0.0 and -0.0 both occur in
    # each part: grouping by raw bytes keeps them apart, as json.dumps does
    rng = np.random.default_rng(len(shape) + transpose)
    pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, 1e-300, -2.0])
    a = np.empty(shape, dtype=np.complex128)
    a.real = pool[rng.integers(pool.size, size=shape)]
    a.imag = pool[rng.integers(pool.size, size=shape)]
    a.flat[:4] = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)][:a.size]
    a = a.T if transpose else a
    assert program_module._array_text(a) == json.dumps(program_module._pairs(a), separators=(",", ":"))


@pytest.mark.parametrize("make", [
    lambda: universal_exact_qbp(TruthTable.random(7, np.random.default_rng(7))),
    lambda: realify_program(universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6)))),
    lambda: wide_mod_program(13, 8, 1),
    lambda: random_program(np.random.default_rng(32), d=32, n=6),
], ids=["universal n=7", "realified universal n=6", "mod width 84", "haar width 32"])
def test_writer_holds_one_level_at_a_time(tmp_path, make):
    # a program is written level by level: the writer's traced peak is a few
    # times the text of its largest level (measured: 2.4 times with the few
    # distinct entries of the constructions, 4.3 with Haar entries), however
    # long the file
    p = make()
    path = tmp_path / "prog.json"
    save_peak, _ = _traced(lambda: save_program(p, path))
    digest_peak, _ = _traced(lambda: program_digest(p))
    level_texts = [len(json.dumps({"var": tf.var_index, "u0": program_module._pairs(tf.u0),
                                   "u1": program_module._pairs(tf.u1)})) for tf in p.transformations]
    assert path.stat().st_size > 5 * max(level_texts)
    assert max(save_peak, digest_peak) <= 5 * max(level_texts), (save_peak, digest_peak, max(level_texts))


@pytest.mark.parametrize("make, matrices", [
    (lambda: build_mod_program(5, 12), 2),
    (lambda: wide_mod_program(13, 8, 1), 2),
    (lambda: universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6))), 7),
    (lambda: random_program(np.random.default_rng(4), d=4, n=5), 10),
], ids=["mod 5", "mod width 84", "universal n=6", "haar"])
def test_a_repeated_level_is_formatted_once(tmp_path, monkeypatch, make, matrices):
    # a MOD program's levels share one pair and a universal program's their
    # identity u0, so their files format 2 and n + 1 matrices; the initial
    # vector is one more text
    p = make()
    want = reference_file_text(p).encode("utf-8")
    calls = []
    array_text = program_module._array_text
    monkeypatch.setattr(program_module, "_array_text", lambda a: calls.append(a.ndim) or array_text(a))
    digest = save_program(p, tmp_path / "prog.json")
    assert sorted(calls) == [1] + [2] * matrices
    assert (tmp_path / "prog.json").read_bytes() == want
    calls.clear()
    assert program_digest(p) == digest == reference_digest(p)
    assert sorted(calls) == [1] + [2] * matrices


def test_loaded_universal_program_shares_its_identity_and_keeps_no_dense_form(tmp_path):
    p = universal_exact_qbp(TruthTable.random(7, np.random.default_rng(7)))
    path = tmp_path / "universal.json"
    save_program(p, path)
    loaded = load_program(path)
    assert_bit_identical(loaded, p)
    ident = loaded.transformations[0].unitaries[0]
    assert all(tf.unitaries[0] is ident for tf in loaded.transformations)
    monomials = [u for tf in loaded.transformations for u in tf.unitaries]
    assert all(isinstance(u, Monomial) and "dense" not in vars(u) for u in monomials)


def xor2_program() -> QbProgram:
    return universal_exact_qbp(TruthTable(2, np.array([0, 1, 1, 0], dtype=bool)))


def test_program_digest_pinned():
    # sha256 of the sorted-key compact JSON, first 16 hex digits
    p = xor2_program()
    assert program_digest(p) == "83f18e3eddc14a14"
    real = realify_program(p)
    assert has_negative_zero(real)
    assert program_digest(real) == "28489cf87dcddae1"


def _set(path, value):
    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return mutate


def _append(path, value):
    def mutate(obj):
        for key in path:
            obj = obj[key]
        obj.append(value)
    return mutate


def _pop(path):
    def mutate(obj):
        for key in path:
            obj = obj[key]
        obj.pop()
    return mutate


U0, U1 = ("transformations", 0, "u0"), ("transformations", 1, "u1")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set(U0 + (2, 3), [True, 0.0]), "$.transformations[0].u0[2][3]: expected a pair of two numbers"),
        (_set(U1 + (1, 0), [0.0, "0"]), "$.transformations[1].u1[1][0]: expected a pair of two numbers"),
        (_set(U0 + (0, 0), [None, 0.0]), "$.transformations[0].u0[0][0]: expected a pair of two numbers"),
        (_pop(U1 + (3,)), "$.transformations[1].u1[3]: row length 3 in a 4-row matrix"),
        (_append(U0 + (1, 2), 0.0), "$.transformations[0].u0[1][2]: expected a pair of two numbers"),
        (_set(U0 + (2,), 5), "$.transformations[0].u0[2]: expected a row (list of pairs), got int"),
        (_set(U0, {}), "$.transformations[0].u0: expected a matrix (list of rows), got dict"),
        (_set(U0, []), "$.transformations[0].u0: matrix must be nonempty"),
        (_set(U1 + (0, 0), [float("nan"), 0.0]), "$.transformations[1]: matrix contains non-finite entries"),
        (_set(U1 + (0, 0), [0.0, float("inf")]), "$.transformations[1]: matrix contains non-finite entries"),
        (_set(("initial", 1), [False, 0.0]), "$.initial[1]: expected a pair of two numbers"),
        (_append(("initial", 2), 1), "$.initial[2]: expected a pair of two numbers"),
        (_set(("initial", 0), 1.0), "$.initial[0]: expected a [re, im] pair, got float"),
        (_set(("initial",), []), "$: vector must be nonempty"),
        (_set(("initial", 0), [float("nan"), 0.0]), "$: vector contains non-finite entries"),
        (_set(("n_vars",), True), "$.n_vars: expected an integer, got bool"),
        (_set(("width",), False), "$.width: expected an integer, got bool"),
        (_set(("accepting", 0), True), "$.accepting[0]: expected an integer, got bool"),
        (_set(("transformations", 1, "var"), True), "$.transformations[1].var: expected an integer, got bool"),
    ],
)
def test_load_program_locates_malformed_entries(tmp_path, mutate, message):
    obj = saved_obj(xor2_program(), tmp_path)
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ProgramFormatError) as info:
        load_program(path)
    assert str(info.value) == message


def test_program_from_obj_accepts_numpy_scalars(tmp_path):
    # np.float64 subclasses float, so the per-entry walker reads such leaves
    # as numbers
    p = xor2_program()
    obj = saved_obj(p, tmp_path)
    obj["initial"] = [[np.float64(re), np.float64(im)] for re, im in obj["initial"]]
    obj["transformations"][0]["u0"][0][0] = [np.float64(x) for x in obj["transformations"][0]["u0"][0][0]]
    assert program_digest(program_from_obj(obj)) == program_digest(p)


# -- the loader's fast path against the json path ------------------------------------

def reference_load(path) -> QbProgram:
    """The json path alone: ``program_from_obj`` of the parsed document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProgramFormatError(f"line {e.lineno} column {e.colno}", e.msg) from e
    return program_from_obj(obj)


def assert_bit_identical(a: QbProgram, b: QbProgram) -> None:
    assert (a.n_vars, a.width, a.accepting.tolist(), a.var_sequence) == \
        (b.n_vars, b.width, b.accepting.tolist(), b.var_sequence)
    assert np.array_equal(bit_pattern(a.initial), bit_pattern(b.initial))
    for x, y in zip(a.transformations, b.transformations):
        for u, v in zip(x.unitaries, y.unitaries):
            assert type(u) is type(v)
            assert np.array_equal(bit_pattern(program_module._unitary_dense(u)),
                                  bit_pattern(program_module._unitary_dense(v)))


def json_load_refused(*args, **kwargs):
    raise AssertionError("the json path was taken")


@settings(max_examples=40, deadline=None)
@given(format_programs())
def test_saved_files_load_through_the_fast_path_bit_identical(case):
    _, p = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prog.json")
        save_program(p, path)
        with mock.patch.object(json, "load", json_load_refused):
            loaded = load_program(path)
    assert_bit_identical(loaded, p)


_CELL_TEXT = re.compile(r"\[(-?[0-9.eE+-]+), (-?[0-9.eE+-]+)\]")


def _perturbed(text: str, kind: str, data) -> str:
    """The text of a saved program file, changed in one way the fast path
    does not accept, or accepts only to leave the refusal to the program's
    own checks."""
    if kind == "indent":
        return json.dumps(json.loads(text), indent=1) + "\n"
    if kind == "sorted keys":
        return json.dumps(json.loads(text), sort_keys=True) + "\n"
    if kind == "ints":  # "1.0" -> "1" and "-0.0" -> "-0", which json reads as int 0
        return re.sub(r"(-?\d+)\.0(?=[,\]])", r"\1", text, count=data.draw(st.integers(1, 3)))
    if kind == "trailing":
        return text + data.draw(st.sampled_from([" ", "\n", "x", "{}", "]"]))
    if kind == "truncated":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "ragged":  # a matrix's first row gives its last cell to the second
        i = text.find("]], [[", text.find('"u0"'))
        j = text.rfind("], [", 0, i)
        return text if i < 0 else text[:j] + "]], [[" + text[j + 4:i] + "], [" + text[i + 6:]
    if kind == "accepting":  # in the layout, but outside the program's states
        return text.replace('"accepting": [', '"accepting": [9999, ', 1)
    cells = list(_CELL_TEXT.finditer(text))
    cell = cells[data.draw(st.integers(0, len(cells) - 1))]
    new = {"NaN": "NaN", "true": "true", "string": '"0"', "overflow": "1e999", "scaled": "0.5"}[kind]
    return text[:cell.start(1)] + new + text[cell.end(1):]


PERTURBATIONS = ["indent", "sorted keys", "ints", "trailing", "truncated", "ragged", "accepting",
                 "NaN", "true", "string", "overflow", "scaled"]


@settings(max_examples=80, deadline=None)
@given(format_programs(), st.sampled_from(PERTURBATIONS), st.data())
def test_perturbed_files_load_as_through_the_json_path(case, kind, data):
    # the fast path gives the json path's program, or its ProgramFormatError
    _, p = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prog.json")
        save_program(p, path)
        with open(path, encoding="utf-8") as fh:
            text = _perturbed(fh.read(), kind, data)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcomes = []
        for load in (load_program, reference_load):
            try:
                outcomes.append(load(path))
            except ProgramFormatError as e:
                outcomes.append(str(e))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert_bit_identical(got, want)


@pytest.mark.parametrize("make", [
    lambda: universal_exact_qbp(TruthTable.random(7, np.random.default_rng(7))),
    lambda: realify_program(universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6)))),
    lambda: wide_mod_program(13, 8, 1),
], ids=["universal n=7", "realified universal n=6", "mod width 84"])
def test_fast_loader_peak_per_file_byte(tmp_path, make):
    # the file's bytes, one level's cells and the program built so far:
    # measured 2.7 to 2.8 bytes per file byte, where the json path holds 13.4
    # to 13.7 and the budget counts 16
    path = tmp_path / "prog.json"
    save_program(make(), path)
    with mock.patch.object(json, "load", json_load_refused):
        peak, _ = _traced(lambda: load_program(path))
    assert peak <= 4 * path.stat().st_size


# -- truth-table text files ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 10])
def test_truth_table_text_roundtrip(tmp_path, rng, n):
    f = TruthTable.random(n, rng)
    path = tmp_path / "f.tt"
    save_truth_table(f, path)
    assert path.read_bytes() == f"{n}\n{''.join('1' if b else '0' for b in f.bits)}\n".encode()
    g = load_truth_table(path)
    assert g.n_vars == n and np.array_equal(g.bits, f.bits)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_truth_table_lines_end_at_any_line_break(tmp_path, end):
    path = tmp_path / "f.tt"
    path.write_bytes(f" 3 {end}01101001{end}".encode())
    assert load_truth_table(path).bits.tolist() == [c == "1" for c in "01101001"]


@pytest.mark.parametrize(
    "bits, col, char",
    [("0120", 3, "2"), ("01\u00e90", 3, "\u00e9"), ("1 01", 2, " "), ("x110", 1, "x"), ("011\u2603", 4, "\u2603"),
     ("  01x1", 5, "x"), ("\t0\u00e910 ", 3, "\u00e9")],  # columns count the leading whitespace
)
def test_truth_table_bad_character_column(tmp_path, bits, col, char):
    path = tmp_path / "bad.tt"
    path.write_text(f"2\n{bits}\n", encoding="utf-8")
    with pytest.raises(ParseFailure) as info:
        load_truth_table(path)
    assert info.value.message == f"{path}: line 2 column {col}: expected 0 or 1, got {char!r}"
