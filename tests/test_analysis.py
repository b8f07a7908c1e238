import itertools
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbp.analysis
from qbp import linalg
from qbp.analysis import (
    CONFIG_DEDUP_TOL,
    _greedy_dedup,
    _near_pairs,
    _ranked_pairs,
    derive_deterministic_obdd,
    lower_bound_width,
    measured_separation,
    min_obdd_width,
    packing_width_bound,
    reachable_configurations,
    theta_bounds,
    theta_components,
)
from qbp.cli import main, save_truth_table
from qbp.constructions import (
    ModBlockSpec,
    build_mod_program,
    mod_block,
    mod_truth_table,
    universal_exact_qbp,
)
from qbp.program import (
    Margin,
    QbProgram,
    QuantumTransformation,
    TruthTable,
    accept_probability,
    bits_of_value,
    computes,
    evaluate_all,
    final_configuration,
    save_program,
)
from qbp.realify import realify_program

from conftest import chain_probability, haar_unitary, random_program, random_state, superposed
from test_derivation_reference import ref_classified, ref_derive, ref_min_cross_distance


def identity_program(n=4):
    ident = np.eye(2)
    tfs = tuple(QuantumTransformation(i, ident, ident) for i in range(1, n + 1))
    return QbProgram(n, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))


# -- reachable configurations -----------------------------------------------------

def test_reachable_identity_program_one_config_per_level():
    levels = reachable_configurations(identity_program(5))
    assert [len(lv.configs) for lv in levels] == [1] * 6


def test_reachable_mod3_block_counts():
    levels = reachable_configurations(mod_block(ModBlockSpec(3, 1, 6)))
    assert [len(lv.configs) for lv in levels] == [1, 2, 3, 3, 3, 3, 3]


def test_reachable_universal_doubles_each_level(rng):
    p = universal_exact_qbp(TruthTable.random(4, rng))
    levels = reachable_configurations(p)
    assert [len(lv.configs) for lv in levels] == [1, 2, 4, 8, 16]


def final_row(p, levels, v):
    """The row of the last level that input ``v`` reaches, found by walking
    ``prev_transitions`` from the root."""
    bits, row = bits_of_value(v, p.n_vars), 0
    for lv, tf in zip(levels[1:], p.transformations):
        row = int(lv.prev_transitions[row, bits[tf.var_index - 1]])
    return row


def test_reachable_prefix_map_consistent():
    # the row each input's read-bit prefix reaches holds its final configuration
    p = mod_block(ModBlockSpec(3, 2, 5))
    levels = reachable_configurations(p)
    final = levels[-1]
    for v in range(1 << 5):
        cfg = final.configs[final_row(p, levels, v)]
        direct = final_configuration(p, bits_of_value(v, 5))
        assert np.linalg.norm(cfg - direct) <= 1e-9


def test_reachable_requires_read_once():
    ident = np.eye(2)
    tfs = (QuantumTransformation(1, ident, ident), QuantumTransformation(1, ident, ident))
    p = QbProgram(2, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))
    with pytest.raises(ValueError, match="read-once"):
        reachable_configurations(p)


def test_reachable_many_levels_of_one_config():
    # no level cap: only the byte budget bounds the enumeration
    ident = np.eye(1)
    tfs = tuple(QuantumTransformation(i, ident, ident) for i in range(1, 22))
    p = QbProgram(21, 1, tfs, np.array([1.0]), frozenset({1}))
    levels = reachable_configurations(p)
    assert [len(lv.configs) for lv in levels] == [1] * 22
    assert all(lv.configs.shape == (1, 1) and not lv.configs.flags.writeable for lv in levels)


def test_distance_preserved_across_levels(rng):
    # pairwise distances of one level's configurations survive either
    # transition bit unchanged
    for p in (mod_block(ModBlockSpec(5, 2, 6)), random_program(rng, d=4, n=6)):
        levels = reachable_configurations(p)
        for j, tf in enumerate(p.transformations):
            configs = levels[j].configs
            for a, b in itertools.combinations(range(len(configs)), 2):
                before = np.linalg.norm(configs[a] - configs[b])
                for bit in (0, 1):
                    ua, ub = (tf.apply_to_columns(bit, configs[k][:, None])[:, 0] for k in (a, b))
                    assert abs(before - np.linalg.norm(ua - ub)) <= 1e-9


@pytest.mark.parametrize("case", ["universal", "mod", "haar"])
def test_reachable_final_configs_match_chain_oracle(case, rng):
    if case == "universal":
        n, p = 7, universal_exact_qbp(TruthTable.random(7, rng))
    elif case == "mod":
        n, p = 10, build_mod_program(5, 10)
    else:
        n, p = 7, random_program(rng, d=5, n=7)
    levels = reachable_configurations(p)
    for v in range(1 << n):
        prob = accept_probability(levels[-1].configs[final_row(p, levels, v)], p)
        assert abs(prob - chain_probability(p, bits_of_value(v, n))) <= 1e-9


def test_reachable_universal_n10_final_count():
    p = universal_exact_qbp(TruthTable.random(10, np.random.default_rng(10)))
    assert len(reachable_configurations(p)[-1].configs) == 1024


def test_reachable_configuration_budget(monkeypatch):
    # level 3 of the universal n=4 program, started from a superposition, has
    # 8 dense candidates of width 16, their kept block as many again and
    # their dedup's bookkeeping, beside the 1 + 2 + 4 rows and 1 + 2
    # transition rows of the levels kept, numpy's ufunc buffer and 16 KiB
    p = superposed(universal_exact_qbp(TruthTable.random(4, np.random.default_rng(4))))
    assert [len(lv) for lv in reachable_configurations(p)] == [1, 2, 4, 8, 16]
    need = (2 * 2 * 4 * 16 * 16 + 8 * qbp.analysis._DEDUP_BYTES + 7 * 16 * 16 + 3 * 16
            + 16 * np.getbufsize() + (16 << 10))
    monkeypatch.setattr(qbp.linalg, "MEMORY_BUDGET_BYTES", need - 1)
    with pytest.raises(ValueError, match="configuration budget exceeded: level 3"):
        reachable_configurations(p)


# -- near-pair primitive and greedy dedup -----------------------------------------------

def brute_near_pairs(a, radius):
    """Reference: every pair, by explicit differences."""
    found = set()
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if np.sum(np.abs(a[j] - a[i]) ** 2) <= radius * radius:
                found.add((i, j))
    return found


def reference_dedup(rows, tol):
    """Reference: the plain sequential greedy loop."""
    kept, index = [], []
    for v in rows:
        if kept:
            d2 = np.sum(np.abs(np.array(kept) - v) ** 2, axis=1)
            j = int(np.argmin(d2))
            if d2[j] <= tol * tol:
                index.append(j)
                continue
        kept.append(v)
        index.append(len(kept) - 1)
    return np.array(kept), index


def clustered_rows(seed, m, d, scale):
    """m rows drawn around a few centres with jitter of the given scale,
    some exact repeats among them."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(int(rng.integers(1, 5)), d)) + 1j * rng.normal(size=(1, d))
    rows = centres[rng.integers(0, centres.shape[0], size=m)].astype(np.complex128)
    rows += scale * rng.integers(-2, 3, size=(m, d))
    return rows


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6),
       st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_near_pairs_matches_brute_force_random(seed, m, d, radius):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    i, j, d2 = _near_pairs(a, radius)
    assert set(zip(i.tolist(), j.tolist())) == brute_near_pairs(a, radius)
    assert np.all(i < j)
    assert np.allclose(d2, np.sum(np.abs(a[i] - a[j]) ** 2, axis=1), rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 40), st.integers(1, 6),
       st.floats(1e-8, 1e-6))
@example(0, 2, 8, 4, 1e-8)  # the nearest pair's Gram value is not the least
@example(11, 11, 18, 1, 9.29460782338262e-07)  # the Gram minimum is within CHAIN_INSET but not exact
@settings(max_examples=60, deadline=None)
def test_min_cross_distance_fallback_matches_brute_force(seed, ma, mb, d, gap):
    # unit rows with up to three planted cross pairs, within a factor of 2
    # of one another and far inside the Gram form's rounding: the fallback
    # must return the least explicit distance, not the Gram minimum's
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d)) for m in (ma, mb))
    for _ in range(int(rng.integers(1, 4))):
        ia, ib = int(rng.integers(ma)), int(rng.integers(mb))
        b[ib] = a[ia] + gap * rng.uniform(1, 2) * (rng.normal(size=d) + 1j * rng.normal(size=d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    brute = min(float(np.sum(np.abs(y - x) ** 2)) for x in a for y in b)
    assert qbp.analysis._min_cross_distance(a, b) == math.sqrt(brute)


@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 5),
       st.sampled_from([1e-13, 3e-10, 1e-9]))
@settings(max_examples=60, deadline=None)
def test_near_pairs_matches_brute_force_clustered(seed, m, d, scale):
    # jitter far below, near and at the dedup tolerance, with exact repeats
    a = clustered_rows(seed, m, d, scale)
    i, j, _ = _near_pairs(a, CONFIG_DEDUP_TOL)
    assert set(zip(i.tolist(), j.tolist())) == brute_near_pairs(a, CONFIG_DEDUP_TOL)


@given(st.integers(0, 2**32 - 1), st.integers(2, 24),
       st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9]))
@settings(max_examples=60, deadline=None)
def test_near_pairs_dense_window_on_basis_vectors(seed, d, offset):
    # basis vectors with phases are all sqrt(2) apart: every pair lands in
    # the projected window, and the radius sits on the distance itself
    rng = np.random.default_rng(seed)
    a = np.diag(np.exp(2j * np.pi * rng.random(d)))[rng.permutation(d)]
    radius = math.sqrt(2) + offset
    i, j, _ = _near_pairs(a, radius)
    assert set(zip(i.tolist(), j.tolist())) == brute_near_pairs(a, radius)


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 4),
       st.sampled_from([1e-13, 3e-10, 1e-9]))
@settings(max_examples=80, deadline=None)
def test_greedy_dedup_matches_sequential_loop(seed, m, d, scale):
    rows = clustered_rows(seed, m, d, scale)
    kept, index = _greedy_dedup(rows, CONFIG_DEDUP_TOL)
    ref_kept, ref_index = reference_dedup(rows, CONFIG_DEDUP_TOL)
    assert index.tolist() == ref_index
    assert np.array_equal(kept, ref_kept)
    assert not kept.flags.writeable


# -- theta components -------------------------------------------------------------------

def test_theta_components_single_point():
    part = theta_components([np.array([1.0, 0.0])], 0.5)
    assert part.count == 1


def test_theta_components_orthogonal_pair():
    part = theta_components([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 1.0)
    assert part.count == 2


def test_theta_components_chain_vs_split():
    pts = [np.array([0.0]), np.array([0.4]), np.array([0.8])]
    assert theta_components(pts, 0.5).count == 1
    assert theta_components(pts, 0.3).count == 3


def test_theta_components_requires_positive_theta():
    with pytest.raises(ValueError):
        theta_components([np.array([1.0])], 0.0)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
def test_every_theta_guard_refuses_nan(theta):
    p = mod_block(ModBlockSpec(3, 1, 6))
    with pytest.raises(ValueError, match="theta must be positive"):
        theta_components([np.array([1.0])], theta)
    with pytest.raises(ValueError, match="theta must be positive"):
        packing_width_bound(theta, 2)
    with pytest.raises(ValueError, match="theta must be positive"):
        derive_deterministic_obdd(p, mod_truth_table(3, 6), theta, 0.25)


def brute_component_count(pts, radius):
    parent = list(range(len(pts)))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for i, j in brute_near_pairs(np.array(pts), radius):
        parent[find(i)] = find(j)
    return len({find(i) for i in range(len(pts))})


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 4), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_theta_components_match_brute_force_union_find(seed, m, d, theta):
    rng = np.random.default_rng(seed)
    pts = list(rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d)))
    part = theta_components(pts, theta)
    assert part.count == brute_component_count(pts, theta + qbp.analysis.CHAIN_SLACK)
    assert sorted(set(part.component_of.tolist())) == list(range(part.count))


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.5), st.floats(0.55, 2.0))
@settings(max_examples=100, deadline=None)
def test_theta_components_monotone_in_theta(seed, small, large):
    rng = np.random.default_rng(seed)
    pts = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(12)]
    assert theta_components(pts, small).count >= theta_components(pts, large).count


def test_infinite_theta_chains_without_a_pairs_query(monkeypatch):
    # a constant table leaves one class empty, so the derivation chains every
    # level at theta = inf: one component, as the all-pairs scan gives, with
    # no pairs query (that query would score all m (m - 1) / 2 pairs)
    real = qbp.analysis._near_pairs

    def finite_only(mat, radius):
        assert math.isfinite(radius), "pairs query at an infinite radius"
        return real(mat, radius)

    monkeypatch.setattr(qbp.analysis, "_near_pairs", finite_only)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    part = theta_components(pts, math.inf)
    assert part.count == brute_component_count(pts, 1e300) == 1
    assert part.component_of.tolist() == [0] * 40 and not part.component_of.flags.writeable
    assert theta_components(np.empty((0, 3)), math.inf).count == 0

    f = TruthTable.constant(8, True)
    obdd = derive_deterministic_obdd(universal_exact_qbp(f), f, None, 0.5)
    assert obdd.theta == math.inf
    assert obdd.reachable_counts == tuple(1 << j for j in range(9))
    assert obdd.level_widths == (1,) * 9
    assert np.array_equal(obdd.classify_all(), f.bits)


# -- separation bounds ---------------------------------------------------------------------

def test_theta_bounds_exact_margin():
    rep = theta_bounds(0.5, 4)
    assert rep.theta2 == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.theta2_radicand == pytest.approx(2.0, abs=1e-12)
    assert rep.theta1 == pytest.approx(0.25, abs=1e-15)


def test_theta_bounds_negative_radicand():
    rep = theta_bounds(0.3, 2)
    assert rep.theta2_radicand == pytest.approx(1.6 - 4 * math.sqrt(0.2), abs=1e-12)
    assert rep.theta2_radicand < 0
    assert rep.theta2 == 0.0


def test_theta_bounds_theta1():
    assert theta_bounds(0.4, 4).theta1 == pytest.approx(0.2, abs=1e-15)


def test_theta_bounds_validation():
    with pytest.raises(ValueError):
        theta_bounds(0.0, 2)
    with pytest.raises(ValueError):
        theta_bounds(0.25, 0)


def test_measured_separation_all_accepting_is_infinite():
    p = identity_program(4)
    assert measured_separation(p, TruthTable.constant(4, True), 0.5) == math.inf


def test_measured_separation_mod3_block():
    p = mod_block(ModBlockSpec(3, 1, 6))
    sep = measured_separation(p, mod_truth_table(3, 6), 0.25)
    assert sep == pytest.approx(math.sqrt(3), abs=1e-12)
    assert sep >= 0.25 / math.sqrt(2) - 1e-9


def test_separation_of_a_read_once_program_beyond_16_variables():
    # separation is bounded by bytes, not by the variable count: MOD_3 at n = 17
    p = mod_block(ModBlockSpec(3, 1, 17))
    sep = measured_separation(p, mod_truth_table(3, 17), 0.25)
    assert sep == pytest.approx(math.sqrt(3), abs=1e-12)


def test_measured_separation_detects_non_computation():
    p = mod_block(ModBlockSpec(5, 2, 6))  # rejects some residues too weakly
    with pytest.raises(ValueError, match="does not compute"):
        measured_separation(p, mod_truth_table(5, 6), 0.4)


def test_one_hot_separation_at_width_2_20_is_explicit():
    # two one-hot classes with no index in common, at width 2^20: the Gram
    # form's rounding bound there spans 3.95e-9 > CHAIN_INSET, and the
    # distance is taken from the explicit |c|^2 of the phases
    rng = np.random.default_rng(20)
    a, b = ((0.999 + 0.001 * rng.random((m, 1))) * np.exp(2j * np.pi * rng.random((m, 1))) for m in (5, 7))
    width = 1 << 20
    g = 2.0
    err = 4.0 * (2 * width + 4) * np.finfo(np.float64).eps * (1.0 + g)
    assert math.sqrt(g + err) - math.sqrt(g - err) > linalg.CHAIN_INSET
    explicit = math.sqrt(float(np.min(np.abs(a) ** 2) + np.min(np.abs(b) ** 2)))
    assert qbp.analysis._min_cross_distance(a, b, width) == explicit


@pytest.mark.parametrize("delta", [1e-8, 1e-9])
def test_measured_separation_is_exact_at_small_distances(delta):
    # one accepting and one rejecting final configuration, 2 sin(delta)
    # apart; the Gram form ||a||^2 + ||b||^2 - 2 Re<a, b> cancels there
    # (2.107e-8 at delta = 1e-8, and 0 at delta = 1e-9)
    tf = QuantumTransformation(
        1, linalg.rotation_matrix(math.pi / 4 - delta), linalg.rotation_matrix(math.pi / 4 + delta)
    )
    p = QbProgram(1, 2, (tf,), np.array([1.0, 0.0]), frozenset({1}))
    f = TruthTable(1, np.array([True, False]))
    acc, rej = reachable_configurations(p)[-1].configs
    explicit = math.sqrt(float(np.sum(np.abs(rej - acc) ** 2)))
    assert explicit == pytest.approx(2 * math.sin(delta), rel=1e-6)
    assert measured_separation(p, f, 0.9 * delta) == explicit
    obdd = derive_deterministic_obdd(p, f, None, 0.9 * delta)
    assert obdd.theta == explicit
    assert np.array_equal(obdd.classify_all(), f.bits)


def test_derive_refuses_read_twice_before_any_configuration(monkeypatch, tmp_path):
    # read-twice MOD_5 at n = 12: the derivation and the separation are both
    # refused before any configuration is enumerated or deduplicated and
    # before any leaf is walked
    block = mod_block(ModBlockSpec(5, 1, 12))
    p = QbProgram(12, 2, block.transformations * 2, block.initial, block.accepting)
    f = TruthTable(12, evaluate_all(p) > 0.5)
    calls = []
    for name in ("reachable_configurations", "_greedy_dedup", "_walked"):
        monkeypatch.setattr(qbp.analysis, name, lambda *args, name=name: calls.append(name))
    for refused in (lambda: derive_deterministic_obdd(p, f, None, 0.25),
                    lambda: measured_separation(p, f, 0.25)):
        with pytest.raises(ValueError, match="requires a read-once program"):
            refused()
    assert calls == []

    prog, table = tmp_path / "twice.json", tmp_path / "twice.tt"
    save_program(p, prog)
    save_truth_table(f, table)
    result = CliRunner().invoke(
        main, ["analyze", str(prog), "--truth-table", str(table), "--epsilon", "0.25", "--auto-theta"]
    )
    assert result.exit_code == 2
    assert "requires a read-once program" in result.output
    assert calls == []


def _verdict_program(kind: str, rng: np.random.Generator, n: int) -> QbProgram:
    """A read-once program of ``kind`` on n variables, read in a random order."""
    if kind == "haar":  # some read only a prefix of the variables
        p = random_program(rng, d=int(rng.integers(2, 6)), n=n, length=int(rng.integers(1, n + 1)))
    elif kind == "mod block":
        p = mod_block(ModBlockSpec(int(rng.choice([3, 5, 7])), int(rng.integers(1, 3)), n))
    else:
        p = universal_exact_qbp(TruthTable.random(n, rng))
        p = {"universal": p, "realified universal": realify_program(p), "superposed universal": superposed(p)}[kind]
    order = rng.permutation(n) + 1
    tfs = tuple(QuantumTransformation(int(order[tf.var_index - 1]), *tf.unitaries) for tf in p.transformations)
    return QbProgram(n, p.width, tfs, p.initial, p.accepting)


@given(st.sampled_from(["haar", "universal", "realified universal", "superposed universal", "mod block"]),
       st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_derivation_verdict_is_the_exhaustive_check(kind, seed, n, flip):
    # the derivation checks a program on the final configurations it
    # enumerates: it refuses what computes refuses, naming computes' first
    # counterexample, and on what computes accepts it gives the result of
    # the reference, which checks every input through evaluate_all
    rng = np.random.default_rng(seed)
    p = _verdict_program(kind, rng, n)
    probs = evaluate_all(p)
    bits = probs > 0.5
    if flip:
        bits[int(rng.integers(bits.size))] ^= True
    f = TruthTable(p.n_vars, bits)
    epsilon = min(max(float(np.min(np.abs(probs - 0.5))), 1e-3), 0.5)
    report = computes(p, f, Margin(epsilon))
    if not report.holds:
        named = "".join(map(str, bits_of_value(int(report.counterexamples[0]), p.n_vars)))
        for refused in (lambda: measured_separation(p, f, epsilon),
                        lambda: derive_deterministic_obdd(p, f, None, epsilon)):
            with pytest.raises(ValueError, match=f"^program does not compute the table with margin "
                                                 f"{re.escape(repr(epsilon))}: input {named} has acceptance "):
                refused()
        return
    accepting, rejecting, _ = ref_classified(p, f, epsilon)
    sep = ref_min_cross_distance(accepting, rejecting)
    assert measured_separation(p, f, epsilon) == sep
    for theta in (None, sep / 2):
        ref = ref_derive(p, f, theta, epsilon)
        obdd = derive_deterministic_obdd(p, f, theta, epsilon)
        assert (obdd.theta, obdd.level_widths, obdd.reachable_counts) == (
            ref["theta"], ref["level_counts"], ref["reachable_counts"])
        assert len(obdd.transitions) == len(ref["transitions"])
        for got, want in zip(obdd.transitions, ref["transitions"]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert obdd.accepting.tolist() == sorted(ref["accepting"])
        assert np.array_equal(obdd.classify_all(), f.bits)


def test_random_programs_meet_theta1(rng):
    # margin is taken as the measured one, so the distance bound must follow
    for _ in range(15):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        p = random_program(rng, d=d, n=n)
        probs = evaluate_all(p)
        eps = float(np.min(np.abs(probs - 0.5)))
        if eps < 1e-6:
            continue
        eps = min(eps, 0.5)
        f = TruthTable(n, probs > 0.5)
        sep = measured_separation(p, f, eps)
        assert sep >= eps / math.sqrt(d) - 1e-9


# -- derived OBDD ------------------------------------------------------------------------------

def test_derive_identity_program_width_one():
    p = identity_program(4)
    obdd = derive_deterministic_obdd(p, TruthTable.constant(4, True), 0.5, 0.5)
    assert obdd.level_counts == (1, 1, 1, 1, 1)
    assert obdd.max_width == 1
    assert np.all(obdd.classify_all())


def test_derive_mod3_block_small_theta():
    p = mod_block(ModBlockSpec(3, 1, 6))
    f = mod_truth_table(3, 6)
    obdd = derive_deterministic_obdd(p, f, 0.5, 0.25)
    assert obdd.max_width <= 3
    assert np.array_equal(obdd.classify_all(), f.bits)
    assert obdd.max_width <= packing_width_bound(0.5, 2)


def test_derive_at_measured_separation():
    p = mod_block(ModBlockSpec(3, 1, 6))
    f = mod_truth_table(3, 6)
    theta = measured_separation(p, f, 0.25)
    obdd = derive_deterministic_obdd(p, f, theta, 0.25)
    assert np.array_equal(obdd.classify_all(), f.bits)
    assert obdd.max_width <= packing_width_bound(theta, 2)


def test_derive_rejects_theta_above_separation():
    p = mod_block(ModBlockSpec(3, 1, 6))
    f = mod_truth_table(3, 6)
    with pytest.raises(ValueError, match="exceeds the measured"):
        derive_deterministic_obdd(p, f, 2.0, 0.25)


def plane_rotation_program(n, accepting):
    # the initial state turns in the plane of states 2 and 3, by 2 pi / 5 on
    # each one: five configurations, all with the same acceptance
    u1 = np.eye(3, dtype=np.complex128)
    u1[1:, 1:] = linalg.rotation_matrix(2 * math.pi / 5)
    tfs = tuple(QuantumTransformation(i, np.eye(3), u1) for i in range(1, n + 1))
    return QbProgram(n, 3, tfs, np.array([0.0, 1.0, 0.0]), frozenset(accepting))


@pytest.mark.parametrize("accepting, value", [((), False), ((2, 3), True)])
def test_derive_auto_theta_on_constant_table(accepting, value):
    # one class is empty, so the separation and theta are infinite and every
    # level is a single component
    p = plane_rotation_program(5, accepting)
    f = TruthTable.constant(5, value)
    obdd = derive_deterministic_obdd(p, f, None, 0.5)
    assert obdd.theta == math.inf
    assert obdd.reachable_counts == (1, 2, 3, 4, 5, 5)
    assert obdd.level_counts == (1,) * 6
    assert obdd.accepting.tolist() == ([0] if value else [])
    assert np.array_equal(obdd.classify_all(), f.bits)
    assert packing_width_bound(obdd.theta, p.width) == 1.0


def test_derive_transition_ambiguity_is_hard_error(monkeypatch):
    # a partition that merges distinct mid-level configurations whose images
    # separate again cannot happen for distance-preserving transitions; force
    # one to check the guard
    real_theta_components = qbp.analysis.theta_components
    levels = itertools.count()  # the derivation partitions its levels in order

    def lumpy(configs, theta):
        if next(levels) == 1 and len(configs) > 1:
            return qbp.analysis.ThetaPartition(np.zeros(len(configs), dtype=np.int64), 1)
        return real_theta_components(configs, theta)

    monkeypatch.setattr(qbp.analysis, "theta_components", lumpy)
    p = mod_block(ModBlockSpec(3, 1, 2))
    f = mod_truth_table(3, 2)
    # the first clash in (configuration, bit) order is named
    with pytest.raises(RuntimeError, match="ambiguity at level 2 on bit 0: component 0 maps to "
                                           "components 0 and 1;"):
        derive_deterministic_obdd(p, f, 0.5, 0.25)


def test_derive_enumerates_levels_once(monkeypatch):
    real = qbp.analysis.reachable_configurations
    calls = []

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(qbp.analysis, "reachable_configurations", counting)
    derive_deterministic_obdd(mod_block(ModBlockSpec(3, 1, 6)), mod_truth_table(3, 6), 0.5, 0.25)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["universal", "mod"])
def test_derived_obdd_meets_the_width_chain(kind, rng):
    # the paper's chain, level by level in the read order: minimal OBDD width
    # <= component count <= packing bound
    if kind == "universal":
        p = universal_exact_qbp(TruthTable.random(5, rng))
    else:
        p = build_mod_program(5, 12)
    probs = evaluate_all(p)
    f, eps = TruthTable(p.n_vars, probs > 0.5), float(np.min(np.abs(probs - 0.5)))
    obdd = derive_deterministic_obdd(p, f, None, eps)
    minimal = min_obdd_width(f, p.var_sequence)
    bound = packing_width_bound(obdd.theta, p.width)
    assert len(minimal.level_widths) == len(obdd.level_widths)
    for width, components in zip(minimal.level_widths, obdd.level_widths):
        assert width <= components <= bound


# -- minimal OBDD width oracle ----------------------------------------------------------------------

def brute_force_widths(f: TruthTable, order):
    """Independent oracle: enumerate subfunction signatures with Python sets."""
    n = f.n_vars
    widths = []
    for j in range(n + 1):
        fixed, free = order[:j], order[j:]
        signatures = set()
        for assign in itertools.product((0, 1), repeat=j):
            sig = []
            for completion in itertools.product((0, 1), repeat=n - j):
                bits = [0] * n
                for var, b in zip(fixed, assign):
                    bits[var - 1] = b
                for var, b in zip(free, completion):
                    bits[var - 1] = b
                sig.append(bool(f.bits[int("".join(map(str, bits)), 2)]))
            signatures.add(tuple(sig))
        widths.append(len(signatures))
    return widths


def test_min_obdd_width_constant():
    w = min_obdd_width(TruthTable.constant(5, False))
    assert w.level_widths == (1,) * 6
    assert w.max_width == 1


def test_min_obdd_width_parity():
    f = TruthTable.from_function(3, lambda bits: sum(bits) % 2 == 1)
    w = min_obdd_width(f)
    assert w.max_width == 2
    assert w.level_widths == (1, 2, 2, 2)


def test_min_obdd_width_mod5():
    assert min_obdd_width(mod_truth_table(5, 12)).max_width == 5


def test_min_obdd_width_matches_brute_force(rng):
    for _ in range(5):
        f = TruthTable.random(5, rng)
        order = tuple(int(v) + 1 for v in rng.permutation(5))
        assert min_obdd_width(f, order).level_widths == tuple(brute_force_widths(f, order))


@given(st.data(), st.integers(1, 8), st.sampled_from(["random", "false", "true"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_min_obdd_is_reduced_and_reachable(data, n, kind, seed):
    if kind == "random":
        f = TruthTable.random(n, np.random.default_rng(seed))
    else:
        f = TruthTable.constant(n, kind == "true")
    order = tuple(data.draw(st.permutations(range(1, n + 1))))
    obdd = min_obdd_width(f, order)
    assert obdd.var_sequence == order
    assert obdd.level_widths == tuple(brute_force_widths(f, order))
    assert np.array_equal(obdd.classify_all(), f.bits)
    for j, table in enumerate(obdd.transitions):
        # reduced: no two nodes of level j have the same children; reachable:
        # every node of level j+1 is a child of one of them
        assert table.shape == (obdd.level_widths[j], 2)
        assert len(np.unique(table, axis=0)) == len(table)
        assert np.array_equal(np.unique(table), np.arange(obdd.level_widths[j + 1]))


def reference_min_obdd(f, order):
    """Reference: the sort-based reduction, one ``np.unique`` per level.
    Returns the level widths, the transition tables and the accepting set."""
    n = f.n_vars
    leaves = np.transpose(f.bits.reshape((2,) * n), [v - 1 for v in order]).reshape(-1)
    values = np.unique(leaves)
    ids = leaves.astype(np.uint8) - np.uint8(values[0])
    widths, tables = [values.size], []
    for _ in range(n):
        w = widths[-1]
        keys, ids = np.unique(ids[0::2] * w + ids[1::2], return_inverse=True)
        tables.append(np.stack([keys // w, keys % w], axis=1))
        widths.append(keys.size)
    return tuple(widths[::-1]), tables[::-1], frozenset(np.flatnonzero(values).tolist())


def width_oracle_cases():
    """Random, constant and MOD_p tables for n <= 12, each under the
    identity order and two drawn ones."""
    rng = np.random.default_rng(15)
    for n in range(1, 13):
        tables = [TruthTable.random(n, rng), TruthTable.constant(n, False),
                  TruthTable.constant(n, True)]
        tables += [mod_truth_table(p, n) for p in (2, 3, 5, 7) if p <= n]
        for f in tables:
            for order in (tuple(range(1, n + 1)),
                          *(tuple(int(v) + 1 for v in rng.permutation(n)) for _ in range(2))):
                yield f, order


def walked_classification(obdd) -> np.ndarray:
    """Oracle for ``Obdd.classify_all``: each input walked through the tables
    alone, one level at a time."""
    out = np.empty(1 << obdd.n_vars, dtype=bool)
    for v in range(1 << obdd.n_vars):
        bits, node = bits_of_value(v, obdd.n_vars), 0
        for table, j in zip(obdd.transitions, obdd.var_sequence):
            node = int(table[node, bits[j - 1]])
        out[v] = node in obdd.accepting
    return out


@pytest.mark.parametrize("seed", range(8))
def test_classify_all_matches_a_per_input_walk(seed):
    # a Haar program reading a shuffled subset of 7 variables (none, for
    # some seeds), its derived OBDD and a minimal OBDD under a shuffled order
    rng = np.random.default_rng(seed)
    n, d = 7, int(rng.integers(2, 4))
    order = rng.permutation(n)[:rng.integers(0, n + 1)] + 1
    p = QbProgram(n, d, tuple(QuantumTransformation(int(j), haar_unitary(rng, d), haar_unitary(rng, d))
                              for j in order), random_state(rng, d), [1])
    f = TruthTable(n, evaluate_all(p) > 0.5)
    derived = derive_deterministic_obdd(p, f, None, computes(p, f, Margin(0.0)).min_margin)
    minimal = min_obdd_width(f, tuple(int(v) + 1 for v in rng.permutation(n)))
    for obdd in (derived, minimal):
        assert np.array_equal(obdd.classify_all(), walked_classification(obdd))
        assert np.array_equal(obdd.classify_all(), f.bits)


def assert_reference_obdd(f, order):
    """``min_obdd_width`` is ``reference_min_obdd`` bit for bit, its
    transition tables ``intp``; returns the OBDD."""
    obdd = min_obdd_width(f, order)
    widths, tables, accepting = reference_min_obdd(f, order)
    assert obdd.var_sequence == tuple(order)
    assert obdd.level_widths == widths
    assert obdd.accepting.tolist() == sorted(accepting)
    assert len(obdd.transitions) == len(tables)
    for got, want in zip(obdd.transitions, tables):
        assert got.dtype == np.intp
        assert np.array_equal(got, want)
    return obdd


def test_min_obdd_width_matches_sort_reference():
    paths = set()
    for f, order in width_oracle_cases():
        obdd = assert_reference_obdd(f, order)
        widths = obdd.level_widths
        assert np.array_equal(obdd.classify_all(), f.bits)
        # level j's nodes are ranked from 2^j pairs of nodes of level j + 1,
        # keyed below widths[j + 1]^2
        paths |= {widths[j + 1] ** 2 <= 1 << j for j in range(f.n_vars)}
    # the cases rank some levels through the presence table, some by sorting
    assert paths == {True, False}


@given(st.data(), st.integers(13, 16), st.sampled_from([None, 3, 5, 7]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_min_obdd_width_in_the_table_layout_matches_the_transposed_reference(data, n, modulus, seed):
    # the oracle pairs slices along each variable's axis of the untransposed
    # table; the reference transposes the table into the order first
    f = TruthTable.random(n, np.random.default_rng(seed)) if modulus is None else mod_truth_table(modulus, n)
    assert_reference_obdd(f, tuple(data.draw(st.permutations(range(1, n + 1)))))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_min_obdd_width_packs_a_whole_short_order(n):
    # at n <= 3 every variable is folded into the byte: every table, every order
    for value in range(1 << (1 << n)):
        f = TruthTable(n, [bool(value >> v & 1) for v in range(1 << n)])
        for order in itertools.permutations(range(1, n + 1)):
            assert_reference_obdd(f, order)


@pytest.mark.parametrize("bottom", [(10, 11, 12), (12, 11, 10), (1, 2, 3), (3, 1, 2), (5, 6, 7),
                                    (1, 6, 12), (12, 1, 6), (2, 9, 11)],
                         ids=["innermost", "innermost reversed", "outermost", "outermost mixed",
                              "adjacent", "split to both ends", "split reversed", "split"])
def test_min_obdd_width_folds_the_bottom_on_any_axes(bottom):
    # the last three variables of the order on adjacent, split and outermost
    # axes of the table: slices of 1 to 4 bytes are folded as one word, of 8
    # bytes or more as 8-byte words
    n = 12
    rng = np.random.default_rng(sum(bottom))
    rest = [v for v in range(1, n + 1) if v not in bottom]
    for f in (TruthTable.random(n, rng), mod_truth_table(3, n), mod_truth_table(7, n),
              TruthTable.constant(n, False), TruthTable.constant(n, True)):
        for top in (rest, [int(v) for v in rng.permutation(rest)]):
            assert_reference_obdd(f, (*top, *bottom))


def keyed_table(pairs):
    """The table whose nodes of level n - 4 under the identity order are the
    rows of ``pairs``, one per assignment to the first n - 4 variables, each a
    pair of nodes of level n - 3: bytes whose bit j is their value at the
    assignment j to the last three variables."""
    keys = np.asarray(pairs, dtype=np.uint8).reshape(-1)
    return TruthTable(keys.size.bit_length() + 2, np.unpackbits(keys, bitorder="little").view(bool))


_ALL_PAIRS = np.stack(np.divmod(np.arange(1 << 16), 256), axis=1)


@pytest.mark.parametrize("pairs, widths", [
    (_ALL_PAIRS, (256, 65536)),
    (np.where(np.arange(1 << 16)[:, None] == 65535, 0, _ALL_PAIRS), (256, 65535)),
    (np.minimum(_ALL_PAIRS, 254), (255, 255 * 255)),
    *((np.stack(np.divmod(np.arange(1 << 16) % t, 32), axis=1), (32, t)) for t in (255, 256, 257)),
], ids=["256 and 65536", "256 and 65535", "255 and 65025", "32 and 255", "32 and 256", "32 and 257"])
def test_min_obdd_width_where_the_narrow_ids_widen(pairs, widths):
    # n = 20: levels 17 and 16 of exactly these widths, where a level's ids
    # need one more byte, level 16 ranked through its presence table
    f = keyed_table(pairs)
    assert f.n_vars == 20
    obdd = assert_reference_obdd(f, tuple(range(1, 21)))
    assert obdd.level_widths[17] == widths[0] and obdd.level_widths[16] == widths[1]
    assert widths[0] ** 2 <= 1 << 16


@pytest.mark.parametrize("width, dtype", [(255, np.uint8), (256, np.uint16), (65535, np.uint16),
                                          (65536, np.uint32)])
def test_ranked_pairs_keep_ids_in_the_narrowest_dtype(width, dtype):
    # the first ``width`` of all pairs of 256 ids, repeated to 65536 pairs,
    # as many as the presence table has flags
    pairs = np.resize(_ALL_PAIRS[:width], (1 << 16, 2))
    keys, ids = _ranked_pairs(pairs.astype(np.uint8).T.reshape(1, 2, -1), 256)
    assert keys.size == width and ids.dtype == dtype
    assert np.array_equal(keys[ids], pairs[:, 0] * 256 + pairs[:, 1])


def test_widths_stdout_is_the_reference_csv(tmp_path):
    # the CSV is the reference's widths, byte for byte
    for n, f in ((14, mod_truth_table(5, 14)), (12, TruthTable.random(12, np.random.default_rng(12)))):
        order = tuple(int(v) + 1 for v in np.random.default_rng(n).permutation(n))
        save_truth_table(f, tmp_path / "f.tt")
        result = CliRunner().invoke(main, ["widths", "--truth-table", str(tmp_path / "f.tt"),
                                           "--order", ",".join(map(str, order))])
        assert result.exit_code == 0, result.output
        widths = reference_min_obdd(f, order)[0]
        assert result.stdout == "level,width\n" + "".join(f"{j},{w}\n" for j, w in enumerate(widths))


def test_min_obdd_width_validates_order():
    with pytest.raises(ValueError, match="permutation"):
        min_obdd_width(TruthTable.constant(3, True), (1, 1, 2))


# -- width lower bounds ----------------------------------------------------------------------------

def test_lower_bound_width_trivial():
    assert lower_bound_width(2, 0.3, "general") == 1
    assert lower_bound_width(2, 0.5, "margin") == 1


def test_lower_bound_width_margin_formula():
    assert lower_bound_width(1 << 20, 0.5, "margin") == 13


def test_lower_bound_width_monotone_in_t():
    prev = 0
    for t in (2, 2**8, 2**16, 2**32, 2**64):
        d = lower_bound_width(t, 0.45, "general")
        assert d >= prev
        prev = d


def test_lower_bound_width_general_is_minimal():
    epsilon, t = 0.45, 2**64
    d = lower_bound_width(t, epsilon, "general")
    assert (1 + 2 * math.sqrt(d) / epsilon) ** (2 * d) >= t
    if d > 1:
        assert (1 + 2 * math.sqrt(d - 1) / epsilon) ** (2 * (d - 1)) < t


def test_lower_bound_width_margin_needs_positive_radicand():
    with pytest.raises(ValueError, match="radicand"):
        lower_bound_width(1 << 20, 0.25, "margin")


def test_packing_width_bound_value():
    assert packing_width_bound(1.0, 2) == pytest.approx(81.0)
    assert packing_width_bound(math.sqrt(2), 8) == (1.0 + 2.0 / math.sqrt(2)) ** 16
    with pytest.raises(ValueError):
        packing_width_bound(0.0, 2)


def test_packing_width_bound_overflows_to_inf():
    # (1 + sqrt 2)^1024 is about 10^392, past the float range
    bound = packing_width_bound(math.sqrt(2), 512)
    assert bound == math.inf
    assert 512 <= bound
