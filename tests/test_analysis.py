import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbp.analysis
import qbp.program
from qbp import linalg
from qbp.analysis import (
    CONFIG_DEDUP_TOL,
    _classified_final_configs,
    _greedy_dedup,
    _near_pairs,
    derive_deterministic_obdd,
    lower_bound_width,
    measured_separation,
    min_obdd_width,
    packing_width_bound,
    reachable_configurations,
    separation_report,
    theta_bounds,
    theta_components,
)
from qbp.constructions import (
    ModBlockSpec,
    build_mod_program,
    mod_block,
    mod_truth_table,
    universal_exact_qbp,
)
from qbp.program import (
    QbProgram,
    QuantumTransformation,
    TruthTable,
    accept_probability,
    bits_of_value,
    evaluate_all,
    final_configuration,
)

from conftest import chain_probability, random_program


def identity_program(n=4):
    ident = linalg.identity(2)
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


def test_reachable_prefix_map_consistent():
    p = mod_block(ModBlockSpec(3, 2, 5))
    levels = reachable_configurations(p)
    final = levels[-1]
    for v in range(1 << 5):
        cfg = final.configs[int(final.prefix_map[v])]
        direct = final_configuration(p, bits_of_value(v, 5))
        assert np.linalg.norm(cfg - direct) <= 1e-9


def test_reachable_requires_read_once():
    ident = linalg.identity(2)
    tfs = (QuantumTransformation(1, ident, ident), QuantumTransformation(1, ident, ident))
    p = QbProgram(2, 2, tfs, np.array([1.0, 0.0]), frozenset({1}))
    with pytest.raises(ValueError, match="read-once"):
        reachable_configurations(p)


def test_reachable_many_levels_of_one_config():
    # no level cap: only the byte budget bounds the enumeration
    ident = linalg.identity(1)
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
                before = linalg.distance(configs[a], configs[b])
                for bit in (0, 1):
                    after = linalg.distance(
                        *(tf.apply_to_columns(bit, configs[k][:, None])[:, 0] for k in (a, b))
                    )
                    assert abs(before - after) <= 1e-9


@pytest.mark.parametrize("case", ["universal", "mod", "haar"])
def test_reachable_final_configs_match_chain_oracle(case, rng):
    if case == "universal":
        n, p = 7, universal_exact_qbp(TruthTable.random(7, rng))
    elif case == "mod":
        n, p = 10, build_mod_program(5, 10)
    else:
        n, p = 7, random_program(rng, d=5, n=7)
    final = reachable_configurations(p)[-1]
    for v in range(1 << n):
        prob = accept_probability(final.configs[int(final.prefix_map[v])], p.accepting)
        assert abs(prob - chain_probability(p, bits_of_value(v, n))) <= 1e-9


def test_reachable_universal_n10_final_count():
    p = universal_exact_qbp(TruthTable.random(10, np.random.default_rng(10)))
    assert len(reachable_configurations(p)[-1].configs) == 1024


def test_reachable_configuration_budget(monkeypatch):
    # level 3 of the universal n=4 program has 8 candidates of width 16
    monkeypatch.setattr(qbp.analysis, "CONFIG_BUDGET_BYTES", 2 * 4 * 16 * 16 - 1)
    p = universal_exact_qbp(TruthTable.random(4, np.random.default_rng(4)))
    with pytest.raises(ValueError, match="configuration budget exceeded: level 3"):
        reachable_configurations(p)


# -- near-pair primitive and greedy dedup -----------------------------------------------

def brute_near_pairs(a, radius, b=None):
    """Reference: every pair, by explicit differences."""
    self_pairs = b is None
    b = a if self_pairs else b
    found = set()
    for i in range(len(a)):
        for j in range(i + 1 if self_pairs else 0, len(b)):
            if np.sum(np.abs(b[j] - a[i]) ** 2) <= radius * radius:
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
    b = rng.normal(size=(m + 3, d)) + 1j * rng.normal(size=(m + 3, d))
    i, j, _ = _near_pairs(a, radius, b)
    assert set(zip(i.tolist(), j.tolist())) == brute_near_pairs(a, radius, b)


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
       st.sampled_from([1e-13, 3e-10, 1e-9]), st.sampled_from([1, 3, 7, 256]))
@settings(max_examples=80, deadline=None)
def test_greedy_dedup_matches_sequential_loop(seed, m, d, scale, chunk):
    rows = clustered_rows(seed, m, d, scale)
    saved = qbp.analysis._DEDUP_CHUNK_ROWS
    qbp.analysis._DEDUP_CHUNK_ROWS = chunk
    try:
        kept, index = _greedy_dedup(rows, CONFIG_DEDUP_TOL)
    finally:
        qbp.analysis._DEDUP_CHUNK_ROWS = saved
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


def test_measured_separation_detects_non_computation():
    p = mod_block(ModBlockSpec(5, 2, 6))  # rejects some residues too weakly
    with pytest.raises(ValueError, match="does not compute"):
        measured_separation(p, mod_truth_table(5, 6), 0.4)


def test_separation_report_includes_measured():
    p = mod_block(ModBlockSpec(3, 1, 6))
    rep = separation_report(p, mod_truth_table(3, 6), 0.25)
    assert rep.measured == pytest.approx(math.sqrt(3), abs=1e-12)
    assert rep.measured >= rep.theta1 - 1e-9


def test_measured_separation_read_twice_matches_all_inputs():
    # non-read-once: the final configurations of all 2^n inputs, deduplicated
    block = mod_block(ModBlockSpec(5, 1, 4))
    p = QbProgram(4, 2, block.transformations * 2, block.initial, block.accepting)
    probs = evaluate_all(p)
    f = TruthTable(4, probs > 0.5)
    finals = [final_configuration(p, bits_of_value(v, 4)) for v in range(16)]
    acc = [c for c, b in zip(finals, f.bits) if b]
    rej = [c for c, b in zip(finals, f.bits) if not b]
    expected = min(np.linalg.norm(a - r) for a in acc for r in rej)
    eps = float(np.min(np.abs(probs - 0.5)))
    assert measured_separation(p, f, eps) == pytest.approx(expected, abs=1e-12)


def test_read_k_classification_builds_the_leaf_block_once(monkeypatch):
    block = mod_block(ModBlockSpec(5, 1, 4))
    p = QbProgram(4, 2, block.transformations * 2, block.initial, block.accepting)
    probs = evaluate_all(p)
    f, eps = TruthTable(4, probs > 0.5), float(np.min(np.abs(probs - 0.5)))
    real, calls = qbp.program._leaf_matrix, []

    def counting(prog):
        calls.append(prog)
        return real(prog)

    monkeypatch.setattr(qbp.program, "_leaf_matrix", counting)
    monkeypatch.setattr(qbp.analysis, "_leaf_matrix", counting)
    configs, accepts, levels = _classified_final_configs(p, f, eps)
    assert len(calls) == 1 and levels is None
    assert configs.shape[1] == 2 and accepts.dtype == bool and accepts.shape == configs.shape[:1]


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


def test_derive_classify_single_input_matches_bulk():
    p = mod_block(ModBlockSpec(3, 2, 5))
    f = mod_truth_table(3, 5)
    obdd = derive_deterministic_obdd(p, f, 0.5, 0.25)
    bulk = obdd.classify_all()
    for v in range(1 << 5):
        assert obdd.classify(bits_of_value(v, 5)) == bool(bulk[v])


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
    assert obdd.accepting == (frozenset({0}) if value else frozenset())
    assert np.array_equal(obdd.classify_all(), f.bits)
    assert packing_width_bound(obdd.theta, p.width) == 1.0


def test_derive_transition_ambiguity_is_hard_error(monkeypatch):
    # a partition that merges distinct mid-level configurations whose images
    # separate again cannot happen for distance-preserving transitions; force
    # one to check the guard
    real_theta_components = qbp.analysis.theta_components

    def lumpy(configs, theta, level=0):
        if level == 1 and len(configs) > 1:
            return qbp.analysis.ThetaPartition(level, theta, np.zeros(len(configs), dtype=np.int64), 1)
        return real_theta_components(configs, theta, level)

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
