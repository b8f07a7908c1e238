import itertools
import math

import numpy as np
import pytest

from qbp import linalg
from qbp.constructions import (
    GoodSet,
    GoodSetError,
    ModBlockSpec,
    PermutationBp,
    amplify,
    block_final_amplitudes,
    build_mod_program,
    compose_parallel,
    failing_residues,
    good_multipliers,
    greedy_good_set,
    is_prime,
    mod_block,
    mod_truth_table,
    permutation_bp_to_qbp,
    sample_good_set,
    target_set_size,
    universal_exact_qbp,
)
from qbp.program import (
    Margin,
    OneSided,
    QbProgram,
    TruthTable,
    bits_of_value,
    computes,
    evaluate,
    evaluate_all,
    final_configuration,
    is_read_once,
    is_stable,
)

from conftest import chain_probability


PRIMES_TO_100 = [p for p in range(2, 100) if is_prime(p)]


# -- universal exact program ----------------------------------------------------

def test_universal_single_variable_identity_function():
    f = TruthTable(1, np.array([False, True]))  # f = x1
    p = universal_exact_qbp(f)
    assert p.width == 2
    assert np.allclose(p.transformations[0].u1, [[0, 1], [1, 0]], atol=1e-15)
    assert p.accepting == frozenset({2})
    assert evaluate(p, "1") == pytest.approx(1.0, abs=1e-12)
    assert evaluate(p, "0") == pytest.approx(0.0, abs=1e-12)


def test_universal_constant_zero_has_empty_accepting_set():
    p = universal_exact_qbp(TruthTable.constant(3, False))
    assert p.accepting == frozenset()
    assert np.all(evaluate_all(p) == 0.0)


def test_universal_random_function_exact(rng):
    f = TruthTable.random(8, rng)
    p = universal_exact_qbp(f)
    assert is_read_once(p)
    report = computes(p, f, Margin(0.5))
    assert report.holds
    assert report.min_margin == pytest.approx(0.5, abs=1e-12)


def test_universal_final_positions_are_injective(rng):
    # oracle: the 1-amplitude moves by 2^(n-i) for every set bit, so its final
    # position equals the input value; checked against the simulator for n <= 8
    # and by direct index dynamics up to n = 12 (dense width 2^n matrices make
    # larger simulator runs unreasonable).
    for n in (4, 8):
        f = TruthTable.random(n, rng)
        p = universal_exact_qbp(f)
        positions = set()
        for v in range(1 << n):
            psi = final_configuration(p, bits_of_value(v, n))
            pos = int(np.argmax(np.abs(psi)))
            assert pos == v
            positions.add(pos)
        assert len(positions) == 1 << n
    for n in (10, 12):
        positions = set()
        for v in range(1 << n):
            pos = 0
            for i in range(1, n + 1):
                if (v >> (n - i)) & 1:
                    pos = (pos + (1 << (n - i))) % (1 << n)
            positions.add(pos)
        assert len(positions) == 1 << n


def test_universal_guards_large_n():
    with pytest.raises(ValueError, match="n <= 20"):
        universal_exact_qbp(TruthTable(21, np.zeros(1 << 21, dtype=bool)))


# -- rotation blocks ---------------------------------------------------------------

def test_mod_block_p5_rotation_angle():
    p = mod_block(ModBlockSpec(5, 1, 5))
    expected = linalg.rotation_matrix(2 * math.pi / 5)
    for tf in p.transformations:
        assert np.allclose(tf.u1, expected, atol=1e-15)
        assert np.allclose(tf.u0, np.eye(2), atol=1e-15)


def test_mod_block_p2_is_negated_identity():
    p = mod_block(ModBlockSpec(2, 1, 3))
    assert np.allclose(p.transformations[0].u1, [[-1, 0], [0, -1]], atol=1e-12)


def test_mod_block_p7_k3_angle():
    p = mod_block(ModBlockSpec(7, 3, 4))
    assert p.transformations[0].u1[0, 0].real == pytest.approx(math.cos(6 * math.pi / 7), abs=1e-12)


def test_mod_block_is_stable_read_once():
    p = mod_block(ModBlockSpec(7, 2, 9))
    assert is_stable(p)
    assert is_read_once(p)
    assert p.width == 2


def test_mod_block_spec_validation():
    with pytest.raises(ValueError, match="not prime"):
        ModBlockSpec(4, 1, 5)
    with pytest.raises(ValueError, match="multiplier"):
        ModBlockSpec(5, 5, 5)


def test_block_final_amplitudes_multiples_return_home():
    for p, k in ((3, 1), (5, 2), (7, 4)):
        c, s = block_final_amplitudes(ModBlockSpec(p, k, 3 * p), 2 * p)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert s == pytest.approx(0.0, abs=1e-10)


def test_block_final_amplitudes_examples():
    c, s = block_final_amplitudes(ModBlockSpec(5, 1, 5), 1)
    assert (c, s) == (pytest.approx(0.30901699437494745), pytest.approx(0.9510565162951535))
    c, s = block_final_amplitudes(ModBlockSpec(3, 2, 6), 2)
    assert (c, s) == (pytest.approx(-0.5), pytest.approx(0.8660254037844387))


def test_block_final_amplitudes_match_simulator(rng):
    for p in (2, 3, 5):
        for k in range(1, p):
            spec = ModBlockSpec(p, k, 8)
            prog = mod_block(spec)
            for ones in range(0, 9):
                positions = rng.choice(8, size=ones, replace=False)
                bits = [0] * 8
                for i in positions:
                    bits[int(i)] = 1
                psi = final_configuration(prog, bits)
                c, s = block_final_amplitudes(spec, ones)
                assert abs(psi[0] - c) <= 1e-9
                assert abs(psi[1] - s) <= 1e-9


def test_block_acceptance_depends_only_on_residue():
    prog = mod_block(ModBlockSpec(3, 2, 6))
    probs = evaluate_all(prog)
    for v in range(64):
        residue = bin(v).count("1") % 3
        rep = probs[(1 << residue) - 1 if residue else 0]  # 0, 1, 11 as representatives
        assert probs[v] == pytest.approx(rep, abs=1e-12)


# -- good multipliers ------------------------------------------------------------------

def test_good_multipliers_examples():
    assert good_multipliers(3, 1) == frozenset({1, 2})
    assert good_multipliers(3, 2) == frozenset({1, 2})
    # direct evaluation: cos^2(2 pi k / 5) <= 1/2 holds for k = 1, 4
    assert good_multipliers(5, 1) == frozenset({1, 4})
    assert good_multipliers(5, 2) == frozenset({2, 3})


def test_good_multipliers_cardinality_lower_bound():
    for p in PRIMES_TO_100:
        if p == 2:
            continue
        for l in range(1, p):
            assert len(good_multipliers(p, l)) >= (p - 1) / 2


def test_good_multipliers_p2_is_degenerate():
    # the pi rotation fixes the accepting axis, so no multiplier is good
    assert good_multipliers(2, 1) == frozenset()


def test_good_multipliers_rejects_zero_residue():
    with pytest.raises(ValueError, match="residue"):
        good_multipliers(5, 0)
    with pytest.raises(ValueError, match="residue"):
        good_multipliers(5, 5)


def test_failing_residues_reports_deficits():
    assert failing_residues(5, [1]) == (2, 3)
    assert failing_residues(5, [1, 2]) == ()
    assert failing_residues(3, [1]) == ()


def test_good_set_certificate_enforced():
    with pytest.raises(GoodSetError) as exc:
        GoodSet(5, (1, 1, 1, 1, 1))
    assert exc.value.failing_residues == (2, 3)


def test_target_set_size():
    assert target_set_size(5) == 26
    assert target_set_size(97) == 74
    assert target_set_size(3) == 18


def test_sample_good_set_reproducible():
    a = sample_good_set(5, seed=1)
    b = sample_good_set(5, seed=1)
    assert a.multipliers == b.multipliers
    assert a.t == 26
    for l in range(1, 5):
        assert a.good_fraction(l) >= 0.25


def test_sample_good_set_certified_for_various_primes():
    for p in (3, 7, 13, 97):
        gs = sample_good_set(p, seed=0)
        assert gs.t == target_set_size(p)
        assert failing_residues(p, gs.multipliers) == ()


def test_greedy_good_set_small_primes():
    assert greedy_good_set(3).multipliers == (1,)
    g5 = greedy_good_set(5)
    assert g5.t <= 4
    # exhaustive oracle: smallest certifying multiset for p = 5
    best = None
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 5), size):
            if not failing_residues(5, combo):
                best = size
                break
        if best:
            break
    assert best is not None
    assert g5.t >= best


def test_greedy_good_set_all_primes_to_100():
    for p in PRIMES_TO_100:
        if p == 2:
            continue
        gs = greedy_good_set(p)
        assert gs.t <= p - 1
        assert failing_residues(p, gs.multipliers) == ()


# -- composition ----------------------------------------------------------------------------

def test_compose_single_block_preserves_acceptance():
    b = mod_block(ModBlockSpec(5, 1, 6))
    c = compose_parallel([b], [1.0])
    assert np.allclose(evaluate_all(c), evaluate_all(b), atol=1e-12)


def test_compose_two_identical_blocks():
    b = mod_block(ModBlockSpec(5, 2, 6))
    c = compose_parallel([b, b])
    assert c.width == 4
    assert np.allclose(evaluate_all(c), evaluate_all(b), atol=1e-12)


def test_compose_acceptance_is_weighted_sum(rng):
    blocks = [mod_block(ModBlockSpec(5, k, 6)) for k in (1, 2, 3)]
    w = rng.uniform(0.1, 1.0, size=3)
    w /= w.sum()
    c = compose_parallel(blocks, list(w))
    expected = sum(wi * evaluate_all(b) for wi, b in zip(w, blocks))
    assert np.allclose(evaluate_all(c), expected, atol=1e-9)


def test_compose_validation_errors():
    b5 = mod_block(ModBlockSpec(5, 1, 6))
    b3 = mod_block(ModBlockSpec(3, 1, 5))
    with pytest.raises(ValueError, match="n_vars"):
        compose_parallel([b5, b3])
    with pytest.raises(ValueError, match="weights sum"):
        compose_parallel([b5, b5], [0.5, 0.6])
    with pytest.raises(ValueError, match="weights"):
        compose_parallel([b5, b5], [1.5, -0.5])


# -- the full divisibility program --------------------------------------------------------------

def test_build_mod_program_greedy_p3():
    prog = build_mod_program(3, 12, strategy="greedy")
    assert prog.width == 2
    assert is_stable(prog) and is_read_once(prog)
    report = computes(prog, mod_truth_table(3, 12), OneSided())
    assert report.holds


def test_build_mod_program_sampled_width():
    prog = build_mod_program(5, 10, strategy="sampled", seed=1)
    assert prog.width == 52  # 2 * ceil(16 ln 5)
    probs = evaluate_all(prog)
    table = mod_truth_table(5, 10)
    assert np.all(np.abs(probs[table.bits] - 1.0) <= 1e-9)
    assert np.all(1.0 - probs[~table.bits] >= 0.125 - 1e-9)


def test_build_mod_program_warns_outside_regime():
    with pytest.warns(UserWarning, match="exceeds n/2"):
        build_mod_program(7, 10, strategy="greedy")


def test_build_mod_program_rejects_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        build_mod_program(4, 12)


def test_amplify_single_copy_unchanged():
    prog = build_mod_program(3, 8, strategy="greedy")
    assert amplify(prog, 1) is prog


def test_amplify_width_and_acceptance():
    prog = build_mod_program(5, 12, strategy="greedy")
    amped = amplify(prog, 3)
    assert amped.width == 3 * prog.width
    assert np.allclose(evaluate_all(amped), evaluate_all(prog), atol=1e-9)


def test_amplify_with_resampled_copies():
    copies = [build_mod_program(5, 12, strategy="sampled", seed=10 + i) for i in range(2)]
    amped = amplify(copies[0], 2, resample=lambda i: copies[i])
    assert amped.width == copies[0].width + copies[1].width
    table = mod_truth_table(5, 12)
    probs = evaluate_all(amped)
    assert np.all(np.abs(probs[table.bits] - 1.0) <= 1e-9)
    assert np.all(1.0 - probs[~table.bits] >= 0.125 - 1e-9)


# -- permutation branching programs ----------------------------------------------------------------

def classical_bp_decision(bp: PermutationBp, bits) -> bool:
    state = bp.start
    for var, p0, p1 in bp.levels:
        perm = p1 if bits[var - 1] else p0
        state = perm[state - 1]
    return state in bp.accepting


def test_permutation_bp_identity_accepts_everything():
    bp = PermutationBp(3, ((1, (1, 2, 3), (1, 2, 3)),), 2, frozenset({2}))
    q = permutation_bp_to_qbp(bp)
    assert np.all(evaluate_all(q) == pytest.approx(1.0, abs=1e-12))


def test_permutation_bp_width2_x1():
    bp = PermutationBp(2, ((1, (1, 2), (2, 1)),), 1, frozenset({2}))
    q = permutation_bp_to_qbp(bp)
    assert evaluate(q, "0") == pytest.approx(0.0, abs=1e-12)
    assert evaluate(q, "1") == pytest.approx(1.0, abs=1e-12)


def test_permutation_bp_matches_classical_walk(rng):
    width, n = 5, 4
    levels = []
    for _ in range(6):
        var = int(rng.integers(1, n + 1))
        p0 = tuple(int(x) + 1 for x in rng.permutation(width))
        p1 = tuple(int(x) + 1 for x in rng.permutation(width))
        levels.append((var, p0, p1))
    bp = PermutationBp(width, tuple(levels), 1, frozenset({2, 4}))
    q = permutation_bp_to_qbp(bp, n_vars=n)
    for v in range(1 << n):
        bits = bits_of_value(v, n)
        prob = evaluate(q, bits)
        assert prob == pytest.approx(1.0 if classical_bp_decision(bp, bits) else 0.0, abs=1e-9)
        assert min(abs(prob - 0.0), abs(prob - 1.0)) <= 1e-9


def test_permutation_bp_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationBp(2, ((1, (1, 1), (1, 2)),), 1, frozenset({1}))


def test_mod_truth_table_counts():
    t = mod_truth_table(3, 6)
    for v in range(64):
        assert t.bits[v] == (bin(v).count("1") % 3 == 0)
