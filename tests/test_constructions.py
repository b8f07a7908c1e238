import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qbp import constructions, linalg
from qbp.constructions import (
    GoodSet,
    GoodSetError,
    ModBlockSpec,
    PermutationBp,
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
    Monomial,
    OneSided,
    TruthTable,
    _unitary_dense,
    bits_of_value,
    computes,
    evaluate,
    evaluate_all,
    final_configuration,
    is_read_once,
    is_stable,
    load_program,
    program_digest,
    save_program,
)
from qbp.realify import realify_program


PRIMES_TO_100 = [p for p in range(2, 100) if is_prime(p)]


# -- universal exact program ----------------------------------------------------

def test_universal_single_variable_identity_function():
    f = TruthTable(1, np.array([False, True]))  # f = x1
    p = universal_exact_qbp(f)
    assert p.width == 2
    assert np.allclose(p.transformations[0].u1, [[0, 1], [1, 0]], atol=1e-15)
    assert p.accepting.tolist() == [2]
    assert evaluate(p, "1") == pytest.approx(1.0, abs=1e-12)
    assert evaluate(p, "0") == pytest.approx(0.0, abs=1e-12)


def test_universal_constant_zero_has_empty_accepting_set():
    p = universal_exact_qbp(TruthTable.constant(3, False))
    assert p.accepting.tolist() == []
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


def reference_cyclic_shift(dim: int, shift: int) -> np.ndarray:
    """The dense level universal programs were built from: a permutation
    matrix moving position j to position j + shift (mod dim)."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    src = np.arange(dim)
    m[(src + shift) % dim, src] = 1.0
    return m


def reference_permutation_matrix(perm) -> np.ndarray:
    """The dense level permutation programs were embedded with."""
    w = len(perm)
    m = np.zeros((w, w), dtype=np.complex128)
    for src, dst in enumerate(perm):
        m[dst - 1, src] = 1.0
    return m


def bit_pattern(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", range(1, 7))
def test_universal_levels_are_monomials_with_the_reference_dense_form(rng, n):
    p = universal_exact_qbp(TruthTable.random(n, rng))
    for i, tf in enumerate(p.transformations, start=1):
        assert all(isinstance(u, Monomial) for u in tf.unitaries)
        assert np.array_equal(bit_pattern(tf.u0), bit_pattern(np.eye(1 << n, dtype=np.complex128)))
        shift = reference_cyclic_shift(1 << n, 1 << (n - i))
        assert np.array_equal(bit_pattern(tf.u1), bit_pattern(shift))


def test_universal_n10_holds_only_its_stored_form():
    # the dense levels took 176 MiB and stayed cached after the program was gone
    f = TruthTable.random(10, np.random.default_rng(10))
    gc.collect()
    tracemalloc.start()
    try:
        p = universal_exact_qbp(f)
        held, peak = tracemalloc.get_traced_memory()
        del p
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= peak < 1 << 20
    assert after < 64 << 10


def test_universal_guards_large_n():
    with pytest.raises(ValueError, match="universal construction budget exceeded"):
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


def test_good_table_rows_are_good_multipliers():
    # the closed form is the oracle of the table every good-set test reads
    for p in (p for p in PRIMES_TO_100 if p < 60):
        table = constructions._good_table(p)
        for l in range(1, p):
            assert frozenset(int(k) + 1 for k in np.flatnonzero(table[l - 1])) == good_multipliers(p, l)


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
    assert failing_residues(5, a.multipliers) == ()


def test_sample_good_set_certified_for_various_primes():
    for p in (3, 7, 13, 97):
        gs = sample_good_set(p, seed=0)
        assert gs.t == target_set_size(p)
        assert failing_residues(p, gs.multipliers) == ()


@pytest.mark.parametrize("p, seed, draws", [(5, 13, 2), (5, 1, 1), (97, 0, 1)])
def test_sample_good_set_certifies_each_draw_once(p, seed, draws, monkeypatch):
    # MOD_5 from seed 13 fails its first draw; every draw is checked once,
    # by GoodSet, and the certified one is the set returned
    checked = []
    real = constructions.failing_residues
    monkeypatch.setattr(constructions, "failing_residues", lambda p, ks: checked.append(ks) or real(p, ks))
    gs = sample_good_set(p, seed)
    assert len(checked) == draws and checked[-1] == gs.multipliers
    assert gs.multipliers == tuple(int(k) for k in np.random.default_rng(seed + draws - 1).integers(1, p, size=gs.t))


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
    c = compose_parallel([b])
    assert np.allclose(evaluate_all(c), evaluate_all(b), atol=1e-12)


def test_compose_two_identical_blocks():
    b = mod_block(ModBlockSpec(5, 2, 6))
    c = compose_parallel([b, b])
    assert c.width == 4
    assert np.allclose(evaluate_all(c), evaluate_all(b), atol=1e-12)


def test_compose_acceptance_is_mean_of_blocks():
    blocks = [mod_block(ModBlockSpec(5, k, 6)) for k in (1, 2, 3)]
    c = compose_parallel(blocks)
    expected = sum(evaluate_all(b) for b in blocks) / 3
    assert np.allclose(evaluate_all(c), expected, atol=1e-9)


def test_compose_validation_errors():
    b5 = mod_block(ModBlockSpec(5, 1, 6))
    b3 = mod_block(ModBlockSpec(3, 1, 5))
    with pytest.raises(ValueError, match="n_vars"):
        compose_parallel([b5, b3])
    with pytest.raises(ValueError, match="at least one block"):
        compose_parallel([])


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


def test_compose_sampled_mod5_programs_computes_mod5():
    copies = [build_mod_program(5, 12, strategy="sampled", seed=10 + i) for i in range(2)]
    amped = compose_parallel(copies)
    assert amped.width == copies[0].width + copies[1].width
    table = mod_truth_table(5, 12)
    probs = evaluate_all(amped)
    assert np.all(np.abs(probs[table.bits] - 1.0) <= 1e-9)
    assert np.all(1.0 - probs[~table.bits] >= 0.125 - 1e-9)


def _composed_mod_program(p: int, n: int, strategy: str, seed: int):
    """The paper's MOD_p program as its rotation blocks composed in parallel."""
    good = greedy_good_set(p) if strategy == "greedy" else sample_good_set(p, seed)
    return compose_parallel([mod_block(ModBlockSpec(p, k, n)) for k in good.multipliers])


@pytest.mark.parametrize("strategy", ["greedy", "sampled"])
@pytest.mark.parametrize("p, n", [(3, 1), (3, 12), (5, 2), (7, 14), (13, 6), (23, 20)])
def test_build_mod_program_is_the_composition_of_its_blocks(tmp_path, strategy, p, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2 in some cases
        got = build_mod_program(p, n, strategy, seed=n)
        want = _composed_mod_program(p, n, strategy, seed=n)
    assert (got.n_vars, got.width, got.accepting.tolist(), got.var_sequence) == \
        (want.n_vars, want.width, want.accepting.tolist(), want.var_sequence)
    assert np.array_equal(bit_pattern(got.initial), bit_pattern(want.initial))
    for a, b in zip(got.transformations, want.transformations, strict=True):
        for u, v in zip(a.unitaries, b.unitaries):
            assert type(u) is type(v)
            assert np.array_equal(bit_pattern(_unitary_dense(u)), bit_pattern(_unitary_dense(v)))
    digests = [save_program(q, tmp_path / f"{name}.json") for name, q in (("got", got), ("want", want))]
    assert digests == [program_digest(want)] * 2
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("strategy", ["greedy", "sampled"])
def test_mod_levels_share_one_pair_built_loaded_and_realified(tmp_path, monkeypatch, strategy):
    checked = []
    is_unitary = linalg.is_unitary
    monkeypatch.setattr(linalg, "is_unitary", lambda u, tol: checked.append(u.shape) or is_unitary(u, tol))
    p = build_mod_program(13, 30, strategy, seed=3)
    assert checked == [(p.width, p.width)]  # the dense u1, once for its 30 levels
    path = tmp_path / "mod.json"
    save_program(p, path)
    for q in (p, load_program(path), realify_program(p)):
        first = q.transformations[0].unitaries
        assert all(tf.unitaries[0] is first[0] and tf.unitaries[1] is first[1] for tf in q.transformations)


def test_shared_unitaries_are_scanned_once_built_loaded_and_realified(tmp_path, monkeypatch):
    # storing a dense unitary scans its d^2 entries (``linalg.as_cmatrix``);
    # a level that repeats a stored one is not scanned again, so each step
    # scans as often at n = 300 as at n = 3: once per distinct unitary
    scans = []
    as_cmatrix = linalg.as_cmatrix
    monkeypatch.setattr(linalg, "as_cmatrix", lambda u: scans.append(1) or as_cmatrix(u))

    def counted(step):
        scans.clear()
        step()
        return len(scans)

    per_n = []
    for n in (3, 300):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # p > n/2
            p = build_mod_program(13, n, "sampled", seed=1)
            path = tmp_path / f"mod{n}.json"
            save_program(p, path)
            per_n.append([counted(lambda: build_mod_program(13, n, "sampled", seed=1)),
                          counted(lambda: load_program(path)), counted(lambda: realify_program(p))])
    assert per_n[0] == per_n[1], per_n
    assert per_n[0][0] == 2  # the dense u1: stored once, checked unitary once


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


def test_permutation_levels_are_monomials_with_the_reference_dense_form(rng):
    for width in (1, 2, 5, 9):
        levels = tuple(
            (1 + int(rng.integers(3)), *(tuple(int(x) + 1 for x in rng.permutation(width)) for _ in "01"))
            for _ in range(4)
        )
        q = permutation_bp_to_qbp(PermutationBp(width, levels, 1, frozenset({1})), n_vars=3)
        for tf, (_, p0, p1) in zip(q.transformations, levels):
            assert all(isinstance(u, Monomial) for u in tf.unitaries)
            assert np.array_equal(bit_pattern(tf.u0), bit_pattern(reference_permutation_matrix(p0)))
            assert np.array_equal(bit_pattern(tf.u1), bit_pattern(reference_permutation_matrix(p1)))


def test_permutation_bp_fields_are_integers():
    bp = PermutationBp(np.int64(2), ((np.int32(1), (1, 2), (np.uint8(2), 1)),), np.int8(1),
                       frozenset({np.int16(2)}))
    assert (bp.width, bp.levels, bp.start, bp.accepting) == (2, ((1, (1, 2), (2, 1)),), 1, {2})
    assert all(type(x) is int for x in (bp.width, bp.start, bp.levels[0][0], *bp.levels[0][2]))
    with pytest.raises(ValueError, match="^start state must be an integer, got True$"):
        PermutationBp(2, (), True, frozenset({1}))
    with pytest.raises(ValueError, match=r"^level 1 perm1 entry must be an integer, got 2\.0$"):
        PermutationBp(2, ((1, (1, 2), (2.0, 1)),), 1, frozenset({1}))


def test_permutation_bp_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationBp(2, ((1, (1, 1), (1, 2)),), 1, frozenset({1}))


def test_mod_truth_table_counts():
    t = mod_truth_table(3, 6)
    for v in range(64):
        assert t.bits[v] == (bin(v).count("1") % 3 == 0)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 37, 257, 65537])
def test_mod_truth_table_matches_popcount_for_every_modulus(p):
    # moduli past the largest count (32) and past a uint8 (255) included
    for n in (0, 1, 7, 12):
        counts = np.array([bin(v).count("1") for v in range(1 << n)])
        t = mod_truth_table(p, n)
        assert t.n_vars == n
        assert np.array_equal(t.bits, counts % p == 0)


def test_mod_truth_table_by_doubling_is_the_popcount_table():
    # reference: one popcount of the uint32 input values.  Every prime up to
    # the first past n, and every n from 1 to 24
    for n in range(1, 25):
        counts = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        for p in (q for q in range(2, n + 7) if is_prime(q)):
            t = mod_truth_table(p, n)
            assert not t.bits.flags.writeable
            assert np.array_equal(t.bits, counts % p == 0), (p, n)
