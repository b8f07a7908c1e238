"""The theta-component derivation against a per-configuration reference.

The reference below is the loop form of the derivation: the final
configurations are classified one at a time with ``accept_probability``,
components come from a Python union-find, and the transition tables are
filled entry by entry.  The array form in ``qbp.analysis`` must give
bit-identical results on every program.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qbp.analysis import (
    CHAIN_SLACK,
    _near_pairs,
    derive_deterministic_obdd,
    measured_separation,
    reachable_configurations,
)
from qbp.constructions import ModBlockSpec, build_mod_program, mod_block, universal_exact_qbp
from qbp.program import TruthTable, accept_probability, evaluate_all
from qbp.realify import realify_program

from conftest import random_program


# -- reference: the derivation one configuration at a time --------------------------

def ref_components(configs, theta):
    m = len(configs)
    parent = list(range(m))
    rank = [1] * m

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    mat = np.array([np.asarray(c, dtype=np.complex128) for c in configs])
    ii, jj, _ = _near_pairs(mat, theta + CHAIN_SLACK)
    for i, j in zip(ii.tolist(), jj.tolist()):
        ru, rv = find(i), find(j)
        if ru == rv:
            continue
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        if rank[ru] == rank[rv]:
            rank[ru] += 1
    ids, component_of = {}, {}
    for i in range(m):
        component_of[i] = ids.setdefault(find(i), len(ids))
    return component_of, len(ids)


def ref_classified(p, f, epsilon):
    probs = evaluate_all(p)
    ok = np.where(f.bits, probs >= 0.5 + epsilon - 1e-12, probs <= 0.5 - epsilon + 1e-12)
    assert ok.all()
    levels = reachable_configurations(p)
    accepting, rejecting = [], []
    for c in levels[-1].configs:
        prob = accept_probability(c, p)
        if prob >= 0.5 + epsilon - 1e-12:
            accepting.append(c)
        elif prob <= 0.5 - epsilon + 1e-12:
            rejecting.append(c)
        else:
            raise RuntimeError("inside the margin band")
    return accepting, rejecting, levels


def ref_min_cross_distance(a, b):
    if not a or not b:
        return math.inf
    return math.sqrt(min(float(np.sum(np.abs(y - x) ** 2)) for x in a for y in b))


def ref_derive(p, f, theta, epsilon):
    accepting_cfgs, rejecting_cfgs, levels = ref_classified(p, f, epsilon)
    sep = ref_min_cross_distance(accepting_cfgs, rejecting_cfgs)
    if theta is None:
        theta = sep
    chain_theta = theta - 1e-9 if theta > 2e-9 else theta / 2
    parts = [ref_components(list(lv.configs), chain_theta) for lv in levels]
    tables = []
    for j in range(1, len(levels)):
        (prev_of, prev_count), (cur_of, _) = parts[j - 1], parts[j]
        trans = levels[j].prev_transitions
        table = np.full((prev_count, 2), -1, dtype=np.int64)
        for i in range(len(levels[j - 1].configs)):
            c = prev_of[i]
            for b in (0, 1):
                tgt = cur_of[int(trans[i, b])]
                assert table[c, b] in (-1, tgt)
                table[c, b] = tgt
        tables.append(table)
    final_of, _ = parts[-1]
    comp_class = {}
    for i, cfg in enumerate(levels[-1].configs):
        is_acc = accept_probability(cfg, p) >= 0.5 + epsilon - 1e-12
        assert comp_class.setdefault(final_of[i], is_acc) == is_acc
    return {
        "theta": theta,
        "level_counts": tuple(count for _, count in parts),
        "reachable_counts": tuple(len(lv.configs) for lv in levels),
        "transitions": tables,
        "accepting": frozenset(c for c, v in comp_class.items() if v),
    }


def ref_classify_all(ref, n):
    values = np.arange(1 << n)
    comp = np.zeros(1 << n, dtype=np.int64)
    for j, table in enumerate(ref["transitions"], start=1):
        comp = table[comp, (values >> (n - j)) & 1]
    return np.isin(comp, sorted(ref["accepting"]))


# -- programs -----------------------------------------------------------------------

def make_program(kind, seed, n):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return random_program(rng, d=int(rng.integers(2, 6)), n=n)
    if kind == "mod":
        p = int(rng.choice([3, 5, 7]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return build_mod_program(p, n) if rng.integers(2) else mod_block(ModBlockSpec(p, 1, n))
    if kind == "universal":
        return universal_exact_qbp(TruthTable.random(min(n, 5), rng))
    if kind == "realified-haar":
        return realify_program(random_program(rng, d=int(rng.integers(2, 4)), n=n))
    # realified-universal
    return realify_program(universal_exact_qbp(TruthTable.random(min(n, 4), rng)))


def table_and_margin(p):
    """The table the program computes at its measured margin, and that margin."""
    probs = evaluate_all(p)
    margin = float(np.min(np.abs(probs - 0.5)))
    assume(margin >= 1e-6)
    return TruthTable(p.n_vars, probs > 0.5), min(margin, 0.5)


KINDS = ["haar", "mod", "universal", "realified-haar", "realified-universal"]


@given(
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from([1.0, 0.5]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_derivation_matches_reference_read_once(kind, seed, n, shrink):
    p = make_program(kind, seed, n)
    f, margin = table_and_margin(p)
    epsilon = margin * shrink
    accepting_cfgs, rejecting_cfgs, _ = ref_classified(p, f, epsilon)
    sep = ref_min_cross_distance(accepting_cfgs, rejecting_cfgs)
    assert measured_separation(p, f, epsilon) == sep
    for theta in (None, sep / 2):
        ref = ref_derive(p, f, theta, epsilon)
        obdd = derive_deterministic_obdd(p, f, theta, epsilon)
        assert obdd.theta == ref["theta"]
        assert obdd.level_counts == ref["level_counts"]
        assert obdd.reachable_counts == ref["reachable_counts"]
        assert len(obdd.transitions) == len(ref["transitions"])
        for got, want in zip(obdd.transitions, ref["transitions"]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert obdd.accepting.tolist() == sorted(ref["accepting"])
        assert np.array_equal(obdd.classify_all(), ref_classify_all(ref, p.n_vars))
