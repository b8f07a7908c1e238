"""The one memory budget: every site that sizes arrays from an outside integer
refuses, before allocating, a step that needs more than
``linalg.MEMORY_BUDGET_BYTES``, and accepts one that needs exactly that."""

import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from qbp import analysis, cli, constructions, linalg, program, realify
from qbp.program import QbProgram, QuantumTransformation, TruthTable

from conftest import haar_unitary, random_program, random_state, superposed

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
    # the block and the copy, gather and product of the columns one bit
    # selects (4 blocks), 32 bytes per column, the 0/1 check (3 bytes per
    # input bit) and numpy's ufunc buffers
    p = _identity_program(4, 16, range(1, 5))
    inputs = np.zeros((8192, 4), dtype=np.int8)
    need = 4 * 16 * 16 * 8192 + 32 * 8192 + 3 * 8192 * 4 + 3 * 16 * np.getbufsize()
    return (lambda: program.evaluate_batch(p, inputs)), need, "evaluation", None


def _leaf_block():
    # width 8 at n = 16: chunks of 2^13 columns, so three split levels; the
    # walk holds three doubled blocks of 2^14 columns, three chunks of one
    # level's temporaries, 32 bytes per chunk column, numpy's ufunc buffers
    # and 2^16 probabilities
    p = _identity_program(16, 8, range(1, 17))
    need = 8 * 16 * ((3 << 14) + (3 << 13)) + (32 << 13) + 3 * 16 * np.getbufsize() + (8 << 16)
    return (lambda: program._leaf_walk(p)), need, "evaluation", None


# the split walk over a DAG of widths w_0..w_k cuts it at the h where
# w_h 2^(k-h) + 2^h is least, and holds 12 bytes per high id and middle-table
# entry, a value per entry and per leaf, its caller's per-input bytes, 32
# bytes per node of the last level and 16 KiB

def _split_walk_count(widths, value_bytes: int, per_input: int, n_vars: int) -> int:
    k = len(widths) - 1
    h = min(range(k + 1), key=lambda j: (widths[j] << k - j) + (1 << j))
    entries = widths[h] << k - h
    return (12 * ((1 << h) + entries) + value_bytes * (entries + (1 << k)) + (per_input << n_vars)
            + 32 * widths[-1] + (16 << 10))


def _count():
    # width 8 at n = 18, counted (u0 and u1 are the identity): the count DAG
    # has j + 1 nodes at level j, cut at h = 11 into 2^11 high ids and a
    # 12 x 2^7 table, and T is gathered to 2^18 leaves
    p = _identity_program(18, 8, range(1, 19))
    need = _split_walk_count(range(1, 20), 8, 0, 18)
    assert need == 12 * ((1 << 11) + (12 << 7)) + 8 * ((12 << 7) + (1 << 18)) + 32 * 19 + (16 << 10)
    return (lambda: program._leaf_count(p)), need, "evaluation", None


def _counted_check():
    # the check of the same program against a table: the same walk of a
    # one-byte verdict code, a byte per input for the codes in input order
    # and up to 8 bytes per failing input
    p = _identity_program(18, 8, range(1, 19))
    f = TruthTable.constant(18, False)
    return ((lambda: program.computes(p, f, program.OneSided())), _split_walk_count(range(1, 20), 1, 9, 18),
            "evaluation", None)


def _one_hot_walk():
    # width 1024 at n = 16, one-hot (u0 a cyclic shift, so not counted): 60
    # bytes per leaf, 24 per state and numpy's ufunc buffers, after the
    # 2^16-input check
    shift = program.Monomial(np.roll(np.arange(1024), 1), np.ones(1024))
    tfs = tuple(QuantumTransformation(j, shift, np.eye(1024)) for j in range(1, 17))
    p = QbProgram(16, 1024, tfs, np.eye(1024)[0], frozenset({1}))
    need = (60 << 16) + 24 * 1024 + 3 * 16 * np.getbufsize()
    return (lambda: program.evaluate_all(p)), need, "evaluation", None


def _per_input():
    p = _identity_program(16, 1, ())
    return (lambda: program.evaluate_all(p)), 32 << 16, "evaluation", None


def _reachable_level():
    # level 9 of the universal n=9 program started from a superposition: 512
    # dense candidates of width 512, their kept block and their dedup's
    # bookkeeping, beside the levels kept (1 + 2 + ... + 256 rows and
    # 1 + 2 + ... + 128 transition rows), numpy's ufunc buffer and 16 KiB
    p = superposed(constructions.universal_exact_qbp(TruthTable.random(9, np.random.default_rng(9))))
    prefix = _truncated(p, 8)
    need = (2 * 512 * 512 * 16 + 512 * analysis._DEDUP_BYTES + 511 * 512 * 16 + 255 * 16
            + 16 * np.getbufsize() + (16 << 10))
    return ((lambda: analysis.reachable_configurations(p)), need, "configuration",
            lambda: analysis.reachable_configurations(prefix))


def _one_hot_reachable_level():
    # level 14 of the universal n=14 program: 2^14 one-hot candidates
    p = constructions.universal_exact_qbp(TruthTable.random(14, np.random.default_rng(14)))
    prefix = _truncated(p, 13)
    return ((lambda: analysis.reachable_configurations(p)), analysis._ONE_HOT_BYTES << 14, "configuration",
            lambda: analysis.reachable_configurations(prefix))


def _separation_per_input():
    # width 1 reading 8 of 18 variables, after its 9 levels (one row each)
    # are enumerated: the split walk of the final row's verdict code to the
    # 2^8 leaves and 9 bytes per input (the codes in input order and up to 8
    # bytes per failing input)
    p = _identity_program(18, 1, range(1, 9))
    f = TruthTable.constant(18, True)
    return ((lambda: analysis.measured_separation(p, f, 0.5)), _split_walk_count([1] * 9, 1, 9, 18),
            "evaluation", None)


def _gram():
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)) for _ in range(2))
    return (lambda: analysis._min_cross_distance(a, b)), 32 * 256 * 256, "separation", None


def _classify_all():
    # the minimal OBDD of a random table at n = 20: the split walk of a bool
    # per node of its last level to 2^20 leaves, cut at h = 17 below the
    # widest level, and a byte per input for the leaves in input order
    obdd = analysis.min_obdd_width(TruthTable.random(20, np.random.default_rng(20)))
    return obdd.classify_all, _split_walk_count(obdd.level_widths, 1, 1, 20), "evaluation", None


def _width_oracle():
    f = TruthTable.random(19, np.random.default_rng(19))
    return (lambda: analysis.min_obdd_width(f)), 6 << 19, "width oracle", None


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


def _program_load():
    # the universal n = 6 file, parsed at 16 bytes per file byte; the lambda
    # keeps the temporary directory alive
    f = TruthTable.random(6, np.random.default_rng(6))
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "universal.json")
    program.save_program(constructions.universal_exact_qbp(f), path)
    need = os.path.getsize(path) * program._LOAD_BYTES_PER_FILE_BYTE
    return (lambda: (tmp, program.load_program(path))), need, "program load", None


def _realify():
    # the universal n = 6 program: 6 levels of width 128 realified from 7
    # distinct unitaries (one shared identity and 6 shifts), one realified
    # unitary kept for each and 2 KiB per level, 4 unitaries for one level's
    # temporaries and 16 KiB once
    p = constructions.universal_exact_qbp(TruthTable.random(6, np.random.default_rng(6)))
    need = 16 * 128 * 128 * (7 + 4) + 2048 * 6 + (16 << 10)
    return (lambda: realify.realify_program(p)), need, "realify", None


def _mod_construction():
    # MOD_3 at n = 8000: one shared pair of width 2, counted with numpy's
    # ufunc buffers, beside 8000 levels and 16 KiB once
    width = 2 * constructions.greedy_good_set(3).t
    need = (16 * (4 * width * width + 2 * np.getbufsize()) + 8000 * constructions._LEVEL_BYTES
            + (16 << 10))
    return (lambda: constructions.build_mod_program(3, 8000)), need, "mod construction", None


def _good_set():
    return (lambda: constructions.failing_residues(367, (1, 2))), 16 * 366 * 366, "good set", None


def _truth_table():
    return (lambda: constructions.mod_truth_table(3, 20)), 2 << 20, "truth table", None


def _truth_table_file():
    # a saved random table at n = 19: 5 bytes per file byte, for the text of
    # a file that is not ASCII; the lambda keeps the temporary directory alive
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "f.tt")
    cli.save_truth_table(TruthTable.random(19, np.random.default_rng(19)), path)
    need = 5 * os.path.getsize(path)
    return (lambda: (tmp, cli.load_truth_table(path))), need, "truth table", None


def _sweep_range():
    return ((lambda: cli._parse_range("0:99999", "p range")), 100000 * cli._SWEEP_POINT_BYTES,
            "sweep", None)


SITES = {
    "evaluation batch": _batch,
    "evaluation leaf block": _leaf_block,
    "evaluation count": _count,
    "evaluation counted check": _counted_check,
    "evaluation one-hot walk": _one_hot_walk,
    "evaluation per-input data": _per_input,
    "reachable level": _reachable_level,
    "one-hot reachable level": _one_hot_reachable_level,
    "separation per-input data": _separation_per_input,
    "separation Gram matrix": _gram,
    "Obdd.classify_all": _classify_all,
    "min_obdd_width": _width_oracle,
    "universal_exact_qbp": _universal,
    "Monomial.dense": _dense_level,
    "program format": _program_format,
    "program load": _program_load,
    "realify": _realify,
    "build_mod_program": _mod_construction,
    "_good_table": _good_set,
    "mod_truth_table": _truth_table,
    "load_truth_table": _truth_table_file,
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


@pytest.mark.parametrize("reads, table", [
    ("all", True), ("all shuffled", True), ("all shuffled", False), ("half", True), ("half", False),
])
def test_leaf_walk_peak_within_its_count(reads, table, monkeypatch):
    # width 1 at n = 18, so the enumeration holds next to nothing: the
    # separation's split walk of the verdict codes and the codes in input
    # order (every input fails against the constant-False table), then the
    # derived OBDD's classify_all.  Measured: 1.04 to 2.07 bytes per input
    # for the separation, 9.04 to 9.08 where every input fails, and for
    # classify_all 1.04 where every variable is read in order, 2.01 in a
    # shuffled order and 1.01 where half are
    n = 18
    order = {"all": range(1, n + 1), "half": range(1, n // 2 + 1),
             "all shuffled": np.random.default_rng(n).permutation(n) + 1}[reads]
    p = _identity_program(n, 1, [int(v) for v in order])
    f = TruthTable.constant(n, table)
    counted = {}
    for module in (linalg, analysis):
        monkeypatch.setattr(module, "check_budget", lambda need, stage, what: counted.setdefault(stage, need))

    def separation():
        try:
            analysis.measured_separation(p, f, 0.5)
        except ValueError as e:
            assert not table and "does not compute the table" in str(e)

    calls = [separation]
    if table:
        calls.append(analysis.derive_deterministic_obdd(p, f, None, 0.5).classify_all)
    for call in calls:
        counted.clear()
        peak, _ = _traced(call)
        assert 0 < peak <= counted["evaluation"], (peak / (1 << n), counted["evaluation"] / (1 << n))


@pytest.mark.parametrize("kind", ["mod", "random"])
@pytest.mark.parametrize("shuffled", [False, True], ids=["identity order", "shuffled order"])
def test_width_oracle_peak_within_its_count(kind, shuffled):
    # a MOD_7 table ranks every level above its packed bottom through the
    # presence table; a random one sorts its wide levels near the root, from
    # level n - 4 on at n = 18.  Measured: 2.4 bytes per entry for MOD_7 and
    # 4.2 for the random table, in either order
    n = 18
    rng = np.random.default_rng(n)
    f = constructions.mod_truth_table(7, n) if kind == "mod" else TruthTable.random(n, rng)
    order = tuple(int(v) + 1 for v in rng.permutation(n)) if shuffled else None
    peak, _ = _traced(lambda: analysis.min_obdd_width(f, order))
    assert 0 < peak <= 6 << n, peak / (1 << n)


@pytest.mark.parametrize("p", [2, 7, 23])
def test_truth_table_peak_within_its_count(p):
    # the counts mod p, one byte per entry, made into the table in place,
    # beside the last doubling step's wrapped copy: measured at 1.5 bytes per
    # entry (5 for the popcount of the uint32 input values it replaced); a
    # prime past n needs the table alone, 1.0
    n = 20
    peak, _ = _traced(lambda: constructions.mod_truth_table(p, n))
    assert 0 < peak <= 2 << n, peak / (1 << n)


@pytest.mark.parametrize("end", ["\n", "\r\n", " \t\n"], ids=["lf", "crlf", "trailing blanks"])
def test_truth_table_file_peak_within_3_bytes_an_entry(end, tmp_path):
    # each copy of the bits line is freed once the next is made, and no \r
    # is replaced where the file has none.  Measured: 2.0 bytes per entry
    # (5.0 before: the file's bytes, its text, the partition copies and the
    # encoded line)
    n = 20
    f = TruthTable.random(n, np.random.default_rng(n))
    path = tmp_path / "f.tt"
    path.write_bytes(f"{n}{end}".encode() + (f.bits.astype(np.uint8) + ord("0")).tobytes() + end.encode())
    peak, _ = _traced(lambda: cli.load_truth_table(path))
    assert 0 < peak <= 3 << n, peak / (1 << n)
    assert np.array_equal(cli.load_truth_table(path).bits, f.bits)


@pytest.mark.parametrize("shared", [False, True], ids=["fresh levels", "a repeated pair"])
def test_format_peak_within_its_count(shared, tmp_path):
    # Haar entries of width 64: the writer holds one matrix's dense form,
    # sort and texts, and where the next level repeats the pair, the pair's
    # canonical and file texts beside them.  Measured: 193 and 236.6 bytes
    # per entry of the initial vector and one level
    rng = np.random.default_rng(64)
    pair = [program._stored(haar_unitary(rng, 64)) for _ in range(2)]
    tfs = tuple(QuantumTransformation._sharing(j, *(pair if shared else map(program._stored, (
        haar_unitary(rng, 64), haar_unitary(rng, 64))))) for j in (1, 2, 3))
    p = QbProgram(3, 64, tfs, random_state(rng, 64), frozenset({1}))
    count = 64 * (1 + 2 * 64) * program._FORMAT_BYTES_PER_ENTRY
    for call in (lambda: program.save_program(p, tmp_path / "p.json"), lambda: program.program_digest(p)):
        peak, _ = _traced(call)
        assert 0 < peak <= count, peak / (count / program._FORMAT_BYTES_PER_ENTRY)


def test_realify_counts_a_shared_pair_once():
    # 1200 levels of width 84 sharing one pair: 2 realified unitaries of
    # width 168, not 2400 (1.1 GB, refused before the count knew sharing)
    p = constructions.build_mod_program(13, 1200, "sampled", seed=1)
    counted = {}
    real = linalg.check_budget

    def spy(need, stage, what):
        counted.setdefault(stage, need)
        real(need, stage, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "check_budget", spy)
        q = realify.realify_program(p)
    assert counted["realify"] == 16 * 168 * 168 * (2 + 4) + 2048 * 1200 + (16 << 10)
    assert 2 * 16 * 168 * 168 * 1200 > linalg.MEMORY_BUDGET_BYTES
    assert q.width == 168 and len({id(u) for tf in q.transformations for u in tf.unitaries}) == 2


def test_realify_keeps_no_dense_form_on_its_source():
    # the universal program's levels are Monomials: realify builds each one's
    # dense form (256 KiB here) for its level only, so with its result
    # dropped the call leaves nothing held on the source
    p = constructions.universal_exact_qbp(TruthTable.random(7, np.random.default_rng(7)))

    def call():
        realify.realify_program(p)

    _, held = _traced(call)
    assert held < 16 * 128 * 128
    assert not any("dense" in vars(u) for tf in p.transformations for u in tf.unitaries)


@pytest.mark.parametrize("make", [
    *(lambda n=n: constructions.universal_exact_qbp(TruthTable.random(n, np.random.default_rng(n)))
      for n in (6, 7, 8)),
    lambda: constructions.build_mod_program(3, 6),
    lambda: constructions.build_mod_program(5, 10),
    lambda: constructions.build_mod_program(13, 300, "sampled", seed=1),
    *(lambda d=d, n=n: random_program(np.random.default_rng(d), d=d, n=n) for d, n in ((2, 100), (8, 30), (32, 6))),
], ids=["universal n=6", "universal n=7", "universal n=8", "mod 3", "mod 5", "mod 13 shared pair",
        "haar 2", "haar 8", "haar 32"])
def test_realify_peak_within_its_count(make, monkeypatch):
    # measured: the universal programs' Monomial levels peak at about half a
    # realified unitary beyond the one per distinct source unitary they
    # keep, dense levels at up to 3.7, and narrow programs' Python objects
    # at up to 1.2 KiB a level and 7.2 KiB once.  The width-84 MOD_13 pair,
    # shared by 300 levels, is realified once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = make()
    counted = {}
    monkeypatch.setattr(linalg, "check_budget", lambda need, stage, what: counted.setdefault(stage, need))
    peak, _ = _traced(lambda: realify.realify_program(p))
    assert 0 < peak <= counted["realify"], (peak, counted["realify"])


def test_universal_accepting_set_holds_8_bytes_a_state():
    # the all-ones table accepts at all 2^16 states, the all-zeros one at
    # none: the accepting set is one int64 array, made in place.  Measured:
    # 7.9 to 8.001 bytes per state more, held and at the peak, as the other
    # objects of the process happen to be laid out
    n = 16
    (zeros_peak, zeros_held), (ones_peak, ones_held) = (
        _traced(lambda: constructions.universal_exact_qbp(TruthTable.constant(n, v))) for v in (False, True))
    assert ones_held - zeros_held <= (8 << n) + 1024
    assert ones_peak - zeros_peak <= (16 << n) + 1024


@pytest.mark.parametrize("bits", ["zeros", "ones", "mixed"])
@pytest.mark.parametrize("make, batch", [
    (lambda: constructions.universal_exact_qbp(TruthTable.random(10, np.random.default_rng(10))), 256),
    (lambda: constructions.build_mod_program(13, 30, "sampled", seed=1), 64),
    (lambda: constructions.build_mod_program(13, 30, "sampled", seed=1), 1024),
    (lambda: random_program(np.random.default_rng(8), d=8, n=20), 1024),
    (lambda: random_program(np.random.default_rng(2), d=2, n=100), 1024),
], ids=["universal n=10", "mod 13 B=64", "mod 13 B=1024", "haar 8", "haar 2"])
def test_batch_peak_within_its_count(make, batch, bits, monkeypatch):
    # measured: about 2 blocks where one bit selects every column, about 2.5
    # with mixed bits; at width 2 the 0/1 check of the inputs outweighs the
    # block
    p = make()
    inputs = {"zeros": np.zeros((batch, p.n_vars), dtype=np.int64),
              "ones": np.ones((batch, p.n_vars), dtype=np.int64),
              "mixed": np.random.default_rng(batch).integers(0, 2, size=(batch, p.n_vars))}[bits]
    counted = {}
    monkeypatch.setattr(linalg, "check_budget", lambda need, stage, what: counted.setdefault(stage, need))
    peak, _ = _traced(lambda: program.evaluate_batch(p, inputs))
    assert 0 < peak <= counted["evaluation"], (peak, counted["evaluation"])


@pytest.mark.parametrize("p, n, strategy", [
    (3, 1, "greedy"), (3, 5000, "greedy"), (13, 14, "sampled"), (13, 1000, "sampled"),
    (37, 300, "sampled"), (101, 20, "sampled"),
])
def test_mod_construction_peak_within_its_count(p, n, strategy, monkeypatch):
    # the levels share one pair: measured up to 181 bytes a level, and 4.7
    # dense u1 of width 84 to 268 (the unitarity check's temporaries and
    # numpy's ufunc buffers) once; the good set's table is counted by its own
    # check and is small beside these for p <= 101
    counted = {}
    monkeypatch.setattr(linalg, "check_budget", lambda need, stage, what: counted.setdefault(stage, need))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        peak, _ = _traced(lambda: constructions.build_mod_program(p, n, strategy, seed=1))
    assert 0 < peak <= counted["mod construction"], (peak, counted["mod construction"])


@pytest.mark.parametrize("make", [
    lambda: constructions.universal_exact_qbp(TruthTable.random(10, np.random.default_rng(10))),
    lambda: constructions.build_mod_program(13, 30, "sampled", seed=1),
    lambda: random_program(np.random.default_rng(8), d=8, n=20),
], ids=["universal n=10", "mod 13", "haar 8"])
def test_batch_with_constant_bits_works_on_the_block(make):
    # where one bit selects every column, a level is applied to the whole
    # block, not to a copy of it: 4.01 blocks traced for the universal
    # program (3 for dense levels) when the selection was copied, 2.0 to 2.1
    # now, within the 4 blocks the budget counts
    p = make()
    block = 16 * p.width * 1024
    for bits in (np.zeros((1024, p.n_vars), dtype=np.int8), np.ones((1024, p.n_vars), dtype=np.int8)):
        peak, _ = _traced(lambda: program.evaluate_batch(p, bits))
        assert peak <= 2.25 * block, peak / block


def _counter(w: int, n: int, order) -> QbProgram:
    """A MOD_w counter on n variables reading those of ``order``."""
    step = tuple(s % w + 1 for s in range(1, w + 1))
    levels = tuple((v, tuple(range(1, w + 1)), step) for v in order)
    return constructions.permutation_bp_to_qbp(constructions.PermutationBp(w, levels, 1, frozenset({1})), n)


@pytest.mark.parametrize("table", ["own", "complement"])
@pytest.mark.parametrize("make", [
    lambda: constructions.build_mod_program(5, 18),
    lambda: constructions.build_mod_program(13, 16, "sampled", seed=1),
    lambda: realify.realify_program(constructions.build_mod_program(5, 16)),
    lambda: _counter(5, 18, [int(v) + 1 for v in np.random.default_rng(18).permutation(18)[:15]]),
    lambda: _counter(5, 17, [v for _ in range(2) for v in range(1, 18)]),
], ids=["mod 5", "wide mod 13", "realified mod 5", "shuffled counter, unread", "counter read twice"])
def test_counted_check_peak_within_its_count(make, table, monkeypatch):
    # against the function the program accepts with certainty no input
    # fails; against its complement every input does, and the failing values
    # take their 8 bytes each
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p > n/2
        p = make()
    assert program._counted(p)
    own = program.evaluate_all(p) > 1.0 - 1e-9
    f = TruthTable(p.n_vars, own if table == "own" else ~own)
    del own
    counted = []
    monkeypatch.setattr(linalg, "check_budget", lambda need, stage, what: counted.append(need))
    peak, _ = _traced(lambda: program.computes(p, f, program.OneSided()))
    assert len(counted) == 1 and 0 < peak <= counted[0], (peak, counted)


@pytest.mark.parametrize("table", ["own", "complement"])
def test_derivation_check_peak_within_its_count(table, monkeypatch):
    # mod_block(7, 1, 18) reaches at most 7 configurations a level, so the
    # derivation's check holds the split walk's leaves, a byte per input for
    # the verdict codes in input order, and, against the complement of the
    # table it computes at margin 0.111, where every input fails, 8 bytes per
    # failing value.  Measured: 1.17 and 9.08 bytes per input (3.9 for the
    # first call in a fresh process) against the 10.2 counted
    n = 18
    p = constructions.mod_block(constructions.ModBlockSpec(7, 1, n))
    own = np.cos(2 * np.pi * np.bitwise_count(np.arange(1 << n)) / 7) ** 2 > 0.5
    f = TruthTable(n, own if table == "own" else ~own)
    del own
    counted = {}
    for module in (linalg, analysis):
        monkeypatch.setattr(module, "check_budget", lambda need, stage, what: counted.setdefault(stage, need))

    def derive():
        try:
            analysis.derive_deterministic_obdd(p, f, None, 0.111)
        except ValueError as e:
            assert table == "complement" and "does not compute the table" in str(e)

    peak, _ = _traced(derive)
    assert 0 < peak <= counted["evaluation"], (peak / (1 << n), counted["evaluation"] / (1 << n))


@pytest.mark.parametrize("n", [10, 12, 14])
def test_one_hot_peaks_within_their_counts(n, monkeypatch):
    # measured: the walk at up to 56 bytes a leaf, the enumeration (all its
    # levels held) at up to 150 bytes per candidate of the last level
    p = constructions.universal_exact_qbp(TruthTable.random(n, np.random.default_rng(n)))
    counted = {}
    for module in (linalg, analysis):
        monkeypatch.setattr(module, "check_budget", lambda need, stage, what: counted.update({what: need}))
    walk, _ = _traced(lambda: program.evaluate_all(p))
    assert 0 < walk <= counted[f"the one-hot walk over 2^{n} configurations of width {1 << n}"] + (32 << n)
    counted.clear()
    levels, _ = _traced(lambda: analysis.reachable_configurations(p))
    assert 0 < levels <= counted[f"level {n} ({1 << n} one-hot candidates)"], levels


@pytest.mark.parametrize("make", [
    *(lambda n=n: superposed(constructions.universal_exact_qbp(TruthTable.random(n, np.random.default_rng(n))))
      for n in (8, 9, 10)),
    lambda: random_program(np.random.default_rng(2), d=2, n=14),
    lambda: random_program(np.random.default_rng(8), d=8, n=12),
    lambda: random_program(np.random.default_rng(32), d=32, n=9),
    lambda: constructions.build_mod_program(13, 30, "sampled", seed=1),
], ids=["superposed universal n=8", "superposed universal n=9", "superposed universal n=10", "haar 2",
        "haar 8", "haar 32", "mod 13"])
def test_reachable_peak_within_its_count(make, monkeypatch):
    # the last level's count holds every level kept before it: measured at
    # 0.997 to 0.9996 of it for the universal programs, whose peak was 1.5
    # to 1.57 times the largest level while the count left the kept levels
    # out.  At width 2 the dedup's bookkeeping outweighs the rows: the peak
    # was 1.18 times the count that left it out
    p = make()
    counted = []
    monkeypatch.setattr(analysis, "check_budget", lambda need, stage, what: counted.append(need))
    peak, _ = _traced(lambda: analysis.reachable_configurations(p))
    assert 0 < peak <= counted[-1] == max(counted), (peak, counted[-1])


def test_separation_fallback_peak_within_its_count():
    # 64 x 1024 unit rows of width 64 with one pair 1e-7 apart, where the Gram
    # form cancels: the fallback reads its candidates off the Gram block it
    # holds.  Measured: 1.0088 times the 32 bytes a pair counted, as when it
    # ran a pairs query (1.0095)
    rng = np.random.default_rng(64)
    a, b = (rng.standard_normal((m, 64)) + 1j * rng.standard_normal((m, 64)) for m in (64, 1024))
    b[700] = a[5] + 1e-7 * rng.standard_normal(64)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    explicit = []
    real = analysis._explicit_sq_distances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_explicit_sq_distances", lambda *args: explicit.append(args[-1].size) or real(*args))
        peak, _ = _traced(lambda: analysis._min_cross_distance(a, b))
    assert explicit == [1]
    assert peak <= 1.01 * 32 * 64 * 1024, peak / (32 * 64 * 1024)
