"""Acceptance battery.

Each test drives one verification criterion end to end, prints a single
``ACCEPTANCE <nn>: PASS|FAIL`` line, re-asserts the frozen headline numbers,
and enforces a generous wall-clock ceiling (an order of magnitude above the
measured cost, so only pathological regressions trip it).
"""

import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

from matsemi import all_flags, ambient, closure_ids, conjugacy, engine, field_make, flag_semigroup, standard_flag, unit_matrix, verify
from matsemi.gf import Matrix
import oracles
from oracles import mask_nd

BOUNDS_S = {
    "01": 120,
    "02": 60,
    "03": 300,
    "04": 600,
    "05": 300,
    "06": 3000,
    "07": 3000,
    "08": 1200,
    "09": 3000,
    "10": 600,
    "11": 1200,
    "12": 1200,
    "13": 600,
    "14": 300,
    "15": 600,
}


def _gate(res):
    line = f"ACCEPTANCE {res.key}: {'PASS' if res.passed else 'FAIL'}"
    print(line)
    assert res.passed, f"{line} — {res.witness}"
    assert res.elapsed_ms < BOUNDS_S[res.key] * 1000.0, (
        f"criterion {res.key} took {res.elapsed_ms:.0f} ms"
    )
    return dict(res.details)


def test_criterion_01_classes_agree():
    d = _gate(verify.criterion_01(pairs=verify.CLASS_PAIRS))
    assert d["classes_n2_q2"] == 5
    assert d["classes_n2_q3"] == 11
    assert d["classes_n3_q2"] == 11
    assert d["classes_n2_q4"] == 19
    assert d["agree"] is True


def test_criterion_02_m2f2_census():
    d = _gate(verify.criterion_02())
    assert d["count"] == 5
    assert d["sizes"] == (1, 2, 3, 4, 6)
    assert d["nilpotent_count"] == 4
    assert d["nilpotents_with_zero"] is True


def test_criterion_03_size_law():
    d = _gate(verify.criterion_03())
    assert d["flags_checked"] == 322
    assert d["size_law"] is True


def test_criterion_04_maximal_nilpotent():
    d = _gate(verify.criterion_04())
    assert d["flags"] == 36
    assert d["escapes_checked"] == 18207
    assert d["all_blocked"] is True


def test_criterion_04_round_one_refutes_only_aborting_escapes():
    # every escape refuted by the batched first round also aborts in
    # closure_ids; the rest go on to closure_ids
    f2 = field_make(2)
    amb = ambient(f2, 3)
    nil = np.array(amb.nilpotent)
    non_nil = frozenset(np.flatnonzero(~nil).tolist())
    refuted = passed = 0
    for fl in all_flags(f2, 3):
        member = np.array(sorted(amb.index[a] for a in flag_semigroup(fl)))
        xs = np.setdiff1d(np.flatnonzero(nil), member)
        marks = verify.round_one_refuted(amb.grid, nil, member, xs)
        for x in xs[marks].tolist():
            assert closure_ids(amb.grid, set(member.tolist()) | {x}, abort_ids=non_nil)[1]
        refuted += int(marks.sum())
        passed += int((~marks).sum())
    assert (refuted, passed) == (1848, 231)
    # a seed whose own products leave the nilpotents refutes every escape:
    # e12 e21 is idempotent
    seed = np.array([amb.index[unit_matrix(f2, 3, 0, 1)], amb.index[unit_matrix(f2, 3, 1, 0)]])
    xs = np.setdiff1d(np.flatnonzero(nil), seed)
    assert verify.round_one_refuted(amb.grid, nil, seed, xs).all()


def _closure_witnesses(amb, member, xs, r):
    """words_vanish by closure: true where closure_ids(member | {x}) stays
    nilpotent and its power ladder reaches {0} within r steps."""
    non_nil = frozenset(np.flatnonzero(~np.array(amb.nilpotent)).tolist())
    out = []
    for x in xs.tolist():
        ids, aborted = closure_ids(amb.grid, set(member.tolist()) | {x}, abort_ids=non_nil)
        mask = np.zeros(amb.m, dtype=bool)
        mask[list(ids)] = True
        nd = None if aborted else mask_nd(amb.grid, mask, amb.zero_id)
        out.append(nd is not None and nd <= r)
    return np.array(out, dtype=bool)


def test_criterion_04_words_decide_as_the_closures_do():
    # every nilpotent escape of every F_2^3 flag, refuted in round one or not
    f2 = field_make(2)
    amb = ambient(f2, 3)
    nil = np.array(amb.nilpotent)
    escapes = 0
    for fl in all_flags(f2, 3):
        member = np.array(sorted(amb.index[a] for a in flag_semigroup(fl)))
        xs = np.setdiff1d(np.flatnonzero(nil), member)
        got = verify.words_vanish(amb.grid, member, xs, fl.length, amb.zero_id)
        assert np.array_equal(got, _closure_witnesses(amb, member, xs, fl.length))
        assert not got.any()
        escapes += len(xs)
    assert escapes == 1848 + 231  # refuted in round one, and the survivors


def test_criterion_04_words_find_the_escapes_of_a_non_maximal_set():
    # {0, e13} is nilpotent of degree 2 and far from maximal
    f2 = field_make(2)
    amb = ambient(f2, 3)
    member = np.array(sorted([amb.zero_id, amb.index[unit_matrix(f2, 3, 0, 2)]]))
    xs = np.setdiff1d(np.flatnonzero(np.array(amb.nilpotent)), member)
    for r, count in ((2, 4), (3, 22)):
        got = verify.words_vanish(amb.grid, member, xs, r, amb.zero_id)
        assert int(got.sum()) == count
        assert np.array_equal(got, _closure_witnesses(amb, member, xs, r))


def test_criterion_04_takes_no_closure(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("criterion 04 took a closure")

    monkeypatch.setattr(engine, "closure_ids", boom)
    monkeypatch.setattr(engine, "_power_ladder", boom)  # what mask_nd walks
    monkeypatch.setattr(oracles, "mask_nd", boom)
    assert not hasattr(verify, "closure_ids") and not hasattr(verify, "mask_nd")
    res = verify.criterion_04()
    assert res.passed and dict(res.details)["escapes_checked"] == 18207


def test_criterion_05_consolidation():
    d = _gate(verify.criterion_05())
    assert d["ordered_pairs"] == 36 * 36
    assert d["biconditional"] is True


def test_criterion_06_preorder_routes():
    d = _gate(verify.criterion_06())
    assert d["contexts"] == 40
    assert d["pairs"] == 74272
    assert d["routes_agree"] is True


def test_criterion_07_super_rank_law():
    d = _gate(verify.criterion_07())
    assert d["contexts"] == 40
    assert d["decomposables_checked"] == 44
    assert d["law_holds"] is True


def test_criterion_08_covering_statistic():
    d = _gate(verify.criterion_08())
    assert d["positions_checked"] == 27
    assert d["all_equal"] is True


def test_criterion_09_fingerprints():
    d = _gate(verify.criterion_09())
    assert d["trio_distinct"] is True
    assert d["iso_pairs_verified"] == 539
    assert d["cross_sig_refusal"] is True


def test_criterion_09_builds_only_the_contexts_it_reads(monkeypatch):
    # the 35 flags of F_2^3 of length >= 2 and the trio; the battery's
    # (2,1,2) and (1,1,1,1) contexts are never read by this criterion
    real, seen = verify.nil_contexts, []

    def recording(flags, *args, **kwargs):
        flags = list(flags)
        seen.extend(flags)
        return real(flags, *args, **kwargs)

    monkeypatch.setattr(verify, "nil_contexts", recording)
    verify._battery.cache_clear()  # cached contexts would hide what it builds
    verify._trio_and_cube.cache_clear()
    assert dict(verify.criterion_09().details) == {"trio_distinct": True, "iso_pairs_verified": 539, "cross_sig_refusal": True}
    f2 = field_make(2)
    cube = [fl for fl in all_flags(f2, 3) if fl.length >= 2]
    trio = [standard_flag(f2, sig) for sig in ((1, 1, 2), (1, 2, 1), (2, 1, 1))]
    assert len(cube) == 35 and sorted(seen, key=str) == sorted(trio + cube, key=str)


def test_criterion_10_annihilator_census():
    d = _gate(verify.criterion_10())
    assert d["two_sided_ann"] == 16
    assert d["decomposable_in_ann"] == 10
    assert d["rank_le_one_corner"] == 10
    assert d["geometric_shortcut"] == 8
    assert d["expected_mismatch"] is True
    assert d["right_ann"] == 64
    assert d["right_ann_matches"] is True


def test_criterion_11_stratum_ideals():
    d = _gate(verify.criterion_11())
    assert d["ideal_n3_q2_k2"] == 344
    assert d["all_match"] is True


def test_criterion_12_isolated_classification():
    d = _gate(verify.criterion_12())
    assert d["f2_isolated"] == 15
    assert d["f2_completely_isolated"] == 3
    assert d["f3_isolated"] == 53
    assert d["sound"] is True


def test_criterion_13_report_determinism():
    d = _gate(verify.criterion_13())
    assert d["commands"] == len(verify.DETERMINISM_COMMANDS)
    assert d["byte_identical"] is True
    # the full driver, run as a separate process, must pass every criterion
    cp = subprocess.run(
        [sys.executable, "-m", "matsemi.cli", "verify", "all", "--profile", "quick", "--format", "json"],
        capture_output=True,
        timeout=BOUNDS_S["13"],
    )
    assert cp.returncode == 0, cp.stderr.decode()
    rep = json.loads(cp.stdout)
    assert rep["result"]["passed"] is True
    assert [c["id"] for c in rep["result"]["criteria"]] == [f"{i:02d}" for i in range(1, 14)]


def test_full_profile_extras_on_their_real_path():
    d = _gate(verify.extra_classes_q5())
    assert d == {"classes_n2_q5": 29, "agree": True}
    d = _gate(verify.extra_large_ambient())
    assert d["elements"] == 65_536
    assert d["class_count"] == 25
    assert d["sampled_pairs"] == 50_000
    assert d["commute_law"] is True
    assert d["chains_replayed"] == 512


def test_criterion_15_rejects_a_chain_that_misses_the_core(monkeypatch):
    # a chain ending in a conjugate of the core, not the core: it lands in the
    # right class, so only the core's defining property can reject it
    true_core = conjugacy.core
    swap = Matrix(field_make(2), 4, 4, (0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0))

    def conjugate_core(a):
        return swap * true_core(a) * swap

    monkeypatch.setattr(verify, "core_chain", lambda a: SimpleNamespace(steps=(a, conjugate_core(a))))
    monkeypatch.setattr(verify, "core", conjugate_core, raising=False)
    monkeypatch.setattr(verify, "SAMPLE_PAIRS", 0)
    res = verify.extra_large_ambient()
    assert not res.passed
    assert res.witness.startswith("chain from") and dict(res.details)["chains_replayed"] < 512
