"""Isolated and completely isolated subsemigroups of M(n, F)."""

import random
from functools import lru_cache

import numpy as np
import pytest

from matsemi import engine, isolated
from matsemi.engine import ambient, closure, mat_set, product_grid
from matsemi.errors import (
    BadK,
    ContainmentViolation,
    EmptyFamily,
    InvariantViolation,
    NotClosed,
)
from matsemi.gf import field_make, mat_image, mat_kernel, matrix, parse_subspace, unit_matrix
from matsemi.isolated import (
    _all_pair_families,
    enumerate_isolated,
    ideal,
    ideal_absorption_check,
    ideal_generated_by_stratum,
    idempotent_count_formula,
    idempotent_for,
    idempotents,
    is_completely_isolated,
    is_isolated,
    pair_family,
    product_kernel_image_law,
    rank_stratum,
    s_ab_make,
)


class TestStrataAndIdeals:
    def test_stratum_sizes_m2_f2(self, f2):
        assert len(rank_stratum(f2, 2, 2)) == 6  # |GL(2, F2)|
        assert len(rank_stratum(f2, 2, 0)) == 1
        assert len(ideal(f2, 2, 1)) == 10
        # strata partition the full ambient
        assert sum(len(rank_stratum(f2, 2, k)) for k in range(3)) == 16

    def test_ideal_is_rank_filtered(self, f2):
        for mat in ideal(f2, 2, 1):
            assert mat.rank() <= 1

    def test_stratum_closure_equals_ideal_for_k1(self, f2):
        gen = ideal_generated_by_stratum(f2, 3, 1)
        assert frozenset(gen) == frozenset(ideal(f2, 3, 1))

    def test_stratum_closure_k2_strict(self, f2):
        # products of rank-2 elements reach lower ranks: the closure is
        # strictly larger than the stratum but not the whole ideal(2).
        gen = ideal_generated_by_stratum(f2, 3, 2)
        assert len(gen) == 344
        assert len(rank_stratum(f2, 3, 2)) < 344 <= len(ideal(f2, 3, 2))
        assert all(mat.rank() <= 2 for mat in gen)

    @pytest.mark.parametrize(
        "p,e,n,k", [(2, 1, 2, 1), (3, 1, 2, 1), (2, 2, 2, 1), (5, 1, 2, 1), (7, 1, 2, 1), (2, 3, 2, 1), (2, 1, 3, 1), (2, 1, 3, 2)]
    )
    def test_stratum_closure_is_the_ideal(self, p, e, n, k):
        f = field_make(p, e)
        assert ideal_generated_by_stratum(f, n, k) == ideal(f, n, k)

    @pytest.mark.parametrize("k", [0, 3])
    def test_stratum_closure_rejects_extreme_k(self, f2, k):
        with pytest.raises(BadK):
            ideal_generated_by_stratum(f2, 3, k)


class TestIdempotents:
    def test_count_matches_formula(self, f2, f3):
        assert len(idempotents(f2, 2)) == 8
        assert len(idempotents(f2, 2)) == idempotent_count_formula(f2, 2)
        assert len(idempotents(f3, 2)) == idempotent_count_formula(f3, 2)

    def test_all_are_idempotent(self, f2):
        for pair in idempotents(f2, 2):
            assert pair.e * pair.e == pair.e

    def test_idempotent_for_complementary_pair(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        e2 = parse_subspace(f2, 2, "0,1")
        pair = idempotent_for(e1, e2)
        assert pair.e == matrix(f2, [[1, 0], [0, 0]])
        assert pair.e * pair.e == pair.e

    def test_idempotent_for_rejects_non_complementary(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        with pytest.raises(InvariantViolation):
            idempotent_for(e1, e1)


class TestPairFamilies:
    def test_singleton_family_gives_one_idempotent(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        e2 = parse_subspace(f2, 2, "0,1")
        s = s_ab_make(pair_family([e1], [e2]))
        assert frozenset(s) == {matrix(f2, [[1, 0], [0, 0]])}

    def test_family_requires_image_outside_kernel(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        with pytest.raises(ContainmentViolation):
            pair_family([e1], [e1])

    def test_family_must_be_nonempty(self, f2):
        e2 = parse_subspace(f2, 2, "0,1")
        with pytest.raises(EmptyFamily):
            pair_family([], [e2])

    def test_plane_line_family_in_dim3(self, f2):
        plane = parse_subspace(f2, 3, "1,0,0;0,1,0")
        line = parse_subspace(f2, 3, "0,0,1")
        s = s_ab_make(pair_family([plane], [line]))
        assert len(s) == 6
        assert product_kernel_image_law(s)
        # every member maps onto the plane with the line as kernel
        for mat in s:
            assert mat.rank() == 2


class TestIsolationPredicates:
    def test_gl_and_bottom_ideal_are_completely_isolated(self, f2):
        gl = rank_stratum(f2, 2, 2)
        assert is_isolated(gl) and is_completely_isolated(gl)
        i1 = ideal(f2, 2, 1)
        assert is_isolated(i1) and is_completely_isolated(i1)

    def test_non_isolated_witness(self, f2):
        # {0, E12} is a subsemigroup but J = all-ones has J*J = 0 inside it
        # while J itself stays outside, so no power of J lands nowhere.
        bad = mat_set(f2, 2, [matrix(f2, [[0, 0], [0, 0]]), unit_matrix(f2, 2, 0, 1)])
        assert not is_isolated(bad)

    def test_power_past_the_square_lands_inside(self, f4):
        # The H-class of e = E11 in M(2, F_4) is {e, we, w^2 e}, cyclic of
        # order 3: (we)^3 = e, but neither we nor (we)^2 = w^2 e is e.
        s = mat_set(f4, 2, [unit_matrix(f4, 2, 0, 0)])
        assert not is_isolated(s)
        assert not _oracle_is_isolated(s)

    def test_singleton_sab_is_isolated_not_completely(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        e2 = parse_subspace(f2, 2, "0,1")
        s = s_ab_make(pair_family([e1], [e2]))
        assert is_isolated(s)
        assert not is_completely_isolated(s)


# ---------------------------------------------------------------------------
# oracles: the element-by-element routes the ambient-id predicates replaced


def _oracle_s_ab(fam):
    """Rescan every ambient matrix through its image and kernel."""
    field, n = fam.a_family[0].field, fam.a_family[0].ambient
    a_set, b_set = set(fam.a_family), set(fam.b_family)
    members = [
        m for m in ambient(field, n).s.elements if mat_image(m) in a_set and mat_kernel(m) in b_set
    ]
    s = mat_set(field, n, members)
    product_grid(s)
    return s


@lru_cache(maxsize=None)
def _oracle_power_closures(field, n):
    amb = ambient(field, n)
    out = []
    for x in range(amb.m):
        seen, cur = set(), x
        while cur not in seen:
            seen.add(cur)
            cur = int(amb.grid[cur, x])
        out.append(frozenset(seen))
    return out


def _oracle_ids(s):
    product_grid(s)  # NotClosed for a set that is not closed
    amb = ambient(s.field, s.dim)
    return amb, frozenset(amb.index[m] for m in s.elements)


def _oracle_is_isolated(s):
    amb, ids = _oracle_ids(s)
    closures = _oracle_power_closures(s.field, s.dim)
    return all(closures[x].isdisjoint(ids) for x in range(amb.m) if x not in ids)


def _oracle_is_completely_isolated(s):
    amb, ids = _oracle_ids(s)
    mask = np.zeros(amb.m, dtype=bool)
    mask[list(ids)] = True
    viol = mask[amb.grid] & ~mask[:, None] & ~mask[None, :]
    return not bool(viol.any())


def _random_sets(field, n, seed, count, max_gens):
    """Seeded generator sets; every other one is drawn from one S(A, B)
    family rather than from the whole ambient."""
    mats = ambient(field, n).s.elements
    fams = _all_pair_families(field, n)
    rng = random.Random(f"{seed}:{field.q}:{n}")
    for i in range(count):
        pool = mats if i % 2 == 0 else _oracle_s_ab(rng.choice(fams)).elements
        gens = rng.sample(pool, min(len(pool), rng.randint(1, max_gens)))
        yield mat_set(field, n, gens)


class TestPredicateOracles:
    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2)], ids=["F3", "F4"])
    def test_every_pair_family_of_m2(self, p, k):
        field = field_make(p, k)
        fams = _all_pair_families(field, 2)
        assert len(fams) == 3 ** (field.q + 1) - 2 ** (field.q + 2) + 1
        for fam in fams:
            assert fam == pair_family(fam.a_family, fam.b_family)  # built valid and sorted
            s = s_ab_make(fam)
            assert s == _oracle_s_ab(fam)
            assert is_isolated(s) is _oracle_is_isolated(s) is True
            assert is_completely_isolated(s) is _oracle_is_completely_isolated(s) is False

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3)], ids=["M2F3", "M3F2"])
    def test_seeded_closures(self, p, n):
        field = field_make(p)
        outcomes = set()
        for gens in _random_sets(field, n, 7, 60, 3):
            s = closure(gens)
            iso, ci = is_isolated(s), is_completely_isolated(s)
            assert iso is _oracle_is_isolated(s)
            assert ci is _oracle_is_completely_isolated(s)
            outcomes.add((iso, ci))
        assert outcomes == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3)], ids=["M2F3", "M3F2"])
    def test_seeded_sets_that_are_not_closed(self, p, n):
        field = field_make(p)
        checked = 0
        for s in _random_sets(field, n, 11, 40, 4):
            try:
                product_grid(s)
                continue
            except NotClosed as exc:
                want = exc.witness
            for predicate in (is_isolated, is_completely_isolated):
                with pytest.raises(NotClosed) as got:
                    predicate(s)
                assert got.value.witness == want
            checked += 1
        assert checked >= 20

    def test_theorem_list_builds_no_grid(self, monkeypatch):
        f5 = field_make(5)
        amb = ambient(f5, 2)
        amb.grid  # warm: the ambient grid itself is built once
        calls = []
        real = engine.product_grid

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "product_grid", counting)
        monkeypatch.setattr(isolated, "product_grid", counting, raising=False)
        recs = enumerate_isolated(f5, 2, "theorem_list")
        assert len(recs) == 605 and ambient(f5, 2) is amb
        assert calls == []


def _oracle_isolated_mask(amb, mask):
    """The former power scan: no id outside the mask has a power inside it."""
    return not bool((mask[amb.powers].any(axis=0) & ~mask).any())


def _oracle_completely_isolated_mask(amb, mask):
    """The former full scan: no product of two outside ids lands inside."""
    return not bool((mask[amb.grid[~mask]] & ~mask).any())


def _mask(amb, ids):
    mask = np.zeros(amb.m, dtype=bool)
    mask[list(ids)] = True
    return mask


def _check_masks(amb, masks):
    """Both member-driven predicates against the former scans, with one
    witness store for the whole sequence, as in an enumeration run."""
    witnesses = isolated._Witnesses()
    outcomes = set()
    for mask in masks:
        iso, ci = isolated._isolated(amb, mask), witnesses.completely_isolated(amb, mask)
        assert iso is _oracle_isolated_mask(amb, mask)
        assert ci is _oracle_completely_isolated_mask(amb, mask)
        outcomes.add((iso, ci))
    x, y, xy = witnesses.triples
    assert np.array_equal(amb.grid[x, y], xy)  # stored triples are products
    return outcomes


class TestMemberDrivenPredicates:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3)],
                             ids=["M2F2", "M2F3", "M2F4", "M2F5", "M3F2"])
    def test_every_theorem_record(self, p, k, n):
        field = field_make(p, k)
        amb = ambient(field, n)
        recs = enumerate_isolated(field, n, "theorem_list")
        masks = [_mask(amb, (amb.index[a] for a in r.s)) for r in recs]
        for r, mask in zip(recs, masks):
            assert r.completely_isolated is _oracle_completely_isolated_mask(amb, mask)
        # a store filled in another order meets other sets first
        random.Random(f"records:{field.q}:{n}").shuffle(masks)
        assert _check_masks(amb, masks) == {(True, False), (True, True)}

    def test_every_subsemigroup_of_m2f2(self, f2):
        amb = ambient(f2, 2)
        masks = [_mask(amb, ids) for ids in engine.enumerate_subsemigroups(amb)]
        assert _check_masks(amb, masks) == {(False, False), (True, False), (True, True)}

    def test_a_stored_triple_refutes_only_with_both_factors_outside(self, f2):
        amb = ambient(f2, 2)
        singular = amb.ranks < 2  # the ideal I, completely isolated
        e, a = amb.identity_id, 1  # id 1 has rank 1
        witnesses = isolated._Witnesses()
        witnesses.triples = np.array([[e, a], [a, e], [a, a]])  # e*a = a*e = a
        assert witnesses.completely_isolated(amb, singular)
        assert witnesses.completely_isolated(amb, ~singular)
        assert witnesses.triples.shape == (3, 2)  # nothing was refuted, nothing stored

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 3)], ids=["M2F3", "M2F5", "M3F2"])
    def test_seeded_closed_sets(self, p, n):
        field = field_make(p)
        amb = ambient(field, n)
        masks = [_mask(amb, (amb.index[a] for a in closure(gens))) for gens in _random_sets(field, n, 13, 60, 3)]
        assert _check_masks(amb, masks) == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)], ids=["F2", "F3", "F4", "F5", "F7"])
def test_theorem_list_count_closed_form(p, k):
    # M, GL, I and one S(A, B) per valid pair of families
    field = field_make(p, k)
    q = field.q
    recs = enumerate_isolated(field, 2, "theorem_list")
    assert len(recs) == 3 ** (q + 1) - 2 ** (q + 2) + 4
    assert all(r.isolated for r in recs)


class TestEnumeration:
    def test_exhaustive_m2_f2(self, f2):
        recs = enumerate_isolated(f2, 2, "exhaustive")
        assert len(recs) == 15
        kinds = sorted(r.kind for r in recs)
        assert kinds.count("SAB") == 12
        assert {"M", "GL", "I"} <= set(kinds)
        assert all(r.isolated for r in recs)
        ci = [r for r in recs if r.completely_isolated]
        assert sorted(r.kind for r in ci) == ["GL", "I", "M"]

    def test_theorem_list_matches_exhaustive(self, f2):
        ex = enumerate_isolated(f2, 2, "exhaustive")
        tl = enumerate_isolated(f2, 2, "theorem_list")
        assert {frozenset(r.s) for r in tl} == {frozenset(r.s) for r in ex}

    def test_theorem_list_f3(self, f3):
        tl = enumerate_isolated(f3, 2, "theorem_list")
        assert len(tl) == 53
        assert sum(1 for r in tl if r.kind == "SAB") == 50
        assert sum(1 for r in tl if r.completely_isolated) == 3
        assert all(r.isolated for r in tl)

    def test_sab_records_carry_families(self, f2):
        recs = enumerate_isolated(f2, 2, "theorem_list")
        for r in recs:
            if r.kind == "SAB":
                assert r.a_family and r.b_family
                assert r.s == s_ab_make(pair_family(list(r.a_family), list(r.b_family)))
            else:
                assert r.a_family is None and r.b_family is None


class TestAbsorption:
    def test_rows_and_verdict(self, f2):
        ok, rows = ideal_absorption_check(f2, 2)
        assert ok
        by_kind = {}
        for row in rows:
            d = dict(row)
            by_kind.setdefault(d["kind"], []).append(d)
        # kinds closed under multiplication by the ideal keep it inside
        assert all(d["ideal_contained"] for d in by_kind["M"] + by_kind["I"])
        # GL and the S(A,B) families never meet the hypothesis
        assert not by_kind["GL"][0]["hypothesis"]
        assert all(not d["hypothesis"] for d in by_kind["SAB"])
