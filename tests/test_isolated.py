"""Isolated and completely isolated subsemigroups of M(n, F)."""

import random
from functools import lru_cache

import numpy as np
import pytest

from matsemi import engine, isolated
from matsemi.engine import ambient, build_table, closure, mat_set, product_grid
from matsemi.cli import run_command
from matsemi.errors import BadK, InvariantViolation, NotClosed, VerificationFailed
from matsemi.gf import (
    enumerate_matrices,
    enumerate_subspaces,
    field_make,
    gaussian_binomial,
    mat_image,
    mat_kernel,
    matrix,
    parse_subspace,
    projection_idempotent,
    unit_matrix,
)
from matsemi.isolated import (
    _all_pair_families,
    enumerate_isolated,
    ideal,
    ideal_absorption_check,
    ideal_generated_by_stratum,
    is_completely_isolated,
    is_isolated,
    rank_stratum,
)
from oracles import isolated_report_key, pair_families


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


def _idempotent_ids(amb):
    return np.flatnonzero(amb.grid.diagonal() == np.arange(amb.m))  # x * x = x


def _idempotent_count_formula(q, n):
    """Sum over d of (number of d-subspaces) * (number of their complements)."""
    return sum(gaussian_binomial(n, d, q) * q ** (d * (n - d)) for d in range(n + 1))


class TestIdempotents:
    def test_count_matches_formula(self, f2, f3):
        assert len(_idempotent_ids(ambient(f2, 2))) == 8 == _idempotent_count_formula(2, 2)
        assert len(_idempotent_ids(ambient(f3, 2))) == _idempotent_count_formula(3, 2)

    def test_all_are_idempotent(self, f2):
        amb = ambient(f2, 2)
        for e in amb.subset(_idempotent_ids(amb)):
            assert e * e == e
            # F^2 = Im e (+) ker e, and e is the projection onto one along the other
            assert projection_idempotent(mat_image(e), mat_kernel(e)) == e

    def test_idempotent_for_complementary_pair(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        e2 = parse_subspace(f2, 2, "0,1")
        e = projection_idempotent(e1, e2)
        assert e == matrix(f2, [[1, 0], [0, 0]])
        assert e * e == e

    def test_idempotent_for_rejects_non_complementary(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        with pytest.raises(InvariantViolation):
            projection_idempotent(e1, e1)


def _oracle_s_ab_ids(amb, a_fam, b_fam):
    """Ambient ids, ascending, of S(A, B): image in the A-family and kernel
    in the B-family, read off the per-id subspace ids."""
    spaces = isolated._subspace_table(amb.s.field, amb.s.dim)[0]
    image, kernel = isolated._subspace_ids(amb.s.field, amb.codes)
    in_a, in_b = (np.array([s in fam for s in spaces]) for fam in (a_fam, b_fam))
    return np.flatnonzero(in_a[image] & in_b[kernel])


def _row_members(amb, of_id, row):
    """The members of a membership row, as a set of ambient elements."""
    return amb.subset(np.flatnonzero(row[of_id]))


def _s_ab(a_fam, b_fam):
    """S(A, B) by the library route of the theorem list: the families'
    H-classes through _block_records, which raises NotClosed if the set
    escapes; the members are read off the returned row."""
    amb = ambient(a_fam[0].field, a_fam[0].ambient)
    of_id = isolated._h_classes(amb)[0]
    row = np.zeros(of_id.max() + 1, dtype=bool)
    row[of_id[_oracle_s_ab_ids(amb, a_fam, b_fam)]] = True
    (rec,), rows = isolated._block_records(amb, of_id, [("SAB", a_fam, b_fam)], row[None])
    s = _row_members(amb, of_id, rows[0])
    assert rec.size == len(s)
    return s


def _product_kernel_image_law(s):
    """ker(A*B) = ker(B) and Im(A*B) = Im(A) over all pairs of s."""
    return all(
        mat_kernel(a * b) == mat_kernel(b) and mat_image(a * b) == mat_image(a)
        for a in s.elements
        for b in s.elements
    )


class TestPairFamilies:
    def test_singleton_family_gives_one_idempotent(self, f2):
        e1 = parse_subspace(f2, 2, "1,0")
        e2 = parse_subspace(f2, 2, "0,1")
        s = _s_ab((e1,), (e2,))
        assert frozenset(s) == {matrix(f2, [[1, 0], [0, 0]])}

    def test_family_requires_image_outside_kernel(self, f2):
        # with its kernel line inside its image, e12 squares to 0, which
        # has neither: S(A, B) would not be closed
        e1 = parse_subspace(f2, 2, "1,0")
        with pytest.raises(NotClosed):
            _s_ab((e1,), (e1,))

    def test_plane_line_family_in_dim3(self, f2):
        plane = parse_subspace(f2, 3, "1,0,0;0,1,0")
        line = parse_subspace(f2, 3, "0,0,1")
        s = _s_ab((plane,), (line,))
        assert len(s) == 6
        assert _product_kernel_image_law(s)
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
        s = _s_ab((e1,), (e2,))
        assert is_isolated(s)
        assert not is_completely_isolated(s)


# ---------------------------------------------------------------------------
# oracles: the element-by-element routes the ambient-id predicates replaced


def _oracle_s_ab(a_fam, b_fam):
    """Rescan every ambient matrix through its image and kernel."""
    field, n = a_fam[0].field, a_fam[0].ambient
    a_set, b_set = set(a_fam), set(b_fam)
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
    fams = pair_families(field, n)
    rng = random.Random(f"{seed}:{field.q}:{n}")
    for i in range(count):
        pool = mats if i % 2 == 0 else _oracle_s_ab(*rng.choice(fams)).elements
        gens = rng.sample(pool, min(len(pool), rng.randint(1, max_gens)))
        yield mat_set(field, n, gens)


def _basis_codes(s):
    """Basis-encoding order of subspaces: dimension, then the basis codes
    read row after row."""
    return (s.dim, tuple(c for r in s.basis for c in r))


def _family_spaces(field, n):
    """_all_pair_families with each id replaced by its Subspace."""
    spaces = isolated._subspace_table(field, n)[0]
    return [(tuple(spaces[i] for i in a), tuple(spaces[j] for j in b)) for a, b in _all_pair_families(field, n)]


BY_Q = {2: field_make(2), 3: field_make(3), 4: field_make(2, 2), 5: field_make(5), 8: field_make(2, 3)}


class TestSubspaceIds:
    @pytest.mark.parametrize("q,n", [(2, 3), (5, 2), (8, 2)], ids=["M3F2", "M2F5", "M2F8"])
    def test_subspace_ids_match_the_per_matrix_routes(self, q, n):
        # each id names the subspace mat_image or mat_kernel gives, and the
        # ids are positions in subspace_codes order: dimension, then basis
        f = BY_Q[q]
        amb = ambient(f, n)
        spaces = isolated._subspace_table(f, n)[0]
        assert list(spaces) == [s for d in range(n + 1) for s in enumerate_subspaces(f, n, d)]
        image, kernel = isolated._subspace_ids(f, amb.codes)
        assert [spaces[i] for i in image.tolist()] == [mat_image(a) for a in amb.s.elements]
        assert [spaces[i] for i in kernel.tolist()] == [mat_kernel(a) for a in amb.s.elements]

    def test_subspace_ids(self, f3):
        amb = ambient(f3, 2)
        spaces, starts, _ = isolated._subspace_table(f3, 2)
        assert len(spaces) == 1 + 4 + 1 and starts == (0, 1, 5, 6)  # every subspace of F_3^2
        image, kernel = isolated._subspace_ids(f3, amb.codes)
        for x, a in enumerate(amb.s.elements):
            assert spaces[image[x]] == mat_image(a)
            assert spaces[kernel[x]] == mat_kernel(a)

    def test_cached_id_arrays_are_read_only(self, f2):
        index = isolated._subspace_table(f2, 2)[2]
        for arr in (index.order, index.keys):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3)], ids=["M2F2", "M2F3", "M2F4", "M3F2"])
    def test_equals_the_checked_table(self, q, n):
        # the H-classes of the ambient are those of build_table's checked table
        f = BY_Q[q]
        t = build_table(mat_set(f, n, enumerate_matrices(f, n, n)))
        for got, want in zip(isolated._h_classes(ambient(f, n)), isolated._h_classes(t)):
            assert np.array_equal(got, want)


class TestPredicateOracles:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3)], ids=["M2F2", "M2F3", "M2F4", "M2F5", "M3F2"])
    def test_id_families_match_the_subspace_families(self, p, k, n):
        field = field_make(p, k)
        assert _family_spaces(field, n) == pair_families(field, n)

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2)], ids=["F3", "F4"])
    def test_every_pair_family_of_m2(self, p, k):
        field = field_make(p, k)
        fams = _family_spaces(field, 2)
        assert len(fams) == 3 ** (field.q + 1) - 2 ** (field.q + 2) + 1
        for a_fam, b_fam in fams:  # built valid and sorted
            assert a_fam and all(a.dim == 1 for a in a_fam)  # hyperplanes of F^2
            assert b_fam and all(b.dim == 1 for b in b_fam)
            assert not any(a.contains(b) for a in a_fam for b in b_fam)
            assert list(a_fam) == sorted(set(a_fam), key=_basis_codes)
            assert list(b_fam) == sorted(set(b_fam), key=_basis_codes)
            s = _s_ab(a_fam, b_fam)
            assert s == _oracle_s_ab(a_fam, b_fam)
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


def _oracle_closed_mask(amb, mask):
    """No product of two members lands outside."""
    return bool(mask[amb.grid[np.ix_(mask, mask)]].all())


def _oracle_completely_isolated_mask(amb, mask):
    """The former full scan: no product of two outside ids lands inside."""
    return not bool((mask[amb.grid[~mask]] & ~mask).any())


def _mask(amb, ids):
    mask = np.zeros(amb.m, dtype=bool)
    mask[list(ids)] = True
    return mask


def _check_masks(amb, masks):
    """Both member-driven predicates against the former scans; a product
    that refutes complete isolation has both factors outside."""
    outcomes = set()
    for mask in masks:
        iso, hit = isolated._isolated(amb, mask), isolated._outside_product(amb, mask)
        assert iso is _oracle_isolated_mask(amb, mask)
        assert (hit is None) is _oracle_completely_isolated_mask(amb, mask)
        if hit is not None:
            x, y, xy = hit
            assert amb.grid[x, y] == xy and mask[xy] and not (mask[x] or mask[y])
        outcomes.add((iso, hit is None))
    return outcomes


THEOREM_AMBIENTS = pytest.mark.parametrize(
    "p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3)], ids=["M2F2", "M2F3", "M2F4", "M2F5", "M3F2"]
)


class TestMemberDrivenPredicates:
    @THEOREM_AMBIENTS
    def test_every_theorem_record(self, p, k, n):
        field = field_make(p, k)
        amb = ambient(field, n)
        (of_id, *_), recs, rows = isolated._theorem_records(amb)
        assert recs == enumerate_isolated(field, n, "theorem_list")
        masks = [row[of_id] for row in rows]
        for r, mask in zip(recs, masks):
            assert r.size == mask.sum()
            assert _oracle_closed_mask(amb, mask)
            assert r.isolated is _oracle_isolated_mask(amb, mask) is True
            assert r.completely_isolated is _oracle_completely_isolated_mask(amb, mask)
        assert _check_masks(amb, masks) == {(True, False), (True, True)}

    def test_every_subsemigroup_of_m2f2(self, f2):
        amb = ambient(f2, 2)
        masks = [_mask(amb, ids) for ids in engine.enumerate_subsemigroups(amb)]
        assert _check_masks(amb, masks) == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 3)], ids=["M2F3", "M2F5", "M3F2"])
    def test_seeded_closed_sets(self, p, n):
        field = field_make(p)
        amb = ambient(field, n)
        masks = [_mask(amb, (amb.index[a] for a in closure(gens))) for gens in _random_sets(field, n, 13, 60, 3)]
        assert _check_masks(amb, masks) == {(False, False), (True, False), (True, True)}


class TestBlockRoute:
    @pytest.mark.parametrize("p,k,n,blocks", [(5, 1, 2, 38), (2, 1, 3, 100), (2, 3, 2, 83)], ids=["M2F5", "M3F2", "M2F8"])
    def test_blocks_are_the_image_kernel_pairs(self, p, k, n, blocks):
        amb = ambient(field_make(p, k), n)
        of_id, image, kernel = isolated._h_classes(amb)
        assert len(image) == len(kernel) == blocks
        want_image, want_kernel = isolated._subspace_ids(amb.s.field, amb.codes)
        assert np.array_equal(image[of_id], want_image) and np.array_equal(kernel[of_id], want_kernel)

    @THEOREM_AMBIENTS
    def test_seeded_block_unions(self, p, k, n):
        # unions of H-classes in general, most of them not closed
        amb = ambient(field_make(p, k), n)
        of_id = isolated._h_classes(amb)[0]
        # one draw per block, in the order of the blocks' first elements, so
        # the draws do not depend on how the subspaces are numbered
        first = np.unique(of_id, return_index=True)[1]
        rng = np.random.default_rng(p * 100 + k * 10 + n)
        drawn = np.concatenate([rng.random((60, len(first))) < d for d in (0.05, 0.3, 0.7, 0.95)])
        members = drawn[:, np.argsort(np.argsort(first))]
        answers = np.column_stack(isolated._block_predicates(amb, of_id, members))
        outcomes = set()
        for row, got in zip(members, answers.tolist()):
            mask = row[of_id]
            closed = _oracle_closed_mask(amb, mask)
            want = [closed, _oracle_isolated_mask(amb, mask), _oracle_completely_isolated_mask(amb, mask)]
            assert got == want
            outcomes.add(tuple(want))
        assert {(False, False, False), (False, True, False), (True, True, False), (True, True, True)} <= outcomes

    @THEOREM_AMBIENTS
    def test_sab_ids_follow_image_and_kernel(self, p, k, n):
        amb = ambient(field_make(p, k), n)
        (of_id, *_), recs, rows = isolated._theorem_records(amb)
        sab = [(r, row) for r, row in zip(recs, rows) if r.kind == "SAB"]
        assert len(sab) == len(_all_pair_families(amb.s.field, n))
        for r, row in sab:
            ids = _oracle_s_ab_ids(amb, r.a_family, r.b_family)
            assert np.array_equal(np.flatnonzero(row[of_id]), ids) and r.size == len(ids)

    def test_unclosed_union_raises_the_grid_witness(self, f3):
        # the nilpotent H-class (image = kernel = <e1>) with the identity's:
        # e12 * e12 = 0 lies in neither
        amb = ambient(f3, 2)
        of_id = isolated._h_classes(amb)[0]
        row = np.zeros(of_id.max() + 1, dtype=bool)
        row[of_id[[amb.identity_id, amb.index[unit_matrix(f3, 2, 0, 1)]]]] = True
        s = amb.subset(np.flatnonzero(row[of_id]))
        with pytest.raises(NotClosed) as want:
            product_grid(s)
        with pytest.raises(NotClosed) as got:
            isolated._block_records(amb, of_id, [("union", None, None)], row[None])
        assert got.value.witness == want.value.witness

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_n1_lists_each_set_once(self, q):
        # M(1, F_q) = F_q: the one S(A, B) family gives {0}, which is I
        field = field_make(q)
        for mode in ("theorem_list", "exhaustive"):
            recs = enumerate_isolated(field, 1, mode)
            assert [(r.kind, r.size) for r in recs] == [("I", 1), ("GL", q - 1), ("M", q)]
            assert all(r.isolated and r.completely_isolated for r in recs)


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
        # the rows of the theorem list are the isolated subsemigroups that
        # the subset scan and the former power scan find
        amb = ambient(f2, 2)
        ex = enumerate_isolated(f2, 2, "exhaustive")
        (of_id, *_), tl, rows = isolated._theorem_records(amb)
        assert ex == tl == enumerate_isolated(f2, 2, "theorem_list")
        scanned = {ids for ids in engine.enumerate_subsemigroups(amb) if _oracle_isolated_mask(amb, _mask(amb, ids))}
        assert {frozenset(np.flatnonzero(row[of_id]).tolist()) for row in rows} == scanned

    def test_theorem_list_f3(self, f3):
        tl = enumerate_isolated(f3, 2, "theorem_list")
        assert len(tl) == 53
        assert sum(1 for r in tl if r.kind == "SAB") == 50
        assert sum(1 for r in tl if r.completely_isolated) == 3
        assert all(r.isolated for r in tl)

    def test_sab_records_carry_families(self, f2):
        amb = ambient(f2, 2)
        (of_id, *_), recs, rows = isolated._theorem_records(amb)
        for r, row in zip(recs, rows):
            if r.kind == "SAB":
                assert r.a_family and r.b_family
                assert _row_members(amb, of_id, row) == _oracle_s_ab(r.a_family, r.b_family)
            else:
                assert r.a_family is None and r.b_family is None


class TestRecordsFromRows:
    @pytest.mark.parametrize(
        "q,n", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)], ids=["M1F2", "M1F3", "M2F2", "M2F3", "M2F4", "M2F5", "M3F2"]
    )
    def test_order_is_the_member_code_order(self, q, n):
        # the one lexsort over sizes and block rows gives the order that
        # sorting by the members' code bytes gave
        amb = ambient(BY_Q[q], n)
        (of_id, *_), recs, rows = isolated._theorem_records(amb)
        keys = [isolated_report_key(amb.codes[row[of_id]]) for row in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no two sets alike
        assert [r.size for r in recs] == [k[0] for k in keys]

    def test_exhaustive_disagreement_raises(self, f2, monkeypatch):
        # a subset scan that misses M, a predicted set, fails the check
        real = isolated.enumerate_subsemigroups
        everything = frozenset(range(ambient(f2, 2).m))
        monkeypatch.setattr(isolated, "enumerate_subsemigroups", lambda t: [s for s in real(t) if s != everything])
        with pytest.raises(VerificationFailed) as exc:
            enumerate_isolated(f2, 2)
        assert exc.value.evidence == {"only_found": 0, "only_predicted": 1}
        text, code = run_command(["isolated", "enum", "--field", "2", "--n", "2"])
        assert code == 1 and text.startswith("error VerificationFailed")
        assert "only_found = 0" in text and "only_predicted = 1" in text

    def test_theorem_list_builds_no_member_set(self, monkeypatch):
        f5 = field_make(5)
        amb = ambient(f5, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("theorem_list built a member set")

        monkeypatch.setattr(engine.SemigroupTable, "subset", refuse)
        recs = enumerate_isolated(f5, 2, "theorem_list")
        assert len(recs) == 605 and ambient(f5, 2) is amb


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
