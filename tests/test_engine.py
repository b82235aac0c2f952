import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import (
    CapExceeded,
    Matrix,
    NotClosed,
    ambient,
    build_table,
    closure,
    closure_ids,
    enumerate_matrices,
    enumerate_subsemigroups,
    equiv_closure,
    field_make,
    flag_semigroup,
    flags_with_signature,
    identity_matrix,
    mat_pow,
    mat_rank,
    mat_set,
    matrix,
    power_sets,
    preorder_depths,
    product_grid,
    table_iso,
    table_nd,
    unit_matrix,
)
from matsemi import engine, flags
from matsemi.engine import GRID_BLOCK, TABLE_ELEMS_CAP, KeyIndex, _check_grid, _wrong_entries
from matsemi.errors import InternalError
from matsemi.gf import batch_mul, code_keys, codes_array, row_keys
from matsemi.isolated import rank_stratum
from oracles import is_zero, mask_nd

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F8 = field_make(2, 3)
BY_Q = {2: F2, 3: F3, 4: F4, 5: F5, 7: field_make(7), 8: F8}


def _oracle_closure(seed):
    """Round-by-round frontier closure on Matrix products (the former
    extension-field route of engine.closure)."""
    known = {m.codes: m for m in seed.elements}
    frontier = list(seed.elements)
    while frontier:
        new = {}
        all_mats = list(known.values())
        for a in frontier:
            for b in all_mats:
                for prod in (a * b, b * a):
                    if prod.codes not in known and prod.codes not in new:
                        new[prod.codes] = prod
        known.update(new)
        frontier = list(new.values())
    return mat_set(seed.field, seed.dim, known.values())


def _draw(rng, f, n, rank_one=False):
    if rank_one:  # a column times a row
        u = [rng.randrange(f.q) for _ in range(n)]
        v = [rng.randrange(f.q) for _ in range(n)]
        return Matrix(f, n, 1, tuple(u)) * Matrix(f, 1, n, tuple(v))
    return Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n)))


@st.composite
def seeds(draw):
    f = draw(st.sampled_from([F2, F3, F4]))
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    out = []
    for _ in range(k):
        codes = draw(st.lists(st.integers(0, f.q - 1), min_size=n * n, max_size=n * n))
        out.append(matrix(f, [codes[i * n : (i + 1) * n] for i in range(n)]))
    return mat_set(f, n, out)


class TestClosure:
    @given(seeds())
    @settings(max_examples=60, deadline=None)
    def test_closed_and_idempotent(self, s):
        c = closure(s)
        members = frozenset(c)
        assert frozenset(s) <= members
        for a in c:
            for b in c:
                assert a * b in members
        assert frozenset(closure(c)) == members

    def test_cap(self, monkeypatch):
        gens = [unit_matrix(F2, 3, 0, 1), unit_matrix(F2, 3, 1, 2), identity_matrix(F2, 3)]
        monkeypatch.setattr(engine, "CLOSURE_CAP", 2)
        with pytest.raises(CapExceeded, match=r"^closure exceeds cap 2$"):
            closure(mat_set(F2, 3, gens))

    def test_extension_field_path(self):
        # q = 4 exercises the non-prime product route
        a = matrix(F4, [[2, 1], [0, 3]])
        c = closure(mat_set(F4, 2, [a]))
        assert all(x == mat_pow(a, k + 1) for k, x in enumerate([a])) or len(c) >= 1
        powers = {mat_pow(a, k) for k in range(1, 20)}
        assert frozenset(c) == powers

    @pytest.mark.parametrize(
        "f,n,kinds",
        [
            (F4, 2, (False, False)),
            (F3, 2, (False, False)),
            (F3, 3, (True, True, False)),
            (F8, 2, (False,)),
            (F8, 3, (True, True)),
            (F4, 3, (True, True, True)),
            (F4, 6, (True, True)),
            (field_make(7), 5, (True, True)),
        ],
        ids=[
            "F4-2-two",
            "F3-2-two",
            "F3-3-rank1",
            "F8-2-one",
            "F8-3-rank1",
            "F4-3-rank1",
            "F4-6-rank1",
            "F7-5-rank1",
        ],
    )
    def test_matches_the_frontier_oracle(self, f, n, kinds):
        rng = random.Random(f"closure:{f.q}:{n}:{len(kinds)}")
        for _ in range(3):
            seed = mat_set(f, n, [_draw(rng, f, n, rank_one) for rank_one in kinds])
            assert closure(seed) == _oracle_closure(seed)

    def test_cap_is_the_closure_size(self, monkeypatch):
        def capped(cap, seed):
            monkeypatch.setattr(engine, "CLOSURE_CAP", cap)
            return closure(seed)

        # the rank-2 stratum of M(3, F_2) closes to all 344 matrices of rank <= 2
        seed = rank_stratum(F2, 3, 2)
        with pytest.raises(CapExceeded):
            capped(343, seed)
        assert len(capped(344, seed)) == 344
        # a closed seed above the cap is refused too
        closed = mat_set(F2, 2, [matrix(F2, [[0, 0], [0, 0]]), unit_matrix(F2, 2, 0, 1)])
        assert capped(2, closed) == closed
        with pytest.raises(CapExceeded):
            capped(1, closed)
        # the empty seed closes to itself
        assert capped(0, mat_set(F2, 2, [])) == mat_set(F2, 2, [])

    def test_round_of_several_blocks_matches_the_oracle(self):
        # the first round multiplies 144 x 144 pairs, more than one block
        seed = rank_stratum(F5, 2, 1)
        assert len(seed) ** 2 > GRID_BLOCK
        assert closure(seed) == _oracle_closure(seed)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_small_blocks_match_the_oracle(self, monkeypatch, block):
        # blocks narrower than a row of products, and a few rows each
        monkeypatch.setattr(engine, "GRID_BLOCK", block)
        rng = random.Random(f"closure-blocks:{block}")
        for f, n, kinds in ((F3, 2, (False, False)), (F4, 3, (True, True)), (F2, 3, (False, True, True))):
            seed = mat_set(f, n, [_draw(rng, f, n, rank_one) for rank_one in kinds])
            assert closure(seed) == _oracle_closure(seed)


class TestTable:
    def test_grid_matches_matrix_products(self):
        s = closure(mat_set(F2, 2, [matrix(F2, [[1, 1], [0, 1]]), unit_matrix(F2, 2, 0, 1)]))
        t = build_table(s)
        for i, a in enumerate(t.s.elements):
            for j, b in enumerate(t.s.elements):
                assert t.s.elements[t.grid[i][j]] == a * b

    def test_not_closed(self):
        s = mat_set(F2, 2, [unit_matrix(F2, 2, 0, 1), unit_matrix(F2, 2, 1, 0)])
        with pytest.raises(NotClosed):
            build_table(s)

    @pytest.mark.parametrize("f,n", [(F4, 6), (field_make(7), 5)], ids=["F4-6", "F7-5"])
    def test_grid_past_int64_keys_matches_matrix_products(self, f, n):
        # q^(n*n) > 2^63, so the grid looks products up by byte keys
        s = _wide_key_set(f, n)
        assert len(s) > 10
        grid = product_grid(s)
        for i, a in enumerate(s.elements):
            for j, b in enumerate(s.elements):
                assert s.elements[grid[i, j]] == a * b

    def test_witness_is_the_first_escaping_pair(self):
        rng = random.Random("product_grid:4")
        for _ in range(20):
            s = mat_set(F4, 2, [_draw(rng, F4, 2) for _ in range(6)])
            members = frozenset(s)
            escape = next(
                (a, b, a * b) for a in s.elements for b in s.elements if a * b not in members
            )
            with pytest.raises(NotClosed) as exc:
                product_grid(s)
            assert exc.value.witness == escape

    def test_nilpotency_degree(self):
        from matsemi import nilpotency_degree

        z = matrix(F2, [[0, 0], [0, 0]])
        e = unit_matrix(F2, 2, 0, 1)
        t = build_table(mat_set(F2, 2, [z, e]))
        assert table_nd(t) == 2
        # abstract tables call a lone idempotent nilpotent (it absorbs);
        # the matrix-anchored predicate does not
        ident = mat_set(F2, 2, [identity_matrix(F2, 2)])
        assert table_nd(build_table(ident)) == 1
        assert nilpotency_degree(ident) is None

    def test_power_sets_shrink(self):
        n = 3
        gens = [unit_matrix(F2, n, i, j) for i in range(n) for j in range(i + 1, n)]
        gens.append(matrix(F2, [[0] * n] * n))
        s = closure(mat_set(F2, n, gens))
        t = build_table(s)
        p = power_sets(t, 3)
        assert len(p[0]) > len(p[1]) > len(p[2]) == 1

    def test_adjoined_identity(self):
        # {0, e12} with the identity matrix adjoined as an element
        e = unit_matrix(F2, 2, 0, 1)
        z = matrix(F2, [[0, 0], [0, 0]])
        t = build_table(mat_set(F2, 2, [z, e, identity_matrix(F2, 2)]))
        assert t.m == 3 and t.s.elements[t.identity_id] == identity_matrix(F2, 2)
        one = t.identity_id
        assert all(t.grid[one][x] == x == t.grid[x][one] for x in range(t.m))


def _oracle_zero_identity(grid, m):
    """(zero id, identity id) by scanning every row and column."""
    zero_id = identity_id = None
    for e in range(m):
        row = grid[e]
        if all(row[x] == e for x in range(m)) and all(grid[x][e] == e for x in range(m)):
            zero_id = e
        if all(row[x] == x for x in range(m)) and all(grid[x][e] == x for x in range(m)):
            identity_id = e
    return zero_id, identity_id


def _oracle_power_sets(grid, ids, upto):
    """[S, S^2, ...] as frozensets, S^i = S^(i-1) * S."""
    out = [ids]
    for _ in range(upto - 1):
        out.append(frozenset(grid[a][b] for a in out[-1] for b in ids))
    return out


def _oracle_nd(grid, ids, zero_id):
    """Nilpotency degree by power sets, None once a power set repeats."""
    cur, seen = ids, {ids}
    for step in range(1, len(ids) + 2):
        if cur == frozenset({zero_id}):
            return step
        cur = frozenset(grid[a][b] for a in cur for b in ids)
        if cur in seen:
            return None
        seen.add(cur)
    return None


class TestPowerMasks:
    """table_nd, power_sets and oracles.mask_nd against frozenset power sets."""

    @pytest.mark.parametrize("adjoin", [False, True], ids=["plain", "adjoined"])
    def test_match_frozenset_definitions(self, adjoin):
        # adjoined: the identity matrix is one more generator
        rng = random.Random(f"power_masks:{adjoin}")
        for f, n in ((F2, 2), (F2, 3), (F3, 2), (F4, 2)):
            for kinds in ((True,), (True, True), (False,), (True, False)):
                gens = [_draw(rng, f, n, rank_one) for rank_one in kinds]
                s = closure(mat_set(f, n, gens + [identity_matrix(f, n)] * adjoin))
                t = build_table(s)
                grid = t.grid.tolist()
                assert (t.zero_id, t.identity_id) == _oracle_zero_identity(grid, t.m)
                if adjoin:
                    assert t.identity_id is not None
                ids = frozenset(range(t.m))
                assert power_sets(t, 4) == _oracle_power_sets(grid, ids, 4)
                want = None if t.zero_id is None else _oracle_nd(grid, ids, t.zero_id)
                assert table_nd(t) == want

    def test_mask_nd_on_ambient_subsets(self):
        amb = ambient(F2, 3)
        grid = amb.grid.tolist()
        nil = [x for x in range(amb.m) if amb.nilpotent[x]]
        rng = random.Random("mask_nd")
        for _ in range(40):
            seed = {amb.zero_id, *rng.sample(nil, rng.randrange(1, 4))}
            ids, _ = closure_ids(amb.grid, seed)
            mask = np.zeros(amb.m, dtype=bool)
            mask[list(ids)] = True
            assert mask_nd(amb.grid, mask, amb.zero_id) == _oracle_nd(grid, frozenset(ids), amb.zero_id)


def _oracle_subsemigroups(table):
    """Every nonempty mask tested pair by pair (the former subset scan)."""
    m, grid = table.m, table.grid.tolist()
    out = []
    for mask in range(1, 1 << m):
        bits = [i for i in range(m) if mask >> i & 1]
        if all(mask >> grid[i][j] & 1 for i in bits for j in bits):
            out.append(frozenset(bits))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


class TestSubsemigroups:
    def test_tiny_enumeration_by_hand(self):
        z = matrix(F2, [[0, 0], [0, 0]])
        e = unit_matrix(F2, 2, 0, 1)
        t = build_table(mat_set(F2, 2, [z, e]))
        subs = enumerate_subsemigroups(t)
        # {0} and {0, e}; {e} alone is not closed since e*e = 0
        assert [sorted(s) for s in subs] == [[0], [0, 1]]

    def test_all_closed(self):
        amb = ambient(F2, 2)
        t = build_table(mat_set(F2, 2, amb.s.elements))
        subs = enumerate_subsemigroups(t)
        for ids in subs:
            for a in ids:
                for b in ids:
                    assert t.grid[a][b] in ids
        assert frozenset(range(16)) in subs

    def test_cap(self):
        amb = ambient(F3, 2)
        t = build_table(mat_set(F3, 2, amb.s.elements))
        with pytest.raises(CapExceeded):
            enumerate_subsemigroups(t)

    def test_matches_the_mask_oracle(self):
        tables = [build_table(mat_set(F2, 2, ambient(F2, 2).s.elements))]
        for q in (2, 3, 4, 5, 7, 8):
            f = BY_Q[q]
            tables.append(build_table(mat_set(f, 1, enumerate_matrices(f, 1, 1))))
        # small semigroups without an identity, each with the identity matrix adjoined
        nil = mat_set(F2, 2, [matrix(F2, [[0, 0], [0, 0]]), unit_matrix(F2, 2, 0, 1)])
        rng = random.Random("subsemigroups")
        seeds = [nil, _flag_set(F2, (1, 1, 1)), _flag_set(F3, (1, 2))]
        seeds += [closure(mat_set(F3, 2, [_draw(rng, F3, 2, rank_one=True) for _ in range(2)])) for _ in range(4)]
        for seed in seeds:
            one = identity_matrix(seed.field, seed.dim)
            assert one not in seed
            t = build_table(mat_set(seed.field, seed.dim, [*seed, one]))
            assert t.identity_id is not None and t.m <= 16
            tables.append(t)
        for t in tables:
            assert enumerate_subsemigroups(t) == _oracle_subsemigroups(t)
        assert len(enumerate_subsemigroups(tables[0])) == 233


class TestTableIso:
    def test_relabelled_table_found(self):
        s = closure(mat_set(F2, 2, [matrix(F2, [[1, 1], [0, 1]])]))
        t = build_table(s)
        # conjugate the whole semigroup by a basis swap
        g = matrix(F2, [[0, 1], [1, 0]])
        s2 = mat_set(F2, 2, [g * a * g for a in s])
        t2 = build_table(s2)
        iso = table_iso(t, t2)
        assert iso is not None
        for a in range(t.m):
            for b in range(t.m):
                assert iso[t.grid[a][b]] == t2.grid[iso[a]][iso[b]]

    def test_distinct_structures_refused(self):
        z = matrix(F2, [[0, 0], [0, 0]])
        t_nil = build_table(mat_set(F2, 2, [z, unit_matrix(F2, 2, 0, 1)]))
        e = matrix(F2, [[1, 0], [0, 0]])
        t_idem = build_table(mat_set(F2, 2, [z, e]))
        assert table_iso(t_nil, t_idem) is None


class _UnionFind:
    """Union-find over ids 0..m-1 with least-id roots (the former
    Partition): the oracle for equiv_closure's label propagation."""

    def __init__(self, m: int):
        self.m = m
        self._parent = list(range(m))

    def find(self, x: int) -> int:
        p = self._parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        self._parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for x in range(self.m):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


class TestEquivClosure:
    def test_pairs(self):
        part = equiv_closure(5, [(0, 1), (3, 4)])
        cls = part.classes()
        assert cls == ((0, 1), (2,), (3, 4))

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40)
    def test_matches_naive_components(self, m, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=10))
        part = equiv_closure(m, pairs)
        adj = {i: set() for i in range(m)}
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        seen, comps = set(), []
        for i in range(m):
            if i in seen:
                continue
            stack, comp = [i], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(adj[x])
            seen |= comp
            comps.append(tuple(sorted(comp)))
        assert part.classes() == tuple(sorted(comps))

    def test_matches_union_find(self):
        rng = random.Random("equiv_closure")
        cases = [(1, []), (5, []), (1, [(0, 0)])]
        for _ in range(40):
            m = rng.randrange(1, 60)
            pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(2 * m))]
            cases.append((m, pairs))
        for m, pairs in cases:
            oracle = _UnionFind(m)
            for a, b in pairs:
                oracle.union(a, b)
            part = equiv_closure(m, pairs)
            assert part.classes() == oracle.classes()
            assert all(part.find(x) == c[0] for c in oracle.classes() for x in c)


class TestPreorderDepths:
    def test_chain(self):
        # 0 < 1 < 2: depth counts steps down from the top
        leq = [[a <= b for b in range(3)] for a in range(3)]
        assert preorder_depths(3, leq) == [2, 1, 0]

    def test_collapsed_classes(self):
        # 0 ~ 1 mutually comparable, both strictly below 2
        table = [[True, True, True], [True, True, True], [False, False, True]]
        assert preorder_depths(3, table) == [1, 1, 0]
        # two incomparable maximal classes
        split = [[True, True, False], [True, True, False], [False, False, True]]
        assert preorder_depths(3, split) == [0, 0, 0]

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=40)
    def test_against_longest_path(self, m, data):
        bits = data.draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
        reach = [[bits[i * m + j] or i == j for j in range(m)] for i in range(m)]
        for k in range(m):  # reachability closure makes a genuine preorder
            for i in range(m):
                for j in range(m):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        leq = lambda a, b: reach[a][b]
        depths = preorder_depths(m, reach)

        def above(x):
            return [y for y in range(m) if leq(x, y) and not leq(y, x)]

        memo = {}

        def naive(x):
            if x not in memo:
                memo[x] = 0 if not above(x) else 1 + max(naive(y) for y in above(x))
            return memo[x]

        assert depths == [naive(x) for x in range(m)]


class TestAmbient:
    def test_grid_and_flags(self):
        amb = ambient(F2, 2)
        assert amb.m == 16
        for x in (0, 3, 7, 11, 15):
            for y in (1, 2, 5, 14):
                assert amb.s.elements[amb.grid[x, y]] == amb.s.elements[x] * amb.s.elements[y]
        for x in range(amb.m):
            assert amb.nilpotent[x] == is_zero(mat_pow(amb.s.elements[x], 2))

    def test_cache_keeps_the_most_recent_ambients(self, monkeypatch):
        monkeypatch.setattr(engine, "_AMBIENT_CACHE", {})
        bound = engine.AMBIENT_CACHE_SIZE
        fields = [field_make(q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)][: bound + 3]
        first = ambient(fields[0], 1)
        for i, f in enumerate(fields[1:], start=1):
            assert ambient(fields[0], 1) is first  # used again each time, so never the oldest
            ambient(f, 1)
            assert len(engine._AMBIENT_CACHE) == min(i + 1, bound)
        assert set(engine._AMBIENT_CACHE) == {(f, 1) for f in [fields[0], *fields[1 - bound :]]}

    def test_cached_grid_is_read_only(self):
        amb = ambient(F2, 2)
        with pytest.raises(ValueError):
            amb.grid[0, 0] = 1

    def test_power_closure(self):
        amb = ambient(F2, 2)
        for x in range(amb.m):
            pc = set(amb.powers[:, x].tolist())
            expect = set()
            cur = amb.s.elements[x]
            for _ in range(6):
                expect.add(amb.index[cur])
                cur = cur * amb.s.elements[x]
            assert pc == expect

    def test_cached_id_arrays_are_read_only(self):
        amb = ambient(F2, 2)
        for arr in (amb.powers, amb.s.key_index.order, amb.s.key_index.keys):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("p,n", [(5, 2), (2, 3)], ids=["M2F5", "M3F2"])
    def test_powers_match_the_per_id_loops(self, p, n):
        amb = ambient(field_make(p), n)
        for x in range(amb.m):
            seen, cur = set(), x
            while cur not in seen:
                seen.add(cur)
                cur = int(amb.grid[cur, x])
            assert set(amb.powers[:, x].tolist()) == seen
            cur = x
            for _ in range(n - 1):
                cur = int(amb.grid[cur, x])
            assert amb.nilpotent[x] == (cur == amb.zero_id)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ambient(F3, 3)

    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3)], ids=["M2F2", "M2F3", "M2F4", "M3F2"])
    def test_equals_the_checked_table(self, q, n):
        # ambient() skips build_table's grid check; here the checked route
        # has to give the same table
        f = BY_Q[q]
        amb = ambient(f, n)
        t = build_table(mat_set(f, n, enumerate_matrices(f, n, n)))
        assert amb.s.elements == t.s.elements
        assert np.array_equal(amb.grid, t.grid)
        assert (amb.zero_id, amb.identity_id) == (t.zero_id, t.identity_id)
        for name in ("ranks", "powers"):
            assert np.array_equal(getattr(amb, name), getattr(t, name)), name
        assert amb.nilpotent == t.nilpotent

    def test_subset_equals_mat_set(self):
        rng = random.Random("subset")
        for f, n in ((F2, 2), (F3, 2), (F2, 3)):
            amb = ambient(f, n)
            for k in (0, 1, 2, 7, amb.m // 2, amb.m):
                ids = sorted(rng.sample(range(amb.m), k))
                assert amb.subset(ids) == mat_set(f, n, [amb.s.elements[i] for i in ids])
                assert amb.subset(np.array(ids, dtype=np.int64)) == amb.subset(ids)

    @pytest.mark.parametrize("f,sig", [(F2, (1, 1, 1)), (F3, (1, 2, 1)), (F4, (1, 3)), (F2, (1, 1, 2))])
    def test_flag_table_arrays_match_per_matrix_oracles(self, f, sig):
        t = build_table(_flag_set(f, sig))
        n = sum(sig)
        assert t.ranks.tolist() == [mat_rank(a) for a in t.s.elements]
        assert t.nilpotent == (True,) * t.m  # every flag semigroup element is nilpotent
        for x, a in enumerate(t.s.elements):
            powers, cur = [], a
            while cur not in powers:
                powers.append(cur)
                cur = cur * a
            assert [t.s.elements[y] for y in t.powers[: len(powers), x].tolist()] == powers
            assert set(t.powers[:, x].tolist()) == {t.index[b] for b in powers}
            assert t.nilpotent[x] == is_zero(mat_pow(a, n))
            assert t.index[a] == x

    def test_nilpotent_is_anchored_to_the_zero_matrix(self):
        # {I, e11}: e11 absorbs, but no power of either is the zero matrix
        t = build_table(mat_set(F2, 2, [identity_matrix(F2, 2), unit_matrix(F2, 2, 0, 0)]))
        assert t.zero_id is not None and t.nilpotent == (False, False)
        z, e = matrix(F2, [[0, 0], [0, 0]]), unit_matrix(F2, 2, 0, 1)
        t = build_table(mat_set(F2, 2, [z, e, identity_matrix(F2, 2)]))
        assert t.nilpotent == (True, True, False)

    def test_closure_ids_abort(self):
        amb = ambient(F2, 2)
        e12 = amb.index[unit_matrix(F2, 2, 0, 1)]
        e21 = amb.index[unit_matrix(F2, 2, 1, 0)]
        non_nil = frozenset(x for x in range(amb.m) if not amb.nilpotent[x])
        ids, aborted = closure_ids(amb.grid, {e12, e21}, abort_ids=non_nil)
        assert aborted  # e12 * e21 is idempotent, not nilpotent
        ids, aborted = closure_ids(amb.grid, {amb.zero_id, e12})
        assert not aborted and ids == {amb.zero_id, e12}

    def test_closure_ids_match_the_fixpoint(self):
        # aborted exactly when the full closure meets abort_ids; otherwise
        # the ids are that closure, as Python ints
        amb = ambient(F2, 3)
        non_nil = frozenset(x for x in range(amb.m) if not amb.nilpotent[x])
        rng = random.Random("closure_ids")
        for _ in range(200):
            seed = set(rng.sample(range(amb.m), rng.randint(1, 3)))
            full = set(seed)
            while True:
                grown = full | {int(amb.grid[a, b]) for a in full for b in full}
                if grown == full:
                    break
                full = grown
            ids, aborted = closure_ids(amb.grid, seed, abort_ids=non_nil)
            assert aborted == bool(full & non_nil)
            if not aborted:
                assert ids == full and all(type(x) is int for x in ids)
            ids, aborted = closure_ids(amb.grid, seed)
            assert not aborted and ids == full


def _oracle_grid(elements):
    """(grid, None), or (None, (a, b)) for the first pair in row-major order
    whose product escapes: one row of products at a time, each product
    looked up by its codes (the former product_grid route)."""
    f, n, m = elements[0].field, elements[0].rows, len(elements)
    arr = codes_array(elements)
    index = {a.codes: i for i, a in enumerate(elements)}
    grid = np.empty((m, m), dtype=np.int32)
    for a in range(m):
        ids = [index.get(tuple(codes)) for codes in batch_mul(f, arr[a], arr).reshape(m, n * n).tolist()]
        if None in ids:
            return None, (a, ids.index(None))
        grid[a] = ids
    return grid, None


def _flag_set(f, sig):
    """The flag semigroup of the last flag of a signature (not the standard one)."""
    return flag_semigroup(flags_with_signature(f, sum(sig), sig)[-1])


def test_product_grid_matches_direct_products():
    # every entry of three small grids, each product taken as a Matrix product
    for f, n in ((F3, 2), (F4, 1), (F2, 2)):
        s = mat_set(f, n, enumerate_matrices(f, n, n))
        grid, elements = product_grid(s), s.elements
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert elements[grid[i][j]] == a * b


FULL_AMBIENTS = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]
FLAG_SETS = [(F2, (1, 1, 1)), (F2, (2, 2)), (F2, (1, 2, 1)), (F3, (1, 1, 1)), (F3, (2, 1, 1))]
FLAG_SET_IDS = ["F2-111", "F2-22", "F2-121", "F3-111", "F3-211"]
WIDE_KEYS = [(F4, 6), (field_make(7), 5)]


def _wide_key_set(f, n):
    """Closure of three rank-one matrices, with code keys past int64."""
    rng = random.Random(f"wide_grid:{f.q}:{n}")
    return closure(mat_set(f, n, [_draw(rng, f, n, rank_one=True) for _ in range(3)]))


def _wide_row_set():
    """Closure of one rank-one matrix of M(11, F_64), with row keys past int64."""
    f, n = field_make(2, 6), 11
    rng = random.Random("wide_rows")
    return closure(mat_set(f, n, [_draw(rng, f, n, rank_one=True)]))


class TestProductGridOracle:
    @pytest.mark.parametrize("q,n", FULL_AMBIENTS)
    def test_full_ambient(self, q, n):
        f = BY_Q[q]
        s = mat_set(f, n, enumerate_matrices(f, n, n))
        assert KeyIndex(f, codes_array(s.elements)).dense  # keys are exactly 0..m-1
        expect, escape = _oracle_grid(s.elements)
        assert escape is None
        assert np.array_equal(product_grid(s), expect)

    @pytest.mark.parametrize("f,sig", FLAG_SETS, ids=FLAG_SET_IDS)
    def test_flag_semigroups(self, f, sig):
        s = _flag_set(f, sig)
        assert not KeyIndex(f, codes_array(s.elements)).dense
        expect, escape = _oracle_grid(s.elements)
        assert escape is None
        assert np.array_equal(product_grid(s), expect)

    @pytest.mark.parametrize("f,n", WIDE_KEYS, ids=["F4-6", "F7-5"])
    def test_byte_keys(self, f, n):
        # the sets of test_grid_past_int64_keys_matches_matrix_products
        s = _wide_key_set(f, n)
        assert code_keys(f, codes_array(s.elements)).dtype.kind == "V"
        expect, escape = _oracle_grid(s.elements)
        assert escape is None
        assert np.array_equal(product_grid(s), expect)

    def test_row_keys_past_int64(self):
        # q^n > 2^63 as well: the row keys themselves are raw bytes
        s = _wide_row_set()
        f = s.field
        assert len(s) > 5 and row_keys(f, codes_array(s.elements)).dtype.kind == "V"
        expect, escape = _oracle_grid(s.elements)
        assert escape is None
        assert np.array_equal(product_grid(s), expect)

    def _assert_witness(self, s):
        _, (a, b) = _oracle_grid(s.elements)
        x, y = s.elements[a], s.elements[b]
        with pytest.raises(NotClosed) as exc:
            product_grid(s)
        assert exc.value.witness == (x, y, x * y)
        return a

    def test_witness_past_the_first_block(self):
        # without the identity, no product of singular matrices can land on
        # it, so the first escaping pair starts at the first invertible row
        s = mat_set(F5, 2, [a for a in enumerate_matrices(F5, 2, 2) if a != identity_matrix(F5, 2)])
        assert self._assert_witness(s) >= GRID_BLOCK // len(s)

    def test_witness_with_keys_exactly_0_to_m_minus_1(self):
        # keys 0..4, so the lookup is the inverse permutation; E21 E12 = E22
        # has key 8 and escapes
        e = {(i, j): unit_matrix(F2, 2, i, j) for i in range(2) for j in range(2)}
        s = mat_set(F2, 2, [matrix(F2, [[0, 0], [0, 0]]), e[0, 0], e[0, 1], e[0, 0] + e[0, 1], e[1, 0]])
        assert KeyIndex(F2, codes_array(s.elements)).dense
        a = self._assert_witness(s)
        assert s.elements[a] == e[1, 0]

    def test_memory_stays_near_the_grid(self):
        # blocks of GRID_BLOCK products keep the kernel's own arrays small
        s = mat_set(F5, 2, enumerate_matrices(F5, 2, 2))
        product_grid(s)  # warm the field tables
        tracemalloc.start()
        try:
            grid = product_grid(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes + (1 << 20)


def _verify_associativity(grid: np.ndarray, m: int, exhaustive_cap: int = 512):
    """The associativity re-check that build_table ran before its grid
    check: every triple up to exhaustive_cap elements, 100 000 sampled
    triples above it.  InternalError names the failing triple."""
    if m == 0:
        return
    if m <= exhaustive_cap:
        # one left factor at a time: two m x m int arrays per step
        for a in range(m):
            row = grid[a]
            left = grid[row]  # (b, c) -> (ab)c
            right = row[grid]  # (b, c) -> a(bc)
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                raise InternalError(f"associativity failed at triple {(a, int(b), int(c))}")
    else:
        rng = random.Random(0xA550C)
        for _ in range(100_000):
            a, b, c = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            if grid[grid[a, b], c] != grid[a, grid[b, c]]:
                raise InternalError(f"associativity failed at triple {(a, b, c)}")


class TestAssociativityCheck:
    def test_associative_grids_pass(self):
        for m in (100, 600):  # exhaustive and sampled branches
            a = np.arange(m, dtype=np.int32)
            _verify_associativity((a[:, None] + a[None, :]) % m, m)

    def test_witness_is_the_first_failing_triple(self):
        grid = np.zeros((100, 100), dtype=np.int32)
        grid[70, 0] = 5  # 70(0 0) = 70 0 = 5, but (70 0)0 = 5 0 = 0
        with pytest.raises(InternalError, match=re.escape("at triple (70, 0, 0)")):
            _verify_associativity(grid, 100)

    def test_sampled_branch_raises(self):
        m = 600  # above the exhaustive cap: random triples are checked
        a = np.arange(m, dtype=np.int32)
        grid = (a[:, None] - a[None, :]) % m  # (a-b)-c != a-(b-c) unless 2c = 0
        with pytest.raises(InternalError, match="associativity failed"):
            _verify_associativity(grid, m)


def _grid_sets():
    """(name, set) for every table that TestProductGridOracle builds."""
    for q, n in FULL_AMBIENTS:
        yield f"M({n},F_{q})", mat_set(BY_Q[q], n, enumerate_matrices(BY_Q[q], n, n))
    for (f, sig), name in zip(FLAG_SETS, FLAG_SET_IDS):
        yield name, _flag_set(f, sig)
    for f, n in WIDE_KEYS:
        yield f"wide-{f.q}-{n}", _wide_key_set(f, n)
    yield "wide-rows", _wide_row_set()


def _sampled_entries(grid, m):
    """The grid entries that _verify_associativity's sampler reads."""
    rng = random.Random(0xA550C)
    seen = set()
    for _ in range(100_000):
        a, b, c = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        seen.update(((a, b), (int(grid[a, b]), c), (b, c), (a, int(grid[b, c]))))
    return seen


class TestGridCheck:
    def test_agrees_with_the_associativity_oracle(self):
        for name, s in _grid_sets():
            t = build_table(s)  # runs _check_grid
            _verify_associativity(t.grid, t.m)
            assert np.array_equal(t.grid, product_grid(s)), name

    def test_every_single_entry_corruption_of_m2f2(self):
        s = mat_set(F2, 2, enumerate_matrices(F2, 2, 2))
        grid, m = product_grid(s), len(s)
        for a in range(m):
            for b in range(m):
                for wrong in range(m):
                    if wrong == grid[a, b]:
                        continue
                    bad = grid.copy()
                    bad[a, b] = wrong
                    with pytest.raises(InternalError, match=re.escape(f"grid entry {(a, b)} ")):
                        _check_grid(s, bad)

    def test_every_single_entry_corruption_of_m3f2(self):
        # Each entry is judged on its own value, so a grid with every entry
        # shifted by k shows which single-entry corruptions are caught: the
        # shifts k = 1 .. m-1 put every wrong id at every entry once.
        s = mat_set(F2, 3, enumerate_matrices(F2, 3, 3))
        grid, m = product_grid(s), len(s)
        for k in range(1, m):
            bad = np.concatenate([b for _, b in _wrong_entries(s, (grid + k) % m)])
            assert bad.shape == (m, m) and bad.all(), k
        assert not np.concatenate([b for _, b in _wrong_entries(s, grid)]).any()
        for a, b in ((0, 0), (37, 500), (m - 1, m - 1)):  # one corruption on its own
            bad = grid.copy()
            bad[a, b] = (bad[a, b] + 1) % m
            with pytest.raises(InternalError, match=re.escape(f"grid entry {(a, b)} ")):
                _check_grid(s, bad)

    def test_caught_where_the_sampler_looks_away(self):
        # the former check sampled 100 000 triples above 512 elements
        s = mat_set(F5, 2, enumerate_matrices(F5, 2, 2))
        grid, m = product_grid(s), len(s)
        seen = _sampled_entries(grid, m)
        a, b = next((a, b) for a in range(m) for b in range(m) if (a, b) not in seen)
        bad = grid.copy()
        bad[a, b] = (bad[a, b] + 1) % m
        _verify_associativity(bad, m)  # the sampler misses it
        with pytest.raises(InternalError, match=re.escape(f"grid entry {(a, b)} ")):
            _check_grid(s, bad)

    def test_witness_is_the_first_wrong_pair_past_the_first_block(self):
        s = mat_set(F5, 2, enumerate_matrices(F5, 2, 2))
        grid, m = product_grid(s), len(s)
        assert 400 >= GRID_BLOCK // m  # row 400 is not in the first block
        bad = grid.copy()
        for a, b in ((500, 3), (400, 9), (400, 7), (401, 0)):
            bad[a, b] = (bad[a, b] + 1) % m
        with pytest.raises(InternalError, match=re.escape("grid entry (400, 7) ")):
            _check_grid(s, bad)
        bad[2, 600] = (bad[2, 600] + 1) % m
        with pytest.raises(InternalError, match=re.escape("grid entry (2, 600) ")):
            _check_grid(s, bad)

    def test_adjoined_identity_tables_pass(self):
        # semigroups without an identity, with the identity matrix adjoined
        singular = [a for a in enumerate_matrices(F2, 2, 2) if mat_rank(a) < 2]
        for s in (mat_set(F2, 2, singular), _flag_set(F3, (1, 1, 1)), _flag_set(F2, (1, 2, 1))):
            t = build_table(mat_set(s.field, s.dim, [*s, identity_matrix(s.field, s.dim)]))
            assert t.identity_id is not None and t.m == len(s) + 1
            _verify_associativity(t.grid, t.m)
            ids = np.arange(t.m)
            assert np.array_equal(t.grid[t.identity_id], ids)
            assert np.array_equal(t.grid[:, t.identity_id], ids)

    def test_build_table_checks_the_grid_it_gets(self, monkeypatch):
        from matsemi import engine

        real = engine.product_grid

        def one_wrong_entry(elements):
            grid = real(elements)
            grid[5, 3] = (grid[5, 3] + 1) % len(elements)
            return grid

        monkeypatch.setattr(engine, "product_grid", one_wrong_entry)
        with pytest.raises(InternalError, match=re.escape("grid entry (5, 3) ")):
            build_table(mat_set(F2, 2, enumerate_matrices(F2, 2, 2)))

    def test_refuses_above_the_cap_before_any_grid(self, monkeypatch):
        from matsemi import engine

        def no_grid(elements):
            raise AssertionError("grid built above the cap")

        monkeypatch.setattr(engine, "TABLE_ELEMS_CAP", 15)
        monkeypatch.setattr(engine, "product_grid", no_grid)
        with pytest.raises(CapExceeded, match="table of 16 elements exceeds cap 15"):
            build_table(mat_set(F2, 2, enumerate_matrices(F2, 2, 2)))
        assert TABLE_ELEMS_CAP >= 1024  # the largest table a CLI test builds

    def test_memory_stays_in_blocks(self):
        s = mat_set(F5, 2, enumerate_matrices(F5, 2, 2))
        grid = product_grid(s)
        _check_grid(s, grid)  # warm the field tables
        tracemalloc.start()
        try:
            _check_grid(s, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes // 2


class TestMatSetCodes:
    @pytest.fixture
    def matrices_built(self, monkeypatch):
        """A one-item list counting Matrix constructions."""
        built = [0]
        real = Matrix.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(Matrix, "__init__", counting)
        return built

    def test_kernels_build_no_matrix(self, monkeypatch, matrices_built):
        monkeypatch.setattr(engine, "_AMBIENT_CACHE", {})
        fl = flags_with_signature(F3, 3, (1, 1, 1))[-1]
        seed = mat_set(F2, 3, [unit_matrix(F2, 3, 0, 1), unit_matrix(F2, 3, 1, 2), unit_matrix(F2, 3, 2, 0)])
        # the flag's basis is one Matrix per flag, cached by flag_basis
        flags.flag_basis_inverse(fl)
        matrices_built[0] = 0
        c = closure(seed)
        t = build_table(flag_semigroup(fl))
        amb = ambient(F3, 2)
        sub = amb.subset(np.flatnonzero(amb.ranks == 1))
        assert amb.grid.shape == (81, 81)
        build_table(c)
        assert matrices_built[0] == 0
        assert (len(c), t.m, amb.m, len(sub)) == (10, 27, 81, 32)

    def test_elements_builds_each_matrix_once(self, matrices_built):
        s = rank_stratum(F3, 2, 1)
        matrices_built[0] = 0
        elements = s.elements
        assert matrices_built[0] == len(s) == 32
        assert list(s) == list(elements) and s.elements is elements
        assert matrices_built[0] == 32

    @pytest.mark.parametrize("which", ["ambient", "subset", "flag_semigroup", "closure", "nil_context"])
    def test_codes_are_read_only(self, which):
        from matsemi import nil_context, standard_flag

        amb = ambient(F2, 2)
        arr = {
            "ambient": lambda: amb.s.codes,
            "subset": lambda: amb.subset([1, 2, 3]).codes,
            "flag_semigroup": lambda: flag_semigroup(flags_with_signature(F2, 3, (1, 2))[0]).codes,
            "closure": lambda: closure(mat_set(F2, 2, [unit_matrix(F2, 2, 0, 1)])).codes,
            "nil_context": lambda: nil_context(standard_flag(F2, (1, 1, 1))).codes,
        }[which]()
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1

    def test_contains_looks_up_codes(self):
        s = rank_stratum(F3, 2, 1)
        assert all(a in s for a in ambient(F3, 2).s.elements[1:33])
        assert matrix(F3, [[1, 0], [0, 1]]) not in s and matrix(F3, [[0, 0], [0, 0]]) not in s
        # a matrix over another field, or of another shape, is never a member
        assert matrix(F2, [[1, 0], [0, 0]]) not in s
        assert matrix(F3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]) not in s
        assert matrix(F3, [[1, 0]]) not in s
        assert "1,0;0,0" not in s
        assert matrix(F3, [[1, 0], [0, 0]]) not in mat_set(F3, 2, [])

    def test_issubset_and_equality_match_frozensets(self):
        sets = [flag_semigroup(fl) for fl in flags_with_signature(F2, 3, (1, 1, 1))[:4]]
        sets += [closure(mat_set(F2, 3, [unit_matrix(F2, 3, 0, 1)])), mat_set(F2, 3, [])]
        for a in sets:
            for b in sets:
                assert a.issubset(b) == (frozenset(a) <= frozenset(b))
                assert (a == b) == (frozenset(a) == frozenset(b))
                assert (a == b) <= (hash(a) == hash(b))
        # sets of other fields or sizes are never contained, even when empty
        assert not mat_set(F3, 3, []).issubset(sets[0]) and not mat_set(F2, 2, []).issubset(sets[0])
        assert mat_set(F3, 3, []) != mat_set(F2, 3, [])
