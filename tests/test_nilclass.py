import copy
import dataclasses
import itertools
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import (
    CapExceeded,
    IsoDecision,
    PreconditionViolated,
    SignatureMismatch,
    ZeroElement,
    all_flags,
    annihilator_census,
    depth_sets,
    field_make,
    fingerprint,
    iso_construct,
    iso_decide,
    ll,
    matrix,
    mat_image,
    mat_inverse,
    mat_kernel,
    mat_rank,
    nil_context,
    nil_contexts,
    prec,
    standard_flag,
    super_rank,
    u_stat,
    unit_matrix,
)
from matsemi import engine, flags, nilclass, verify
from matsemi.cli import run_command
from matsemi.errors import BadSignature, DimMismatch, FieldMismatch, InternalError, InvariantViolation, NotPrime
from matsemi.flags import format_flag
from matsemi.nilclass import K_PAIRS
import oracles
from oracles import flag_transporter, intersect, meets_by_rows, span_sum, transport_perm

F2 = field_make(2)


def _ids(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def _cells(ctx):
    """The K cells as frozensets of ids, keyed by pair."""
    return {pair: _ids(row) for pair, row in zip(K_PAIRS, ctx.k_masks)}


def E(i, j, n=3):
    return unit_matrix(F2, n, i - 1, j - 1)


@pytest.fixture(scope="module")
def ctx3():
    return nil_context(standard_flag(F2, (1, 1, 1)))


class TestOrders:
    def test_prec_examples(self, ctx3):
        e12, e13 = E(1, 2), E(1, 3)
        assert prec(ctx3, e12, e12)
        assert prec(ctx3, e12, e13)
        assert not prec(ctx3, e13, e12)

    def test_ll_examples(self, ctx3):
        e13, e23 = E(1, 3), E(2, 3)
        assert ll(ctx3, e23, e13)
        assert not ll(ctx3, e13, e23)

    def test_routes_agree_everywhere(self, ctx3):
        for a in ctx3.t:
            for b in ctx3.t:
                assert prec(ctx3, a, b, "products") == prec(ctx3, a, b, "kernels")
                assert ll(ctx3, a, b, "products") == ll(ctx3, a, b, "images")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_on_112(self, ctx112, data):
        a = data.draw(st.sampled_from(ctx112.t.elements))
        b = data.draw(st.sampled_from(ctx112.t.elements))
        assert prec(ctx112, a, b, "products") == prec(ctx112, a, b, "kernels")
        assert ll(ctx112, a, b, "products") == ll(ctx112, a, b, "images")

    def test_preorder_laws(self, ctx3):
        els = ctx3.t.elements
        for a in els:
            assert prec(ctx3, a, a)
        for a in els:
            for b in els:
                for c in els:
                    if prec(ctx3, a, b) and prec(ctx3, b, c):
                        assert prec(ctx3, a, c)

    def test_depth_sets(self, ctx3):
        zero3 = matrix(F2, [[0] * 3] * 3)
        d0 = depth_sets(ctx3, "prec", 0)
        assert frozenset(d0) == {zero3, E(1, 3), E(2, 3), E(1, 3) + E(2, 3)}
        d1 = depth_sets(ctx3, "prec", 1)
        assert len(d1) == 4
        assert len(depth_sets(ctx3, "prec", 2)) == 0
        # the depth sets partition the semigroup
        assert frozenset(d0) | frozenset(d1) == frozenset(ctx3.t)

    def test_depth_sets_ll(self, ctx3):
        d0 = depth_sets(ctx3, "ll", 0)
        assert len(d0) + len(depth_sets(ctx3, "ll", 1)) == ctx3.m


class TestKCells:
    def test_indecomposable(self, ctx3):
        index, dec = ctx3.table.index, ctx3.decomposable
        assert dec[index[matrix(F2, [[0] * 3] * 3)]]
        assert dec[index[E(1, 3)]]  # e12 * e23
        assert not dec[index[E(1, 2)]]

    def test_cells_at_length_three(self, ctx3):
        cells = _cells(ctx3)
        assert ctx3.table.index[E(1, 2)] in cells[(1, 0)]
        assert ctx3.table.index[E(2, 3)] in cells[(0, 1)]
        # cube of the semigroup vanishes, so the sandwich cells are empty
        for u, v in ((1, 1), (2, 1), (1, 2), (2, 2)):
            assert not cells[(u, v)]

    def test_cells_are_disjoint_depth_level_sets(self, ctx_complete4):
        ctx = ctx_complete4
        assert (ctx.k_masks.sum(axis=0) <= 1).all()
        for (u, v), c in _cells(ctx).items():
            for x in c:
                assert (ctx.depth_prec[x], ctx.depth_ll[x]) == (u, v)

    def test_complete4_cell_sizes(self, ctx_complete4):
        assert tuple(ctx_complete4.k_masks.sum(axis=1).tolist()) == (6, 6, 8, 0, 0, 8, 8, 0)

    def test_bad_pair(self, ctx3):
        # cells exist only at the defined (prec depth, ll depth) pairs: one
        # row each, in K_PAIRS order
        assert ctx3.k_masks.shape == (len(K_PAIRS), ctx3.m)
        assert (3, 0) not in K_PAIRS

    @pytest.mark.parametrize("group", ["battery", "F3-121", "F2-11111", "F3-1111"])
    def test_cells_and_ranks_match_the_frozenset_oracle(self, group):
        for ctx in _suite_contexts(group):
            cells = oracles.k_cells(ctx, K_PAIRS)
            assert _cells(ctx) == cells, ctx.flag
            ranks = {x: int(ctx.super_ranks[x]) or None for x in range(ctx.m) if x != ctx.table.zero_id}
            assert ranks == oracles.super_ranks(ctx, cells), ctx.flag
            if group == "F2-11111":  # the (2, 2) exclusion keeps some ids
                assert len(cells[(2, 2)]) == 136
            if group == "F3-1111":  # and here it drops every one
                depth_22 = (ctx.depth_prec == 2) & (ctx.depth_ll == 2) & nilclass._sandwich_nonzero(ctx, 1, 1)
                assert depth_22.any() and not cells[(2, 2)]


class TestSuperRank:
    def test_rank_one_cases(self, ctx3):
        assert super_rank(ctx3, E(1, 2)) == 1
        assert super_rank(ctx3, E(2, 3)) == 1
        assert super_rank(ctx3, E(1, 3)) == 1

    def test_zero_rejected(self, ctx3):
        with pytest.raises(ZeroElement):
            super_rank(ctx3, matrix(F2, [[0] * 3] * 3))

    def test_undefined_case(self, ctx3):
        a = E(1, 2) + E(2, 3)
        assert not ctx3.decomposable[ctx3.table.index[a]]
        assert super_rank(ctx3, a) is None

    def test_rank_law_on_decomposables(self, ctx_complete4, ctx212):
        for ctx in (ctx_complete4, ctx212):
            for x in np.flatnonzero(ctx.decomposable).tolist():
                if x == 0:
                    continue
                a = ctx.t.elements[x]
                assert super_rank(ctx, a) == mat_rank(a)

    def test_212_has_no_rank2_decomposables(self, ctx212):
        # middle stratum is a line, so every product factors through it
        assert all(mat_rank(ctx212.t.elements[x]) <= 1 for x in _ids(ctx212.decomposable))

    def test_criterion_07_names_the_first_broken_decomposable(self, monkeypatch):
        from matsemi.gf import format_matrix

        good = nil_context.__wrapped__(standard_flag(F2, (1, 1, 1)))
        bad = nil_context.__wrapped__(standard_flag(F2, (1, 1, 1, 1)))
        ids = np.flatnonzero(bad.decomposable)[1:]  # id 0 is the zero matrix
        x = int(ids[1])
        assert bad.super_ranks[x] == mat_rank(bad.t.elements[x]) == 1
        ranks = bad.super_ranks.copy()
        ranks[x] = 2
        bad.__dict__["super_ranks"] = ranks
        monkeypatch.setattr(verify, "_battery", lambda: (good, bad))
        res = verify.criterion_07()
        assert not res.passed
        assert dict(res.details)["decomposables_checked"] == int(good.decomposable.sum()) - 1 + 2
        assert res.witness == f"sig (1, 1, 1, 1), {format_matrix(bad.t.elements[x])}: super rank 2 != rank 1"

    def test_rank2_decomposable_in_complete4(self, ctx_complete4):
        a = unit_matrix(F2, 4, 0, 2) + unit_matrix(F2, 4, 1, 3)  # (e12+e23)(e23+e34)
        assert ctx_complete4.decomposable[ctx_complete4.table.index[a]]
        assert super_rank(ctx_complete4, a) == 2


def _same_sandwiches(g, x, y):
    """c*x*d = c*y*d in the grid g for every (c, d) != (1, 1)."""
    return np.array_equal(g[x], g[y]) and np.array_equal(g[:, x], g[:, y]) and np.array_equal(g[g[:, x]], g[g[:, y]])


class TestSandwichWitness:
    def test_corner_fix_case(self, ctx_complete4):
        # a has rank 2 and super rank 1: changing its corner entry (row
        # stratum 1, column stratum r) gives the rank-1 w with c*a*d = c*w*d
        # for every (c, d) != (1, 1), as Im(a - w) lies in V_1 and
        # (a - w)(V_{r-1}) = 0.
        ctx = ctx_complete4
        E4 = lambda i, j: unit_matrix(F2, 4, i - 1, j - 1)
        a = E4(1, 3) + E4(2, 3) + E4(2, 4)
        xa = ctx.table.index[a]
        assert xa in _cells(ctx)[(1, 1)]
        assert mat_rank(a) == 2 and super_rank(ctx, a) == 1
        w = a + E4(1, 4)
        assert mat_rank(w) == 1
        g = ctx.table.grid
        assert _same_sandwiches(g, xa, ctx.table.index[w])

    def test_rank_mismatch_returns_none(self, ctx_complete4):
        # b has super rank 2: no rank-1 element shares its sandwiches
        ctx = ctx_complete4
        b = unit_matrix(F2, 4, 0, 1) + unit_matrix(F2, 4, 1, 2)  # e12 + e23
        assert super_rank(ctx, b) == 2
        g, xb = ctx.table.grid, ctx.table.index[b]
        assert not any(_same_sandwiches(g, xb, y) for y in np.flatnonzero(ctx.table.ranks == 1))


class TestFingerprint:
    def test_frozen_trio(self, ctx112, ctx121, ctx211):
        fp112, fp121, fp211 = fingerprint(ctx112), fingerprint(ctx121), fingerprint(ctx211)
        assert fp112.size == fp121.size == fp211.size == 32
        assert (fp112.power_sizes[1], fp121.power_sizes[1], fp211.power_sizes[1]) == (4, 2, 4)
        assert (fp112.left_ann, fp121.left_ann, fp211.left_ann) == (16, 8, 8)
        assert (fp112.right_ann, fp121.right_ann, fp211.right_ann) == (8, 8, 16)
        assert (fp112.u_stats, fp121.u_stats, fp211.u_stats) == ((1,), (2,), (1,))
        assert len({fp112.items(), fp121.items(), fp211.items()}) == 3

    def test_complete4(self, ctx_complete4):
        fp = fingerprint(ctx_complete4)
        assert fp.size == 64
        assert fp.power_sizes == (64, 8, 2, 1)
        assert (fp.right_ann, fp.left_ann, fp.two_sided_ann) == (8, 8, 2)
        assert fp.decomposable_count == 8
        assert fp.k_sizes == (6, 6, 8, 0, 0, 8, 8, 0)
        assert fp.u_stats == (1, 1)

    def test_212(self, ctx212):
        fp = fingerprint(ctx212)
        assert fp.size == 256
        assert fp.power_sizes == (256, 10, 1)
        assert (fp.right_ann, fp.left_ann, fp.two_sided_ann) == (64, 64, 16)
        assert fp.decomposable_count == 10
        assert fp.u_stats == (1,)

    def test_items_order_is_fixed(self, ctx112):
        keys = [k for k, _ in fingerprint(ctx112).items()]
        assert keys[:4] == ["size", "power_1", "power_2", "power_3"]
        assert keys[-1] == "u_2"


class TestUStat:
    def test_u_recovers_signature(self, ctx112, ctx121, ctx211, ctx_complete4, ctx212):
        for ctx in (ctx112, ctx121, ctx211, ctx_complete4, ctx212):
            for s in range(2, ctx.r):
                u, cert = u_stat(ctx, s)
                assert u == ctx.sig[s - 1]
                assert len(cert) == u

    def test_certificate_covers(self, ctx121):
        u, cert = u_stat(ctx121, 2)
        zero = ctx121.table.zero_id
        g = ctx121.table.grid
        targets = [
            b
            for b in range(ctx121.m)
            if any(g[a][b] != zero for a in range(ctx121.m))  # T b != 0 and b in T^{r-2}
            and ctx121.power_masks[ctx121.r - 3][b]
        ]
        for b in targets:
            assert any(g[c][b] != zero for c in cert)

    def test_position_bounds(self, ctx112):
        with pytest.raises(PreconditionViolated):
            u_stat(ctx112, 1)
        with pytest.raises(PreconditionViolated):
            u_stat(ctx112, 3)

    def test_sandwich_nonzero_masks_are_the_products(self, ctx121, ctx_complete4):
        for ctx in (ctx121, ctx_complete4):
            g = ctx.table.grid.tolist()
            zero = ctx.table.zero_id
            for left in range(ctx.r):
                for right in range(ctx.r - left):
                    ls = _ids(ctx.power_masks[left - 1]) if left else None
                    rs = _ids(ctx.power_masks[right - 1]) if right else None
                    want = []
                    for x in range(ctx.m):
                        xs = {g[a][x] for a in ls} if ls else {x}
                        sandwich = {g[y][b] for y in xs for b in rs} if rs else xs
                        want.append(sandwich != {zero})
                    assert nilclass._sandwich_nonzero(ctx, left, right).tolist() == want


def test_fingerprint_does_not_import_numpy_ma():
    # np.unique pulled in numpy.ma (about 20 ms and 1.7 MB) on every
    # fingerprint with a middle position; the sandwich sets are masks now
    argv = ["nil", "fingerprint", "--field", "3", "--n", "4", "--sig", "1,2,1", "--format", "json"]
    script = (
        "import sys\n"
        "from matsemi.cli import run_command\n"
        f"text, code = run_command({argv!r})\n"
        "sys.stdout.write(text)\n"
        "sys.stderr.write(str('numpy.ma' in sys.modules))\n"
        "sys.exit(code)\n"
    )
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stderr == b"False"
    text, code = run_command(argv)
    assert code == 0 and cp.stdout == text.encode()
    result = json.loads(text)["result"]
    assert result["fingerprint"] == {
        "size": 243,
        "power_1": 243,
        "power_2": 3,
        "power_3": 1,
        "right_ann": 27,
        "left_ann": 27,
        "two_sided_ann": 3,
        "decomposable_count": 3,
        "k_1_0": 24,
        "k_0_1": 24,
        "k_1_1": 0,
        "k_2_0": 0,
        "k_0_2": 0,
        "k_2_1": 0,
        "k_1_2": 0,
        "k_2_2": 0,
        "u_2": 2,
    }
    assert result["u_certificates"] == {
        "u_2": ["0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0", "0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0"]
    }


class TestCensus:
    def test_212_census(self, ctx212):
        census = dict(annihilator_census(ctx212))
        assert census["two_sided_ann"] == 16
        assert census["decomposable_in_ann"] == 10
        assert census["rank_le_one_corner"] == 10
        assert census["geometric_shortcut"] == 8
        assert census["expected_mismatch"] is True
        assert census["right_ann"] == 64 and census["right_ann_matches"] is True

    def test_needs_length_three(self, ctx_complete4):
        with pytest.raises(PreconditionViolated):
            annihilator_census(ctx_complete4)


DECIDE_CASES = [
    (2, 4, (1, 2, 1), 4, (1, 2, 1), IsoDecision.ISOMORPHIC),
    (None, 6, (2, 1, 3), 7, (4, 1, 2), IsoDecision.ISOMORPHIC),
    (2, 4, (1, 3), 4, (3, 1), IsoDecision.ISOMORPHIC),
    (2, 4, (1, 3), 5, (1, 4), IsoDecision.NOT_ISOMORPHIC),
    (2, 5, (1, 4), 5, (2, 3), IsoDecision.NOT_ISOMORPHIC),
    (2, 4, (2, 2), 5, (1, 4), IsoDecision.ISOMORPHIC),
    (None, 4, (1, 3), 7, (2, 5), IsoDecision.ISOMORPHIC),
    (2, 4, (1, 1, 2), 4, (1, 2, 1), IsoDecision.NOT_ISOMORPHIC),
    (2, 4, (1, 1, 2), 5, (1, 1, 3), IsoDecision.UNSUPPORTED),
    (None, 4, (1, 1, 2), 5, (1, 1, 3), IsoDecision.UNSUPPORTED),
    (None, 5, (2, 1, 2), 5, (2, 1, 2), IsoDecision.ISOMORPHIC),
    (None, 5, (2, 1, 2), 6, (1, 1, 4), IsoDecision.NOT_ISOMORPHIC),
    (2, 5, (1, 1, 1, 2), 5, (1, 1, 1, 2), IsoDecision.ISOMORPHIC),
    (2, 5, (1, 1, 1, 2), 6, (1, 1, 1, 3), IsoDecision.NOT_ISOMORPHIC),
    (2, 3, (1, 1, 1), 4, (1, 1, 1, 1), IsoDecision.NOT_ISOMORPHIC),
]


class TestIso:
    @pytest.mark.parametrize("q,n1,s1,n2,s2,want", DECIDE_CASES)
    def test_decide(self, q, n1, s1, n2, s2, want):
        assert iso_decide(q, n1, s1, n2, s2) is want

    def test_decide_rejects_bad_signature(self):
        with pytest.raises(BadSignature):
            iso_decide(2, 4, (0, 4), 4, (1, 3))

    @pytest.mark.parametrize("q", [1, 6, 12, 100])
    def test_decide_rejects_field_sizes_without_a_field(self, q):
        with pytest.raises(NotPrime, match="not a prime power"):
            iso_decide(q, 2, (1, 1), 2, (1, 1))

    def test_construct_pair(self):
        flags = [f for f in all_flags(F2, 3) if f.length == 3]
        c1, c2 = nil_context(flags[0]), nil_context(flags[5])
        iso = iso_construct(c1, c2)
        assert len(iso.pairs) == 8
        mapping = dict(iso.pairs)
        for a in c1.t:
            for b in c1.t:
                assert mapping[a * b] == mapping[a] * mapping[b]

    def test_construct_identity(self):
        c = nil_context(standard_flag(F2, (1, 2)))
        iso = iso_construct(c, c)
        assert all(a == b for a, b in iso.pairs)

    def test_construct_rejects_mismatch(self):
        with pytest.raises(SignatureMismatch, match=r"signatures \(1, 2\) vs \(2, 1\)"):
            iso_construct(
                nil_context(standard_flag(F2, (1, 2))),
                nil_context(standard_flag(F2, (2, 1))),
            )
        with pytest.raises(FieldMismatch, match="contexts over different fields"):
            iso_construct(nil_context(standard_flag(F2, (1, 2))), nil_context(standard_flag(field_make(3), (1, 2))))
        with pytest.raises(DimMismatch, match="contexts in different ambient dimensions"):
            iso_construct(nil_context(standard_flag(F2, (1, 2))), nil_context(standard_flag(F2, (1, 3))))


def _signature_groups():
    """The battery's contexts grouped by ambient dimension and signature."""
    groups: dict = {}
    for ctx in verify._battery():
        groups.setdefault((ctx.flag.ambient, ctx.sig), []).append(ctx)
    return groups


# (ambient, signature) of every group of the battery
BATTERY_GROUPS = [
    (3, (1, 2)), (3, (2, 1)), (3, (1, 1, 1)),
    (4, (1, 1, 2)), (4, (1, 2, 1)), (4, (2, 1, 1)), (4, (1, 1, 1, 1)),
    (5, (2, 1, 2)),
]


class TestBatchTransport:
    def test_groups_cover_the_battery(self):
        assert sorted(_signature_groups()) == sorted(BATTERY_GROUPS)

    @pytest.mark.parametrize("key", BATTERY_GROUPS, ids=str)
    def test_every_pair_matches_the_per_pair_oracle(self, key):
        group = _signature_groups()[key]
        g, perm = nilclass.batch_transport(group, group)
        assert g.shape[:2] == perm.shape[:2] == (len(group), len(group))
        for (i, c1), (j, c2) in itertools.product(enumerate(group), enumerate(group)):
            assert tuple(g[i, j].ravel().tolist()) == flag_transporter(c1.flag, c2.flag).codes
            assert perm[i, j].tolist() == transport_perm(c1, c2)

    @pytest.fixture
    def group(self):
        return _signature_groups()[(3, (1, 1, 1))]

    def _raises_at(self, sources, targets, pair, what):
        with pytest.raises(InternalError, match=rf"^transport of pair \({pair[0]}, {pair[1]}\) {what}$"):
            nilclass.batch_transport(sources, targets)

    def test_corrupted_grid_entry_of_one_target(self, group):
        bad = copy.copy(group[4])
        poisoned = bad.table.grid.copy()
        poisoned[3, 5] = (poisoned[3, 5] + 1) % bad.m
        bad.table = dataclasses.replace(bad.table, prebuilt_grid=poisoned)
        self._raises_at(group, group[:4] + [bad] + group[5:], (0, 4), "does not preserve products")

    def test_transporter_replaced_by_the_identity(self, group, monkeypatch):
        real = nilclass._transporters

        def identity_at_2_5(sources, targets):
            g, g_inv = real(sources, targets)
            g[2, 5] = g_inv[2, 5] = np.eye(3, dtype=g.dtype)
            return g, g_inv

        monkeypatch.setattr(nilclass, "_transporters", identity_at_2_5)
        self._raises_at(group, group, (2, 5), "does not carry the chain over")

    def test_inverse_replaced_by_zero(self, group, monkeypatch):
        # every conjugate is then 0, which the target holds, so only the
        # bijection check can fail
        real = nilclass._transporters

        def zero_inverse_at_1_3(sources, targets):
            g, g_inv = real(sources, targets)
            g_inv[1, 3] = 0
            return g, g_inv

        monkeypatch.setattr(nilclass, "_transporters", zero_inverse_at_1_3)
        self._raises_at(group, group, (1, 3), "is not a bijection")

    def test_target_missing_one_element(self, group):
        bad = copy.copy(group[7])
        bad.t = engine.MatSet(F2, 3, bad.codes[:-1])
        self._raises_at(group, group[:7] + [bad], (0, 7), "leaves the target semigroup")


class TestMeets:
    @pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 65])
    @pytest.mark.parametrize("rows", [(0, 5), (5, 0), (0, 0), (13, 11)])
    def test_blocks_match_the_row_loop(self, cols, rows, monkeypatch):
        rng = np.random.default_rng(cols * 100 + rows[0])
        a = rng.random((rows[0], cols)) < 0.2
        b = rng.random((rows[1], cols)) < 0.2
        want = meets_by_rows(a, b)
        assert nilclass._meets(a, b).tolist() == want.tolist()
        # budgets of three rows of a per block (13 rows: blocks of 3, 3, 3, 3
        # and 1), of one row, and of less than one row
        row = (cols + 7) // 8 * rows[1]
        for budget in (3 * row, row, 1):
            monkeypatch.setattr(nilclass, "MEETS_BLOCK_BYTES", budget)
            assert nilclass._meets(a, b).tolist() == want.tolist()


def test_context_requires_length_two():
    with pytest.raises(PreconditionViolated):
        nil_context(standard_flag(F2, (3,)))


def test_context_above_the_table_cap_is_refused_before_its_elements(monkeypatch):
    # |T| = 8^(1*1 + 1*2 + 1*2) = 32 768 follows from the signature alone
    def no_elements(*args, **kwargs):
        raise AssertionError("flag semigroup enumerated above the table cap")

    monkeypatch.setattr(nilclass, "_enumerate_group", no_elements)
    flag = standard_flag(field_make(2, 3), (1, 1, 2))
    with pytest.raises(CapExceeded) as exc:
        nil_context.__wrapped__(flag)
    assert str(exc.value) == f"table of 32768 elements exceeds cap {engine.TABLE_ELEMS_CAP}"
    # the flag-size cap still comes first
    with pytest.raises(CapExceeded, match="flag semigroup has 32768 elements, cap 100"):
        nil_context.__wrapped__(flag, cap=100)


def test_cold_context_build_runs_few_eliminations(monkeypatch):
    # ranks, power-image spans and the maximality proof are batched over
    # code arrays; one _rref per element (746 calls here) must not return
    from matsemi import gf

    flag = standard_flag(field_make(3), (1, 2, 1))
    cached = (flags.flag_basis, flags.flag_basis_inverse, flags._lowering_space, flags._block_ranks)
    for fn in (*cached, gf.mat_rank, gf.mat_kernel, gf.mat_image):
        fn.cache_clear()
    calls = []
    real = gf._rref

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gf, "_rref", counting)
    ctx = nil_context.__wrapped__(flag)
    assert ctx.m == 243
    assert len(calls) <= 32


@pytest.mark.parametrize("sig", [(1, 2), (1, 1, 1), (1, 2, 1), (1, 1, 1, 1)])
def test_cold_context_computes_each_power_once(monkeypatch, sig):
    # table_nd, the power-image flag of the maximality proof, the
    # context's power masks and the fingerprint all read one power ladder:
    # T^2, ..., T^r are r - 1 products
    calls = []
    real = engine._product_mask

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_product_mask", counting)
    ctx = nil_context.__wrapped__(standard_flag(F3, sig))
    fingerprint(ctx)
    assert len(calls) == ctx.r - 1 == len(sig) - 1


class TestOneTablePerContext:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = engine.build_table

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for mod in (engine, nilclass, flags):
            if getattr(mod, "build_table", None) is real:
                monkeypatch.setattr(mod, "build_table", counting)
        return calls

    @pytest.mark.parametrize("sig", [(1, 2), (2, 1), (1, 1, 1), (1, 1, 2)])
    def test_nil_context_builds_one_table(self, builds, monkeypatch, sig):
        # one product grid, of the signature's blocks, relabelled into the
        # context's table, and no build_table beside it
        grids = []
        real = nilclass.product_grid

        def counting(s, **kw):
            grids.append(s)
            return real(s, **kw)

        monkeypatch.setattr(nilclass, "product_grid", counting)
        ctx = nil_context.__wrapped__(standard_flag(F2, sig))
        assert builds == [] and [len(s) for s in grids] == [ctx.m]

    @pytest.mark.parametrize("sig", [(1, 2), (1, 1, 1), (1, 2, 1)])
    def test_public_flag_tests_build_one_table(self, builds, sig):
        s = flags.flag_semigroup(standard_flag(F2, sig))
        assert flags.is_k_maximal(s)
        assert builds == [s]
        builds.clear()
        assert flags.power_image_flag(s) == standard_flag(F2, sig)
        assert builds == [s]


def _same_context(got, want):
    """Two contexts of one flag agree in everything the build fixes."""
    assert got.flag == want.flag
    assert np.array_equal(got.codes, want.codes), format_flag(want.flag)
    assert np.array_equal(got.table.grid, want.table.grid), format_flag(want.flag)
    assert (got.table.zero_id, got.table.identity_id) == (want.table.zero_id, want.table.identity_id) == (0, None)
    assert np.array_equal(got.power_masks, want.power_masks), format_flag(want.flag)
    a, b = fingerprint(got), fingerprint(want)
    assert a == b and a.u_certificates == b.u_certificates, format_flag(want.flag)


class TestContextGroups:
    @pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 3)])
    def test_every_flag_matches_the_per_flag_oracle(self, q, n):
        group = [fl for fl in all_flags(field_make(q), n) if fl.length >= 2]
        for got, fl in zip(nil_contexts(group), group, strict=True):
            _same_context(got, oracles.context_by_flag(fl))

    def test_mixed_signatures_come_back_in_input_order(self):
        cube = flags.flags_with_signature(F2, 3, (1, 1, 1))
        picks = [
            cube[3],
            standard_flag(F2, (1, 2)),
            standard_flag(F3, (1, 1, 1)),
            cube[3],
            flags.flags_with_signature(F2, 4, (2, 2))[5],
            cube[0],
            standard_flag(F2, (1, 2, 1)),
        ]
        got = nil_contexts(picks)
        assert [c.flag for c in got] == picks and got[0] is got[3]
        for ctx, fl in zip(got, picks):
            _same_context(ctx, oracles.context_by_flag(fl))

    def test_a_group_is_built_in_chunks_of_grid_entries(self, monkeypatch):
        sizes, real = [], nilclass._context_group

        def recording(fls):
            sizes.append(len(fls))
            return real(fls)

        monkeypatch.setattr(nilclass, "_context_group", recording)
        monkeypatch.setattr(nilclass, "GROUP_GRID_ENTRIES", 5 * 8 * 8)  # five grids of 8 x 8
        group = flags.flags_with_signature(F2, 3, (1, 1, 1))
        for got, fl in zip(nil_contexts(group), group, strict=True):
            _same_context(got, oracles.context_by_flag(fl))
        assert sizes == [5, 5, 5, 5, 1]

    def test_a_wrong_relabelling_names_its_flag(self, monkeypatch):
        # two elements of one flag's semigroup trade blocks, so its grid is
        # relabelled wrongly while its codes stay right
        group = flags.flags_with_signature(F2, 3, (1, 1, 1))
        real = nilclass._enumerate_group

        def swapped(fls):
            codes, blocks = real(fls)
            blocks = blocks.copy()
            blocks[4, [1, -1]] = blocks[4, [-1, 1]]
            return codes, blocks

        monkeypatch.setattr(nilclass, "_enumerate_group", swapped)
        with pytest.raises(InternalError, match=re.escape(f"flag {format_flag(group[4])}: grid entry ")):
            nil_contexts(group)

    @pytest.mark.parametrize("q, n", [(2, 3), (3, 3)])
    def test_power_images_span_only_their_own_chain(self, q, n):
        # each flag's elements and ladder, reduced level by level, give the
        # RREF bases of its own interior subspaces, so those of no other
        # flag of its signature
        field = field_make(q)
        fls = [fl for fl in all_flags(field, n) if fl.length >= 2]
        for idx in flags.signature_groups(fls):
            group = [fls[i] for i in idx]
            ctxs = nil_contexts(group)
            codes, ladders = np.stack([c.codes for c in ctxs]), np.stack([c.power_masks for c in ctxs])
            rows, ranks = flags._power_image_levels(field, codes, ladders)
            got = [[tuple(map(tuple, lvl[:rk])) for lvl, rk in zip(*per)] for per in zip(rows.tolist(), ranks.tolist())]
            assert got == [[sp.basis for sp in fl.interior] for fl in group]

    def test_a_chain_its_powers_miss_names_its_flag(self, monkeypatch):
        group = flags.flags_with_signature(F2, 3, (1, 1, 1))
        real = nilclass._power_image_levels

        def short(*args):  # the images of flag 4's T^2 lose a rank
            rows, ranks = real(*args)
            ranks = ranks.copy()
            ranks[4, 0] -= 1
            return rows, ranks

        monkeypatch.setattr(nilclass, "_power_image_levels", short)
        with pytest.raises(InvariantViolation, match=re.escape(f"flag {format_flag(group[4])}: flag semigroup is not maximal")):
            nil_contexts(group)

    def test_every_flag_is_refused_before_any_is_built(self, monkeypatch):
        def no_elements(*args, **kwargs):
            raise AssertionError("a context was built before the refusals")

        monkeypatch.setattr(nilclass, "_enumerate_group", no_elements)
        with pytest.raises(PreconditionViolated):
            nil_contexts([standard_flag(F2, (1, 1, 1)), standard_flag(F2, (3,))])
        with pytest.raises(CapExceeded, match="flag semigroup has 64 elements, cap 32"):
            nil_contexts([standard_flag(F2, (1, 2)), standard_flag(F2, (1, 1, 1, 1))], cap=32)


@pytest.fixture(scope="module")
def ctx121_f3(f3):
    return nil_context(standard_flag(f3, (1, 2, 1)))


def _oracle_routes(ctx):
    """The four preorders pair by pair from their definitions: zero sets
    read off the grid for the product routes, subspace containment for the
    kernel and image routes."""
    g = ctx.table.grid.tolist()
    zero = ctx.table.zero_id
    right = [{c for c in range(ctx.m) if g[x][c] == zero} for x in range(ctx.m)]
    left = [{c for c in range(ctx.m) if g[c][x] == zero} for x in range(ctx.m)]
    band, v1 = ctx.flag.chain[-2], ctx.flag.chain[1]
    kernels = [intersect(mat_kernel(a), band) for a in ctx.t]
    images = [span_sum(mat_image(a), v1) for a in ctx.t]
    pairs = [(a, b) for a in range(ctx.m) for b in range(ctx.m)]
    return {
        "prec_products": [right[a] <= right[b] for a, b in pairs],
        "prec_kernels": [kernels[b].contains(kernels[a]) for a, b in pairs],
        "ll_products": [left[a] <= left[b] for a, b in pairs],
        "ll_images": [images[a].contains(images[b]) for a, b in pairs],
    }


class TestRouteMatrices:
    def test_battery_of_f2_cubed(self):
        for f in all_flags(F2, 3):
            if f.length < 2:
                continue
            ctx = nil_context(f)
            for name, want in _oracle_routes(ctx).items():
                assert getattr(ctx, name).ravel().tolist() == want, (f, name)
            a, b = ctx.t.elements[1], ctx.t.elements[-1]
            assert prec(ctx, a, b, "kernels") == bool(ctx.prec_kernels[1, -1])
            assert ll(ctx, a, b, "images") == bool(ctx.ll_images[1, -1])

    def test_121_over_f3(self, ctx121_f3):
        ctx = ctx121_f3
        assert ctx.m == 243
        for name, want in _oracle_routes(ctx).items():
            assert getattr(ctx, name).ravel().tolist() == want, name

    def test_tat_sets_match_unique_definition(self, ctx121_f3):
        g = ctx121_f3.table.grid
        rows = nilclass._tat_rows(g, np.arange(ctx121_f3.m))
        for x in range(ctx121_f3.m):
            assert _ids(rows[x]) == frozenset(np.unique(g[g[:, x]]).tolist())
        picked = np.array([5, 0, 242, 5])  # any rows, in any order
        assert np.array_equal(nilclass._tat_rows(g, picked), rows[picked])


def test_iso_construct_is_matrix_conjugation(f3):
    group = flags.flags_with_signature(f3, 3, (1, 1, 1))
    for c1, c2 in ((group[0], group[-1]), (group[3], group[7])):
        ctx1, ctx2 = nil_context(c1), nil_context(c2)
        iso = iso_construct(ctx1, ctx2)
        gi = mat_inverse(iso.g)
        assert iso.g == flag_transporter(c1, c2)
        assert [b for _, b in iso.pairs] == [iso.g * a * gi for a in ctx1.t]
        assert [a for a, _ in iso.pairs] == list(ctx1.t)
        assert sorted(dict(iso.pairs).values(), key=ctx2.table.index.get) == list(ctx2.t)


F3 = field_make(3)
F4 = field_make(2, 2)


def _suite_contexts(group):
    """The contexts of one group; together the groups hold every context
    the suite builds, and more."""
    if group == "battery":  # criterion 06's forty
        return list(verify._battery())
    if group == "F3-121":  # the fingerprint-3-4-1.2.1 benchmark job
        return [nil_context(standard_flag(F3, (1, 2, 1)))]
    if group == "F3-121-moved":  # the second flag of iso-construct-3-4
        return [nil_context(flags.parse_flag(F3, 4, "0,1,0,0|0,1,0,0;0,0,1,0;1,0,0,0"))]
    if group == "F4-13":  # the fingerprint-4-4-1.3 benchmark job
        return [nil_context(standard_flag(F4, (1, 3)))]
    if group == "F3-cubed":  # every flag of F_3^3, most of them not standard
        return [nil_context(f) for f in all_flags(F3, 3) if f.length >= 2]
    if group == "F2-11111":  # 1 024 elements; its (2, 2) cell is not empty
        return [nil_context(standard_flag(F2, (1, 1, 1, 1, 1)))]
    if group == "F3-1111":  # 729 elements; the (2, 2) exclusion empties that cell
        return [nil_context(standard_flag(F3, (1, 1, 1, 1)))]
    if group == "F2-fourth":  # every flag of F_2^4, most of them not standard
        return [nil_context(f) for f in all_flags(F2, 4) if f.length >= 2]
    if group == "F2-212":  # its powers are not the x with x(V_i) ⊆ V_{i-j}
        return [nil_context(standard_flag(F2, (2, 1, 2)))]
    raise ValueError(group)


GROUPS = ["battery", "F3-121", "F3-121-moved", "F4-13", "F3-cubed"]


def _oracle_bands(ctx):
    """prec_kernels, ll_images, depth_prec and depth_ll element by element
    from subspaces: ker(x) ∩ V_{r-1} and Im(x) + V_1 as vector sets."""
    band, v1 = ctx.flag.chain[-2], ctx.flag.chain[1]
    kernels = [frozenset(intersect(mat_kernel(a), band).vectors()) for a in ctx.t]
    images = [frozenset(span_sum(mat_image(a), v1).vectors()) for a in ctx.t]
    return {
        "prec_kernels": [[ka <= kb for kb in kernels] for ka in kernels],
        "ll_images": [[ib <= ia for ib in images] for ia in images],
        "depth_prec": [band.dim - intersect(mat_kernel(a), band).dim for a in ctx.t],
        "depth_ll": [mat_image(a).dim - intersect(mat_image(a), v1).dim for a in ctx.t],
    }


def _dec_super_ranks(ctx):
    """{id: 1, 2 or None} for the nonzero decomposables, off super_ranks."""
    return {x: int(ctx.super_ranks[x]) or None for x in _ids(ctx.decomposable) if x != ctx.table.zero_id}


def _oracle_dec_super_rank(ctx):
    """oracles.word_ranks on the indecomposables' super ranks."""
    indec = {x: int(ctx.super_ranks[x]) or None for x in range(ctx.m) if not ctx.decomposable[x]}
    return oracles.word_ranks(ctx.table.grid, ctx.table.zero_id, indec)


class TestBatchedBands:
    @pytest.mark.parametrize("group", GROUPS)
    def test_bands_match_the_subspace_oracle(self, group):
        for ctx in _suite_contexts(group):
            for name, want in _oracle_bands(ctx).items():
                got = getattr(ctx, name)
                assert (got.tolist() if isinstance(got, np.ndarray) else got) == want, (ctx.flag, name)

    @pytest.mark.parametrize("group", GROUPS)
    def test_dec_super_rank_matches_the_set_fixpoint(self, group):
        for ctx in _suite_contexts(group):
            assert _dec_super_ranks(ctx) == _oracle_dec_super_rank(ctx), ctx.flag

    @pytest.mark.parametrize("n", [3, 4])
    def test_dec_super_rank_of_mixed_words(self, n):
        # a word reaching E13 has a factor with a (1,2) entry and a later
        # one with a (2,3) entry; ranking the factors with only the first 1
        # and those with only the second 2 leaves E13 to mixed words
        # the ranks are set through the K cells: (1, 0) has super rank 1
        # and (2, 0) super rank 2
        ctx = nil_context.__wrapped__(standard_flag(F2, (1,) * n))
        cells = np.zeros((len(K_PAIRS), ctx.m), dtype=bool)
        for x in np.flatnonzero(~ctx.decomposable).tolist():
            codes = ctx.t.elements[x].codes
            e12, e23 = codes[1], codes[n + 2]
            if e12 != e23:
                cells[K_PAIRS.index((1, 0) if e12 else (2, 0)), x] = True
        ctx.__dict__["k_masks"] = cells
        want = _oracle_dec_super_rank(ctx)
        assert want[ctx.table.index[E(1, 3, n)]] == 1
        assert _dec_super_ranks(ctx) == want

    def test_bands_read_no_grid(self):
        # the adapted array, the bands, the depths and every sandwich mask
        # come from the codes alone
        ref = _suite_contexts("F3-121-moved")[0]
        ctx = nil_context.__wrapped__(ref.flag)
        ctx.table = None  # any read of the table, its grid included, fails
        assert ctx.kernel_band.shape == (243, 27) and ctx.image_band.shape == (243, 27)
        assert len(ctx.depth_prec) == len(ctx.depth_ll) == 243
        p, p_inv = flags.flag_basis(ctx.flag), flags.flag_basis_inverse(ctx.flag)
        assert ctx.adapted.reshape(ctx.m, -1).tolist() == [list((p_inv * a * p).codes) for a in ref.t]
        for a, b in _exponent_pairs(ctx.r):
            assert np.array_equal(nilclass._sandwich_nonzero(ctx, a, b), oracles.sandwich_by_products(ref, a, b))


def _exponent_pairs(r):
    """Every (a, b) with a + b <= r, the exponents of the sandwich masks."""
    return [(a, b) for a in range(r + 1) for b in range(r + 1 - a)]


class TestAdaptedBlocks:
    @pytest.mark.parametrize("group", ["battery", "F2-fourth", "F3-cubed", "F2-212", "F2-11111"])
    def test_sandwich_masks_match_the_grid_route(self, group):
        for ctx in _suite_contexts(group):
            adapted, d = ctx.adapted, ctx.dims
            assert not adapted.flags.writeable
            for i in range(1, ctx.r + 1):  # x(V_i) ⊆ V_{i-1}: block strictly upper triangular
                assert not adapted[:, d[i - 1] :, : d[i]].any(), ctx.flag
            for a, b in _exponent_pairs(ctx.r):
                want = oracles.sandwich_by_products(ctx, a, b)
                assert np.array_equal(nilclass._sandwich_nonzero(ctx, a, b), want), (ctx.flag, a, b)

    def test_powers_are_not_read_off_blocks(self, ctx212):
        # the block rule of the sandwich masks does not give the powers: for
        # (2, 1, 2) the 16 x with x(V_i) ⊆ V_{i-2} are the 2 x 2 corner block,
        # while T^2 holds only its 10 matrices of rank <= 1, the products of a
        # 2 x 1 block by a 1 x 2 one
        ctx, d = ctx212, ctx212.dims
        two_down = ~np.any([ctx.adapted[:, d[max(i - 2, 0)] :, : d[i]].any(axis=(1, 2)) for i in range(1, 4)], axis=0)
        assert two_down.sum() == 16 and ctx.power_masks[1].sum() == 10
        assert not (ctx.power_masks[1] & ~two_down).any()


def test_context_cache_is_bounded():
    # flag-invariants builds 43 distinct contexts and the full battery 41
    assert nil_context.cache_info().maxsize == 64
