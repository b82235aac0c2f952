"""Oracle helpers shared by the test files: brute-force forms of questions
the library no longer asks itself."""

import itertools

import numpy as np

from matsemi.engine import build_table, canonical_set, table_nd
from matsemi.errors import DimMismatch, FieldMismatch, InternalError, SignatureMismatch
from matsemi.flags import Flag, _blocks, flag_basis, flag_basis_inverse
from matsemi.gf import (
    Matrix,
    _rref,
    batch_mul,
    codes_array,
    enumerate_subspaces,
    full_space,
    mat_image,
    mat_inverse,
    subspace,
    zero_subspace,
)
from matsemi.nilclass import NilContext


def is_zero(m) -> bool:
    """Every entry of the matrix m is zero."""
    return not any(m.codes)


def span_sum(u, w):
    """U + W, the span of both bases."""
    return subspace(u.field, u.ambient, list(u.basis) + list(w.basis))


def intersect(u, w):
    """U ∩ W, spanned by the vectors of U that lie in W."""
    return subspace(u.field, u.ambient, [v for v in u.vectors() if w.contains_vector(v)])


def complement_by_rref(s):
    """gf.standard_complement by one full row reduction per trial: e_i is
    kept when the reduced form of the kept rows plus e_i has more rows."""
    f, n = s.field, s.ambient
    picked = []
    cur, _ = _rref(f, [list(r) for r in s.basis])
    for i in range(n):
        if len(cur) == n:
            break
        e = [int(k == i) for k in range(n)]
        trial, _ = _rref(f, [r[:] for r in cur] + [e])
        if len(trial) > len(cur):
            picked.append(tuple(e))
            cur = trial
    return subspace(f, n, picked)


def stratum_of(flag, vec) -> int:
    """Least i with vec in V_i of the flag; 0 only for the zero vector."""
    return next(i for i, s in enumerate(flag.chain) if s.contains_vector(vec))


def enumerated_flag_basis(f):
    """flag_basis by enumeration: each stratum is completed greedily from
    all q^dim vectors of V_i, in Subspace.vectors() order, each kept when
    its remainder against the echelon rows of the span so far is nonzero."""
    mul, add, neg, inv = f.field.mul, f.field.add, f.field.neg, f.field.inv
    cols, echelon = [], []  # echelon: (pivot, row)
    for s in f.chain[1:]:
        for vec in s.vectors():
            if len(cols) == s.dim:
                break
            v = list(vec)
            for pc, row in echelon:
                if v[pc]:
                    mc = mul[neg[v[pc]]]
                    v = [add[x][mc[y]] for x, y in zip(v, row)]
            pc = next((i for i, x in enumerate(v) if x), None)
            if pc is not None:
                mc = mul[inv[v[pc]]]
                echelon.append((pc, [mc[x] for x in v]))
                cols.append(vec)
    n = f.ambient
    return Matrix(f.field, n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))


def flag_semigroup_by_flag(f):
    """flag_semigroup for one flag on its own: the block strictly upper
    triangular matrices conjugated by enumerated_flag_basis and its
    mat_inverse, put in canonical order by canonical_set."""
    field, n = f.field, f.ambient
    p = enumerated_flag_basis(f)
    conj = batch_mul(field, batch_mul(field, codes_array([p]), _blocks(field, f.signature)), codes_array([mat_inverse(p)]))
    return canonical_set(field, n, conj)


def powers_by_products(s):
    """[S^1, S^2, ..., S^k = {0}] as frozensets of Matrix, one Matrix
    product at a time; None when the powers never reach {0}.  k is the
    nilpotency degree."""
    zero = Matrix(s.field, s.dim, s.dim, (0,) * (s.dim * s.dim))
    powers = [frozenset(s)]
    while powers[-1] != {zero}:
        nxt = frozenset(x * y for x in powers[-1] for y in s)
        if nxt == powers[-1]:
            return None
        powers.append(nxt)
    return powers


def power_image_flag_by_spans(field, n, powers):
    """The flag of power-image spans of the power sets [S, ..., S^k = {0}]
    (collections of Matrix), one mat_image and span_sum per element of
    each power: V_i sums the images of S^(k-i)."""
    chain = [zero_subspace(field, n)]
    for level in powers[-2::-1]:  # S^(k-1) first: the smallest span
        span = zero_subspace(field, n)
        for x in level:
            span = span_sum(span, mat_image(x))
        chain.append(span)
    return Flag(field=field, ambient=n, chain=(*chain, full_space(field, n)))


def context_by_flag(flag):
    """nil_context one flag at a time: flag_semigroup_by_flag, build_table's
    product grid with its entry check, the zero at id 0, table_nd and the
    flag of its power-image spans (power_image_flag_by_spans over the
    table's power sets), then the context on the table's own power ladder.
    The set is S(F) by its construction, so F being its power-image flag
    makes it maximal for its degree."""
    table = build_table(flag_semigroup_by_flag(flag))
    powers = [table.subset(np.flatnonzero(mask)).elements for mask in table.power_ladder]
    spans = power_image_flag_by_spans(flag.field, flag.ambient, powers)
    if table.zero_id != 0 or table_nd(table) != flag.length or spans != flag:
        raise InternalError("the per-flag context build failed its checks")
    return NilContext(flag, table, table.power_ladder)


def flag_transporter(f, f2):
    """g = flag_basis(f2) flag_basis_inverse(f), which maps the adapted basis
    of f onto that of f2 and so carries each subspace of f onto the
    matching one of f2."""
    if f.field != f2.field:
        raise FieldMismatch("flags over different fields")
    if f.ambient != f2.ambient:
        raise DimMismatch("flags of different ambient spaces")
    if f.signature != f2.signature:
        raise SignatureMismatch(f"signatures {f.signature} vs {f2.signature}")
    return flag_basis(f2) * flag_basis_inverse(f)


def transport_perm(ctx1, ctx2) -> list[int]:
    """iso_construct one pair at a time: the id in ctx2 of g x g^-1 for each
    id x of ctx1, g = flag_transporter(f1, f2), checked as a bijection that
    preserves products."""
    f1, f2 = ctx1.flag, ctx2.flag
    g = flag_transporter(f1, f2)
    g_inv = flag_basis(f1) * flag_basis_inverse(f2)
    f = f1.field
    moved = batch_mul(f, batch_mul(f, codes_array([g]), ctx1.codes), codes_array([g_inv]))
    perm, found = ctx2.t.key_index.find(moved)
    if not found.all():
        raise InternalError("transport left the target semigroup")
    if ctx1.m != ctx2.m or len(set(perm.tolist())) != ctx2.m:
        raise InternalError("transport is not a bijection")
    g1, g2 = ctx1.table.grid, ctx2.table.grid
    if not np.array_equal(perm[g1], g2[np.ix_(perm, perm)]):
        raise InternalError("transport does not preserve products")
    return perm.tolist()


def meets_by_rows(a, b):
    """nilclass._meets one packed row of a at a time: [i, j] true when rows
    a[i] and b[j] of two bool matrices share a column."""
    pa, pb = np.packbits(a, axis=1), np.packbits(b, axis=1)
    out = np.empty((len(a), len(b)), dtype=bool)
    for i, row in enumerate(pa):
        out[i] = (row & pb).any(axis=1)
    return out


def sandwich_by_products(ctx, left_exp, right_exp):
    """nilclass._sandwich_nonzero from the grid: the member mask of the ids
    x with T^left_exp * x * T^right_exp != {0}, exponent 0 meaning the
    identity.

    By associativity c x d = c (x d), so the set is nonzero exactly when
    some x d, for d in T^right_exp, is a w with T^left_exp w != {0}; that
    test on w is one column reduction of the zero pattern over the rows of
    T^left_exp (w != 0 itself for exponent 0)."""
    if left_exp:
        reaches = ~ctx.zero_products[ctx.power_masks[left_exp - 1]].all(axis=0)
    else:
        reaches = np.arange(ctx.m) != ctx.table.zero_id
    if not right_exp:
        return reaches
    return reaches[ctx.table.grid[:, ctx.power_masks[right_exp - 1]]].any(axis=1)


def tat_sets(grid):
    """T x T of every id as a frozenset of ids: row x of the boolean product
    of left[x, y] (y in T x) and right[y, z] (z in y T), one row at a time."""
    m = len(grid)
    ids = np.arange(m)[:, None]
    left = np.zeros((m, m), dtype=bool)
    left[ids, grid.T] = True
    right = np.zeros((m, m), dtype=bool)
    right[ids, grid] = True
    return [frozenset(np.flatnonzero(row).tolist()) for row in meets_by_rows(left, right.T)]


def k_cells(ctx, pairs):
    """The K cells as frozensets of ids, from whole T x T sets: the x of
    prec depth u and ll depth v, for u, v >= 1 only those with a nonzero
    element in T x T, and in the (2, 2) cell only those whose T x T is
    that of no indecomposable of super rank 1."""
    grid, zero = ctx.table.grid, ctx.table.zero_id
    tat = tat_sets(grid)
    decomposable = frozenset(np.unique(grid).tolist())
    cells = {}
    for u, v in pairs:
        members = [x for x in range(ctx.m) if ctx.depth_prec[x] == u and ctx.depth_ll[x] == v]
        if u and v:
            members = [x for x in members if any(y != zero for y in tat[x])]
        cells[(u, v)] = frozenset(members)
    if cells[(2, 2)]:
        rank_one = (cells[(1, 0)] | cells[(0, 1)] | cells[(1, 1)]) - decomposable
        excluded = {tat[b] for b in rank_one}
        cells[(2, 2)] = frozenset(x for x in cells[(2, 2)] if tat[x] not in excluded)
    return cells


def word_ranks(grid, zero, indec_ranks):
    """Super rank of each nonzero decomposable by a worklist over words of
    indecomposables, given the super rank (1, 2 or None) of every
    indecomposable in indec_ranks.

    A word's flags are (has a factor of super rank 1, has one of super
    rank 2); each (product, flags) pair found is extended once, by putting
    every indecomposable in front of it.
    """
    by_col = grid.T.tolist()  # by_col[z][y] = y * z
    groups = {}
    for y, rank in indec_ranks.items():
        groups.setdefault((rank == 1, rank == 2), []).append(y)
    reach = {y: {f} for f, ys in groups.items() for y in ys}
    todo = [(y, f) for f, ys in groups.items() for y in ys]
    while todo:
        z, (h1, h2) = todo.pop()
        col = by_col[z]
        for (f1, f2), ys in groups.items():
            flags = (f1 or h1, f2 or h2)
            for x in {col[y] for y in ys}:
                if flags not in reach.setdefault(x, set()):
                    reach[x].add(flags)
                    todo.append((x, flags))
    out = {}
    for x in np.unique(grid).tolist():
        if x != zero:
            found = reach.get(x, set())
            out[x] = 1 if any(h1 for h1, _ in found) else 2 if any(h2 for _, h2 in found) else None
    return out


def super_ranks(ctx, cells):
    """{id: 1, 2 or None} for every nonzero id: indecomposables from the K
    cells, decomposables by word_ranks."""
    decomposable = frozenset(np.unique(ctx.table.grid).tolist())
    one = cells[(1, 0)] | cells[(0, 1)] | cells[(1, 1)]
    two = frozenset().union(*cells.values()) - one
    indec = {x: 1 if x in one else 2 if x in two else None for x in range(ctx.m) if x not in decomposable}
    return {**indec, **word_ranks(ctx.table.grid, ctx.table.zero_id, indec)}


def pair_families(field, n):
    """Every valid (A-family, B-family) pair of the families S(A, B), as
    tuples of Subspaces: nonempty sets of hyperplanes and of lines, no line
    inside a hyperplane of its pair.  Each family is in enumerate_subspaces
    order, and the pairs are sorted by their members' positions there."""
    hyper, lines = enumerate_subspaces(field, n, n - 1), enumerate_subspaces(field, n, 1)

    def subsets(k):
        return [c for size in range(1, k + 1) for c in itertools.combinations(range(k), size)]

    picks = sorted(
        (a, b)
        for a in subsets(len(hyper))
        for b in subsets(len(lines))
        if not any(hyper[i].contains(lines[j]) for i in a for j in b)
    )
    return [(tuple(hyper[i] for i in a), tuple(lines[j] for j in b)) for a, b in picks]


def isolated_report_key(codes):
    """The report order of isolated subsemigroups as it was computed from
    member sets: size, then the members' codes (canonical order) as
    unsigned big-endian bytes, so sets of one size compare as their code
    lists do."""
    return len(codes), codes.astype(">u8").tobytes()


def mask_nd(grid, base, zero_id):
    """Nilpotency degree of the closed id set `base` (a member mask), or
    None: the length of its power ladder [S, S^2, ...] when that ends at
    {0}.  Each power is the distinct products of the last one's ids with
    S's, as an id array; the powers shrink, so an unchanged power never
    reaches {0}."""
    ids = np.flatnonzero(base)
    power, k = ids, 1
    while zero_id is None or power.tolist() != [zero_id]:
        nxt = np.unique(grid[np.ix_(power, ids)])
        if np.array_equal(nxt, power):
            return None
        power, k = nxt, k + 1
    return k


def primary_pair_keys_full(grid):
    """conjugacy._primary_pair_keys on the whole grid: each block of 64 rows
    x against every column y, the keys built in int64."""
    m = len(grid)
    seen = np.zeros(m * m, dtype=bool)
    for lo in range(0, m, 64):
        xy = grid[lo : lo + 64].astype(np.int64)  # rows x, columns y
        yx = grid[:, lo : lo + 64].T.astype(np.int64)
        seen[np.minimum(xy, yx) * m + np.maximum(xy, yx)] = True
    return np.flatnonzero(seen)
