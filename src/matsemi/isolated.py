"""Isolated and completely isolated subsemigroups of M(n, F_q).

A subsemigroup S is isolated when every element some power of which lands
in S already lies in S, and completely isolated when x*y in S forces
x in S or y in S.  At desk scale the full classification — the whole
semigroup, its group of units, the ideal of singular matrices, and the
image/kernel-constrained families S(A-family, B-family) — can be checked
both by construction and by brute subset scans.

Every subspace of F^n has one id: its position in gf.subspace_codes order,
by dimension and then by basis encoding.  _subspace_table caches the
subspaces of each F^n with an index of their reduced bases, and an
element's image and kernel ids are lookups of batch_rref forms in it.

Everything else runs on ids of the cached ambient table.  Each set of the
theorem list is a union of H-classes (one image and one kernel), so one
pass over the grid marks which H-classes every product and every power
joins, and bitsets over the sets answer closedness, isolation and complete
isolation for the whole list at once; the same (sets, blocks) matrix gives
each record its size and report order, so no record builds its members.
Any other set is a boolean member mask: closedness is read off the grid,
isolation off one gather of the mask over the powers array, and complete
isolation off a scan of the grid rows outside it.  The exhaustive subset
scan, a check of the theorem list, runs on the same table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import AMBIENT_CACHE_SIZE, GRID_BLOCK, KeyIndex, MatSet, SemigroupTable, ambient, check_scan_size
from .engine import closure, enumerate_subsemigroups
from .errors import BadK, InternalError, NotClosed, VerificationFailed
from .gf import FieldSpec, Subspace, batch_rref, subspace_codes

PAIR_SCAN_BLOCK = 16  # grid rows per step of the completely-isolated scan


# ---------------------------------------------------------------------------
# rank strata and ideals


def rank_stratum(field: FieldSpec, n: int, i: int) -> MatSet:
    """All matrices in M(n, F_q) of rank exactly i."""
    amb = ambient(field, n)
    return amb.subset(np.flatnonzero(amb.ranks == i))


def ideal(field: FieldSpec, n: int, i: int) -> MatSet:
    """The two-sided ideal of all matrices of rank at most i."""
    amb = ambient(field, n)
    return amb.subset(np.flatnonzero(amb.ranks <= i))


def ideal_generated_by_stratum(field: FieldSpec, n: int, k: int) -> MatSet:
    """Semigroup closure of the rank-k stratum; must equal the ideal I_k."""
    if not 1 <= k <= n - 1:
        raise BadK(f"stratum index must satisfy 1 <= k <= {n - 1}, got {k}")
    closed = closure(rank_stratum(field, n, k))
    expect = ideal(field, n, k)
    if closed != expect:
        raise VerificationFailed(
            f"closure(D_{k}) has {len(closed)} elements, ideal I_{k} has {len(expect)}",
            evidence={"closure_size": len(closed), "ideal_size": len(expect)},
        )
    return closed


# ---------------------------------------------------------------------------
# subspace ids


@lru_cache(maxsize=AMBIENT_CACHE_SIZE)  # one per cached ambient
def _subspace_table(field: FieldSpec, n: int) -> tuple[tuple[Subspace, ...], tuple[int, ...], KeyIndex]:
    """(subspace per id, first id of each dimension, index of the ids).

    Ids run over subspace_codes(field, n, d) for d = 0..n, so starts[d] is
    the first id of dimension d and starts[n + 1] the number of subspaces.
    The index holds each reduced basis padded with zero rows to n x n,
    which is the reduced form batch_rref gives every n x n matrix with that
    row space.
    """
    codes = [subspace_codes(field, n, d) for d in range(n + 1)]
    starts = (0, *itertools.accumulate(map(len, codes)))
    padded = np.concatenate([np.pad(bases, ((0, 0), (0, n - d), (0, 0))) for d, bases in enumerate(codes)])
    spaces = tuple(Subspace(field, n, tuple(map(tuple, basis))) for bases in codes for basis in bases.tolist())
    return spaces, starts, KeyIndex(field, padded)


def _subspace_ids(field: FieldSpec, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image id, kernel id) of every matrix of an (m, n, n) code array.

    The image is the row space of the transpose.  The kernel is spanned by
    one row per free column j of the reduced codes: e_j minus column j's
    entries at the pivots, each placed in its pivot's column.  Both are
    reduced by batch_rref and looked up in _subspace_table's index.
    """
    n = codes.shape[-1]
    index = _subspace_table(field, n)[2]
    image = batch_rref(field, codes.transpose(0, 2, 1))[0]
    red, _, pivots = batch_rref(field, codes)
    # row c of by_pivot: the reduced row whose pivot is column c; zero where c is free
    by_pivot = np.take_along_axis(red, np.cumsum(pivots, axis=1)[:, :, None] - 1, axis=1) * pivots[:, :, None]
    kernel = np.array(field.neg)[by_pivot.transpose(0, 2, 1)] * ~pivots[:, :, None]
    kernel[:, range(n), range(n)] = ~pivots
    return index.find(image)[0], index.find(batch_rref(field, kernel)[0])[0]


# ---------------------------------------------------------------------------
# isolation predicates


def _closed_mask(amb: SemigroupTable, ids) -> np.ndarray:
    """Member mask of the ambient ids `ids`; NotClosed unless they are closed.

    The witness is the first escaping pair (a, b) in row-major order of
    `ids`, as product_grid reports it for the same elements.
    """
    ids = np.asarray(ids, dtype=np.intp)
    mask = np.zeros(amb.m, dtype=bool)
    mask[ids] = True
    inside = mask[amb.grid[np.ix_(ids, ids)]]
    if not inside.all():
        a, b = divmod(int(np.argmin(inside)), len(ids))
        x, y = amb.s.elements[ids[a]], amb.s.elements[ids[b]]
        raise NotClosed("set not closed under multiplication", witness=(x, y, x * y))
    return mask


def _member_mask(s: MatSet) -> tuple[SemigroupTable, np.ndarray]:
    amb = ambient(s.field, s.dim)
    return amb, _closed_mask(amb, amb.s.key_index.find(s.codes)[0])


def _isolated(amb: SemigroupTable, mask: np.ndarray) -> bool:
    """No id outside the mask has a power inside it: one gather of the
    mask over amb.powers."""
    return not (mask[amb.powers].any(axis=0) & ~mask).any()


def _outside_product(amb: SemigroupTable, mask: np.ndarray):
    """The first (x, y, x*y) in row-major order with x and y outside the
    mask and x*y inside it, or None when there is none.

    The grid rows of the outside ids are scanned PAIR_SCAN_BLOCK at a time,
    stopping at the first block with such a product.
    """
    outside = np.flatnonzero(~mask)
    for i in range(0, len(outside), PAIR_SCAN_BLOCK):
        xs = outside[i : i + PAIR_SCAN_BLOCK]
        rows = amb.grid[xs]
        hit = mask[rows] & ~mask
        if hit.any():
            r, y = divmod(int(hit.argmax()), amb.m)
            return int(xs[r]), y, int(rows[r, y])
    return None


def is_isolated(s: MatSet) -> bool:
    """No element outside s has any power inside s."""
    return _isolated(*_member_mask(s))


def is_completely_isolated(s: MatSet) -> bool:
    """Every factorization of a member has a member factor (full pair scan)."""
    return _outside_product(*_member_mask(s)) is None


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class IsolatedRecord:
    """A set of the theorem list: kind, size, families (S(A, B) only), predicates."""
    kind: str  # M | GL | I | SAB
    size: int
    a_family: tuple[Subspace, ...] | None
    b_family: tuple[Subspace, ...] | None
    isolated: bool
    completely_isolated: bool


def _all_pair_families(field: FieldSpec, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every valid (A-family, B-family) pair as (hyperplane ids, line ids),
    canonically ordered.

    Each family keeps id order and only lines outside all of its
    hyperplanes, so every family is valid and sorted as built.  Ids of one
    dimension follow basis encoding, so sorting the pairs of id tuples is
    sorting the families by their members' basis encodings.
    """
    spaces, starts, _ = _subspace_table(field, n)
    hyper, lines = range(starts[n - 1], starts[n]), range(starts[1], starts[2])
    inside = [[spaces[a].contains(spaces[b]) for b in lines] for a in hyper]
    picks = []
    for abits in range(1, 1 << len(hyper)):
        chosen = [i for i in range(len(hyper)) if abits >> i & 1]
        ok = [lines[j] for j in range(len(lines)) if not any(inside[i][j] for i in chosen)]
        for bbits in range(1, 1 << len(ok)):
            picks.append((tuple(hyper[i] for i in chosen), tuple(ok[j] for j in range(len(ok)) if bbits >> j & 1)))
    return sorted(picks)


def _h_classes(amb: SemigroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(block per ambient id, image id per block, kernel id per block): the
    blocks are the H-classes, the matrices with one image and one kernel."""
    k = _subspace_table(amb.s.field, amb.s.dim)[1][-1]
    image, kernel = _subspace_ids(amb.s.field, amb.codes)
    keys, of_id = np.unique(image.astype(np.int64) * k + kernel, return_inverse=True)
    return of_id.ravel(), keys // k, keys % k


def _block_predicates(amb: SemigroupTable, of_id: np.ndarray, members: np.ndarray):
    """(closed, isolated, completely isolated) of every row of the (sets,
    blocks) membership matrix members, as bool arrays.

    The block triples (h(x), h(y), h(xy)) of every product are marked in a
    B^3 array, reading the grid about GRID_BLOCK entries at a time, and the
    pairs (h(x), h(x^k)) of every power in a B^2 one.  Each block holds a
    bitset of the sets that contain it, and each realised triple (X, Y, Z)
    or pair (X, Z) gathers their bitsets: it breaks closedness where X and
    Y are in and Z out, complete isolation where X and Y are out and Z in,
    and isolation (a pair) where X is out and Z in.
    """
    b, m = members.shape[1], amb.m
    left = of_id.astype(np.intp) * b
    triples, pairs = np.zeros(b**3, dtype=bool), np.zeros(b * b, dtype=bool)
    step = max(1, GRID_BLOCK // m)
    for lo in range(0, m, step):
        triples[(left[lo : lo + step, None] + of_id) * b + of_id[amb.grid[lo : lo + step]]] = True
    for row in amb.powers:
        pairs[left + of_id[row]] = True
    bits = np.ascontiguousarray(np.packbits(members, axis=0).T)  # bits[X]: the sets containing X
    step = max(1, GRID_BLOCK // bits.shape[1])
    escape, rooted, split = np.zeros((3, bits.shape[1]), dtype=np.uint8)
    x, y, z = np.unravel_index(np.flatnonzero(triples), (b, b, b))
    for lo in range(0, len(z), step):
        bx, by, bz = bits[x[lo : lo + step]], bits[y[lo : lo + step]], bits[z[lo : lo + step]]
        escape |= np.bitwise_or.reduce(bx & by & ~bz, axis=0)
        split |= np.bitwise_or.reduce(~(bx | by) & bz, axis=0)
    x, z = np.unravel_index(np.flatnonzero(pairs), (b, b))
    for lo in range(0, len(z), step):
        rooted |= np.bitwise_or.reduce(~bits[x[lo : lo + step]] & bits[z[lo : lo + step]], axis=0)
    return tuple(np.unpackbits(v)[: len(members)] == 0 for v in (escape, rooted, split))


def _block_records(amb: SemigroupTable, of_id, labels, members) -> tuple[tuple[IsolatedRecord, ...], np.ndarray]:
    """(records, rows) of members, a (sets, blocks) membership matrix
    labelled (kind, A-family, B-family) by labels, both in report order.
    The first row not closed raises NotClosed with the witness of
    _closed_mask, or, if it is closed but not isolated, VerificationFailed.

    Report order is by size, then by the members' codes in canonical order:
    one lexsort by size and then by the row, its blocks ordered by least
    ambient id, members first.  Sets of one size first differ at the least
    id d of their symmetric difference, and the one holding d sorts first;
    d is the least id of the first block in that order that one set holds
    and the other lacks.  Ids follow codes within one rank, and every
    S(A, B) lies in rank n - 1.  Sets of different kinds differ in size
    except I = {0} and GL = {1} in M(1, F_2): S(A, B) lies in I - {0}, and
    |S(A, B)| = |A| |B| |GL_(n-1)| < (q^n - 1) q^(n-1) |GL_(n-1)| = |GL_n|,
    as |A| <= (q^n - 1)/(q - 1) and |B| <= q^(n-1) are not both reached.
    """
    closed, iso, ci = _block_predicates(amb, of_id, members)
    sizes = members @ np.bincount(of_id)
    for i in np.flatnonzero(~(closed & iso))[:1]:  # the first failing row
        if not closed[i]:
            _closed_mask(amb, np.flatnonzero(members[i][of_id]))  # raises NotClosed with the first escaping pair
            raise InternalError("H-classes and grid disagree on closedness")  # pragma: no cover
        msg = f"predicted isolated subsemigroup of kind {labels[i][0]} fails the power scan"
        raise VerificationFailed(msg, evidence={"kind": labels[i][0], "size": int(sizes[i])})
    first = np.unique(of_id, return_index=True)[1]  # the least ambient id of each block
    order = np.lexsort((*~members[:, np.argsort(first)].T[::-1], sizes)).tolist()  # the last key sorts first
    records = tuple(IsolatedRecord(labels[i][0], int(sizes[i]), *labels[i][1:], True, bool(ci[i])) for i in order)
    return records, members[order]


def _theorem_records(amb: SemigroupTable):
    """(H-classes, records, their membership rows): M, GL, I and every
    S(A, B), checked and classified on H-classes, in report order.  The
    H-classes are _h_classes(amb): the block per ambient id and the image
    and kernel id per block.

    Each set is a union of blocks: whether x is a member depends only on
    its rank, image and kernel, and its rank is the dimension of its image.
    So S is closed exactly when no realised block triple has its first two
    blocks in S and the third outside, isolated exactly when no realised
    pair (h(x), h(x^k)) has its first block outside and its second in, and
    completely isolated exactly when no realised triple has its first two
    blocks outside and the third in.  _block_predicates marks the triple of
    every product of the grid and the pair of every power, so the answers
    are brute force and exact.

    Blocks are labelled by subspace ids, so the rank of a block is the
    dimension its image id falls in, and the S(A, B) rows of the membership
    matrix come from two scatters of the families' ids.  For n = 1 the one
    family gives S({0}, {F}) = {0} = I, which is listed once, as I.
    """
    field, n = amb.s.field, amb.s.dim
    spaces, starts, _ = _subspace_table(field, n)
    of_id, image, kernel = _h_classes(amb)
    rank = np.searchsorted(starts, image, side="right") - 1  # the image's dimension
    fams = _all_pair_families(field, n) if n > 1 else []
    in_a, in_b = np.zeros((2, len(fams), len(spaces)), dtype=bool)
    for fill, side in ((in_a, 0), (in_b, 1)):  # every (family, member id) at once
        fill[np.repeat(np.arange(len(fams)), [len(f[side]) for f in fams]), [i for f in fams for i in f[side]]] = True
    members = np.concatenate(([rank <= n], [rank == n], [rank < n], in_a[:, image] & in_b[:, kernel]))
    labels = [("M", None, None), ("GL", None, None), ("I", None, None)]
    labels += [("SAB", tuple(spaces[i] for i in a), tuple(spaces[j] for j in b)) for a, b in fams]
    return (of_id, image, kernel), *_block_records(amb, of_id, labels, members)


def _checked_list(field: FieldSpec, n: int, mode: str):
    """(ambient, H-classes, records, rows) of the theorem list, checked against the subset scan in exhaustive mode."""
    if mode not in ("exhaustive", "theorem_list"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        check_scan_size(field.q, n * n)  # before the theorem list and the ambient
    amb = ambient(field, n)
    blocks, records, rows = _theorem_records(amb)
    if mode == "exhaustive":
        of_id = blocks[0]
        found = {ids for ids in enumerate_subsemigroups(amb) if _isolated(amb, np.isin(np.arange(amb.m), list(ids)))}
        predicted = {frozenset(np.flatnonzero(row[of_id]).tolist()) for row in rows}
        if found != predicted:
            evidence = {"only_found": len(found - predicted), "only_predicted": len(predicted - found)}
            raise VerificationFailed("exhaustive isolated scan disagrees with the constructed list", evidence=evidence)
    return amb, blocks, records, rows


def enumerate_isolated(field: FieldSpec, n: int, mode: str = "exhaustive") -> tuple[IsolatedRecord, ...]:
    """The theorem list of isolated subsemigroups of M(n, F_q), every set
    checked closed and isolated on H-classes, in report order.  exhaustive
    mode (q^(n*n) <= 16) also checks completeness: VerificationFailed unless
    the isolated sets of the subsemigroup scan are exactly the listed ones.
    """
    return _checked_list(field, n, mode)[2]


def ideal_absorption_check(field: FieldSpec, n: int):
    """For each isolated S: absorption hypotheses force I_{n-1} inside S.

    Hypotheses: S contains 0, or S contains two rank-(n-1) idempotents
    e(V1,V2), e(V1',V2') with V2 inside V1', or S contains an idempotent of
    rank at most n-2.  Returns (all_ok, per-subsemigroup rows).
    """
    amb, (of_id, image, kernel), records, members = _checked_list(field, n, "exhaustive")
    singular = amb.ranks < n
    spaces = _subspace_table(field, n)[0]
    rows = []
    all_ok = True
    for rec, member in zip(records, members):
        mask = member[of_id]
        ids = np.flatnonzero(mask)
        idems = ids[amb.grid[ids, ids] == ids]
        high = idems[amb.ranks[idems] == n - 1]
        contains_zero = bool(mask[amb.zero_id])
        low_idem = bool((amb.ranks[idems] <= n - 2).any())
        kernels = [spaces[i] for i in kernel[of_id[high]]]
        chained = any(spaces[i].contains(v) for i in image[of_id[high]] for v in kernels)
        hypothesis = contains_zero or chained or low_idem
        contained = bool(mask[singular].all())
        ok = (not hypothesis) or contained
        all_ok = all_ok and ok
        rows.append(
            (
                ("kind", rec.kind),
                ("size", rec.size),
                ("contains_zero", contains_zero),
                ("chained_idempotents", chained),
                ("low_rank_idempotent", low_idem),
                ("hypothesis", hypothesis),
                ("ideal_contained", contained),
                ("ok", ok),
            )
        )
    return all_ok, tuple(rows)
