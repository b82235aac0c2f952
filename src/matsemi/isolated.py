"""Isolated and completely isolated subsemigroups of M(n, F_q).

A subsemigroup S is isolated when every element some power of which lands
in S already lies in S, and completely isolated when x*y in S forces
x in S or y in S.  At desk scale the full classification — the whole
semigroup, its group of units, the ideal of singular matrices, and the
image/kernel-constrained families S(A-family, B-family) — can be checked
both by construction and by brute subset scans.

Everything runs on ids of the cached ambient table.  Each set of the
theorem list is a union of H-classes (one image and one kernel), so one
pass over the grid marks which H-classes every product and every power
joins, and bitsets over the sets answer closedness, isolation and complete
isolation for the whole list at once.  Any other set is a boolean member
mask: closedness is read off the grid, isolation off one gather of the
mask over the powers array, and complete isolation off a scan of the
grid rows outside it.  The exhaustive subset scan runs on the same table,
so no mode builds a second product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import GRID_BLOCK, MatSet, SemigroupTable, ambient, check_scan_size, closure, enumerate_subsemigroups
from .errors import BadK, InternalError, NotClosed, VerificationFailed
from .gf import FieldSpec, Subspace, enumerate_subspaces

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
# image/kernel families


@dataclass(frozen=True)
class SubspacePairFamily:
    """Candidate image hyperplanes and kernel lines, no line inside a hyperplane."""

    a_family: tuple[Subspace, ...]
    b_family: tuple[Subspace, ...]


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
    kind: str  # M | GL | I | SAB | other
    s: MatSet
    a_family: tuple[Subspace, ...] | None
    b_family: tuple[Subspace, ...] | None
    isolated: bool
    completely_isolated: bool


def _all_pair_families(field: FieldSpec, n: int):
    """Every valid (A-family, B-family) pair, canonically ordered.

    Hyperplanes and lines come sorted, and each family keeps that order and
    only lines outside all of its hyperplanes, so every family is valid and
    sorted as built.  Sorting the families by their position tuples is
    sorting them by their members' basis encodings.
    """
    hyper = enumerate_subspaces(field, n, n - 1)
    lines = enumerate_subspaces(field, n, 1)
    inside = [[a.contains(ln) for ln in lines] for a in hyper]
    picks = []
    for abits in range(1, 1 << len(hyper)):
        chosen = tuple(i for i in range(len(hyper)) if abits >> i & 1)
        ok = [j for j in range(len(lines)) if not any(inside[i][j] for i in chosen)]
        for bbits in range(1, 1 << len(ok)):
            picks.append((chosen, tuple(ok[i] for i in range(len(ok)) if bbits >> i & 1)))
    picks.sort()
    return [SubspacePairFamily(tuple(hyper[i] for i in a), tuple(lines[j] for j in b)) for a, b in picks]


def _h_classes(amb: SemigroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(block per ambient id, image id per block, kernel id per block): the
    blocks are the H-classes, the matrices with one image and one kernel."""
    k = len(amb.subspace_index)
    keys, of_id = np.unique(amb.image_ids.astype(np.int64) * k + amb.kernel_ids, return_inverse=True)
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


def _block_records(amb: SemigroupTable, of_id, labels, members) -> list[IsolatedRecord]:
    """One record per row of members, a (sets, blocks) membership matrix,
    labelled (kind, A-family, B-family) by labels.  A set that is not closed
    raises NotClosed with the element witness of _closed_mask, and one that
    is not isolated raises VerificationFailed."""
    records = []
    predicates = zip(*_block_predicates(amb, of_id, members))
    for (kind, a_fam, b_fam), row, (closed, iso, ci) in zip(labels, members, predicates):
        ids = np.flatnonzero(row[of_id])
        if not closed:
            _closed_mask(amb, ids)  # raises NotClosed with the first escaping pair
            raise InternalError("H-classes and grid disagree on closedness")  # pragma: no cover
        if not iso:
            msg = f"predicted isolated subsemigroup of kind {kind} fails the power scan"
            raise VerificationFailed(msg, evidence={"kind": kind, "size": len(ids)})
        records.append(IsolatedRecord(kind, amb.subset(ids), a_fam, b_fam, True, bool(ci)))
    return records


def _theorem_records(amb: SemigroupTable) -> list[IsolatedRecord]:
    """M, GL, I and every S(A, B), checked and classified on H-classes.

    Each set is a union of blocks: whether x is a member depends only on
    its rank, image and kernel, and its rank is the dimension of its image.
    So S is closed exactly when no realised block triple has its first two
    blocks in S and the third outside, isolated exactly when no realised
    pair (h(x), h(x^k)) has its first block outside and its second in, and
    completely isolated exactly when no realised triple has its first two
    blocks outside and the third in.  _block_predicates marks the triple of
    every product of the grid and the pair of every power, so the answers
    are brute force and exact.  For n = 1 the one family gives
    S({0}, {F}) = {0} = I, which is listed once, as I.
    """
    n, index = amb.s.dim, amb.subspace_index
    of_id, image, kernel = _h_classes(amb)
    rank = np.empty(len(image), dtype=amb.ranks.dtype)
    rank[of_id] = amb.ranks
    fams = _all_pair_families(amb.s.field, n) if n > 1 else []
    in_a, in_b = np.zeros((2, len(fams), len(index)), dtype=bool)
    for r, fam in enumerate(fams):
        in_a[r, [index[a] for a in fam.a_family]] = True
        in_b[r, [index[b] for b in fam.b_family]] = True
    members = np.concatenate(([rank <= n], [rank == n], [rank < n], in_a[:, image] & in_b[:, kernel]))
    labels = [("M", None, None), ("GL", None, None), ("I", None, None)]
    return _block_records(amb, of_id, labels + [("SAB", f.a_family, f.b_family) for f in fams], members)


def _sort_records(records: list[IsolatedRecord]) -> tuple[IsolatedRecord, ...]:
    """By size, then by the members' codes in canonical order; as unsigned
    big-endian bytes, sets of one size compare as their code lists do."""
    return tuple(sorted(records, key=lambda r: (len(r.s), r.s.codes.astype(">u8").tobytes())))


def enumerate_isolated(field: FieldSpec, n: int, mode: str = "exhaustive"):
    """Classify the isolated subsemigroups of M(n, F_q).

    exhaustive mode (q^(n*n) <= 16) scans every subsemigroup with the power
    predicate and cross-checks the classified list against the constructed
    one; theorem_list mode only verifies soundness of the constructed list
    (every emitted subsemigroup is isolated), not completeness.
    """
    if mode not in ("exhaustive", "theorem_list"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        check_scan_size(field.q, n * n)  # before the theorem list and the ambient
    amb = ambient(field, n)
    predicted = _theorem_records(amb)
    if mode == "theorem_list":
        return _sort_records(predicted)
    by_set = {r.s: r for r in predicted}
    found: list[IsolatedRecord] = []
    for ids in enumerate_subsemigroups(amb):
        mask = np.zeros(amb.m, dtype=bool)
        mask[list(ids)] = True
        if not _isolated(amb, mask):
            continue
        s = amb.subset(np.flatnonzero(mask))
        hit = by_set.get(s)
        if hit is None:
            hit = IsolatedRecord("other", s, None, None, True, _outside_product(amb, mask) is None)
        found.append(hit)
    found_sets, predicted_sets = {r.s for r in found}, set(by_set)
    if found_sets != predicted_sets:
        only_found, only_predicted = len(found_sets - predicted_sets), len(predicted_sets - found_sets)
        evidence = {"only_found": only_found, "only_predicted": only_predicted}
        raise VerificationFailed("exhaustive isolated scan disagrees with the constructed list", evidence=evidence)
    return _sort_records(found)


def ideal_absorption_check(field: FieldSpec, n: int):
    """For each isolated S: absorption hypotheses force I_{n-1} inside S.

    Hypotheses: S contains 0, or S contains two rank-(n-1) idempotents
    e(V1,V2), e(V1',V2') with V2 inside V1', or S contains an idempotent of
    rank at most n-2.  Returns (all_ok, per-subsemigroup rows).
    """
    records = enumerate_isolated(field, n, mode="exhaustive")
    amb = ambient(field, n)
    singular = ideal(field, n, n - 1)
    spaces = list(amb.subspace_index)  # subspace id -> Subspace
    rows = []
    all_ok = True
    for rec in records:
        ids = amb.s.key_index.find(rec.s.codes)[0]
        idems = ids[amb.grid[ids, ids] == ids]
        high = idems[amb.ranks[idems] == n - 1]
        contains_zero = bool((ids == amb.zero_id).any())
        low_idem = bool((amb.ranks[idems] <= n - 2).any())
        kernels = [spaces[i] for i in amb.kernel_ids[high]]
        chained = any(spaces[i].contains(v) for i in amb.image_ids[high] for v in kernels)
        hypothesis = contains_zero or chained or low_idem
        contained = singular.issubset(rec.s)
        ok = (not hypothesis) or contained
        all_ok = all_ok and ok
        rows.append(
            (
                ("kind", rec.kind),
                ("size", len(rec.s)),
                ("contains_zero", contains_zero),
                ("chained_idempotents", chained),
                ("low_rank_idempotent", low_idem),
                ("hypothesis", hypothesis),
                ("ideal_contained", contained),
                ("ok", ok),
            )
        )
    return all_ok, tuple(rows)
