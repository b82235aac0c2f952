"""Isolated and completely isolated subsemigroups of M(n, F_q).

A subsemigroup S is isolated when every element some power of which lands
in S already lies in S, and completely isolated when x*y in S forces
x in S or y in S.  At desk scale the full classification — the whole
semigroup, its group of units, the ideal of singular matrices, and the
image/kernel-constrained families S(A-family, B-family) — can be checked
both by construction and by brute subset scans.

Everything runs on ids of the cached ambient table: a set is a boolean
member mask, closedness is read off the ambient grid, isolation off the
ambient's roots index (which ids have a given power), and S(A, B) is found
from the per-id image and kernel subspace ids.  Within one enumeration,
complete isolation first re-checks the pairs that refuted it for earlier
sets and scans the grid only when none of them refutes this one.  The
exhaustive subset scan runs on the same table, so no mode builds a second
product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    MatSet,
    SemigroupTable,
    ambient,
    check_scan_size,
    closure,
    enumerate_subsemigroups,
)
from .errors import (
    AmbientMismatch,
    BadK,
    ContainmentViolation,
    DimMismatch,
    EmptyFamily,
    FieldMismatch,
    InternalError,
    InvariantViolation,
    NotClosed,
    VerificationFailed,
)
from .gf import (
    FieldSpec,
    Matrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    mat_image,
    mat_kernel,
    projection_idempotent,
    subspace_sort_key,
)

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
# idempotents


@dataclass(frozen=True)
class IdempotentPair:
    """An idempotent e together with its image/kernel decomposition."""

    v1: Subspace
    v2: Subspace
    e: Matrix

    def __post_init__(self):
        if self.e * self.e != self.e:
            raise InvariantViolation("matrix is not idempotent")
        if self.v1.intersect(self.v2).dim != 0 or self.v1.dim + self.v2.dim != self.v1.ambient:
            raise InvariantViolation("subspaces are not complementary")
        if mat_image(self.e) != self.v1 or mat_kernel(self.e) != self.v2:
            raise InvariantViolation("idempotent does not project onto v1 along v2")


def idempotent_for(onto: Subspace, along: Subspace) -> IdempotentPair:
    """The projection onto `onto` along `along`, as an annotated pair."""
    return IdempotentPair(v1=onto, v2=along, e=projection_idempotent(onto, along))


def idempotents(field: FieldSpec, n: int) -> tuple[IdempotentPair, ...]:
    """Every idempotent of M(n, F_q), annotated, in canonical matrix order."""
    amb = ambient(field, n)
    fixed = np.flatnonzero(amb.grid.diagonal() == np.arange(amb.m))  # x * x = x
    return tuple(IdempotentPair(v1=mat_image(m), v2=mat_kernel(m), e=m) for m in amb.subset(fixed))


def idempotent_count_formula(field: FieldSpec, n: int) -> int:
    """Sum over d of (number of d-subspaces) * (number of their complements)."""
    q = field.q
    return sum(gaussian_binomial(n, d, q) * q ** (d * (n - d)) for d in range(n + 1))


# ---------------------------------------------------------------------------
# image/kernel families


@dataclass(frozen=True)
class SubspacePairFamily:
    """Candidate image hyperplanes and kernel lines, no line inside a hyperplane."""

    a_family: tuple[Subspace, ...]
    b_family: tuple[Subspace, ...]


def pair_family(a_family, b_family) -> SubspacePairFamily:
    a_family = tuple(sorted(set(a_family), key=subspace_sort_key))
    b_family = tuple(sorted(set(b_family), key=subspace_sort_key))
    if not a_family or not b_family:
        raise EmptyFamily("both families must be nonempty")
    spaces = a_family + b_family
    field, n = spaces[0].field, spaces[0].ambient
    for s in spaces:
        if s.field != field:
            raise FieldMismatch("family members over different fields")
        if s.ambient != n:
            raise AmbientMismatch("family members in different ambient spaces")
    if any(a.dim != n - 1 for a in a_family):
        raise DimMismatch("image family members must have dimension n-1")
    if any(b.dim != 1 for b in b_family):
        raise DimMismatch("kernel family members must have dimension 1")
    for b in b_family:
        for a in a_family:
            if a.contains(b):
                raise ContainmentViolation(
                    "kernel line lies inside an image hyperplane"
                )
    return SubspacePairFamily(a_family=a_family, b_family=b_family)


def _s_ab_ids(amb: SemigroupTable, fam: SubspacePairFamily) -> np.ndarray:
    """Ambient ids, ascending, of the matrices of S(A-family, B-family)."""
    index = amb.subspace_index
    in_a = np.zeros(len(index), dtype=bool)
    in_a[[index[a] for a in fam.a_family]] = True
    in_b = np.zeros(len(index), dtype=bool)
    in_b[[index[b] for b in fam.b_family]] = True
    ids = np.flatnonzero(in_a[amb.image_ids] & in_b[amb.kernel_ids])
    if not len(ids):  # pragma: no cover - valid families always admit members
        raise InternalError("family semigroup came out empty")
    return ids


def s_ab_make(fam: SubspacePairFamily) -> MatSet:
    """All matrices with image in the A-family and kernel in the B-family.

    Multiplicative closedness is checked on the ambient grid, not assumed.
    """
    amb = ambient(fam.a_family[0].field, fam.a_family[0].ambient)
    ids = _s_ab_ids(amb, fam)
    _closed_mask(amb, ids)  # raises NotClosed with a witness if it escapes
    return amb.subset(ids)


def product_kernel_image_law(s: MatSet) -> bool:
    """ker(A*B) = ker(B) and Im(A*B) = Im(A) over all pairs of s."""
    for a in s.elements:
        for b in s.elements:
            ab = a * b
            if mat_kernel(ab) != mat_kernel(b) or mat_image(ab) != mat_image(a):
                return False
    return True


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
    """No id outside the mask has a power inside it: every root of a
    member is a member.  Reads only the members' runs of amb.roots."""
    ptr, xs = amb.roots
    members = np.flatnonzero(mask)
    lo, counts = ptr[members], ptr[members + 1] - ptr[members]
    at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return bool(mask[xs[at]].all())


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


class _Witnesses:
    """Triples (x, y, x*y) that refuted complete isolation of earlier sets
    in one run.

    A set one of them refutes is not completely isolated; every other set
    gets the full scan of _outside_product, whose hit is kept.  So a
    "completely isolated" answer always comes from the full scan.
    """

    def __init__(self):
        self.triples = np.zeros((3, 0), dtype=np.intp)

    def completely_isolated(self, amb: SemigroupTable, mask: np.ndarray) -> bool:
        x, y, xy = self.triples
        if (mask[xy] & ~mask[x] & ~mask[y]).any():
            return False
        hit = _outside_product(amb, mask)
        if hit is None:
            return True
        self.triples = np.column_stack((self.triples, hit))
        return False


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
    only lines outside all of its hyperplanes, so the families are built
    without pair_family's sort and checks.
    """
    hyper = list(enumerate_subspaces(field, n, n - 1))
    lines = list(enumerate_subspaces(field, n, 1))
    inside = [[a.contains(ln) for ln in lines] for a in hyper]
    out = []
    for abits in range(1, 1 << len(hyper)):
        chosen = [i for i in range(len(hyper)) if abits >> i & 1]
        a_fam = tuple(hyper[i] for i in chosen)
        ok_lines = [ln for j, ln in enumerate(lines) if not any(inside[i][j] for i in chosen)]
        for bbits in range(1, 1 << len(ok_lines)):
            b_fam = tuple(ok_lines[i] for i in range(len(ok_lines)) if bbits >> i & 1)
            out.append(SubspacePairFamily(a_family=a_fam, b_family=b_fam))
    out.sort(
        key=lambda fam: (
            tuple(subspace_sort_key(a) for a in fam.a_family),
            tuple(subspace_sort_key(b) for b in fam.b_family),
        )
    )
    return out


def _record(amb: SemigroupTable, witnesses: _Witnesses, kind, ids, a_fam=None, b_fam=None) -> IsolatedRecord:
    """Record for the closed set of ascending ambient ids; one mask serves
    the closedness check and both predicates."""
    mask = _closed_mask(amb, ids)
    if not _isolated(amb, mask):
        raise VerificationFailed(
            f"predicted isolated subsemigroup of kind {kind} fails the power scan",
            evidence={"kind": kind, "size": len(ids)},
        )
    return IsolatedRecord(
        kind=kind,
        s=amb.subset(ids),
        a_family=a_fam,
        b_family=b_fam,
        isolated=True,
        completely_isolated=witnesses.completely_isolated(amb, mask),
    )


def _theorem_records(amb: SemigroupTable, witnesses: _Witnesses) -> list[IsolatedRecord]:
    n = amb.s.dim
    records = [
        _record(amb, witnesses, "M", np.arange(amb.m)),
        _record(amb, witnesses, "GL", np.flatnonzero(amb.ranks == n)),
        _record(amb, witnesses, "I", np.flatnonzero(amb.ranks <= n - 1)),
    ]
    for fam in _all_pair_families(amb.s.field, n):
        ids = _s_ab_ids(amb, fam)
        records.append(_record(amb, witnesses, "SAB", ids, fam.a_family, fam.b_family))
    return records


def _sort_records(records: list[IsolatedRecord]) -> tuple[IsolatedRecord, ...]:
    """By size, then by the members' codes in canonical order."""
    return tuple(sorted(records, key=lambda r: (len(r.s), r.s.codes.ravel().tolist())))


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
        check_scan_size(field.q ** (n * n))  # before the theorem list and the ambient
    amb = ambient(field, n)
    witnesses = _Witnesses()  # shared by every set of this run, then dropped
    predicted = _theorem_records(amb, witnesses)
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
            hit = IsolatedRecord(
                kind="other",
                s=s,
                a_family=None,
                b_family=None,
                isolated=True,
                completely_isolated=witnesses.completely_isolated(amb, mask),
            )
        found.append(hit)
    found_sets = {r.s for r in found}
    predicted_sets = set(by_set)
    if found_sets != predicted_sets:
        raise VerificationFailed(
            "exhaustive isolated scan disagrees with the constructed list",
            evidence={
                "only_found": len(found_sets - predicted_sets),
                "only_predicted": len(predicted_sets - found_sets),
            },
        )
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
