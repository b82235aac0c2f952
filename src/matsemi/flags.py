"""Flags of subspaces and the nilpotent subsemigroups attached to them.

A flag is a strict chain 0 = V_0 < V_1 < ... < V_k = F^n.  Its semigroup
consists of every matrix pushing each V_i into V_{i-1}; these are exactly
the maximal nilpotent subsemigroups of nilpotency degree k, and the map is
inverted by reading the flag of power-image spans off the semigroup.

As a set, the semigroup S(F) of a flag is an F-subspace of M_n(F) of
dimension sum_{i<j} d_i d_j, the d_i the jumps of the signature.  Lowering
is tested on one reduced basis of that subspace (_lowering_space), built
from the chain's own bases: a matrix lowers F exactly when it is the
combination of the basis rows read off its entries at their pivots, in
plain Python for one matrix (lowers_flag) and as one 2-D product for a
batch (lowering_mask).  Enumeration (flag_semigroup) takes the other
route, conjugating the block strictly upper triangular matrices by the
adapted basis of flag_basis, so each checks the other.

Flags are built, not searched for: _flag_levels lifts the flags of F^D
through every D-subspace of F^n (gf.subspace_codes), as code arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadSignature,
    CapExceeded,
    DimMismatch,
    FieldMismatch,
    InternalError,
    InvariantViolation,
    NotAChain,
    NotNilpotent,
    SignatureMismatch,
)
from .gf import (
    ENUM_CAP,
    FieldSpec,
    Matrix,
    Subspace,
    batch_mul,
    batch_rref,
    capped_power,
    codes_array,
    extend_echelon,
    format_subspace,
    full_space,
    in_span,
    mat_inverse,
    parse_subspace,
    row_keys,
    subspace,
    subspace_codes,
    zero_subspace,
)

PHI_CAP = ENUM_CAP


@dataclass(frozen=True)
class Flag:
    """Strict chain of subspaces from 0 to the full space.

    The hash and the signature are computed once per flag: flags key the
    basis and lowering-space caches, and each lookup hashes the whole chain.
    """

    field: FieldSpec
    ambient: int
    chain: tuple[Subspace, ...]  # includes both endpoints

    @cached_property
    def _hash(self) -> int:
        return hash((self.field, self.ambient, self.chain))

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    @cached_property
    def signature(self) -> tuple[int, ...]:
        return tuple(
            self.chain[i].dim - self.chain[i - 1].dim for i in range(1, len(self.chain))
        )

    @property
    def interior(self) -> tuple[Subspace, ...]:
        return self.chain[1:-1]


def flag_make(field: FieldSpec, ambient: int, subspaces) -> Flag:
    """Validate a chain into a Flag; omitted endpoints are adjoined."""
    chain = list(subspaces)
    for s in chain:
        if s.field != field:
            raise FieldMismatch("flag subspace over a different field")
        if s.ambient != ambient:
            raise DimMismatch(f"subspace of F^{s.ambient} in a flag of F^{ambient}")
    if not chain or chain[0].dim > 0:
        chain.insert(0, zero_subspace(field, ambient))
    if chain[-1].dim < ambient:
        chain.append(full_space(field, ambient))
    for lo, hi in zip(chain, chain[1:]):
        if not (hi.contains(lo) and hi.dim > lo.dim):
            raise NotAChain(
                f"{format_subspace(lo)} -> {format_subspace(hi)} is not a strict inclusion"
            )
    return Flag(field=field, ambient=ambient, chain=tuple(chain))


def format_flag(f: Flag) -> str:
    """Interior subspaces joined by '|' (endpoints are implicit)."""
    return "|".join(format_subspace(s) for s in f.interior)


def parse_flag(field: FieldSpec, ambient: int, text: str) -> Flag:
    text = text.strip()
    parts = [p for p in text.split("|") if p.strip()] if text else []
    return flag_make(field, ambient, [parse_subspace(field, ambient, p) for p in parts])


class LoweringSpace(NamedTuple):
    """S(F) as an F-subspace of M_n(F), flattened into F^(n*n).

    rows is its RREF basis, one row per free position of the signature,
    pivots the pivot of each row, and codes the rows again as a read-only
    (len(rows), n*n) int64 array.  A matrix lies in S(F) exactly when it
    equals the combination of the rows whose coefficients are its own
    entries at the pivots (gf.in_span).
    """

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    codes: np.ndarray


@lru_cache(maxsize=1024)
def _lowering_space(f: Flag) -> LoweringSpace:
    """The RREF basis of S(F) = Q N Q^-1, N the block strictly upper
    triangular matrices of the signature.

    Q takes its columns level by level: the RREF rows of V_i whose pivot
    is not a pivot of V_{i-1}.  The pivots of V_{i-1} are pivots of V_i,
    so those d_i rows have pivots apart from V_{i-1}'s rows and complete
    them to a basis of V_i.  S(F) is then spanned by the rank-one matrices
    q_r p_c, q_r column r of Q and p_c row c of Q^-1, for r in a stratum
    below that of c: such a matrix sends q_c to q_r and the other columns
    of Q to 0.  Q comes from the chain's own bases, never from flag_basis,
    so lowering checks flag_semigroup's enumeration by another route.
    """
    fld, n = f.field, f.ambient
    mul = fld.mul
    cols: list[tuple[int, ...]] = []
    level: list[int] = []  # stratum of each column of Q
    below: set[int] = set()
    for i, s in enumerate(f.chain[1:]):
        for p, row in zip(s.pivots, s.basis):
            if p not in below:
                cols.append(row)
                level.append(i)
        below = set(s.pivots)
    q_inv = mat_inverse(Matrix(fld, n, n, tuple(cols[j][i] for i in range(n) for j in range(n))))
    span = [
        [mul[x][y] for x in cols[r] for y in q_inv.row_codes(c)]
        for r in range(n)
        for c in range(n)
        if level[r] < level[c]
    ]
    space = subspace(fld, n * n, span)
    rows = space.basis
    if len(rows) != len(span):  # pragma: no cover - rank-one matrices of a basis pair
        raise InternalError("lowering space spanned by dependent matrices")
    codes = np.array(rows, dtype=np.int64).reshape(len(rows), n * n)
    codes.flags.writeable = False
    return LoweringSpace(rows, space.pivots, codes)


def lowering_mask(f: Flag, arr: np.ndarray) -> np.ndarray:
    """Which matrices of the (len, n, n) code array arr lower the flag.

    Each matrix is read off its entries at the pivots of _lowering_space:
    it lowers F exactly when the rows' combination with those
    coefficients gives it back, one 2-D product for the whole batch.
    """
    space = _lowering_space(f)
    flat = arr.reshape(len(arr), -1)
    return (batch_mul(f.field, flat[:, space.pivots], space.codes) == flat).all(axis=1)


def lowers_flag(a: Matrix, f: Flag) -> bool:
    """Does a push every V_i into V_{i-1}?  The test of lowering_mask
    for one matrix, on the field's tables."""
    if a.field != f.field:
        raise FieldMismatch("matrix over a different field")
    if a.rows != f.ambient or a.cols != f.ambient:
        raise DimMismatch("matrix does not act on the flag's ambient space")
    space = _lowering_space(f)
    return in_span(f.field, a.codes, space.pivots, space.rows)


@lru_cache(maxsize=1024)
def flag_basis(f: Flag) -> Matrix:
    """Deterministic adapted basis: columns grouped by stratum, each stratum
    completed greedily in vector enumeration order.

    Subspace.vectors() runs through the coefficients on V_i's RREF rows
    lexicographically, the last one fastest, so the first vector outside
    a span W inside V_i is the last row outside W: every vector before it
    combines rows that W contains.  Each stratum is therefore completed by
    scanning V_i's rows from last to first and keeping those that grow the
    span, whose echelon rows extend_echelon keeps.
    """
    cols: list[tuple[int, ...]] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot, row)
    for s in f.chain[1:]:
        for vec in reversed(s.basis):
            if len(cols) == s.dim:
                break
            if extend_echelon(f.field, echelon, vec):
                cols.append(vec)
        if len(cols) != s.dim:  # pragma: no cover
            raise InternalError("stratum completion failed")
    n = f.ambient
    codes = tuple(cols[j][i] for i in range(n) for j in range(n))
    return Matrix(f.field, n, n, codes)


@lru_cache(maxsize=1024)
def flag_basis_inverse(f: Flag) -> Matrix:
    """The inverse of flag_basis(f)."""
    return mat_inverse(flag_basis(f))


def flag_size(f: Flag, cap: int = PHI_CAP) -> int:
    """|flag_semigroup(f)| = q^(sum of d_i d_j over strata i < j): in an
    adapted basis its elements are exactly the block strictly upper
    triangular matrices.  CapExceeded above cap."""
    sig = f.signature
    k = len(sig)
    exp = sum(sig[i] * sig[j] for i in range(k) for j in range(i + 1, k))
    return capped_power(f.field.q, exp, cap, lambda size: f"flag semigroup has {size} elements, cap {cap}")


def _blocks(field: FieldSpec, sig: tuple[int, ...]) -> np.ndarray:
    """(q^e, n, n) code array of every block strictly upper triangular
    matrix of the signature, e the number of free positions.

    Row t holds the base-q digits of t in the free positions (row stratum
    below column stratum), the last free position fastest.
    """
    n, q = sum(sig), field.q
    offs = [0, *itertools.accumulate(sig)]
    free = [
        r * n + c
        for ci in range(len(sig))
        for ri in range(ci)
        for r in range(offs[ri], offs[ri + 1])
        for c in range(offs[ci], offs[ci + 1])
    ]
    total = q ** len(free)
    blocks = np.zeros((total, n * n), dtype=np.int64)
    weights = q ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
    blocks[:, free] = np.arange(total, dtype=np.int64)[:, None] // weights % q
    return blocks.reshape(total, n, n)


# Each entry holds one byte per element (at most PHI_CAP), hence the
# smaller bound; flags of one signature share it.
@lru_cache(maxsize=64)
def _block_ranks(field: FieldSpec, sig: tuple[int, ...]) -> np.ndarray:
    """Read-only rank of each matrix of _blocks(field, sig), one batch_rref."""
    ranks = batch_rref(field, _blocks(field, sig))[1].astype(np.uint8)
    ranks.flags.writeable = False
    return ranks


def flag_semigroup(f: Flag, cap: int = PHI_CAP):
    """Enumerate every matrix lowering the flag, in canonical order.

    The elements are P B P^-1 for P = flag_basis(f) and every block
    strictly upper triangular B of the signature, so the rank of each is
    that of its B, read from _block_ranks: all flags of a signature share
    one rank computation.
    """
    from .engine import MatSet, canonical_order

    total = flag_size(f, cap)
    n = f.ambient
    p, p_inv = codes_array([flag_basis(f)]), codes_array([flag_basis_inverse(f)])
    conj = batch_mul(f.field, batch_mul(f.field, p, _blocks(f.field, f.signature)), p_inv).reshape(total, -1)
    conj = conj[canonical_order(conj, _block_ranks(f.field, f.signature))]
    if (conj[1:] == conj[:-1]).all(axis=1).any():  # pragma: no cover - equal matrices sort side by side
        raise InternalError("flag semigroup enumeration produced duplicates")
    return MatSet(f.field, n, conj.reshape(total, n, n))


def _nil_table(s):
    """(table, nilpotency degree or None) for a closed matrix set.

    Nilpotency is anchored to the zero matrix: in an abstract table a lone
    idempotent is its own absorbing element, so table_nd alone would call
    {identity} nilpotent.  The zero matrix, when present, is id 0 (the only
    rank-0 element, and ids sort by rank first).
    """
    from .engine import build_table, table_nd

    table = build_table(s)
    if not len(s) or s.codes[0].any():
        return table, None
    return table, table_nd(table)


def nilpotency_degree(s) -> int | None:
    """Least k with all k-fold products zero; None when there is none.

    The set must be multiplicatively closed (NotClosed otherwise).
    """
    return _nil_table(s)[1]


def power_image_flag(s) -> Flag:
    """Flag of spans of power images: V_{k-i} spans the images of all
    i-fold products, where k is the nilpotency degree (must be >= 2)."""
    return _power_image_flag(*_nil_table(s))


def _power_image_flag(table, k) -> Flag:
    """power_image_flag on the table and degree the caller already built.

    The images of the i-fold products span the column space of all their
    columns side by side, so each level is one subspace() of the distinct
    columns of that power set (at most q^n of them).  The power sets are
    the rows of the table's power ladder, which table_nd has built.
    """
    if k is None:
        raise NotNilpotent("set has no vanishing power")
    if k < 2:
        raise NotNilpotent(f"nilpotency degree {k} < 2 does not determine a flag")
    f, n = table.s.field, table.s.dim
    cols = table.codes.transpose(0, 2, 1)  # cols[x, j]: column j of x
    interior = []
    for mask in table.power_ladder[: k - 1][::-1]:  # longest products first: smallest span
        stacked = cols[mask].reshape(-1, n)
        _, first = np.unique(row_keys(f, stacked), return_index=True)
        interior.append(subspace(f, n, stacked[first].tolist()))
    chain = [zero_subspace(f, n)] + interior + [full_space(f, n)]
    for lo, hi in zip(chain, chain[1:]):
        if not (hi.contains(lo) and hi.dim > lo.dim):  # pragma: no cover
            raise InvariantViolation("power-image spans failed to increase strictly")
    return Flag(field=f, ambient=n, chain=tuple(chain))


def is_k_maximal(s) -> bool:
    """Is s maximal among nilpotent subsemigroups of its nilpotency degree?

    Fixed-point test: s must equal the full semigroup S(F') of its
    power-image flag F'.  That is proved by size and lowering, without
    enumerating S(F'): every element of s lowers F' exactly when
    s ⊆ S(F'), and a finite set inside another of the same size is equal
    to it, so s = S(F') exactly when |s| = flag_size(F') and every element
    of s lowers F'.
    """
    return _is_k_maximal(*_nil_table(s))


def _is_k_maximal(table, k) -> bool:
    """is_k_maximal on the table and degree the caller already built.

    T = S(F') for the power-image flag F' of T exactly when
    len(T) == flag_size(F') and lowering_mask(F', T) is all true: the
    mask says T ⊆ S(F'), and two finite sets of equal size, one inside the
    other, are equal.  Conversely T = S(F') has that size and lowers F'.
    The containment holds for every nilpotent T, since A V_{k-i}, the span
    of A times the images of T^i, lies in the span of the images of
    T^(i+1), which is V_{k-i-1}; the mask checks it instead of assuming it.
    Above PHI_CAP, flag_size refuses with CapExceeded, as enumerating
    S(F') would.
    """
    if k is None:
        raise NotNilpotent("set has no vanishing power")
    if k < 2:
        raise NotNilpotent(f"nilpotency degree {k} < 2 has no flag test")
    fl = _power_image_flag(table, k)
    return table.m == flag_size(fl) and bool(lowering_mask(fl, table.codes).all())


def consolidates(f: Flag, f2: Flag) -> bool:
    """True iff every subspace of f2 occurs in f (f refines f2)."""
    if f.field != f2.field:
        raise FieldMismatch("flags over different fields")
    if f.ambient != f2.ambient:
        raise DimMismatch("flags of different ambient spaces")
    have = set(f.chain)
    return all(s in have for s in f2.chain)


# ---------------------------------------------------------------------------
# flag inventories (small ambients)


def all_flags(field: FieldSpec, n: int) -> list[Flag]:
    """Every flag of F^n (all lengths, including the length-1 flag)."""
    flags: list[Flag] = []
    # one signature per composition of n: cut or not after each of 1..n-1
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        ends = [i for i, cut in enumerate(cuts, start=1) if cut] + [n]
        sig = [hi - lo for lo, hi in zip([0] + ends, ends) if hi > lo]
        flags.extend(flags_with_signature(field, n, sig))
    flags.sort(key=lambda fl: (fl.length, tuple(s.basis for s in fl.interior)))
    return flags


def _flag_levels(field: FieldSpec, n: int, sig: tuple[int, ...]) -> list[np.ndarray]:
    """The chains of every flag of F^n with signature sig: one (N, dim V_i,
    n) int64 array of RREF bases per level V_0, ..., V_k, row t of each
    level from flag t.

    Lemma: if B is an RREF basis and C an RREF matrix with len(B) columns,
    C B is the RREF basis of the subspace whose coordinates in B are C's
    rows.  Row j of C B is row c_j of B (c_j the leading column of row j of
    C) plus later rows, so its leading 1 is at B's pivot p_(c_j); in pivot
    column p_c it reads column c of C, 0 outside the row led at c.  So with
    D = n - d_k, the flags of F^n are the flags of F^D lifted through the
    basis B of each D-subspace V_(k-1), each (flag, B) pair giving one.
    From the flag of F^0, each jump of sig is one batch_mul per level, and
    the new top level is the identity.  subspace_codes refuses first, then
    more than ENUM_CAP flags are refused before any lift.
    """
    dims = [0, *itertools.accumulate(sig)]
    tops = [subspace_codes(field, hi, lo) for lo, hi in zip(dims, dims[1:])]
    total = math.prod(len(top) for top in tops)
    if total > ENUM_CAP:
        raise CapExceeded(f"{total} flags exceed cap {ENUM_CAP}")
    levels = [np.zeros((1, 0, 0), dtype=np.int64)]  # the flag of F^0
    for top, hi in zip(tops, dims[1:]):
        count = len(top) * len(levels[0])
        levels = [batch_mul(field, lvl, top[:, None]).reshape(count, lvl.shape[1], hi) for lvl in levels]
        levels.append(np.broadcast_to(np.eye(hi, dtype=np.int64), (count, hi, hi)))
    return levels


def flags_with_signature(field: FieldSpec, n: int, sig) -> list[Flag]:
    """Every flag of F^n with the given signature, sorted like all_flags.

    The chains are the rows of _flag_levels, so no chain is checked again.
    Each distinct row of a level (found by its row key) is one Subspace,
    shared by every flag through it.  The distinct rows are ranked in
    basis order, so the flags sort by their ranks, level by level.
    """
    sig = tuple(sig)
    if sum(sig) != n or any(d < 1 for d in sig):
        raise SignatureMismatch(f"signature {sig} does not fit ambient {n}")
    spaces, ranks = [], []
    for lvl in _flag_levels(field, n, sig):
        flat = lvl.reshape(len(lvl), -1)
        _, first, inverse = np.unique(row_keys(field, flat), return_index=True, return_inverse=True)
        rows, rank = np.unique(flat[first], axis=0, return_inverse=True)
        spaces.append([Subspace(field, n, tuple(map(tuple, b))) for b in rows.reshape(len(rows), lvl.shape[1], n).tolist()])
        ranks.append(rank[inverse])
    ids = np.stack(ranks, axis=1)[np.lexsort(ranks[::-1])].tolist()
    return [Flag(field, n, tuple(level[i] for level, i in zip(spaces, row))) for row in ids]


def standard_flag(field: FieldSpec, sig) -> Flag:
    """Coordinate flag with the given signature (prefix spans of e_1, e_2, ...)."""
    sig = tuple(int(d) for d in sig)
    if not sig or any(d < 1 for d in sig):
        raise BadSignature(f"signature entries must be positive, got {sig}")
    n = sum(sig)
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return flag_make(field, n, [subspace(field, n, rows[:acc]) for acc in itertools.accumulate(sig[:-1])])
