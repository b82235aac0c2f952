"""Flags of subspaces and the nilpotent subsemigroups attached to them.

A flag is a strict chain 0 = V_0 < V_1 < ... < V_k = F^n.  Its semigroup
consists of every matrix pushing each V_i into V_{i-1}; these are exactly
the maximal nilpotent subsemigroups of nilpotency degree k, and the map is
inverted by reading the flag of power-image spans off the semigroup.

Checks against a flag are batched products of code arrays with its parity
checks (_parity_checks): one stacked product H X B per batch, read through
a block mask, tells which matrices lower the flag (lowering_mask) and
whether a transporter carries one flag onto another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadSignature,
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
    enumerate_subspaces,
    format_subspace,
    full_space,
    mat_inverse,
    mat_kernel,
    parse_subspace,
    row_keys,
    subspace,
    zero_subspace,
)

PHI_CAP = ENUM_CAP


@dataclass(frozen=True)
class Flag:
    """Strict chain of subspaces from 0 to the full space.

    The hash and the signature are computed once per flag: flags key the
    basis and parity-check caches, and each lookup hashes the whole chain.
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


@lru_cache(maxsize=1024)
def _parity_checks(f: Flag) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H, B, steps, levels): the flag's parity checks, stacked level by level.

    For each V_i of the chain, i = 0..k, H holds a block H_i of rows
    spanning the annihilator of V_i, so H_i v = 0 exactly when v lies in
    V_i, and B a block B_i of columns spanning V_i.  Block (i, j) of
    H X B is then H_i X B_j, which is zero exactly when X V_j lies in V_i.
    The bool masks pick blocks of H X B: steps the blocks (i - 1, i), all
    zero when X pushes every V_i into V_{i-1}, and levels the blocks
    (i, i), all zero when X keeps every V_i.  Both H and B come from the
    chain's own bases, never from flag_basis.
    """
    n = f.ambient
    hs, bs = [], []
    for s in f.chain:
        rows = Matrix(f.field, s.dim, n, tuple(c for row in s.basis for c in row))
        hs.append(np.array(mat_kernel(rows).basis, dtype=np.int64).reshape(-1, n))
        bs.append(np.array(s.basis, dtype=np.int64).reshape(-1, n).T)
    h_at = np.cumsum([0] + [len(h) for h in hs])  # H_i is rows h_at[i]:h_at[i + 1] of H
    b_at = np.cumsum([0] + [b.shape[1] for b in bs])  # B_i is columns b_at[i]:b_at[i + 1] of B
    steps = np.zeros((h_at[-1], b_at[-1]), dtype=bool)
    levels = steps.copy()
    for i in range(len(f.chain)):
        levels[h_at[i] : h_at[i + 1], b_at[i] : b_at[i + 1]] = True
        if i:
            steps[h_at[i - 1] : h_at[i], b_at[i] : b_at[i + 1]] = True
    out = (np.concatenate(hs), np.concatenate(bs, axis=1), steps, levels)
    for arr in out:
        arr.flags.writeable = False
    return out


def lowering_mask(f: Flag, arr: np.ndarray) -> np.ndarray:
    """Which matrices of the (len, n, n) code array arr lower the flag.

    A lowers F exactly when H_{i-1} A B_i = 0 for every step (see
    _parity_checks): the image of V_i under A is then inside V_{i-1}.
    All steps are read off one stacked product H A B.
    """
    h, b, steps, _ = _parity_checks(f)
    return ~batch_mul(f.field, batch_mul(f.field, h, arr), b)[:, steps].any(axis=1)


def lowers_flag(a: Matrix, f: Flag) -> bool:
    """Does a push every V_i into V_{i-1}?"""
    if a.field != f.field:
        raise FieldMismatch("matrix over a different field")
    if a.rows != f.ambient or a.cols != f.ambient:
        raise DimMismatch("matrix does not act on the flag's ambient space")
    return bool(lowering_mask(f, codes_array([a]))[0])


@lru_cache(maxsize=1024)
def flag_basis(f: Flag) -> Matrix:
    """Deterministic adapted basis: columns grouped by stratum, each stratum
    completed greedily in vector enumeration order.

    The span so far is kept as echelon rows with unit pivots, each row zero
    at the pivots of the rows before it.  A candidate is reduced by them
    once, in order; it lies outside the span exactly when a nonzero
    remainder is left, which then joins the rows.
    """
    mul, add, neg, inv = f.field.mul, f.field.add, f.field.neg, f.field.inv
    cols: list[tuple[int, ...]] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot, row)
    for s in f.chain[1:]:
        for vec in s.vectors():
            v = list(vec)
            for pc, row in echelon:
                if v[pc]:
                    mc = mul[neg[v[pc]]]
                    v = [add[x][mc[y]] for x, y in zip(v, row)]
            pc = next((i for i, x in enumerate(v) if x), None)
            if pc is None:
                continue
            mc = mul[inv[v[pc]]]
            echelon.append((pc, [mc[x] for x in v]))
            cols.append(vec)
            if len(cols) == s.dim:
                break
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
    columns of that power set (at most q^n of them).
    """
    from .engine import power_masks

    if k is None:
        raise NotNilpotent("set has no vanishing power")
    if k < 2:
        raise NotNilpotent(f"nilpotency degree {k} < 2 does not determine a flag")
    f, n = table.s.field, table.s.dim
    cols = table.codes.transpose(0, 2, 1)  # cols[x, j]: column j of x
    interior = []
    for mask in power_masks(table, k - 1)[::-1]:  # longest products first: smallest span
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


def flag_transporter(f: Flag, f2: Flag) -> Matrix:
    """Invertible g carrying each subspace of f onto the matching one of f2.

    Maps the deterministic adapted basis of f onto that of f2, so
    g = flag_basis(f2) flag_basis_inverse(f).  The result is checked by
    _carry_mask: g V_i ⊆ V'_i at every level, which is g V_i = V'_i as g
    is invertible and the two have the same dimension.
    """
    if f.field != f2.field:
        raise FieldMismatch("flags over different fields")
    if f.ambient != f2.ambient:
        raise DimMismatch("flags of different ambient spaces")
    if f.signature != f2.signature:
        raise SignatureMismatch(f"signatures {f.signature} vs {f2.signature}")
    g = flag_basis(f2) * flag_basis_inverse(f)
    if not _carry_mask(f, f2, codes_array([g]))[0]:  # pragma: no cover
        raise InternalError("transporter does not carry the chain over")
    return g


def _carry_mask(f: Flag, f2: Flag, arr: np.ndarray) -> np.ndarray:
    """Which matrices X of the (len, n, n) code array arr carry every V_i
    of f into the V'_i of f2, for two flags of one signature.

    That is H'_i X B_i = 0 at every level, with H' from the parity checks
    of f2 and B from those of f; equal signatures give the blocks equal
    sizes, so the level mask of f2 reads them off one stacked product.
    """
    h, _, _, levels = _parity_checks(f2)
    b = _parity_checks(f)[1]
    return ~batch_mul(f.field, batch_mul(f.field, h, arr), b)[:, levels].any(axis=1)


# ---------------------------------------------------------------------------
# flag inventories (small ambients)


def _flag_key(fl: Flag):
    return (fl.length, tuple(s.basis for s in fl.interior))


def all_flags(field: FieldSpec, n: int, cap: int = ENUM_CAP) -> list[Flag]:
    """Every flag of F^n (all lengths, including the length-1 flag)."""
    flags: list[Flag] = []
    # one signature per composition of n: cut or not after each of 1..n-1
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        ends = [i for i, cut in enumerate(cuts, start=1) if cut] + [n]
        sig = [hi - lo for lo, hi in zip([0] + ends, ends) if hi > lo]
        flags.extend(flags_with_signature(field, n, sig, cap=cap))
    flags.sort(key=_flag_key)
    return flags


def flags_with_signature(field: FieldSpec, n: int, sig, cap: int = ENUM_CAP) -> list[Flag]:
    """Every flag of F^n with the given signature, sorted like all_flags.

    Only the prescribed partial dimensions d_1, d_1 + d_2, ... are walked:
    each level keeps the subspaces of its dimension containing the one
    chosen at the level below.
    """
    sig = tuple(sig)
    if sum(sig) != n or any(d < 1 for d in sig):
        raise SignatureMismatch(f"signature {sig} does not fit ambient {n}")
    levels = [
        enumerate_subspaces(field, n, d, cap=cap) for d in itertools.accumulate(sig[:-1])
    ]
    flags: list[Flag] = []

    def extend(chain: tuple[Subspace, ...]):
        if len(chain) == len(levels):
            flags.append(flag_make(field, n, chain))
            return
        for s in levels[len(chain)]:
            if not chain or s.contains(chain[-1]):
                extend(chain + (s,))

    extend(())
    flags.sort(key=_flag_key)
    return flags


def standard_flag(field: FieldSpec, sig) -> Flag:
    """Coordinate flag with the given signature (prefix spans of e_1, e_2, ...)."""
    sig = tuple(int(d) for d in sig)
    if not sig or any(d < 1 for d in sig):
        raise BadSignature(f"signature entries must be positive, got {sig}")
    n = sum(sig)
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    interiors = []
    acc = 0
    for d in sig[:-1]:
        acc += d
        interiors.append(subspace(field, n, rows[:acc]))
    return flag_make(field, n, interiors)
