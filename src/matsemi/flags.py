"""Flags of subspaces and the nilpotent subsemigroups attached to them.

A flag is a strict chain 0 = V_0 < V_1 < ... < V_k = F^n.  Its semigroup
consists of every matrix pushing each V_i into V_{i-1}; these are exactly
the maximal nilpotent subsemigroups of nilpotency degree k, and the map is
inverted by reading the flag of power-image spans off the semigroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
    codes_array,
    enumerate_subspaces,
    format_subspace,
    full_space,
    mat_image,
    mat_inverse,
    mat_kernel,
    parse_subspace,
    subspace,
    zero_subspace,
)

PHI_CAP = ENUM_CAP


@dataclass(frozen=True)
class Flag:
    """Strict chain of subspaces from 0 to the full space."""

    field: FieldSpec
    ambient: int
    chain: tuple[Subspace, ...]  # includes both endpoints

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(
            self.chain[i].dim - self.chain[i - 1].dim for i in range(1, len(self.chain))
        )

    @property
    def interior(self) -> tuple[Subspace, ...]:
        return self.chain[1:-1]

    def stratum_of(self, vec: tuple[int, ...]) -> int:
        """Least i with vec in V_i; 0 only for the zero vector."""
        for i, s in enumerate(self.chain):
            if s.contains_vector(vec):
                return i
        raise DimMismatch("vector does not live in the ambient space")


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
def _parity_checks(f: Flag) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One pair (H, B) per step V_{i-1} < V_i of the flag.

    The columns of B span V_i; the rows of H span the annihilator of
    V_{i-1}, so H v = 0 exactly when v lies in V_{i-1}.  Both come from the
    chain's own bases, never from flag_basis.
    """
    n = f.ambient
    pairs = []
    for below, above in zip(f.chain, f.chain[1:]):
        rows = Matrix(f.field, below.dim, n, tuple(c for row in below.basis for c in row))
        h = np.array(mat_kernel(rows).basis, dtype=np.int64).reshape(-1, n)
        b = np.array(above.basis, dtype=np.int64).T
        for arr in (h, b):
            arr.flags.writeable = False
        pairs.append((h, b))
    return tuple(pairs)


def lowering_mask(f: Flag, arr: np.ndarray) -> np.ndarray:
    """Which matrices of the (len, n, n) code array arr lower the flag.

    A lowers F exactly when H_{i-1} A B_i = 0 for every step (see
    _parity_checks): the image of V_i under A is then inside V_{i-1}.
    """
    ok = np.ones(len(arr), dtype=bool)
    for h, b in _parity_checks(f):
        ok &= ~batch_mul(f.field, batch_mul(f.field, h, arr), b).any(axis=(1, 2))
    return ok


def lowers_flag(a: Matrix, f: Flag) -> bool:
    """Does a push every V_i into V_{i-1}?"""
    if a.field != f.field:
        raise FieldMismatch("matrix over a different field")
    if a.rows != f.ambient or a.cols != f.ambient:
        raise DimMismatch("matrix does not act on the flag's ambient space")
    return bool(lowering_mask(f, codes_array([a]))[0])


@lru_cache(maxsize=None)
def flag_basis(f: Flag) -> Matrix:
    """Deterministic adapted basis: columns grouped by stratum, each stratum
    completed greedily in vector enumeration order."""
    cols: list[tuple[int, ...]] = []
    span = zero_subspace(f.field, f.ambient)
    for s in f.chain[1:]:
        for vec in s.vectors():
            if not any(vec) or span.contains_vector(vec):
                continue
            cols.append(vec)
            span = span.sum_(subspace(f.field, f.ambient, [vec]))
            if span.dim == s.dim:
                break
        if span.dim != s.dim:  # pragma: no cover
            raise InternalError("stratum completion failed")
    n = f.ambient
    codes = tuple(cols[j][i] for i in range(n) for j in range(n))
    return Matrix(f.field, n, n, codes)


def flag_size(f: Flag, cap: int = PHI_CAP) -> int:
    """|flag_semigroup(f)| = q^(sum of d_i d_j over strata i < j): in an
    adapted basis its elements are exactly the block strictly upper
    triangular matrices.  CapExceeded above cap."""
    sig = f.signature
    k = len(sig)
    exp = sum(sig[i] * sig[j] for i in range(k) for j in range(i + 1, k))
    total = f.field.q ** exp
    if total > cap:
        raise CapExceeded(f"flag semigroup has {total} elements, cap {cap}")
    return total


def flag_semigroup(f: Flag, cap: int = PHI_CAP):
    """Enumerate every matrix lowering the flag, in canonical order."""
    from .engine import mat_set

    total = flag_size(f, cap)
    sig = f.signature
    k = len(sig)
    n = f.ambient
    # free positions (row, col) in stratum coordinates: row stratum < col stratum
    offs = [0]
    for d in sig:
        offs.append(offs[-1] + d)
    free = [
        r * n + c
        for ci in range(k)
        for ri in range(ci)
        for r in range(offs[ri], offs[ri + 1])
        for c in range(offs[ci], offs[ci + 1])
    ]
    # row t holds the base-q digits of t, the last free position fastest
    q = f.field.q
    blocks = np.zeros((total, n * n), dtype=np.int64)
    weights = q ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
    blocks[:, free] = np.arange(total, dtype=np.int64)[:, None] // weights % q
    p_mat = flag_basis(f)
    p, p_inv = codes_array([p_mat]), codes_array([mat_inverse(p_mat)])
    conj = batch_mul(f.field, batch_mul(f.field, p, blocks.reshape(total, n, n)), p_inv)
    mats = (Matrix(f.field, n, n, tuple(row)) for row in conj.reshape(total, -1).tolist())
    s = mat_set(f.field, n, mats)
    if len(s) != total:  # pragma: no cover
        raise InternalError("flag semigroup enumeration produced duplicates")
    return s


def _nil_table(s):
    """(table, nilpotency degree or None) for a closed matrix set.

    Nilpotency is anchored to the zero matrix: in an abstract table a lone
    idempotent is its own absorbing element, so table_nd alone would call
    {identity} nilpotent.  The zero matrix, when present, is id 0 (the only
    rank-0 element, and ids sort by rank first).
    """
    from .engine import build_table, table_nd

    table = build_table(s)
    if not s.elements or not s.elements[0].is_zero():
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
    """power_image_flag on the table and degree the caller already built."""
    from .engine import power_sets

    if k is None:
        raise NotNilpotent("set has no vanishing power")
    if k < 2:
        raise NotNilpotent(f"nilpotency degree {k} < 2 does not determine a flag")
    f, n = table.s.field, table.s.dim
    powers = power_sets(table, k - 1)
    interior = []
    for i in range(k - 1, 0, -1):  # longest products first: smallest span
        span = zero_subspace(f, n)
        for x in powers[i - 1]:
            span = span.sum_(mat_image(table.elements[x]))
        interior.append(span)
    chain = [zero_subspace(f, n)] + interior + [full_space(f, n)]
    for lo, hi in zip(chain, chain[1:]):
        if not (hi.contains(lo) and hi.dim > lo.dim):  # pragma: no cover
            raise InvariantViolation("power-image spans failed to increase strictly")
    return Flag(field=f, ambient=n, chain=tuple(chain))


def is_k_maximal(s) -> bool:
    """Is s maximal among nilpotent subsemigroups of its nilpotency degree?

    Fixed-point test: s must equal the full semigroup of its power-image
    flag.
    """
    return _is_k_maximal(*_nil_table(s))


def _is_k_maximal(table, k) -> bool:
    """is_k_maximal on the table and degree the caller already built."""
    if k is None:
        raise NotNilpotent("set has no vanishing power")
    if k < 2:
        raise NotNilpotent(f"nilpotency degree {k} < 2 has no flag test")
    return table.s.as_set() == flag_semigroup(_power_image_flag(table, k)).as_set()


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

    Maps the deterministic adapted basis of f onto that of f2.
    """
    if f.field != f2.field:
        raise FieldMismatch("flags over different fields")
    if f.ambient != f2.ambient:
        raise DimMismatch("flags of different ambient spaces")
    if f.signature != f2.signature:
        raise SignatureMismatch(f"signatures {f.signature} vs {f2.signature}")
    g = flag_basis(f2) * mat_inverse(flag_basis(f))
    for s, s2 in zip(f.chain, f2.chain):
        mapped = [tuple((g * Matrix(f.field, f.ambient, 1, row)).codes) for row in s.basis]
        ok = all(s2.contains_vector(vec) for vec in mapped)
        if not ok or s.dim != s2.dim:  # pragma: no cover
            raise InternalError("transporter does not carry the chain over")
    return g


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
