"""Oracle helpers shared by the test files: brute-force forms of questions
the library no longer asks itself."""

import numpy as np

from matsemi.errors import DimMismatch, FieldMismatch, InternalError, SignatureMismatch
from matsemi.flags import flag_basis, flag_basis_inverse
from matsemi.gf import Matrix, batch_mul, codes_array, subspace


def is_zero(m) -> bool:
    """Every entry of the matrix m is zero."""
    return not any(m.codes)


def span_sum(u, w):
    """U + W, the span of both bases."""
    return subspace(u.field, u.ambient, list(u.basis) + list(w.basis))


def intersect(u, w):
    """U ∩ W, spanned by the vectors of U that lie in W."""
    return subspace(u.field, u.ambient, [v for v in u.vectors() if w.contains_vector(v)])


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
