"""Oracle helpers shared by the test files: brute-force forms of questions
the library no longer asks itself."""

from matsemi.gf import Matrix, subspace


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
