"""Oracle helpers shared by the test files: brute-force forms of questions
the library no longer asks itself."""

from matsemi.gf import subspace


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
