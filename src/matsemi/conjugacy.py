"""Semigroup conjugacy of matrices via core decomposition.

Two square matrices are conjugate in the multiplicative semigroup exactly
when their cores are similar, where the core of A is the restriction of A
to the stable image Im(A^t) (t the rank stability index), padded back to an
n x n matrix by the projection onto Im(A^t) along ker(A^t).  core_chain
produces an explicit sequence of primary conjugations A -> ... -> core(A),
each step carrying a verified witness pair (u, v) with u v = current and
v u = next.

The class key needs no core.  F^n = Im(A^t) ⊕ ker(A^t) splits A as C ⊕ N
with C invertible of size r = rank(A^t) and N nilpotent, and the core is
similar to C ⊕ 0.  So the invariant factors of the core are those of A with
every power of x taken out of them and one x put back into each of the last
n - r of the n factors (class_key).  Everything after the Krylov pass
depends only on A's Krylov relation matrix, of which a whole M(n, F_q) has
few.  The pass (gf._krylov_key) returns it as a flat key (end_1, c_1, end_2,
c_2, ...), each block's end index and the base-q code of its relation
coefficients, which determines the matrix; the class key is memoized on
that flat key.  On a miss the key is first read off the diagonal of the
relation matrix, memoized on the diagonal (_diagonal_key): when the x-free
parts u_b of the diagonal entries are pairwise coprime, every primary part
of C is cyclic, so C is cyclic with characteristic polynomial prod u_b.
Only where two u_b share a factor is the matrix rebuilt and its invariant
factors computed.  For q^n <= 256 the pass runs on base-q codes of vectors
of F_q^n, each vector operation one lookup in tables built once per
(field, n); above it those tables would grow as q^(2n), so the same pass
runs on coordinate lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, FieldMismatch, InternalError, InvariantViolation
from .gf import (
    FieldSpec,
    Matrix,
    _krylov_key,
    _pgcd,
    _pmul,
    _relation_factors,
    _relation_matrix,
    full_space,
    identity_matrix,
    mat_image,
    mat_kernel,
    mat_rank,
    projection_idempotent,
    standard_complement,
    zero_matrix,
    zero_subspace,
)


@lru_cache(maxsize=256)
def _trivial_parts(f: FieldSpec, n: int):
    """Shared (F^n, 0, I, zero matrix) for the closed-form cores."""
    return full_space(f, n), zero_subspace(f, n), identity_matrix(f, n), zero_matrix(f, n)


def _stable_power(a: Matrix) -> tuple[int, Matrix, int]:
    """(t, a^t, rank(a^t)) for the stability index t of a."""
    if not a.is_square():
        raise DimMismatch("stability index needs a square matrix")
    prev, prev_power = a.rows, _trivial_parts(a.field, a.rows)[2]  # rank of a^0 = I
    power = a
    for t in range(1, a.rows + 2):
        r = mat_rank(power)
        if r == prev:
            return t - 1, prev_power, r
        prev, prev_power = r, power
        power = power * a
    raise InternalError("rank sequence failed to stabilize")  # pragma: no cover


def stability_index(a: Matrix) -> int:
    """Least t >= 0 with rank(a^t) = rank(a^{t+1}); 0 iff a is invertible."""
    return _stable_power(a)[0]


@dataclass(frozen=True)
class CoreDecomposition:
    """Stable-image data of a matrix: V = image ⊕ kernel, core = e a e."""

    t: int
    image: object  # Subspace Im(a^t)
    kernel: object  # Subspace ker(a^t)
    projector: Matrix  # idempotent onto image along kernel
    core: Matrix


# Bounded like gf.invariant_factors: a chain and a core of the same matrix
# are asked for close together, and a sweep meets each matrix once.
@lru_cache(maxsize=1024)
def core_decomposition(a: Matrix) -> CoreDecomposition:
    t, at, rank = _stable_power(a)
    full, zero, one, nil = _trivial_parts(a.field, a.rows)
    if t == 0:  # invertible: the stable image is everything, the core is a
        image, kernel, e, c = full, zero, one, a
    elif rank == 0:  # nilpotent: the stable image is 0, so is the core
        image, kernel, e, c = zero, full, nil, nil
    else:
        image = mat_image(at)
        kernel = mat_kernel(at)
        e = projection_idempotent(image, kernel)
        c = e * a * e
    # the stable part is carried bijectively, so ranks must agree
    if mat_rank(c) != image.dim:  # pragma: no cover
        raise InternalError("core lost rank")
    return CoreDecomposition(t=t, image=image, kernel=kernel, projector=e, core=c)


def core(a: Matrix) -> Matrix:
    return core_decomposition(a).core


@dataclass(frozen=True)
class ConjugacyChain:
    """Primary-conjugation path from a matrix to its core.

    steps[0] is the matrix itself, steps[-1] its core; witnesses[i] = (u, v)
    satisfies u v = steps[i] and v u = steps[i+1].
    """

    source: Matrix
    steps: tuple[Matrix, ...]
    witnesses: tuple[tuple[Matrix, Matrix], ...]

    def __post_init__(self):
        if len(self.witnesses) != len(self.steps) - 1:
            raise InvariantViolation("witness count must be steps - 1")
        for i, (u, v) in enumerate(self.witnesses):
            if u * v != self.steps[i] or v * u != self.steps[i + 1]:
                raise InvariantViolation(f"witness {i} fails the primary relation")


def core_chain(a: Matrix) -> ConjugacyChain:
    """Explicit conjugation path a -> core(a) with verified witnesses.

    Step i is e_i a e_{i-1} (e_i projecting onto Im(a^i)).  Because e_1
    fixes Im(a) pointwise, the first step is a itself; from the stability
    index t on, every step equals the core.  The witness pair for step ->
    next is (projector, step): e_i (e_i a e_{i-1}) = e_i a e_{i-1} and
    (e_i a e_{i-1}) e_i = e_{i+1} a e_i, the latter holding for any choice
    of complements since both sides fix the nested images pointwise.  For
    0 < i < t, e_i projects along the deterministic pivot completion of
    Im(a^i); e_t projects along ker(a^t), which makes it the core's own
    projector, and e_{t+1} a e_t is the core.
    """
    if not a.is_square():
        raise DimMismatch("chain needs a square matrix")
    dec = core_decomposition(a)
    if dec.t == 0:  # invertible: a is its own core
        return ConjugacyChain(source=a, steps=(a,), witnesses=())
    projs, power = [], a  # projs[i - 1] = e_i
    for _ in range(1, dec.t):
        img = mat_image(power)
        projs.append(projection_idempotent(img, standard_complement(img)))
        power = power * a
    projs.append(dec.projector)
    steps = [a, *(projs[i] * a * projs[i - 1] for i in range(1, dec.t)), dec.core]
    witnesses = list(zip(projs, steps))
    while len(steps) >= 2 and steps[-1] == steps[-2]:
        steps.pop()
        witnesses.pop()
    return ConjugacyChain(source=a, steps=tuple(steps), witnesses=tuple(witnesses))


def semigroup_conjugate(a: Matrix, b: Matrix) -> bool:
    """Conjugacy in the multiplicative semigroup: cores are similar, i.e.
    the class keys agree."""
    if a.field != b.field:
        raise FieldMismatch("conjugacy needs a common field")
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise DimMismatch("conjugacy needs square matrices of equal size")
    return class_key(a) == class_key(b)


# ---------------------------------------------------------------------------
# conjugacy classes of the full semigroup


def sg_classes(field: FieldSpec, n: int, method: str = "theorem"):
    """Partition of the full n x n semigroup into conjugacy classes.

    method "theorem" groups elements by the similarity key of their cores,
    labelling each id by the first id with its key; method "brute" takes
    the transitive closure of the primary relation {(x y, y x)} over the
    multiplication grid (_primary_pair_keys).  Both return the same
    Partition over ambient element ids.
    """
    from .engine import Partition, ambient, equiv_closure

    amb = ambient(field, n)
    m = amb.m
    if method == "theorem":
        first: dict = {}
        return Partition([first.setdefault(class_key(a), x) for x, a in enumerate(amb.s.elements)])
    if method == "brute":
        keys = _primary_pair_keys(amb.grid)
        return equiv_closure(m, np.stack([keys // m, keys % m], axis=1))
    raise InvariantViolation(f"unknown method {method!r}")


def _primary_pair_keys(grid: np.ndarray) -> np.ndarray:
    """The unordered pairs {x y, y x} of an m x m product grid, as sorted
    keys min * m + max.

    The pair does not change when x and y swap, so the grid is read on one
    triangle: each block of 64 rows x takes only the columns y >= its first
    row, its products x y against the transposed y x.  The keys stay in
    int32, as m^2 <= 4096^2 < 2^31, and mark an m*m bitmap.
    """
    m = len(grid)
    seen = np.zeros(m * m, dtype=bool)
    for lo in range(0, m, 64):
        xy, yx = grid[lo : lo + 64, lo:], grid[lo:, lo : lo + 64].T
        keys = np.minimum(xy, yx)
        keys *= m
        keys += np.maximum(xy, yx)
        seen[keys] = True
    return np.flatnonzero(seen)


def class_key(a: Matrix):
    """Canonical conjugacy-class key: the invariant factors of the core,
    read off those of a without building the core.

    Write the invariant factors of a, padded with 1s in front to n of them,
    as d_j = x^{e_j} u_j (j = 1..n) with u_j(0) != 0.  a is similar to
    C ⊕ N with C invertible and N nilpotent, so the u_j are the invariant
    factors of C, whose size is r = sum(deg u_j), and the x^{e_j} those of
    N.  The core is similar to C ⊕ 0, and the zero block adds one
    elementary divisor x for each of its n - r dimensions.  The core's
    invariant factors are therefore c_j = u_j x^{[j > r]}, a divisibility
    chain since both the u_j and the indicators are.  The factors of a and
    this key both depend only on a's Krylov relation matrix, which its
    flat Krylov key determines and on which _relation_key is memoized.
    """
    if not a.is_square():
        raise DimMismatch("class keys need a square matrix")
    return _relation_key(a.field, a.rows, _krylov_key(a))


def _key_of(n: int, facs) -> tuple[tuple[int, ...], ...]:
    """class_key of an n x n matrix from facs, its nontrivial invariant
    factors or those of its invertible part C (see class_key).  On
    coefficient tuples (low degree first): strip the leading zeros of each
    factor, prepend one 0 at the last n - r positions and drop the units."""
    u = [(1,)] * (n - len(facs)) + [d[next(i for i, c in enumerate(d) if c) :] for d in facs]
    r = sum(len(p) - 1 for p in u)
    key = ((0,) * (j >= r) + p for j, p in enumerate(u))
    return tuple(c for c in key if len(c) >= 2)


# A diagonal is one monic polynomial of degree d_b per Krylov block, and
# every one occurs (block-diagonal companion matrices), so M(n, F_q) has
# q^n 2^(n-1) of them: 108 for M(3, F_3) and 128 for M(4, F_2), as counted
# on the whole sweeps, 500 for M(3, F_5), 1 372 for M(3, F_7) and 3 888 for
# M(5, F_3); the bound holds each of these sets whole.
@lru_cache(maxsize=4096)
def _diagonal_key(f: FieldSpec, n: int, diag: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...] | None:
    """class_key of every n x n matrix over f whose Krylov relation matrix R
    has the diagonal diag, or None when two of its x-free parts share a
    factor.  diag holds one (d_b, code_b) per block, r_bb = x^{d_b} plus
    the polynomial of the base-q digits of code_b.

    Lemma.  Write r_bb = x^{e_b} u_b with u_b(0) != 0.  If the u_b are
    pairwise coprime, the invertible part C of a is cyclic with
    characteristic polynomial u = prod u_b, so the key is _key_of(n, (u,)).
    Proof: F^n is the F[x]-module F[x]^s / R F[x]^s, and its p-primary part,
    for a monic irreducible p != x, is the same quotient over the local
    ring F[x]_(p).  As the u_b are pairwise coprime, p divides at most one
    of them, say u_c; p does not divide x^{e_b}, so every other r_bb is a
    unit there.  Deleting row c and column c of the upper
    triangular R leaves an upper triangular matrix with those units on its
    diagonal, a unit (s - 1)-minor; so s - 1 of the local invariant factors
    are units, and the p-primary part is cyclic.  C is the sum of these
    parts over all p != x, so it is cyclic, and its characteristic
    polynomial is the x-free part of det R = prod x^{e_b} u_b.
    """
    q, u = f.q, (1,)
    for d, code in diag:
        r = []
        for _ in range(d):
            code, c = divmod(code, q)
            r.append(c)
        ub = (*r[next((i for i, c in enumerate(r) if c), d) :], 1)
        if len(_pgcd(f, ub, u)) > 1:
            return None
        u = _pmul(f, u, ub)
    return _key_of(n, (u,))


# A whole M(n, F_q) has few Krylov relation matrices, and so few flat keys:
# 1 080 for the 19 683 elements of M(3, F_3), 2 160 for M(4, F_2), 5 440
# for M(3, F_4), and 5 403 among 200 000 sampled M(3, F_5) matrices; the
# bound holds each of these sets whole.
@lru_cache(maxsize=8192)
def _relation_key(f: FieldSpec, n: int, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """class_key of every n x n matrix over f with flat Krylov key flat
    (gf._krylov_key).

    Block b spans Krylov indices [start_b, end_b), and its coefficients on
    its own block, the diagonal entry r_bb less x^{d_b}, are the digits of
    code_b // q^start_b.  The diagonal alone gives the key when its x-free
    parts are pairwise coprime (_diagonal_key, memoized on the diagonal);
    only where two of them share a factor is the relation matrix rebuilt
    and its invariant factors read off (_relation_factors).
    """
    q, ends = f.q, flat[0::2]
    diag = tuple((end - start, code // q**start) for start, end, code in zip((0, *ends), ends, flat[1::2]))
    key = _diagonal_key(f, n, diag)
    if key is None:
        key = _key_of(n, _relation_factors(f, _relation_matrix(q, flat)))
    return key
