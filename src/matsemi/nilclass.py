"""Isomorphism invariants of maximal nilpotent matrix semigroups.

A context bundles a flag F with T = flag_semigroup(F) and its product
table.  On top of it sit two annihilator preorders with their depth
grading, the partition of elements into K cells, the super rank, and the
fingerprint used to separate non-isomorphic contexts.

Each preorder is an m x m boolean matrix, entry [a, b] true when a precedes
b, and each has two routes.  The product route reads the zero pattern of
the table (grid == zero); the subspace route compares the kernels or
images of the elements against the flag and never reads the table.  Each
route's matrix is one containment test between the rows of membership
matrices, and tests compare the routes instead of trusting either.  The
subspace route's membership matrices (the kernel and image bands) are
batched products of the element codes with the vectors of one subspace of
the flag, and the depth grading is read off their row counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .engine import (
    GRID_BLOCK,
    MatSet,
    SemigroupTable,
    build_table,
    check_table_size,
    mul_columns,
    power_masks,
    preorder_depths,
    table_nd,
)
from .errors import (
    BadSignature,
    DimMismatch,
    FieldMismatch,
    InternalError,
    InvariantViolation,
    NotInContext,
    NotPrime,
    PreconditionViolated,
    SignatureMismatch,
    ZeroElement,
)
from .flags import (
    PHI_CAP,
    Flag,
    _is_k_maximal,
    flag_basis,
    flag_basis_inverse,
    flag_semigroup,
    flag_size,
    flag_transporter,
)
from .gf import (
    FieldSpec,
    Matrix,
    Subspace,
    batch_mul,
    codes_array,
    mat_kernel,
    prime_power,
)

# K cells are indexed by (prec depth, ll depth); only these pairs are defined.
K_PAIRS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2))

ORDER_DEPTH_CHECK_CAP = 64


class NilContext:
    """Flag semigroup with its interned table and memoized invariants.

    The table's grid is checked entry by entry when it is built.  The
    kernel and image bands, and the depths read off them, come from the
    codes of the elements alone; the product routes, cells and super
    ranks read the grid.
    """

    def __init__(self, flag: Flag, table: SemigroupTable):
        self.flag = flag
        self.t = table.s
        self.table = table
        self.r = flag.length
        self.sig = flag.signature
        self.m = table.m
        self.codes = table.codes  # (m, n, n) code array of the elements, in id order
        self._order_depths_checked = False

    # -- per-element caches ------------------------------------------------

    @cached_property
    def zero_products(self) -> np.ndarray:
        """m x m bool: [x, c] is true when x*c = 0."""
        return self.table.grid == self.table.zero_id

    @cached_property
    def kernel_band(self) -> np.ndarray:
        """m x |V_{r-1}| bool: [x, v] is true when x*v = 0, for the vectors
        v of V_{r-1}, so row x is ker(x) ∩ V_{r-1}; reads no grid."""
        return _null_band(self.codes, self.flag.chain[-2])

    @cached_property
    def image_band(self) -> np.ndarray:
        """m x |V_1^⊥| bool: [x, v] is true when v^T x = 0, for the vectors
        v of the annihilator V_1^⊥ of V_1; reads no grid.

        Row x is ker(x^T) ∩ V_1^⊥, the annihilator of Im(x) + V_1, so it
        holds q^(n - dim(Im(x) + V_1)) vectors, and a larger Im(x) + V_1
        has a smaller row.
        """
        f, n, v1 = self.t.field, self.flag.ambient, self.flag.chain[1]
        annihilator = mat_kernel(Matrix(f, v1.dim, n, tuple(c for row in v1.basis for c in row)))
        return _null_band(self.codes.transpose(0, 2, 1), annihilator)

    # -- preorders as m x m bool matrices, [a, b] true when a precedes b ---

    @cached_property
    def prec_products(self) -> np.ndarray:
        """a*c = 0 implies b*c = 0: row a of zero_products inside row b."""
        return _contained(self.zero_products, self.zero_products)

    @cached_property
    def prec_kernels(self) -> np.ndarray:
        """ker(a) ∩ V_{r-1} inside ker(b) ∩ V_{r-1}; reads no grid."""
        return _contained(self.kernel_band, self.kernel_band)

    @cached_property
    def ll_products(self) -> np.ndarray:
        """c*a = 0 implies c*b = 0: column a of zero_products inside column b."""
        cols = self.zero_products.T
        return _contained(cols, cols)

    @cached_property
    def ll_images(self) -> np.ndarray:
        """Im(b) + V_1 inside Im(a) + V_1, that is, the annihilator of
        Im(a) + V_1 inside that of Im(b) + V_1; reads no grid."""
        return _contained(self.image_band, self.image_band)

    @cached_property
    def depth_prec(self) -> list[int]:
        """dim V_{r-1} - dim(ker x ∩ V_{r-1}); a band row holds q^dim vectors."""
        return [self.flag.chain[-2].dim - d for d in _dims(self.t.field, self.kernel_band)]

    @cached_property
    def depth_ll(self) -> list[int]:
        """dim Im x - dim(Im x ∩ V_1), which is dim(Im x + V_1) - dim V_1,
        or dim V_1^⊥ minus the dimension of the image band's row."""
        top = self.flag.ambient - self.flag.chain[1].dim
        return [top - d for d in _dims(self.t.field, self.image_band)]

    @cached_property
    def power_masks(self) -> list[np.ndarray]:
        """power_masks[i] = member mask of T^(i+1), for i = 0..r-1."""
        return power_masks(self.table, self.r)

    @cached_property
    def power_ids(self) -> list[frozenset[int]]:
        """power_ids[i] = ids of T^(i+1), for i = 0..r-1."""
        return [frozenset(np.flatnonzero(mask).tolist()) for mask in self.power_masks]

    @cached_property
    def decomposable_ids(self) -> frozenset[int]:
        return self.power_ids[1]

    @cached_property
    def tat_sets(self) -> list[frozenset[int]]:
        """tat_sets[x] = {c*x*d : c, d in T} as ids.

        left[x, y] is true when y is in Tx and right[y, z] when z is in yT,
        so TxT is row x of their boolean product.
        """
        g, ids = self.table.grid, np.arange(self.m)[:, None]
        left = np.zeros((self.m, self.m), dtype=bool)
        left[ids, g.T] = True
        right = np.zeros((self.m, self.m), dtype=bool)
        right[ids, g] = True
        reach = _meets(left, right.T)
        return [frozenset(np.flatnonzero(row).tolist()) for row in reach]

    @cached_property
    def k_ids(self) -> dict[tuple[int, int], frozenset[int]]:
        zero = self.table.zero_id
        cells: dict[tuple[int, int], frozenset[int]] = {}
        for u, v in K_PAIRS:
            members = [
                x
                for x in range(self.m)
                if self.depth_prec[x] == u and self.depth_ll[x] == v
            ]
            if (u, v) in ((1, 1), (2, 1), (1, 2), (2, 2)):
                members = [x for x in members if any(y != zero for y in self.tat_sets[x])]
            cells[(u, v)] = frozenset(members)
        # The (2,2) exclusion clause ranges over indecomposables of super
        # rank 1, which only involves the (1,0)/(0,1)/(1,1) cells above.
        if cells[(2, 2)]:
            supr1 = (cells[(1, 0)] | cells[(0, 1)] | cells[(1, 1)]) - self.decomposable_ids
            excluded = {self.tat_sets[b] for b in supr1}
            cells[(2, 2)] = frozenset(
                x for x in cells[(2, 2)] if self.tat_sets[x] not in excluded
            )
        return cells

    @cached_property
    def indec_super_rank(self) -> dict[int, int | None]:
        k = self.k_ids
        one = k[(1, 1)] | k[(1, 0)] | k[(0, 1)]
        two = k[(2, 0)] | k[(0, 2)] | k[(2, 1)] | k[(1, 2)] | k[(2, 2)]
        out: dict[int, int | None] = {}
        for x in range(self.m):
            if x in self.decomposable_ids:
                continue
            out[x] = 1 if x in one else 2 if x in two else None
        return out

    @cached_property
    def dec_super_rank(self) -> dict[int, int | None]:
        """Super rank for decomposable nonzero ids.

        reach[x, k] is true when x is the product of a word of
        indecomposables whose flags are k: bit 1 set when the word has a
        factor of super rank 1, bit 0 when it has one of super rank 2.
        Each round puts every indecomposable in front of every word reached
        so far, for each of the four flag values at once, until nothing new
        is reached; that ends, as every word longer than nd(T) = r is 0.
        """
        g = self.table.grid
        sr = self.indec_super_rank  # keyed by the indecomposables, in id order
        indec = np.array(list(sr), dtype=np.intp)
        flags = np.array([2 * (sr[y] == 1) + (sr[y] == 2) for y in sr], dtype=np.intp)
        reach = np.zeros((self.m, 4), dtype=bool)
        reach[indec, flags] = True
        while True:
            nxt = reach.copy()
            for k in range(4):
                nxt[g[np.ix_(indec, np.flatnonzero(reach[:, k]))], (flags | k)[:, None]] = True
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        has_one, has_two = reach[:, 2:].any(1).tolist(), reach[:, 1::2].any(1).tolist()
        zero = self.table.zero_id
        return {
            x: 1 if has_one[x] else 2 if has_two[x] else None
            for x in self.decomposable_ids
            if x != zero
        }


def _null_band(arr: np.ndarray, space: Subspace) -> np.ndarray:
    """len(arr) x q^dim bool: [x, v] is true when arr[x] * v = 0, for
    every vector v of space; about GRID_BLOCK entries at a time."""
    vecs = np.array(list(space.vectors()), dtype=np.int64).reshape(-1, space.ambient).T  # one per column
    out = np.empty((len(arr), vecs.shape[1]), dtype=bool)
    step = max(1, GRID_BLOCK // vecs.shape[1])
    for lo in range(0, len(arr), step):
        out[lo : lo + step] = ~mul_columns(space.field, arr[lo : lo + step], vecs).any(axis=1)
    return out


def _dims(f: FieldSpec, band: np.ndarray) -> list[int]:
    """Dimension of the subspace in each row of a band, from its q^dim members."""
    dim_of = {f.q**d: d for d in range(band.shape[1].bit_length())}  # q^d <= band width
    return [dim_of[c] for c in band.sum(axis=1).tolist()]


def _meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] true when rows a[i] and b[j] of two bool matrices share a
    column: the boolean product of a and b transposed.

    Rows are packed eight columns to a byte and a is taken one row at a
    time, so no temporary is larger than b packed; no float product, so no
    BLAS buffers are allocated.
    """
    pa, pb = np.packbits(a, axis=1), np.packbits(b, axis=1)
    out = np.empty((len(a), len(b)), dtype=bool)
    for i, row in enumerate(pa):
        out[i] = (row & pb).any(axis=1)
    return out


def _contained(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] true when row i of the bool matrix a lies inside row j of b."""
    return ~_meets(a, ~b)


# A context holds its table and grid.  All flag-invariants jobs in one process
# build 43 distinct contexts and verify all --profile full 41: 64 keeps every hit.
@lru_cache(maxsize=64)
def nil_context(flag: Flag, cap: int = PHI_CAP) -> NilContext:
    """Build and validate the context for a flag of length >= 2."""
    if flag.length < 2:
        raise PreconditionViolated("context needs a flag of length >= 2")
    check_table_size(flag_size(flag, cap))  # |T| follows from the signature: refuse before enumerating
    table = build_table(flag_semigroup(flag, cap=cap))
    if table.zero_id != 0:  # pragma: no cover - zero sorts first by rank
        raise InternalError("zero element is not id 0")
    nd = table_nd(table)
    if nd != flag.length:  # pragma: no cover
        raise InvariantViolation(f"nilpotency degree {nd} != flag length {flag.length}")
    if not _is_k_maximal(table, nd):  # pragma: no cover
        raise InvariantViolation("flag semigroup is not maximal for its degree")
    return NilContext(flag, table)


def _id_of(ctx: NilContext, a: Matrix) -> int:
    i = ctx.table.index.get(a)
    if i is None:
        raise NotInContext("matrix is not an element of this context's semigroup")
    return i


# ---------------------------------------------------------------------------
# preorders and depth sets


def prec(ctx: NilContext, a: Matrix, b: Matrix, method: str = "products") -> bool:
    """a precedes b: a*c = 0 implies b*c = 0 for all c in T.

    The kernels method tests ker(a) ∩ V_{r-1} ⊆ ker(b) ∩ V_{r-1} instead;
    both routes must agree and tests compare them pairwise.
    """
    ia, ib = _id_of(ctx, a), _id_of(ctx, b)
    if method == "products":
        return bool(ctx.prec_products[ia, ib])
    if method == "kernels":
        return bool(ctx.prec_kernels[ia, ib])
    raise ValueError(f"unknown prec method {method!r}")


def ll(ctx: NilContext, a: Matrix, b: Matrix, method: str = "products") -> bool:
    """a left-precedes b: c*a = 0 implies c*b = 0 for all c in T.

    The images method tests Im(b) + V_1 ⊆ Im(a) + V_1 (note the flip:
    smaller image modulo V_1 means more left annihilators).
    """
    ia, ib = _id_of(ctx, a), _id_of(ctx, b)
    if method == "products":
        return bool(ctx.ll_products[ia, ib])
    if method == "images":
        return bool(ctx.ll_images[ia, ib])
    raise ValueError(f"unknown ll method {method!r}")


def _check_order_depths(ctx: NilContext) -> None:
    # dimension depths must match the order-theoretic depth of the preorder
    # quotient; cheap enough to re-derive once for small contexts.
    if ctx._order_depths_checked or ctx.m > ORDER_DEPTH_CHECK_CAP:
        return
    got_prec = preorder_depths(ctx.m, ctx.prec_products.tolist())
    got_ll = preorder_depths(ctx.m, ctx.ll_products.tolist())
    if got_prec != ctx.depth_prec or got_ll != ctx.depth_ll:  # pragma: no cover
        raise InternalError("dimension depths disagree with order-theoretic depths")
    ctx._order_depths_checked = True


def depth_sets(ctx: NilContext, which: str, i: int) -> MatSet:
    """Elements at depth i of the chosen preorder (depth 0 = maximal)."""
    if which == "prec":
        depths = ctx.depth_prec
    elif which == "ll":
        depths = ctx.depth_ll
    else:
        raise ValueError(f"unknown preorder {which!r}")
    if i < 0:
        raise PreconditionViolated("depth index must be >= 0")
    _check_order_depths(ctx)
    return ctx.table.subset(np.flatnonzero(np.asarray(depths) == i))


# ---------------------------------------------------------------------------
# super rank


def super_rank(ctx: NilContext, a: Matrix) -> int | None:
    """1, 2, or None (undefined); raises ZeroElement at 0."""
    x = _id_of(ctx, a)
    if x == ctx.table.zero_id:
        raise ZeroElement("super rank is undefined at 0")
    if x in ctx.decomposable_ids:
        return ctx.dec_super_rank[x]
    return ctx.indec_super_rank[x]


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class Fingerprint:
    size: int
    power_sizes: tuple[int, ...]
    right_ann: int
    left_ann: int
    two_sided_ann: int
    decomposable_count: int
    k_sizes: tuple[int, ...]
    u_stats: tuple[int | None, ...]

    def items(self) -> tuple[tuple[str, int | None], ...]:
        """Flat key/value view in the fixed serialization order."""
        out: list[tuple[str, int | None]] = [("size", self.size)]
        out += [(f"power_{i + 1}", v) for i, v in enumerate(self.power_sizes)]
        out += [
            ("right_ann", self.right_ann),
            ("left_ann", self.left_ann),
            ("two_sided_ann", self.two_sided_ann),
            ("decomposable_count", self.decomposable_count),
        ]
        out += [(f"k_{u}_{v}", kv) for (u, v), kv in zip(K_PAIRS, self.k_sizes)]
        out += [(f"u_{s}", uv) for s, uv in enumerate(self.u_stats, start=2)]
        return tuple(out)


def _sandwich_nonzero(ctx: NilContext, left_exp: int, right_exp: int) -> np.ndarray:
    """Member mask of the ids x with T^left_exp * x * T^right_exp != {0},
    exponent 0 meaning the identity.

    By associativity c x d = c (x d), so the set is nonzero exactly when
    some x d, for d in T^right_exp, is a w with T^left_exp w != {0}; that
    test on w is one column reduction of the zero pattern over the rows of
    T^left_exp (w != 0 itself for exponent 0).  The products x d are read
    off the grid about GRID_BLOCK entries at a time.

    For left_exp = right_exp = 1 the set has a closed form: T x T != {0}
    exactly when x(V_{r-1}) is not inside V_1.  Every element of T kills
    V_1 and the kernels of T meet in V_1 alone, so c w = 0 for every c in
    T exactly when w is in V_1; the images of T span V_{r-1}.  So c x d = 0
    for all c, d in T exactly when x maps the span of the images of T,
    which is V_{r-1}, into V_1.
    """
    zero = ctx.table.zero_id
    if left_exp:
        reaches = ~ctx.zero_products[ctx.power_masks[left_exp - 1]].all(axis=0)
    else:
        reaches = np.arange(ctx.m) != zero
    if not right_exp:
        return reaches
    right = np.flatnonzero(ctx.power_masks[right_exp - 1])
    g = ctx.table.grid
    out = np.empty(ctx.m, dtype=bool)
    step = max(1, GRID_BLOCK // len(right))
    for lo in range(0, ctx.m, step):
        out[lo : lo + step] = reaches[g[lo : lo + step, right]].any(axis=1)
    return out


def u_stat(ctx: NilContext, s: int) -> tuple[int | None, tuple[int, ...]]:
    """(u(s), certificate ids) for a middle position 1 < s < r.

    u(s) is the least size of a subset of the stage-s generators (the
    indecomposables A of super rank 1 with T^{s-2} A T^{r-s} != 0) such
    that every B in T^{r-s} with T^{s-1} B != 0 has some C in the subset
    with C*B != 0.  Subset search ascends by size, cut off at max(sig)+1.
    Generators and targets are whole-mask tests (_sandwich_nonzero); each
    generator's targets are one bit mask, bit i for the i-th target.
    """
    if not 1 < s < ctx.r:
        raise PreconditionViolated("middle position s must satisfy 1 < s < r")
    stage = _sandwich_nonzero(ctx, s - 2, ctx.r - s)
    gens = [x for x, rank in ctx.indec_super_rank.items() if rank == 1 and stage[x]]
    targets = np.flatnonzero(ctx.power_masks[ctx.r - s - 1] & _sandwich_nonzero(ctx, s - 1, 0))
    full = (1 << len(targets)) - 1
    hits = ~ctx.zero_products[np.ix_(gens, targets)]  # [c, i]: c * targets[i] != 0
    masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in hits]
    for size in range(0, max(ctx.sig) + 2):
        for combo in itertools.combinations(range(len(gens)), size):
            acc = 0
            for ci in combo:
                acc |= masks[ci]
            if acc == full:
                return size, tuple(gens[ci] for ci in combo)
    return None, ()


def _annihilators(ctx: NilContext) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the left annihilators (x*T = 0) and right ones (T*x = 0)."""
    zp = ctx.zero_products
    return zp.all(1), zp.all(0)


def fingerprint(ctx: NilContext) -> Fingerprint:
    power_sizes = tuple(len(p) for p in ctx.power_ids)
    if any(a <= b for a, b in zip(power_sizes, power_sizes[1:])) or power_sizes[-1] != 1:
        raise InvariantViolation(f"power sizes {power_sizes} do not shrink to 1")
    left, right = _annihilators(ctx)
    return Fingerprint(
        size=ctx.m,
        power_sizes=power_sizes,
        right_ann=int(right.sum()),
        left_ann=int(left.sum()),
        two_sided_ann=int((left & right).sum()),
        decomposable_count=len(ctx.decomposable_ids),
        k_sizes=tuple(len(ctx.k_ids[pair]) for pair in K_PAIRS),
        u_stats=tuple(u_stat(ctx, s)[0] for s in range(2, ctx.r)),
    )


def annihilator_census(ctx: NilContext) -> tuple[tuple[str, object], ...]:
    """Annihilator counts of a length-3 context, with the rank-count caveat.

    The number of i1 x i3 matrices of rank <= 1 over GF(q) is
    1 + (q^i1 - 1)(q^i3 - 1)/(q - 1); the geometric shortcut q^(i1+i3-1)
    agrees only when min(i1, i3) = 1.  The census reports both numbers and
    an expected_mismatch flag instead of silently adopting either.
    """
    if ctx.r != 3:
        raise PreconditionViolated("annihilator census applies to length-3 contexts")
    i1, i2, i3 = ctx.sig
    q = ctx.t.field.q
    left, right = _annihilators(ctx)
    two_sided = np.flatnonzero(left & right).tolist()
    dec_in_ann = sum(1 for x in two_sided if x in ctx.decomposable_ids)
    rank_le_one = 1 + (q**i1 - 1) * (q**i3 - 1) // (q - 1)
    shortcut = q ** (i1 + i3 - 1)
    right_brute = int(right.sum())
    right_form = q ** (i1 * (i2 + i3))
    return (
        ("sig", ctx.sig),
        ("q", q),
        ("two_sided_ann", len(two_sided)),
        ("decomposable_in_ann", dec_in_ann),
        ("rank_le_one_corner", rank_le_one),
        ("geometric_shortcut", shortcut),
        ("expected_mismatch", dec_in_ann != shortcut),
        ("right_ann", right_brute),
        ("right_ann_closed_form", right_form),
        ("right_ann_matches", right_brute == right_form),
    )


# ---------------------------------------------------------------------------
# isomorphism decision and construction


class IsoDecision(Enum):
    ISOMORPHIC = "isomorphic"
    NOT_ISOMORPHIC = "not-isomorphic"
    UNSUPPORTED = "unsupported"


def _valid_sig(n: int, sig) -> tuple[int, ...]:
    sig = tuple(int(d) for d in sig)
    if not sig or any(d < 1 for d in sig):
        raise BadSignature(f"signature entries must be positive, got {sig}")
    if sum(sig) != n:
        raise BadSignature(f"signature {sig} does not sum to ambient {n}")
    return sig


def iso_decide(q: int | None, n1: int, sig1, n2: int, sig2) -> IsoDecision:
    """Decide isomorphism of two flag semigroups from signatures alone.

    q is the field size, or None for an infinite field.  Length is an
    isomorphism invariant (it is the nilpotency degree), so unequal
    lengths always answer not-isomorphic.
    """
    sig1, sig2 = _valid_sig(n1, sig1), _valid_sig(n2, sig2)
    if q is not None and prime_power(q) is None:
        raise NotPrime(f"no field has size {q}: {q} is not a prime power")
    yes, no = IsoDecision.ISOMORPHIC, IsoDecision.NOT_ISOMORPHIC
    if len(sig1) != len(sig2):
        return no
    r = len(sig1)
    if r == 1:
        return yes
    if r == 2:
        # multiplication is zero on both sides, so size decides
        if q is None:
            return yes
        return yes if sig1[0] * sig1[1] == sig2[0] * sig2[1] else no
    if r == 3:
        mid1 = sig1[1] == 1 and sig1[0] > 1 and sig1[2] > 1
        mid2 = sig2[1] == 1 and sig2[0] > 1 and sig2[2] > 1
        if q is None:
            if mid1 or mid2:
                # the (k,1,l) family with k,l > 1 is one class, any ambient
                return yes if (mid1 and mid2) else no
            if n1 == n2:
                return yes if sig1 == sig2 else no
            return IsoDecision.UNSUPPORTED
        if n1 == n2:
            return yes if sig1 == sig2 else no
        return IsoDecision.UNSUPPORTED
    return yes if sig1 == sig2 else no


@dataclass(frozen=True)
class IsoMap:
    """Conjugation isomorphism between two contexts, fully replayed."""

    g: Matrix
    pairs: tuple[tuple[Matrix, Matrix], ...]


def iso_construct(ctx1: NilContext, ctx2: NilContext) -> IsoMap:
    """Conjugation by a flag transporter, verified as a table isomorphism."""
    f1, f2 = ctx1.flag, ctx2.flag
    if f1.field != f2.field:
        raise FieldMismatch("contexts over different fields")
    if f1.ambient != f2.ambient:
        raise DimMismatch("contexts in different ambient dimensions")
    if f1.signature != f2.signature:
        raise SignatureMismatch(f"signatures {f1.signature} vs {f2.signature}")
    g = flag_transporter(f1, f2)
    g_inv = flag_basis(f1) * flag_basis_inverse(f2)  # g = flag_basis(f2) flag_basis_inverse(f1)
    f = f1.field
    moved = batch_mul(f, batch_mul(f, codes_array([g]), ctx1.codes), codes_array([g_inv]))
    perm, found = ctx2.t.key_index.find(moved)
    if not found.all():  # pragma: no cover
        raise InternalError("transport left the target semigroup")
    if ctx1.m != ctx2.m or len(set(perm.tolist())) != ctx2.m:  # pragma: no cover
        raise InternalError("transport is not a bijection")
    g1, g2 = ctx1.table.grid, ctx2.table.grid
    if not np.array_equal(perm[g1], g2[np.ix_(perm, perm)]):  # pragma: no cover
        raise InternalError("transport does not preserve products")
    targets = ctx2.t.elements
    return IsoMap(g=g, pairs=tuple(zip(ctx1.t.elements, (targets[y] for y in perm.tolist()))))
