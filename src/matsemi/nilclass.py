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
subspace route, its depth grading and every sandwich mask read slices of
one array: the elements in a basis adapted to the flag, where T is the
block strictly upper triangular matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .engine import (
    GRID_BLOCK,
    MatSet,
    TABLE_ELEMS_CAP,
    SemigroupTable,
    _first_wrong_entry,
    _read_only,
    check_table_size,
    mul_columns,
    preorder_depths,
    product_grid,
    stacked_ladders,
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
    _enumerate_group,
    flag_basis,
    flag_basis_inverse,
    flag_size,
    format_flag,
    lowering_masks,
    signature_groups,
)
from .gf import (
    FieldSpec,
    Matrix,
    batch_mul,
    batch_rref,
    codes_array,
    prime_power,
    row_keys,
)

# K cells are indexed by (prec depth, ll depth); only these pairs are defined.
K_PAIRS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2))
# The cells whose indecomposables have super rank 1, as rows of k_masks;
# the indecomposables of the other cells have super rank 2.
RANK_ONE_CELLS = [K_PAIRS.index(p) for p in ((1, 0), (0, 1), (1, 1))]

ORDER_DEPTH_CHECK_CAP = 64
# grid entries of the flags built together: half the grid of the largest
# table.  A chunk of several flags holds its stack of grids and, while the
# power ladders are read, the stack's offset copy (stacked_ladders), so no
# more than that one grid; a flag whose grid is larger is built alone.
GROUP_GRID_ENTRIES = TABLE_ELEMS_CAP**2 // 2


class NilContext:
    """Flag semigroup with its interned table and memoized invariants.

    The table's grid is checked entry by entry when it is built.  The
    adapted array and what is read off it come from the element codes
    alone; the product routes, powers, cells and super ranks read the
    grid.  Every id set is a bool member mask over the ids, and the per-id
    values (depths, super ranks) are int arrays.
    """

    def __init__(self, flag: Flag, table: SemigroupTable, power_masks: np.ndarray):
        self.flag = flag
        self.t = table.s
        self.table = table
        self.r = flag.length
        self.sig = flag.signature
        self.dims = tuple(s.dim for s in flag.chain)  # dim V_0, ..., dim V_r
        self.m = table.m
        self.codes = table.codes  # (m, n, n) code array of the elements, in id order
        # row i is the member mask of T^(i+1), for i = 0..r-1: the power
        # ladder nil_contexts built to read the degree
        self.power_masks = power_masks
        self._order_depths_checked = False

    # -- per-element caches ------------------------------------------------

    @cached_property
    def zero_products(self) -> np.ndarray:
        """m x m bool: [x, c] is true when x*c = 0."""
        return self.table.grid == self.table.zero_id

    @cached_property
    def adapted(self) -> np.ndarray:
        """Read-only (m, n, n) codes of P^-1 x P, P = flag_basis(flag): each
        element in the adapted basis, whose first dims[i] vectors span V_i,
        so every element is block strictly upper triangular; reads no grid."""
        f = self.t.field
        p, p_inv = (codes_array([basis(self.flag)]) for basis in (flag_basis, flag_basis_inverse))
        return _read_only(batch_mul(f, batch_mul(f, p_inv, self.codes), p))

    @cached_property
    def kernel_band(self) -> np.ndarray:
        """m x q^dim V_{r-1} bool: [x, c] is true when x kills the vector of
        V_{r-1} with adapted coordinates c, so row x is ker(x) ∩ V_{r-1}."""
        return _null_band(self.t.field, self.adapted[:, :, : self.dims[-2]])

    @cached_property
    def image_band(self) -> np.ndarray:
        """m x q^(n - dim V_1) bool: [x, c] is true when the covector that
        is zero on V_1 and has adapted coordinates c beyond it kills Im(x).

        Row x is the annihilator of Im(x) + V_1, so it holds
        q^(n - dim(Im(x) + V_1)) vectors, and a larger Im(x) + V_1 has a
        smaller row.
        """
        return _null_band(self.t.field, self.adapted[:, self.dims[1] :, :].transpose(0, 2, 1))

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
    def depth_prec(self) -> np.ndarray:
        """dim V_{r-1} - dim(ker x ∩ V_{r-1}); a band row holds q^dim vectors."""
        return _read_only(self.dims[-2] - _dims(self.t.field, self.kernel_band))

    @cached_property
    def depth_ll(self) -> np.ndarray:
        """dim Im x - dim(Im x ∩ V_1), which is dim(Im x + V_1) - dim V_1,
        or n - dim V_1 minus the dimension of the image band's row."""
        return _read_only(self.dims[-1] - self.dims[1] - _dims(self.t.field, self.image_band))

    @property
    def decomposable(self) -> np.ndarray:
        """Member mask of the decomposables T^2."""
        return self.power_masks[1]

    @cached_property
    def k_masks(self) -> np.ndarray:
        """(len(K_PAIRS), m) read-only bool: row i is the K cell of K_PAIRS[i].

        The (u, v) cell holds the x of prec depth u and ll depth v, and for
        u, v >= 1 only those with TxT != {0}.  The (2, 2) cell then drops
        every x whose TxT equals that of an indecomposable of super rank 1,
        that is, one in the (1, 0), (0, 1) or (1, 1) cell.
        """
        u, v = np.array(K_PAIRS).T
        cells = (self.depth_prec == u[:, None]) & (self.depth_ll == v[:, None])
        cells[(u >= 1) & (v >= 1)] &= _sandwich_nonzero(self, 1, 1)
        two_two = cells[K_PAIRS.index((2, 2))]
        if two_two.any():
            one = cells[RANK_ONE_CELLS].any(axis=0) & ~self.decomposable
            rows = np.flatnonzero(two_two | one)
            keys = [row.tobytes() for row in np.packbits(_tat_rows(self.table.grid, rows), axis=1)]
            excluded = {key for x, key in zip(rows.tolist(), keys) if one[x]}
            two_two[rows] &= [key not in excluded for key in keys]
        return _read_only(cells)

    @cached_property
    def super_ranks(self) -> np.ndarray:
        """Read-only int array: the super rank 1 or 2 of each id, 0 where
        it is undefined (always at 0).

        An indecomposable has super rank 1 in RANK_ONE_CELLS and 2 in the
        other cells.  For a decomposable, reach[x, k] is true when x is the
        product of a word of indecomposables whose flags are k: bit 1 set
        when the word has a factor of super rank 1, bit 0 when it has one
        of super rank 2.  Each round puts every indecomposable in front of
        the words first reached in the round before, for each of the four
        flag values at once, until nothing new is reached; that ends, as
        every word longer than nd(T) = r is 0.
        """
        g, cells = self.table.grid, self.k_masks
        ranks = np.select([cells[RANK_ONE_CELLS].any(axis=0), cells.any(axis=0)], [1, 2], 0)
        ranks[self.decomposable] = 0
        indec = np.flatnonzero(~self.decomposable)
        flags = 2 * (ranks[indec] == 1) + (ranks[indec] == 2)
        reach = np.zeros((self.m, 4), dtype=bool)
        reach[indec, flags] = True
        new = reach.copy()
        while new.any():
            nxt = np.zeros_like(reach)
            for k in range(4):
                nxt[g[np.ix_(indec, np.flatnonzero(new[:, k]))], (flags | k)[:, None]] = True
            new = nxt & ~reach
            reach |= new
        dec = self.decomposable.copy()
        dec[self.table.zero_id] = False
        ranks[dec] = np.select([reach[dec, 2:].any(axis=1), reach[dec, 1::2].any(axis=1)], [1, 2], 0)
        return _read_only(ranks)


def _tat_rows(grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), m) bool: row i is the member mask of T x T, x = rows[i].

    left[i, y] is true when y is in T x and right[z, y] when z is in y T,
    so T x T is row i of their boolean product.
    """
    m = len(grid)
    left = np.zeros((len(rows), m), dtype=bool)
    left[np.arange(len(rows))[:, None], grid.T[rows]] = True
    right = np.zeros((m, m), dtype=bool)
    right[grid, np.arange(m)[:, None]] = True
    return _meets(left, right)


def _null_band(f: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """len(arr) x q^k bool for an (m, rows, k) code array: [x, c] is true
    when arr[x] * c = 0, for every vector c of F^k in np.indices order;
    about GRID_BLOCK entries at a time."""
    k = arr.shape[-1]
    vecs = np.indices((f.q,) * k).reshape(k, -1)  # one per column
    out = np.empty((len(arr), vecs.shape[1]), dtype=bool)
    step = max(1, GRID_BLOCK // vecs.shape[1])
    for lo in range(0, len(arr), step):
        out[lo : lo + step] = ~mul_columns(f, arr[lo : lo + step], vecs).any(axis=1)
    return out


def _dims(f: FieldSpec, band: np.ndarray) -> np.ndarray:
    """Dimension of the subspace in each row of a band, from its q^dim members."""
    dim_of = {f.q**d: d for d in range(band.shape[1].bit_length())}  # q^d <= band width
    return np.array([dim_of[c] for c in band.sum(axis=1).tolist()])


MEETS_BLOCK_BYTES = 1 << 18  # bytes of one _meets temporary: larger ones raise peak RSS


def _meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] true when rows a[i] and b[j] of two bool matrices share a
    column: the boolean product of a and b transposed.

    Rows are packed eight columns to a byte, and the rows of a are taken
    in blocks whose (rows, len(b), bytes) temporary holds at most
    MEETS_BLOCK_BYTES, or one row when a single row needs more; no float
    product, so no BLAS buffers are allocated.
    """
    pa, pb = np.packbits(a, axis=1), np.packbits(b, axis=1)
    out = np.empty((len(a), len(b)), dtype=bool)
    step = max(1, MEETS_BLOCK_BYTES // max(1, pb.size))
    for lo in range(0, len(a), step):
        out[lo : lo + step] = (pa[lo : lo + step, None] & pb[None]).any(axis=2)
    return out


def _contained(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] true when row i of the bool matrix a lies inside row j of b."""
    return ~_meets(a, ~b)


# A context holds its table and grid.  nil_contexts keeps none: verify
# builds its forty standing contexts with it, in signature groups, once per
# process.  This cache serves the callers that ask for one context at a
# time: in verify all, criterion 10 and the four `nil fingerprint` runs of
# criterion 13 (two misses, three hits), and the test suite, which shares
# its standard contexts in one process; 64 leaves room for those.
# perfbench forks a cold child per job, where it only misses.
@lru_cache(maxsize=64)
def nil_context(flag: Flag, cap: int = PHI_CAP) -> NilContext:
    """Build and validate the context for a flag of length >= 2:
    nil_contexts of one flag."""
    return nil_contexts((flag,), cap)[0]


def nil_contexts(flags, cap: int = PHI_CAP) -> list[NilContext]:
    """The validated contexts of flags of length >= 2, in input order; a
    repeated flag gets the same context.

    Every flag is refused first: PreconditionViolated below length 2,
    and CapExceeded from flag_size or above the table cap, before any
    element is enumerated.  Then the distinct flags of each field, ambient
    and signature are built together (_context_group), as many at a time
    as hold GROUP_GRID_ENTRIES grid entries, or one.
    """
    flags = tuple(flags)
    for fl in flags:
        if fl.length < 2:
            raise PreconditionViolated("context needs a flag of length >= 2")
        check_table_size(flag_size(fl, cap))  # |T| follows from the signature: refuse before enumerating
    distinct = list(dict.fromkeys(flags))
    built = {}
    for idx in signature_groups(distinct):
        group = [distinct[i] for i in idx]
        step = max(1, GROUP_GRID_ENTRIES // flag_size(group[0]) ** 2)
        for lo in range(0, len(group), step):
            built.update(zip(group[lo : lo + step], _context_group(group[lo : lo + step])))
    return [built[fl] for fl in flags]


def _context_group(flags) -> list[NilContext]:
    """The contexts of flags of one field, ambient and signature.

    Every S(F) is P N P^-1, N the block strictly upper triangular matrices
    and P = flag_basis(F), so the tables of a group are one table
    relabelled.  _enumerate_group gives each flag's elements in canonical
    order and the block each conjugates.  The grids are one (t, m, m)
    int32 stack: product_grid of the first flag's elements (the blocks
    conjugated by its P) fills grids[0], and every other flag's grid is a
    gather from it through the two flags' blocks, about GRID_BLOCK entries
    at a time.  Each context's table is a view of its row, so the stack
    lives as long as one of the group's contexts, and no other grid
    outlives the call: one can hold 64 MiB.

    Each check of a context runs for every flag, batched over the group:
    every grid entry against the column route (_first_wrong_entry on the
    stack), the zero matrix at id 0, the power ladder (stacked_ladders)
    reaching {0} at exactly the flag's length, and maximality.  Every
    element lowers F (lowering_masks) and |T| = flag_size(F), so
    T = S(F); and the images of T^(r-i) span V_i for 0 < i < r
    (_power_images_span_chain), so F is the power-image flag of T, as
    _is_k_maximal reads it.  A failure names the first failing flag.  A
    nilpotent T of more than one element has no identity: e = e^r would
    be 0, and then x = e x = 0 for every x.
    """
    first = flags[0]
    field, n, r = first.field, first.ambient, first.length
    codes, blocks = _enumerate_group(flags)
    t, m = blocks.shape
    sets = [MatSet(field, n, c) for c in codes]
    grids = np.empty((t, m, m), dtype=np.int32)  # grids[k]: the grid of flags[k]
    product_grid(sets[0], out=grids[0])
    if t > 1:
        ids = np.empty_like(blocks)  # ids[k, b]: the id in flags[k] of block b
        np.put_along_axis(ids, blocks, np.arange(m), axis=1)
    step = max(1, GRID_BLOCK // m)
    for k in range(1, t):
        to_first, back = ids[0][blocks[k]], ids[k][blocks[0]]  # ids of flags[k] in flags[0], and back
        for lo in range(0, m, step):
            grids[k, lo : lo + step] = back.take(grids[0].take(to_first[lo : lo + step], axis=0).take(to_first, axis=1))
    grids.flags.writeable = False

    wrong = _first_wrong_entry(field, codes, grids)
    if wrong is not None:
        k, a, b = wrong
        raise InternalError(f"flag {format_flag(flags[k])}: grid entry {(a, b)} is not the product of its elements")
    _first_failure(flags, (grids[:, 0] == 0).all(axis=1) & (grids[:, :, 0] == 0).all(axis=1), InternalError, "zero element is not id 0")
    ladders = stacked_ladders(grids, r)  # [k, i]: T^(i+1) of flags[k]
    nd = ladders[:, r - 1, 0] & ~ladders[:, r - 1, 1:].any(axis=1) & ladders[:, r - 2, 1:].any(axis=1)
    _first_failure(flags, nd, InvariantViolation, f"nilpotency degree is not the flag length {r}")
    maximal = lowering_masks(flags, codes).all(axis=1) & (m == flag_size(first))
    maximal &= _power_images_span_chain(flags, codes, ladders)
    _first_failure(flags, maximal, InvariantViolation, "flag semigroup is not maximal for its degree")
    return [
        NilContext(fl, SemigroupTable(sets[k], 0, None, grids[k]), ladders[k])
        for k, fl in enumerate(flags)
    ]


def _power_images_span_chain(flags, codes: np.ndarray, ladders: np.ndarray) -> np.ndarray:
    """(len(flags),) bool: for each flag of one signature, do the images of
    T^(r-i) span V_i for every 0 < i < r?  codes are the flags' elements
    and ladders their power ladders, as _context_group has them.

    Each member column must be its coordinates (its entries at V_i's
    pivots) times V_i's RREF rows, and the coordinates must have rank
    dim V_i.  The columns are taken once each (at most q^n distinct ones),
    and every level of every flag is one matrix of one batch_mul and one
    batch_rref, padded to the widest level by zero rows of the basis and
    zero coordinates.
    """
    fl0 = flags[0]
    field, n, r = fl0.field, fl0.ambient, fl0.length
    t, m = ladders.shape[0], ladders.shape[2]
    dims = np.array([s.dim for s in fl0.chain[1:r]])  # dim V_i, i = 1..r-1: one signature
    width = int(dims[-1])
    zero_row = (0,) * n
    basis = np.array(
        [[[*s.basis, *[zero_row] * (width - s.dim)] for s in fl.chain[1:r]] for fl in flags], dtype=np.int64
    )  # (t, r-1, width, n)
    pivots = np.array([[[*s.pivots, *[0] * (width - s.dim)] for s in fl.chain[1:r]] for fl in flags], dtype=np.intp)
    cols = codes.transpose(0, 1, 3, 2).reshape(t * m * n, n)
    _, at, col_ids = np.unique(row_keys(field, cols), return_index=True, return_inverse=True)
    distinct, col_ids = cols[at], col_ids.reshape(t, m, n)  # col_ids[k, x, j]: column j of element x
    members = np.zeros((t, r - 1, len(distinct)), dtype=bool)  # [k, i-1, c]: column c is an image of T^(r-i)
    k, i, x = np.nonzero(ladders[:, r - 2 :: -1])
    members[k[:, None], i[:, None], col_ids[k, x]] = True
    images = np.where(members[..., None], distinct, 0)  # (t, r-1, w, n)
    coords = np.where(members[..., None], distinct[:, pivots].transpose(1, 2, 0, 3), 0)  # images at V_i's pivots
    coords *= (np.arange(width) < dims[:, None])[:, None]  # the padding columns read 0
    inside = (batch_mul(field, coords, basis) == images).all(axis=(1, 2, 3))
    ranks = batch_rref(field, coords.reshape(t * (r - 1), -1, width))[1].reshape(t, r - 1)
    return inside & (ranks == dims).all(axis=1)


def _first_failure(flags, ok: np.ndarray, error, message: str) -> None:
    """Raise error(message) naming the first flag whose entry of ok is false."""
    if not ok.all():
        raise error(f"flag {format_flag(flags[int(np.argmin(ok))])}: {message}")


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
    if got_prec != ctx.depth_prec.tolist() or got_ll != ctx.depth_ll.tolist():  # pragma: no cover
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
    return ctx.table.subset(np.flatnonzero(depths == i))


# ---------------------------------------------------------------------------
# super rank


def super_rank(ctx: NilContext, a: Matrix) -> int | None:
    """1, 2, or None (undefined); raises ZeroElement at 0."""
    x = _id_of(ctx, a)
    if x == ctx.table.zero_id:
        raise ZeroElement("super rank is undefined at 0")
    return int(ctx.super_ranks[x]) or None


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
    # the certificate ids behind each u_stats entry (u_stat's second value);
    # a certificate is one witness among several, so equality ignores it
    u_certificates: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

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
    """Member mask of the ids x with T^a x T^b != {0}, a = left_exp and
    b = right_exp, exponent 0 meaning the identity; reads no grid.

    Lemma: with V_0 = 0 and V_r = F^n, T^a x T^b != {0} exactly when
    x(V_{r-b}) is not inside V_a.  Proof: T maps each V_i into V_{i-1},
    so T^a kills V_a and T^b maps F^n into V_{r-b}.  For v in V_i outside
    V_{i-1} and w in V_{i-1}, u -> phi(u) w with phi(V_{i-1}) = 0 and
    phi(v) = 1 lies in T and sends v to w.  Chaining such maps down one
    level at a time, some c in T^a has c v != 0 for each v outside V_a,
    and each w in V_{r-b} is d u for some d in T^b.  So c x d = 0 for all
    c in T^a and d in T^b exactly when x(V_{r-b}) lies in V_a: in the
    adapted basis, when the block [dims[a]:, :dims[r-b]] of x is zero.
    """
    return ctx.adapted[:, ctx.dims[left_exp] :, : ctx.dims[ctx.r - right_exp]].any(axis=(1, 2))


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
    rank_one = ctx.k_masks[RANK_ONE_CELLS].any(axis=0) & ~ctx.decomposable
    gens = np.flatnonzero(rank_one & stage).tolist()
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
    power_sizes = tuple(ctx.power_masks.sum(axis=1).tolist())
    if any(a <= b for a, b in zip(power_sizes, power_sizes[1:])) or power_sizes[-1] != 1:
        raise InvariantViolation(f"power sizes {power_sizes} do not shrink to 1")
    left, right = _annihilators(ctx)
    stats = [u_stat(ctx, s) for s in range(2, ctx.r)]
    return Fingerprint(
        size=ctx.m,
        power_sizes=power_sizes,
        right_ann=int(right.sum()),
        left_ann=int(left.sum()),
        two_sided_ann=int((left & right).sum()),
        decomposable_count=int(ctx.decomposable.sum()),
        k_sizes=tuple(ctx.k_masks.sum(axis=1).tolist()),
        u_stats=tuple(u for u, _ in stats),
        u_certificates=tuple(cert for _, cert in stats),
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
    two_sided = left & right
    dec_in_ann = int((two_sided & ctx.decomposable).sum())
    rank_le_one = 1 + (q**i1 - 1) * (q**i3 - 1) // (q - 1)
    shortcut = q ** (i1 + i3 - 1)
    right_brute = int(right.sum())
    right_form = q ** (i1 * (i2 + i3))
    return (
        ("sig", ctx.sig),
        ("q", q),
        ("two_sided_ann", int(two_sided.sum())),
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


def _transporters(sources, targets) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^-1) as (S, T, n, n) code arrays for two lists of flags:
    g[i, j] = flag_basis(f_j) flag_basis_inverse(f_i) maps the adapted
    basis of source i onto that of target j."""
    f = sources[0].field
    p1, p2 = (codes_array(map(flag_basis, fls)) for fls in (sources, targets))
    p1_inv, p2_inv = (codes_array(map(flag_basis_inverse, fls)) for fls in (sources, targets))
    return batch_mul(f, p2[None], p1_inv[:, None]), batch_mul(f, p1[:, None], p2_inv[None])


def _carried(g: np.ndarray, sources, targets) -> np.ndarray:
    """(S, T) bool: g[i, j] V_l ⊆ V'_l at every interior level l of source
    flag i and target flag j.  The images of V_l's basis are tested against
    V'_l's RREF rows as gf.in_span does, every pair at once."""
    f, tj = sources[0].field, np.arange(len(targets))[:, None, None]
    out = np.ones(g.shape[:2], dtype=bool)
    for lvl in range(1, sources[0].length):
        v, w = (np.array([fl.chain[lvl].basis for fl in flags], dtype=np.int64) for flags in (sources, targets))
        img = batch_mul(f, v[:, None], g.swapaxes(2, 3))  # row k of [i, j] is g v_k
        pivots = (w != 0).argmax(axis=2)[:, None, :]  # an RREF row's first nonzero entry
        out &= (batch_mul(f, img[:, tj, np.arange(w.shape[1])[:, None], pivots], w) == img).all(axis=(2, 3))
    return out


def _stacked(arrays) -> np.ndarray:
    """np.stack, or a view of a single array, so one pair copies no grid."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def batch_transport(sources, targets) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation by the flag transporters from every source context to
    every target context, each verified as a table isomorphism.

    All contexts share one field, ambient dimension and signature, so one
    size m.  Returns (g, perm): g[i, j] is the transporter from source i
    to target j (_transporters), and perm[i, j, x] the id in target j of
    g x g^-1 for the id x of source i.  Every pair must carry the chain
    over (_carried), find every conjugate in the target, hit every target
    id, and satisfy perm[g1] == g2[perm, perm]; the first failing pair in
    row-major order raises InternalError.
    """
    sources, targets = list(sources), list(targets)
    first = sources[0].flag
    for fl in (c.flag for c in sources + targets):
        if fl.field != first.field:
            raise FieldMismatch("contexts over different fields")
        if fl.ambient != first.ambient:
            raise DimMismatch("contexts in different ambient dimensions")
        if fl.signature != first.signature:
            raise SignatureMismatch(f"signatures {first.signature} vs {fl.signature}")
    src, dst = [c.flag for c in sources], [c.flag for c in targets]
    g, g_inv = _transporters(src, dst)
    f = first.field
    moved = batch_mul(f, batch_mul(f, g[:, :, None], _stacked([c.codes for c in sources])[:, None]), g_inv[:, :, None])
    perm, found = np.empty(moved.shape[:3], dtype=np.int32), np.empty(moved.shape[:3], dtype=bool)
    for j, c in enumerate(targets):
        perm[:, j], found[:, j] = c.t.key_index.find(moved[:, j])
    si, tj = np.arange(len(sources))[:, None, None], np.arange(len(targets))[:, None]
    hit = np.zeros(perm.shape, dtype=bool)
    hit[si, tj, perm] = True
    g1, g2 = _stacked([c.table.grid for c in sources])[:, None], _stacked([c.table.grid for c in targets])
    products = perm[si[..., None], tj[..., None], g1] == g2[tj[..., None], perm[..., None], perm[..., None, :]]
    checks = (
        ("does not carry the chain over", _carried(g, src, dst)),
        ("leaves the target semigroup", found.all(axis=2)),
        ("is not a bijection", hit.all(axis=2)),
        ("does not preserve products", products.all(axis=(2, 3))),
    )
    bad = ~np.logical_and.reduce([ok for _, ok in checks])
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise InternalError(f"transport of pair ({i}, {j}) " + next(msg for msg, ok in checks if not ok[i, j]))
    return g, perm


def iso_construct(ctx1: NilContext, ctx2: NilContext) -> IsoMap:
    """Conjugation by a flag transporter, verified as a table isomorphism:
    the one-pair call of batch_transport."""
    g, perm = batch_transport([ctx1], [ctx2])
    f, n, targets = ctx1.flag.field, ctx1.flag.ambient, ctx2.t.elements
    pairs = tuple(zip(ctx1.t.elements, (targets[y] for y in perm[0, 0].tolist())))
    return IsoMap(g=Matrix(f, n, n, tuple(g[0, 0].ravel().tolist())), pairs=pairs)
