"""Generic machinery for finite matrix semigroups.

A MatSet holds its matrices as one read-only code array in canonical
order (rank, then entry codes); Matrix objects are built only where a
caller reads elements.  A SemigroupTable is a closed MatSet with its
multiplication grid and the arrays derived from it (ranks, powers, the
power ladder S, S^2, ... as member masks).  build_table makes one from
any closed MatSet, and ambient() caches the table of the full M(n, F_q).
The remaining utilities (closures, least-id label partitions,
subsemigroup scans, table isomorphism, preorder depths) operate on grids.

Product grids and closures multiply the code arrays with gf.batch_mul,
one kernel for every GF(q).  Both multiply only the elements' distinct
rows with every element (row_table) and join the row keys of each product
into its code key; a closure grows that table round by round and
multiplies whole matrices only for the products it has not seen.
build_table checks every entry of the grid by columns instead (column j
of ab is a times column j of b), which also proves the table
associative; the subsemigroup scan tests every subset mask at once
against per-element subset-image tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, DimMismatch, FieldMismatch, InternalError, NotClosed
from .gf import (
    FieldSpec,
    Matrix,
    all_codes,
    batch_mul,
    batch_rref,
    capped_power,
    code_keys,
    codes_array,
    join_row_keys,
    row_keys,
)

CLOSURE_CAP = 1 << 20
SUBSEMIGROUP_CAP = 16
TABLE_ISO_CAP = 64
AMBIENT_ELEMS_CAP = 4096
TABLE_ELEMS_CAP = 4096  # elements of one build_table grid (64 MiB of int32)


# ---------------------------------------------------------------------------
# canonical matrix sets


@dataclass(frozen=True, eq=False)
class MatSet:
    """Duplicate-free set of n x n matrices over one field: one read-only
    (m, n, n) int64 code array in canonical order, rank first and then the
    row-major codes lexicographically, so equal sets have equal arrays.
    Membership and containment look up code keys in key_index.  elements
    (and iteration) is a view that builds each Matrix once, on first use;
    the kernels read only codes.
    """

    field: FieldSpec
    dim: int
    codes: np.ndarray

    def __post_init__(self):
        self.codes.flags.writeable = False

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        same = isinstance(other, MatSet) and (self.field, self.dim) == (other.field, other.dim)
        return same and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash((self.field, self.dim, self.codes.tobytes()))

    def __contains__(self, m) -> bool:
        same = isinstance(m, Matrix) and m.field == self.field and (m.rows, m.cols) == (self.dim, self.dim)
        return same and bool(self.key_index.find(codes_array([m]))[1][0])

    def issubset(self, other: MatSet) -> bool:
        same = (self.field, self.dim) == (other.field, other.dim)
        return same and bool(other.key_index.find_keys(self.key_index.keys)[1].all())

    @cached_property
    def elements(self) -> tuple[Matrix, ...]:
        f, n = self.field, self.dim
        return tuple(Matrix(f, n, n, tuple(row)) for row in self.codes.reshape(len(self), n * n).tolist())

    @cached_property
    def key_index(self) -> KeyIndex:
        return KeyIndex(self.field, self.codes)


def canonical_order(codes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The indices that put matrices in canonical order, rank first and
    then entry codes lexicographically, from their (len, n*n) row-major
    codes and their ranks: one lexsort."""
    return np.lexsort((*codes.T[::-1], ranks))  # the last key sorts first


def canonical_set(field: FieldSpec, dim: int, codes: np.ndarray) -> MatSet:
    """The MatSet of an (m, n, n) int64 code array of distinct matrices:
    their ranks from one batch_rref, then canonical_order."""
    order = canonical_order(codes.reshape(len(codes), dim * dim), batch_rref(field, codes)[1])
    return MatSet(field, dim, codes[order])


def mat_set(field: FieldSpec, dim: int, mats) -> MatSet:
    """The distinct matrices of mats in canonical order (canonical_set)."""
    seen = {}
    for m in mats:
        if m.field != field:
            raise FieldMismatch("element over a different field")
        if m.rows != dim or m.cols != dim:
            raise DimMismatch(f"element is {m.rows}x{m.cols}, expected {dim}x{dim}")
        seen[m.codes] = None
    return canonical_set(field, dim, np.array(list(seen), dtype=np.int64).reshape(len(seen), dim, dim))


# ---------------------------------------------------------------------------
# product grids


class KeyIndex:
    """The matrices of a code array, found again by code key.

    When the keys are exactly 0..m-1 (a full ambient M(n, F_q), in any
    order), a key's id is one gather from the inverse permutation;
    otherwise it is a binary search among the sorted keys.  Either way a
    key that is not among them is reported as not found.
    """

    def __init__(self, f: FieldSpec, arr: np.ndarray):
        self.field = f
        keys = code_keys(f, arr)
        self.order = _read_only(np.argsort(keys, kind="stable").astype(np.int32))
        self.keys = _read_only(keys[self.order])
        self.dense = keys.dtype.kind == "i" and np.array_equal(self.keys, np.arange(len(keys)))

    def find(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ids, found) for each matrix of arr; an id means nothing where
        found is false."""
        return self.find_keys(code_keys(self.field, arr))

    def find_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ids, found) for code keys, as find gives them for matrices."""
        last = len(self.keys) - 1
        if last < 0:
            return np.zeros(keys.shape, dtype=np.int32), np.zeros(keys.shape, dtype=bool)
        if self.dense:
            return self.order.take(keys, mode="clip"), keys <= last
        pos = np.searchsorted(self.keys, keys).clip(max=last)
        return self.order[pos], self.keys[pos] == keys


GRID_BLOCK = 8192  # products per block of product_grid


def mul_columns(f: FieldSpec, arr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """batch_mul(f, arr, cols) of a (..., r, n) code array with an (n, w)
    array of columns, each distinct row of arr multiplied once (products
    of matrix sets repeat rows: there are at most q^n distinct ones)."""
    n = arr.shape[-1]
    _, first, ids = np.unique(row_keys(f, arr).ravel(), return_index=True, return_inverse=True)
    out = batch_mul(f, arr.reshape(-1, n)[first], cols)[ids.ravel()]
    return out.reshape(*arr.shape[:-1], cols.shape[-1])


def row_table(f: FieldSpec, vecs: np.ndarray, arr: np.ndarray, dtype) -> np.ndarray:
    """(u, m) table of row keys: entry [r, b] is the key of the row vector
    vecs[r] times arr[b], for a (u, n) code array of rows and an (m, n, n)
    one of matrices; filled about GRID_BLOCK products at a time."""
    u, m = len(vecs), len(arr)
    table = np.empty((u, m), dtype=dtype)
    step = max(1, GRID_BLOCK // max(m, 1))
    for lo in range(0, u, step):
        table[lo : lo + step] = row_keys(f, batch_mul(f, vecs[lo : lo + step, None, None, :], arr))[..., 0]
    return table


def product_grid(s: MatSet) -> np.ndarray:
    """id x id -> id multiplication grid of a MatSet; NotClosed with
    witness otherwise.

    Row i of a*b is (row i of a)*b, so batch_mul of the elements' distinct
    rows with every element gives a (rows, m) table of row keys.  The code
    keys of a block of about GRID_BLOCK products are then n gathers from
    that table joined into one key each, looked up in s.key_index.  Both
    the table and the grid are filled a block at a time.  The witness is
    the first escaping pair in row-major order.
    """
    m = len(s)
    if not m:
        return np.zeros((0, 0), dtype=np.int32)
    f, n, arr = s.field, s.dim, s.codes
    rows, first, row_ids = np.unique(row_keys(f, arr).ravel(), return_index=True, return_inverse=True)
    row_ids = row_ids.reshape(m, n)  # row_ids[a, i]: which distinct row is row i of a
    table = row_table(f, arr.reshape(m * n, n)[first], arr, rows.dtype)  # table[r, b]: key of (row r)*b
    step = max(1, GRID_BLOCK // m)
    grid = np.empty((m, m), dtype=np.int32)
    for lo in range(0, m, step):
        keys = join_row_keys(f, [table[row_ids[lo : lo + step, i]] for i in range(n)])
        ids, ok = s.key_index.find_keys(keys)
        if not ok.all():
            a, b = divmod(lo * m + int(np.argmin(ok)), m)
            x, y = s.elements[a], s.elements[b]
            raise NotClosed("set not closed under multiplication", witness=(x, y, x * y))
        grid[lo : lo + step] = ids
    return grid


# ---------------------------------------------------------------------------
# multiplication tables


def _read_only(arr) -> np.ndarray:
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """A closed MatSet with its multiplication table over ids 0..m-1.

    Id i is the matrix s.codes[i], so ids follow the canonical order.
    grid is a read-only int32 (m, m) array.  Loops that read single
    entries take one grid.tolist() first, or read grid.item where that
    list is too large.  grid is prebuilt_grid when one is given (the grid
    build_table has checked), and otherwise derived from the codes on
    first use, so a caller that reads only the elements builds none.
    zero_id and identity_id are the absorbing and the identity element of
    the grid, each None when absent.  The per-id arrays below are derived
    on first use and are read-only.
    """

    s: MatSet
    zero_id: int | None
    identity_id: int | None
    prebuilt_grid: np.ndarray | None = None

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def codes(self) -> np.ndarray:
        """(m, n, n) code array of the elements, in id order."""
        return self.s.codes

    def subset(self, ids) -> MatSet:
        """The MatSet of ascending ids, one gather of their codes; a subset
        keeps the canonical order, so nothing is re-sorted."""
        return MatSet(self.s.field, self.s.dim, self.codes[np.asarray(ids, dtype=np.intp)])

    @cached_property
    def grid(self) -> np.ndarray:
        if self.prebuilt_grid is not None:
            return self.prebuilt_grid
        return _read_only(product_grid(self.s))

    @cached_property
    def index(self) -> dict[Matrix, int]:
        return {a: i for i, a in enumerate(self.s.elements)}

    @cached_property
    def ranks(self) -> np.ndarray:
        return _read_only(batch_rref(self.s.field, self.codes)[1].astype(np.int32))

    @cached_property
    def powers(self) -> np.ndarray:
        """(L, m) array: row j holds x^(j+1) for every id x.

        L is the first length at which every power sequence has cycled, so
        column x lists exactly the distinct powers of x.
        """
        ids = np.arange(self.m)
        rows = [ids]
        cycled = np.zeros(self.m, dtype=bool)
        while True:
            nxt = self.grid[rows[-1], ids]  # x^k * x
            cycled |= (np.stack(rows) == nxt).any(axis=0)
            if cycled.all():
                break
            rows.append(nxt)
        return _read_only(np.stack(rows).astype(np.int32))

    @cached_property
    def power_ladder(self) -> np.ndarray:
        """(L, m) read-only bool array: row i is the member mask of
        S^(i+1), from S down to {0} or to the last distinct power
        (_power_ladder)."""
        return _power_ladder(self.grid, np.ones(self.m, dtype=bool), self.zero_id)

    @cached_property
    def nilpotent(self) -> tuple[bool, ...]:
        """Per-id flag: is some power the zero matrix (id 0 when present,
        as rank sorts first)."""
        if not self.m or self.codes[0].any():
            return (False,) * self.m
        return tuple((self.powers == 0).any(axis=0).tolist())


def _detect_zero_identity(grid: np.ndarray):
    """(zero id, identity id) of a grid, each None when absent."""
    ids = np.arange(len(grid))
    is_row_id = grid == ids[:, None]  # entry equals the id of its row
    is_col_id = grid == ids[None, :]  # entry equals the id of its column
    zero = np.flatnonzero(is_row_id.all(1) & is_col_id.all(0))
    ident = np.flatnonzero(is_col_id.all(1) & is_row_id.all(0))
    return (int(zero[0]) if len(zero) else None, int(ident[0]) if len(ident) else None)


def _wrong_entries(s: MatSet, grid: np.ndarray):
    """Yield (lo, bad) for each block of rows of an (m, m) id grid over the
    MatSet s: bad[i, b] is true when grid[lo + i, b] is not the id of the
    product of matrices lo + i and b.

    Column j of ab is a*(column j of b), a route apart from product_grid's
    table of rows.  A block of about GRID_BLOCK entries at a time, the
    distinct rows of the block's left factors are multiplied with the
    distinct columns of all elements (w <= q^n of them), which gives the
    key of a*c for each left factor a and distinct column c.  An entry is
    right when the column keys of the element it names equal the keys of a
    times the columns of b; keys are injective, so n equal columns mean
    equal matrices.  Each entry is judged on its own value, so a single
    wrong entry flags only itself.
    """
    m = len(s)
    if not m:
        return
    f, n, arr = s.field, s.dim, s.codes
    cols = arr.transpose(0, 2, 1)  # cols[b, j]: column j of b
    keys = row_keys(f, cols)  # keys[b, j]: key of column j of b
    _, first, col_ids = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    distinct = cols.reshape(m * n, n)[first].T  # (n, w): the distinct columns side by side
    keys, col_ids = keys.T.copy(), col_ids.reshape(m, n).T.copy()  # [j, b]: column j of b
    step = max(1, GRID_BLOCK // m)
    for lo in range(0, m, step):
        # table[i, c]: key of (element lo + i) * (distinct column c)
        table = row_keys(f, mul_columns(f, arr[lo : lo + step], distinct).transpose(0, 2, 1))
        named = grid[lo : lo + step]
        bad = keys[0].take(named) != table.take(col_ids[0], axis=1)
        for j in range(1, n):
            bad |= keys[j].take(named) != table.take(col_ids[j], axis=1)
        yield lo, bad


def _check_grid(s: MatSet, grid: np.ndarray) -> None:
    """InternalError unless every entry of the grid is the product of its
    row and column elements; names the first wrong pair in row-major order.

    This implies that the grid is associative: with every entry the true
    product, grid[grid[a, b], c] and grid[a, grid[b, c]] both name the
    matrix (ab)c = a(bc), and ids are distinct matrices.
    """
    m = len(s)
    for lo, bad in _wrong_entries(s, grid):
        if bad.any():
            a, b = divmod(lo * m + int(np.argmax(bad)), m)
            raise InternalError(f"grid entry {(a, b)} is not the product of its elements")


def check_table_size(m: int) -> None:
    """CapExceeded when a table of m elements is above TABLE_ELEMS_CAP;
    callers that know m before any element exists refuse here first."""
    if m > TABLE_ELEMS_CAP:
        raise CapExceeded(f"table of {m} elements exceeds cap {TABLE_ELEMS_CAP}")


def build_table(s: MatSet) -> SemigroupTable:
    """Intern a closed MatSet into a SemigroupTable.

    Ids follow the MatSet order.  Sets above TABLE_ELEMS_CAP are refused
    before any grid is allocated.  Every entry of the grid is checked
    against an independent product route (_check_grid), which also proves
    the table associative.
    """
    check_table_size(len(s))
    grid = product_grid(s)
    _check_grid(s, grid)
    return SemigroupTable(s, *_detect_zero_identity(grid), _read_only(grid))


def _product_mask(grid: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Member mask of {a*b : a in left, b in right}, both given as id masks."""
    out = np.zeros(len(grid), dtype=bool)
    out[grid[np.ix_(left, right)]] = True
    return out


def _is_zero_set(mask: np.ndarray, zero_id: int | None) -> bool:
    return zero_id is not None and bool(mask[zero_id]) and mask.sum() == 1


def _power_ladder(grid: np.ndarray, base: np.ndarray, zero_id: int | None) -> np.ndarray:
    """[S, S^2, ...] for the closed id set S (the member mask base), as the
    rows of a read-only bool array.

    S is closed, so S^2 lies inside S, and S^(i+1) = S^i S inside
    S^(i-1) S = S^i: the powers shrink, and the ladder stops at {0} or
    before the first power equal to the last.
    """
    rows = [base]
    while not _is_zero_set(rows[-1], zero_id):
        nxt = _product_mask(grid, rows[-1], base)
        if np.array_equal(nxt, rows[-1]):
            break
        rows.append(nxt)
    return _read_only(np.stack(rows))


def _ladder_nd(ladder: np.ndarray, zero_id: int | None) -> int | None:
    """The nilpotency degree read off a power ladder: its length when it
    ends at {0}, None when the powers stopped changing above {0}."""
    return len(ladder) if _is_zero_set(ladder[-1], zero_id) else None


def table_nd(table: SemigroupTable) -> int | None:
    """Nilpotency degree of the table's semigroup, or None when not nilpotent."""
    return _ladder_nd(table.power_ladder, table.zero_id)


def power_sets(table: SemigroupTable, upto: int) -> list[frozenset[int]]:
    """[S^1, S^2, ..., S^upto] as id sets, read off the power ladder, whose
    last power is also every later one."""
    ladder = table.power_ladder
    return [frozenset(np.flatnonzero(ladder[min(i, len(ladder) - 1)]).tolist()) for i in range(upto)]


# ---------------------------------------------------------------------------
# closures


def closure(seed: MatSet) -> MatSet:
    """Multiplicative closure of seed, canonical order; CapExceeded as soon
    as more than CLOSURE_CAP elements are found.

    The closure grows in rounds: each round multiplies the elements found
    in the round before (the seed, at first) on the right by every element
    found so far.  One side is enough: every element of the closure is a
    product g_1 ... g_k of seed elements, and once its prefix g_1 ... g_j
    is found, the next round (or the first, for a seed element) finds
    g_1 ... g_j g_(j+1).  Multiplying by every found element, not by the
    seed alone, lets the length of the products found double from round
    to round, so the rounds stay few.

    As in product_grid, the key of a*b is n gathers from a table of row
    keys joined into one: table[r, b] is the key of (distinct row r)*b,
    and each round adds the rows and the columns of the elements found in
    the round before, so every distinct row meets every element once.
    About GRID_BLOCK products at a time, the keys already known are
    dropped with np.isin, and one pair per new key is multiplied with
    batch_mul.
    """
    f, n = seed.field, seed.dim
    found = seed.codes  # a buffer, copied on its first growth: the first count are found
    keys = row_keys(f, found)  # keys[a, i]: key of row i of a
    known = join_row_keys(f, [keys[:, i] for i in range(n)])
    rows = keys[:0, 0]  # the distinct row keys of the table, sorted
    table = np.empty((0, 0), dtype=keys.dtype)
    lo, count = 0, len(found)
    if count > CLOSURE_CAP:
        raise CapExceeded(f"closure exceeds cap {CLOSURE_CAP}")
    while lo < count:
        # the table gains the rows and the columns of found[lo:count]
        grown, first, row_ids = np.unique(keys[:count].ravel(), return_index=True, return_inverse=True)
        row_ids = row_ids.reshape(count, n)  # row_ids[a, i]: which distinct row is row i of a
        vecs = found[:count].reshape(count * n, n)[first]
        old = np.searchsorted(grown, rows)
        added = np.ones(len(grown), dtype=bool)
        added[old] = False
        rows, table, prev = grown, np.empty((len(grown), count), dtype=keys.dtype), table
        table[old, :lo] = prev
        table[old, lo:] = row_table(f, vecs[old], found[lo:count], keys.dtype)
        table[added] = row_table(f, vecs[added], found[:count], keys.dtype)
        total, step = count, max(1, GRID_BLOCK // count)
        for s in range(lo, count, step):
            pkeys = join_row_keys(f, [table[row_ids[s : s + step, i]] for i in range(n)]).ravel()
            fresh = np.flatnonzero(~np.isin(pkeys, known))
            if not len(fresh):
                continue
            new_keys, first = np.unique(pkeys[fresh], return_index=True)
            a, b = np.divmod(fresh[first], count)
            start, total = total, total + len(new_keys)
            if total > CLOSURE_CAP:
                raise CapExceeded(f"closure exceeds cap {CLOSURE_CAP}")
            if total > len(found):
                found = np.resize(found, (2 * total, n, n))
                keys = np.resize(keys, (2 * total, n))
            found[start:total] = batch_mul(f, found[s + a], found[b])
            keys[start:total] = row_keys(f, found[start:total])
            known = np.concatenate([known, new_keys])
        lo, count = count, total
    return canonical_set(f, n, found[:count])


def closure_ids(grid, seed, abort_ids=None):
    """Closure inside an ambient grid (a numpy id array), by id; single
    entries are read with grid.item, as Python ints.

    Returns (ids, aborted): aborted=True means an element of abort_ids was
    reached and the closure stopped early (the returned set is then partial).
    """
    s = set(seed)
    if abort_ids and s & abort_ids:
        return frozenset(s), True
    frontier = list(s)
    while frontier:
        new = set()
        members = list(s)
        for a in frontier:
            for b in members:
                x = grid.item(a, b)
                if x not in s and x not in new:
                    new.add(x)
                y = grid.item(b, a)
                if y not in s and y not in new:
                    new.add(y)
        if abort_ids and new & abort_ids:
            return frozenset(s | new), True
        s |= new
        frontier = list(new)
    return frozenset(s), False


# ---------------------------------------------------------------------------
# partitions


class Partition:
    """Partition of ids 0..m-1, each id labelled by the least id of its class."""

    def __init__(self, labels):
        self.labels = tuple(labels)

    def find(self, x: int) -> int:
        return self.labels[x]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes in order of their least id, each ascending."""
        groups: dict[int, list[int]] = {}
        for x, root in enumerate(self.labels):
            groups.setdefault(root, []).append(x)
        return tuple(tuple(g) for g in groups.values())

    def __eq__(self, other):
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self):  # pragma: no cover
        return hash(self.labels)


def equiv_closure(m: int, pairs) -> Partition:
    """Smallest equivalence relation containing the given id pairs.

    Least-id label propagation: each round lowers both ends of every pair to
    the smaller of their labels, then points each label at its own label,
    until nothing moves.  The fixed point labels every id by the least id
    of its component.
    """
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    label = np.arange(m)
    while True:
        low = np.minimum(label[a], label[b])
        nxt = label.copy()
        np.minimum.at(nxt, a, low)
        np.minimum.at(nxt, b, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    return Partition(label.tolist())


# ---------------------------------------------------------------------------
# subsemigroup enumeration (small tables)


def check_scan_size(base: int, exp: int = 1) -> None:
    """CapExceeded when base^exp elements are too many for the subset scan."""
    capped_power(
        base, exp, SUBSEMIGROUP_CAP, lambda size: f"table size {size} exceeds subsemigroup scan cap {SUBSEMIGROUP_CAP}"
    )


def enumerate_subsemigroups(table: SemigroupTable):
    """All nonempty multiplicatively closed id subsets, canonical order. m <= 16.

    Subsets are bit masks.  For each element i, the image of every mask M,
    the mask of {i*j : j in M}, is built by doubling over the bits of M;
    M is closed when its image lies inside M for every i in M.
    """
    m = table.m
    check_scan_size(m)
    dtype = np.min_scalar_type((1 << m) - 1)
    masks = np.arange(1 << m, dtype=dtype)
    image = np.zeros(1 << m, dtype=dtype)  # image[M]: the mask of {i*j : j in M}
    closed = np.ones(1 << m, dtype=bool)
    for i, row in enumerate(table.grid.tolist()):
        for b, x in enumerate(row):
            image[1 << b : 2 << b] = image[: 1 << b] | (1 << x)
        closed &= (((masks >> i) & 1) == 0) | ((image & ~masks) == 0)
    found = (np.flatnonzero(closed[1:]) + 1).tolist()  # mask 0 is the empty set
    out = [frozenset(i for i in range(m) if mask >> i & 1) for mask in found]
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# ---------------------------------------------------------------------------
# table isomorphism


def _color_refine(table: SemigroupTable):
    m = table.m
    grid = table.grid.tolist()
    products = set(table.grid.ravel().tolist())

    def power_chain(x):
        seen = {}
        cur = x
        while cur not in seen:
            seen[cur] = len(seen)
            cur = grid[cur][x]
        return (len(seen), seen[cur])

    colors = []
    for x in range(m):
        row = grid[x]
        col = [grid[y][x] for y in range(m)]
        colors.append(
            (
                x == table.zero_id,
                x == table.identity_id,
                row[x] == x,
                x in products,
                len(set(row)),
                len(set(col)),
                power_chain(x),
            )
        )
    # iterate: append multiset of (color[y], color[x*y], color[y*x])
    canon = {c: i for i, c in enumerate(sorted(set(colors)))}
    cur = [canon[c] for c in colors]
    while True:
        sigs = []
        for x in range(m):
            row = grid[x]
            neigh = sorted((cur[y], cur[row[y]], cur[grid[y][x]]) for y in range(m))
            sigs.append((cur[x], tuple(neigh)))
        canon = {c: i for i, c in enumerate(sorted(set(sigs)))}
        nxt = [canon[c] for c in sigs]
        if nxt == cur:
            return cur
        cur = nxt


def table_iso(u: SemigroupTable, w: SemigroupTable):
    """An isomorphism id map u -> w as a dict, or None.

    Pruned backtracking: iterated color refinement must match as a histogram,
    then assignments respect colors and product constraints eagerly.
    """
    if u.m != w.m:
        return None
    m = u.m
    if m > TABLE_ISO_CAP:
        raise CapExceeded(f"table size {m} exceeds isomorphism cap {TABLE_ISO_CAP}")
    if m == 0:
        return {}
    cu, cw = _color_refine(u), _color_refine(w)
    if sorted(cu) != sorted(cw):
        return None
    by_color_w: dict[int, list[int]] = {}
    for y, c in enumerate(cw):
        by_color_w.setdefault(c, []).append(y)
    # rarest colors first: fewer candidates near the root of the search
    order = sorted(range(m), key=lambda x: (len(by_color_w.get(cu[x], ())), cu[x], x))
    gu, gw = u.grid.tolist(), w.grid.tolist()

    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}

    def assign(x, y, trail):
        """Map x->y and propagate product constraints; undo via trail."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if a in fwd:
                if fwd[a] != b:
                    return False
                continue
            if b in rev:
                return False
            if cu[a] != cw[b]:
                return False
            fwd[a] = b
            rev[b] = a
            trail.append((a, b))
            for c in list(fwd):
                d = fwd[c]
                stack.append((gu[a][c], gw[b][d]))
                stack.append((gu[c][a], gw[d][b]))
        return True

    def search(k):
        if k == m:
            return True
        x = order[k]
        if x in fwd:
            return search(k + 1)
        for y in by_color_w[cu[x]]:
            if y in rev:
                continue
            trail: list = []
            if assign(x, y, trail) and search(k + 1):
                return True
            for a, b in trail:
                del fwd[a]
                del rev[b]
        return False

    if not search(0):
        return None
    # full verification before handing the map out
    for a in range(m):
        for b in range(m):
            if fwd[gu[a][b]] != gw[fwd[a]][fwd[b]]:  # pragma: no cover
                raise InternalError("isomorphism verification failed")
    return dict(fwd)


# ---------------------------------------------------------------------------
# preorder utilities


def preorder_depths(m: int, leq) -> list[int]:
    """Order-theoretic depth of each element under the preorder given by
    the m x m truth table leq, leq[a][b] true when a precedes b.

    Elements with mutually comparable pairs collapse into classes; depth 0
    are the maximal classes, depth i+1 lies strictly below some depth-i
    class.
    """
    rep = list(range(m))
    for a in range(m):
        for b in range(a):
            if rep[b] == b and leq[a][b] and leq[b][a]:
                rep[a] = b
                break
    reps = sorted({rep[a] for a in range(m)})
    above: dict[int, set[int]] = {r: set() for r in reps}
    for a in reps:
        for b in reps:
            if a != b and leq[a][b] and not leq[b][a]:
                above[a].add(b)
    memo: dict[int, int] = {}

    def depth(r):
        if r not in memo:
            memo[r] = 0 if not above[r] else 1 + max(depth(s) for s in above[r])
        return memo[r]

    return [depth(rep[a]) for a in range(m)]


# ---------------------------------------------------------------------------
# full ambient semigroup M(n, F_q)


AMBIENT_CACHE_SIZE = 8  # verify all --profile full uses 5 ambients
_AMBIENT_CACHE: dict = {}  # (field, n) -> table, least recently used first


def ambient(field: FieldSpec, n: int) -> SemigroupTable:
    """The table of the full semigroup M(n, F_q), cached: the
    AMBIENT_CACHE_SIZE most recently used tables are kept.

    Its grid is built on first use, from product_grid unchecked: every
    product of two n x n matrices is one, so the set is closed, and tests
    compare it with build_table's checked grid.  The theorem class route
    reads only the elements and builds no grid.
    """
    capped_power(
        field.q, n * n, AMBIENT_ELEMS_CAP, lambda size: f"|M({n}, F_{field.q})| = {size} exceeds cap {AMBIENT_ELEMS_CAP}"
    )
    key = (field, n)
    table = _AMBIENT_CACHE.pop(key, None)
    if table is None:
        s = canonical_set(field, n, all_codes(field, n))
        # the zero matrix sorts first (rank 0)
        table = SemigroupTable(s, 0, int(s.key_index.find(np.eye(n, dtype=np.int64)[None])[0][0]))
        if len(_AMBIENT_CACHE) >= AMBIENT_CACHE_SIZE:
            del _AMBIENT_CACHE[next(iter(_AMBIENT_CACHE))]
    _AMBIENT_CACHE[key] = table  # now the most recent
    return table
