"""Exact linear algebra over small finite fields GF(p^k).

Scalars are integer codes in [0, q), and code arithmetic is table-driven
and exact.  For k > 1 the field is GF(p^k) = F_p[x]/(m): the base-p digits
of a code, least significant first, are the coefficients of its residue,
and the tables come from the same polynomial helpers (_padd, _pneg, _pmul,
_pdivmod) that compute invariant factors over every GF(q).  The modulus m
is the lexicographically smallest monic irreducible of degree k, comparing
coefficient vectors as base-p integers with the constant term least
significant; this pins GF(4) to x^2 + x + 1 and makes every run
reproducible without external tables.

Matrices are immutable row-major code tuples.  Subspaces are always stored
as the reduced row echelon basis of their row span, so two equal subspaces
have identical representations and can be compared with ==.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as _dfield
from functools import lru_cache

import numpy as np

from .errors import (
    AmbientMismatch,
    CapExceeded,
    DimMismatch,
    DivisionByZero,
    FieldMismatch,
    InternalError,
    InvariantViolation,
    NotInvertible,
    NotPrime,
)

Q_CAP = 64
AMBIENT_CAP = 8
ENUM_CAP = 1 << 20


# ---------------------------------------------------------------------------
# primes and prime powers

# deterministic Miller-Rabin with these bases is exact below 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_CAP = 1 << 64


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < PRIME_CAP by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with p prime and p^k = q, or None when q is not a prime power.

    Each exponent k < bit_length(q) is tried: the rounded k-th root of q is
    exact whenever q is a k-th power, and an exact root is tested by
    _is_prime.  Below PRIME_CAP that is at most 63 roots and tests; larger
    q, where the test is no longer exact, raise CapExceeded.
    """
    if q < 2:
        return None
    if q >= PRIME_CAP:
        raise CapExceeded(f"{q} exceeds the prime-power cap 2^64")
    for k in range(1, q.bit_length()):
        p = q if k == 1 else round(q ** (1 / k))
        if p**k == q and _is_prime(p):
            return p, k
    return None


# ---------------------------------------------------------------------------
# polynomials over GF(q)

# Polynomials over a field f are tuples of its scalar codes, low degree
# first, with no trailing zeros; () is the zero polynomial.  f may be any
# GF(q): the prime field's tables build GF(p^k) = F_p[x]/(m), and the
# tables of GF(q) give invariant factors over it.


def _pnorm(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(f, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = f.add
    out = list(a)
    for i, y in enumerate(b):
        if y:
            out[i] = add[out[i]][y]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pneg(f, a):
    neg = f.neg
    return tuple(neg[x] for x in a)


def _pmul(f, a, b):
    if not a or not b:
        return ()
    mul, add = f.mul, f.add
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            mx = mul[x]
            for j, y in enumerate(b, i):
                out[j] = add[out[j]][mx[y]]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pdivmod(f, num, den):
    if not den:
        raise DivisionByZero("polynomial division by zero")
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dd = len(den) - 1
    if len(num) <= dd:
        return (), tuple(num)
    mul, add, neg = f.mul, f.add, f.neg
    ilead = f.inv[den[-1]]
    low = den[:-1]
    quo = [0] * (len(num) - dd)
    for pos in range(len(quo) - 1, -1, -1):
        c = num[pos + dd]
        if c:
            c = mul[c][ilead]
            quo[pos] = c
            mc = mul[neg[c]]
            for i, y in enumerate(low, pos):
                num[i] = add[num[i]][mc[y]]
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quo), tuple(rem)


def _pmonic(f, a):
    if not a:
        return a
    if a[-1] == 1:
        return a
    il = f.inv[a[-1]]
    mul = f.mul
    return tuple(mul[il][x] for x in a)


def _pgcd(f, a, b):
    """Monic gcd of two polynomials, () when both are zero."""
    while b:
        a, b = b, _pdivmod(f, a, b)[1]
    return _pmonic(f, a)


def _is_irreducible(f, poly) -> bool:
    """Whether poly over f has degree >= 1 and no monic divisor of degree
    1 .. deg // 2, by trial division; a reducible poly always has one."""
    deg = len(poly) - 1
    return deg >= 1 and all(
        _pdivmod(f, poly, (*low, 1))[1]
        for d in range(1, deg // 2 + 1)
        for low in itertools.product(range(f.q), repeat=d)
    )


# ---------------------------------------------------------------------------
# field construction


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(p^k) with precomputed arithmetic tables."""

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]  # () when k == 1
    add: tuple = _dfield(compare=False, repr=False, default=())
    mul: tuple = _dfield(compare=False, repr=False, default=())
    neg: tuple = _dfield(compare=False, repr=False, default=())
    inv: tuple = _dfield(compare=False, repr=False, default=())


@lru_cache(maxsize=64)
def field_make(p: int, k: int = 1, q_cap: int = Q_CAP) -> FieldSpec:
    """Build GF(p^k).  Raises NotPrime / CapExceeded on bad input.

    For k > 1 the field is F_p[x]/(m), tabulated with the polynomial helpers
    over F_p: sums by _padd, negatives by _pneg, products by _pmul reduced
    mod m with _pdivmod.  m is the first x^k + low, low in code order, that
    _is_irreducible over F_p.
    """
    if not isinstance(p, int) or not isinstance(k, int) or k < 1:
        raise NotPrime(f"bad field parameters p={p!r}, k={k!r}")
    pk = prime_power(p)
    # a field has p^k >= 2^k, so k > bit_length(q_cap) is past the cap and
    # p^k is not built (k may have thousands of digits); up to 64 it is cheap
    q = p**k if k <= max(64, q_cap.bit_length()) else None
    size = f"{p}^{k}" if q is None else q
    if pk != (p, 1):
        hint = f"; the field of size {size} is {pk[0]}^{pk[1] * k}" if pk else ""
        raise NotPrime(f"{p} is not prime{hint}")
    if q is None or q > q_cap:
        raise CapExceeded(f"field size {size} exceeds cap {q_cap}")

    if k == 1:
        modulus = ()
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        neg = tuple((-a) % p for a in range(p))
        inv = tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))
    else:
        # F_p[x]/(m): code c is the residue whose coefficients are the base-p
        # digits of c, least significant first
        fp = field_make(p, 1, q_cap)
        digits = [t[::-1] for t in itertools.product(range(p), repeat=k)]
        modulus = next(m for m in ((*t, 1) for t in digits) if _is_irreducible(fp, m))
        polys = [_pnorm(t) for t in digits]
        code = {a: c for c, a in enumerate(polys)}
        add = tuple(tuple(code[_padd(fp, a, b)] for b in polys) for a in polys)
        mul = tuple(tuple(code[_pdivmod(fp, _pmul(fp, a, b), modulus)[1]] for b in polys) for a in polys)
        neg = tuple(code[_pneg(fp, a)] for a in polys)
        inv = (0, *(row.index(1) for row in mul[1:]))

    return FieldSpec(p=p, k=k, q=q, modulus=modulus, add=add, mul=mul, neg=neg, inv=inv)


def format_field(f: FieldSpec) -> str:
    return str(f.p) if f.k == 1 else f"{f.p}^{f.k}"


def parse_field(text: str, q_cap: int = Q_CAP) -> FieldSpec:
    text = text.strip()
    if "^" in text:
        p_s, k_s = text.split("^", 1)
    else:
        p_s, k_s = text, "1"
    try:
        p, k = int(p_s), int(k_s)
    except ValueError:
        raise NotPrime(f"cannot parse field spec {text!r}") from None
    return field_make(p, k, q_cap)


# ---------------------------------------------------------------------------
# batched matrix arithmetic on integer code arrays


def codes_array(mats) -> np.ndarray:
    """(len, n, n) int64 array of the entry codes of square matrices."""
    mats = tuple(mats)
    n = mats[0].rows if mats else 0
    return np.array([a.codes for a in mats], dtype=np.int64).reshape(len(mats), n, n)


def all_codes(field: FieldSpec, n: int) -> np.ndarray:
    """(q^(n*n), n, n) int64 code array of every matrix of M(n, F_q), in
    the order of enumerate_matrices: row t holds the base-q digits of t,
    the first entry most significant."""
    nn = n * n
    return np.indices((field.q,) * nn, dtype=np.int64).reshape(nn, -1).T.reshape(-1, n, n)


@lru_cache(maxsize=256)
def _key_weights(q: int, nn: int) -> np.ndarray | None:
    """Base-q digit weights of nn codes; None when q^nn overflows int64."""
    return q ** np.arange(nn, dtype=np.int64) if q**nn <= 1 << 63 else None


def _byte_keys(digits: np.ndarray, base: int) -> np.ndarray:
    """One raw-byte key (a void scalar) per vector along the last axis of
    digits below `base`; digits that are byte keys already are put side
    by side."""
    if digits.dtype.kind != "V":
        digits = digits.astype(np.min_scalar_type(base - 1))
    rows = np.ascontiguousarray(digits)
    return rows.view(np.dtype((np.void, rows.itemsize * digits.shape[-1]))).reshape(digits.shape[:-1])


def row_keys(f: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """One key per row of a (..., n) code array: its base-q integer when
    q^n fits in int64, and otherwise its codes as raw bytes."""
    weights = _key_weights(f.q, arr.shape[-1])
    return arr @ weights if weights is not None else _byte_keys(arr, f.q)


def join_row_keys(f: FieldSpec, parts) -> np.ndarray:
    """The code key of each matrix from the keys of its rows: parts[i] is
    an array of row-i keys, all parts of one shape."""
    base = f.q ** len(parts)
    if base ** len(parts) > 1 << 63:
        return _byte_keys(np.stack(parts, axis=-1), base)
    out = parts[-1].copy()
    for part in parts[-2::-1]:  # Horner's rule in base q^n
        out *= base
        out += part
    return out


def code_keys(f: FieldSpec, arr: np.ndarray) -> np.ndarray:
    """One sortable key per matrix of a (..., n, n) code array; equal keys
    mean equal matrices.

    The key is built from the row keys: the base-q integer of the row-major
    codes when q^(n*n) fits in int64, and otherwise the row keys as raw
    bytes (a void scalar).  Both sort, search and compare with numpy; the
    integer form is faster.
    """
    rows = row_keys(f, arr)
    return join_row_keys(f, [rows[..., i] for i in range(arr.shape[-1])])


@lru_cache(maxsize=64)
def _np_tables(f: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.array(f.mul, dtype=np.int64), np.array(f.add, dtype=np.int64)


@lru_cache(maxsize=64)
def _np_inv_neg(f: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.array(f.inv, dtype=np.int64), np.array(f.neg, dtype=np.int64)


def batch_mul(f: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast matrix product a @ b of code arrays over f."""
    if f.k == 1:
        return (a @ b) % f.p
    mul, add = _np_tables(f)
    out = mul[a[..., :, 0, None], b[..., None, 0, :]]
    for l in range(1, a.shape[-1]):
        out = add[out, mul[a[..., :, l, None], b[..., None, l, :]]]
    return out


def batch_rref(f: FieldSpec, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a (B, r, c) code array.

    Returns (reduced, ranks, pivots): reduced is a new (B, r, c) int64
    array whose first ranks[b] rows are the RREF rows of matrix b (the rest
    are zero), and pivots[b, j] is true when column j is a pivot column of
    matrix b.  The rows of reduced[b] are those _rref gives for the same
    matrix, as the RREF of a row space is unique.

    Column j is one step for the whole batch, with no per-matrix subsets:
    each matrix takes as pivot its first row at or below its rank with a
    nonzero entry in column j (argmax of that mask), swaps it into row
    rank, scales it through inv, and clears column j from every other row
    with one mul and one add gather.  A matrix with no pivot in column j
    gets scale 1 and factors 0, so its rows pass through unchanged.
    """
    out = np.array(arr, dtype=np.int64)
    b, r, c = out.shape
    ranks = np.zeros(b, dtype=np.int64)
    pivots = np.zeros((b, c), dtype=bool)
    if not (b and r):
        return out, ranks, pivots
    mul, add = _np_tables(f)
    inv, neg = _np_inv_neg(f)
    rows, at = np.arange(r), np.arange(b)
    for j in range(c):
        cand = (out[:, :, j] != 0) & (rows >= ranks[:, None])
        has = cand.any(axis=1)
        top = np.minimum(ranks, r - 1)
        pr = np.where(has, cand.argmax(axis=1), top)
        prow = out[at, pr]
        out[at, pr] = out[at, top]
        prow = mul[np.where(has, inv[prow[:, j]], 1)[:, None], prow]
        factor = neg[out[:, :, j]] * has[:, None]
        out = add[out, mul[factor[:, :, None], prow[:, None, :]]]
        out[at, top] = prow  # row top was eliminated with its old entries
        pivots[:, j] = has
        ranks += has
    return out, ranks, pivots


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    field: FieldSpec
    rows: int
    cols: int
    codes: tuple[int, ...]  # row-major

    # -- construction helpers -------------------------------------------

    def _chk_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._chk_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("matrix addition shape mismatch")
        add = self.field.add
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(add[a][b] for a, b in zip(self.codes, other.codes)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, tuple(neg[a] for a in self.codes))

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._chk_field(other)
        if self.cols != other.rows:
            raise DimMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        mul, add = f.mul, f.add
        n, m, kk = self.rows, self.cols, other.cols
        a, b = self.codes, other.codes
        out = []
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for j in range(kk):
                acc = 0
                for l in range(m):
                    x = arow[l]
                    if x:
                        acc = add[acc][mul[x][b[l * kk + j]]]
                out.append(acc)
        return Matrix(f, n, kk, tuple(out))

    # -- accessors ---------------------------------------------------------

    def row_codes(self, i: int) -> tuple[int, ...]:
        return self.codes[i * self.cols : (i + 1) * self.cols]

    def col_codes(self, j: int) -> tuple[int, ...]:
        return tuple(self.codes[i * self.cols + j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- derived linear algebra (cached module-level) -----------------------

    def rank(self) -> int:
        return mat_rank(self)


def matrix(field: FieldSpec, rows: list[list[int]]) -> Matrix:
    """Validate entry codes and build an immutable matrix."""
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DimMismatch("ragged or empty matrix literal")
    q = field.q
    flat = []
    for r in rows:
        for c in r:
            if not isinstance(c, int) or not 0 <= c < q:
                raise InvariantViolation(f"entry code {c!r} outside [0,{q})")
            flat.append(c)
    return Matrix(field, len(rows), len(rows[0]), tuple(flat))


def zero_matrix(field: FieldSpec, rows: int, cols: int | None = None) -> Matrix:
    cols = rows if cols is None else cols
    return Matrix(field, rows, cols, (0,) * (rows * cols))


def identity_matrix(field: FieldSpec, n: int) -> Matrix:
    return Matrix(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def unit_matrix(field: FieldSpec, n: int, i: int, j: int, code: int = 1) -> Matrix:
    """n x n matrix with a single nonzero entry at (i, j), zero-based."""
    codes = [0] * (n * n)
    codes[i * n + j] = code
    return Matrix(field, n, n, tuple(codes))


def mat_pow(a: Matrix, e: int) -> Matrix:
    if not a.is_square():
        raise DimMismatch("powers need a square matrix")
    if e < 0:
        raise InvariantViolation("negative power")
    out = identity_matrix(a.field, a.rows)
    for _ in range(e):
        out = out * a
    return out


def _rref(f: FieldSpec, rows: list[list[int]]):
    """In-place Gaussian elimination to RREF.  Returns (nonzero rows, pivots)."""
    mul, add, neg, inv = f.mul, f.add, f.neg, f.inv
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            ivc = inv[piv]
            rows[r] = [mul[ivc][x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = neg[rows[i][c]]
                row_r = rows[r]
                rows[i] = [add[x][mul[factor][y]] for x, y in zip(rows[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


# The one-matrix routes are bounded like invariant_factors: whole sets go
# through batch_rref, and what asks these again asks within a few calls.
@lru_cache(maxsize=1024)
def mat_rank(a: Matrix) -> int:
    rows, _ = _rref(a.field, [list(a.row_codes(i)) for i in range(a.rows)])
    return len(rows)


@lru_cache(maxsize=1024)
def mat_kernel(a: Matrix) -> "Subspace":
    """Right null space {v : a v = 0} as a canonical subspace of F^cols."""
    rows, pivots = _rref(a.field, [list(a.row_codes(i)) for i in range(a.rows)])
    return subspace(a.field, a.cols, kernel_basis(a.field, a.cols, rows, pivots))


def kernel_basis(f: FieldSpec, cols: int, rows, pivots) -> list[list[int]]:
    """A basis of the right null space of a matrix with `cols` columns,
    from its RREF rows and pivot columns: one vector per free column."""
    basis = []
    neg = f.neg
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[rows[r][fc]]
        basis.append(v)
    return basis


@lru_cache(maxsize=1024)
def mat_image(a: Matrix) -> "Subspace":
    """Column space of a, as a canonical subspace of F^rows."""
    cols = [list(a.col_codes(j)) for j in range(a.cols)]
    return subspace(a.field, a.rows, cols)


def mat_inverse(a: Matrix) -> Matrix:
    if not a.is_square():
        raise DimMismatch("inverse needs a square matrix")
    f, n = a.field, a.rows
    aug = [list(a.row_codes(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = _rref(f, aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return Matrix(f, n, n, tuple(rows[i][n + j] for i in range(n) for j in range(n)))


def format_matrix(a: Matrix) -> str:
    return ";".join(",".join(str(c) for c in a.row_codes(i)) for i in range(a.rows))


def parse_matrix(field: FieldSpec, text: str) -> Matrix:
    try:
        rows = [[int(x) for x in part.split(",")] for part in text.strip().split(";")]
    except ValueError:
        raise InvariantViolation(f"cannot parse matrix {text!r}") from None
    return matrix(field, rows)


# Python refuses to convert an int of more than 4300 digits to text by
# default (sys.set_int_max_str_digits), so larger sizes print as "q^e".
_DECIMAL_LIMIT = 10**4300


def capped_power(q: int, e: int, cap: int, refusal) -> int:
    """q^e, or CapExceeded(refusal(size)) when it is above cap.

    The exponent is compared first, as in field_make: for q >= 2,
    q^e >= 2^e > cap once e >= cap.bit_length(), and e may be so large
    that q^e would not fit in memory.  So size, q^e in decimal, is built
    only below 2^14300; from 10^4300 (about 2^14284.4) on it is the text
    "q^e".
    """
    if e < cap.bit_length() and q**e <= cap:
        return q**e
    total = q**e if e * math.log2(q) < 14300 else None
    raise CapExceeded(refusal(total if total is not None and total < _DECIMAL_LIMIT else f"{q}^{e}"))


def enumerate_matrices(field: FieldSpec, rows: int, cols: int, cap: int = ENUM_CAP):
    """All rows x cols matrices in entry-code lexicographic order."""
    capped_power(field.q, rows * cols, cap, lambda size: f"{size} matrices exceed cap {cap}")
    for codes in itertools.product(range(field.q), repeat=rows * cols):
        yield Matrix(field, rows, cols, codes)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """Row span of a canonical RREF basis inside F^ambient. dim 0 <=> basis ()."""

    field: FieldSpec
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _chk(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient != other.ambient:
            raise AmbientMismatch("subspaces of different ambient spaces")

    def reduce_vector(self, v) -> tuple[int, ...]:
        """Reduce v against the RREF basis; zero vector iff v is a member."""
        f = self.field
        mul, add, neg = f.mul, f.add, f.neg
        v = list(v)
        for row in self.basis:
            pc = next(i for i, x in enumerate(row) if x != 0)
            if v[pc] != 0:
                factor = neg[v[pc]]
                v = [add[x][mul[factor][y]] for x, y in zip(v, row)]
        return tuple(v)

    def contains_vector(self, v) -> bool:
        if len(v) != self.ambient:
            raise AmbientMismatch("vector length != ambient dimension")
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._chk(other)
        return all(self.contains_vector(r) for r in other.basis)

    def vectors(self):
        """All member vectors (q^dim of them), deterministic order."""
        f = self.field
        mul, add = f.mul, f.add
        for coeffs in itertools.product(range(f.q), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [add[x][mul[c][y]] for x, y in zip(v, row)]
            yield tuple(v)


def subspace(field: FieldSpec, ambient: int, rows) -> Subspace:
    """Canonicalize any spanning set of row vectors into a Subspace."""
    rr, _ = _rref(field, [list(r) for r in rows])
    return Subspace(field, ambient, tuple(tuple(r) for r in rr))


def zero_subspace(field: FieldSpec, ambient: int) -> Subspace:
    return Subspace(field, ambient, ())


def full_space(field: FieldSpec, ambient: int) -> Subspace:
    return subspace(field, ambient, [[1 if i == j else 0 for j in range(ambient)] for i in range(ambient)])


def subspace_sort_key(s: Subspace):
    return (s.dim, tuple(c for r in s.basis for c in r))


def format_subspace(s: Subspace) -> str:
    if s.dim == 0:
        return "-"
    return ";".join(",".join(str(c) for c in r) for r in s.basis)


def parse_subspace(field: FieldSpec, ambient: int, text: str) -> Subspace:
    text = text.strip()
    if text == "-":
        return zero_subspace(field, ambient)
    m = parse_matrix(field, text)
    if m.cols != ambient:
        raise AmbientMismatch(f"basis rows have length {m.cols}, ambient is {ambient}")
    return subspace(field, ambient, [list(m.row_codes(i)) for i in range(m.rows)])


def standard_complement(s: Subspace) -> Subspace:
    """Deterministic complement: extend the basis by standard vectors e_i in
    increasing index order, keeping those that grow the span."""
    f, n = s.field, s.ambient
    rows = [list(r) for r in s.basis]
    picked = []
    cur, _ = _rref(f, [r[:] for r in rows])
    rank = len(cur)
    for i in range(n):
        if rank == n:
            break
        e = [0] * n
        e[i] = 1
        trial, _ = _rref(f, [r[:] for r in cur] + [e])
        if len(trial) > rank:
            picked.append(tuple(e))
            cur = trial
            rank += 1
    return subspace(f, n, picked)


def projection_idempotent(onto: Subspace, along: Subspace) -> Matrix:
    """The idempotent with image `onto` and kernel `along`.

    Requires F^n = onto (+) along; raises InvariantViolation otherwise.
    The idempotent is P D P^-1 with P = [onto | along] (the bases as
    columns) and D = diag(1, ..., 1, 0, ..., 0) keeping the first dim(onto)
    of them.  Once the dimensions sum to n, P is invertible exactly when
    the two subspaces meet only in 0, so its inverse is the complementarity
    check; P D is P with its last n - dim(onto) columns zeroed.
    """
    if onto.field != along.field or onto.ambient != along.ambient:
        raise AmbientMismatch("projection pieces live in different spaces")
    f, n, d = onto.field, onto.ambient, onto.dim
    if d + along.dim != n:
        raise InvariantViolation("subspaces are not complementary")
    cols = onto.basis + along.basis
    try:
        p_inv = mat_inverse(Matrix(f, n, n, tuple(cols[j][i] for i in range(n) for j in range(n))))
    except NotInvertible:
        raise InvariantViolation("subspaces are not complementary") from None
    pd = Matrix(f, n, n, tuple(cols[j][i] if j < d else 0 for i in range(n) for j in range(n)))
    return pd * p_inv


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n (exact integer)."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(field: FieldSpec, ambient: int, d: int, cap: int = ENUM_CAP):
    """All d-dimensional subspaces of F^ambient, sorted by basis encoding.

    Enumeration walks RREF shapes: choose pivot columns, then fill the free
    cells (entries right of each pivot, outside other pivot columns).
    """
    if ambient > AMBIENT_CAP:
        raise CapExceeded(f"ambient dimension {ambient} exceeds cap {AMBIENT_CAP}")
    if d == 0:
        return [zero_subspace(field, ambient)]
    q = field.q
    total = gaussian_binomial(ambient, d, q)
    if total > cap:
        raise CapExceeded(f"{total} subspaces exceed cap {cap}")
    out = []
    for pivots in itertools.combinations(range(ambient), d):
        pivset = set(pivots)
        free_cells = [
            (r, c)
            for r, pc in enumerate(pivots)
            for c in range(pc + 1, ambient)
            if c not in pivset
        ]
        for vals in itertools.product(range(q), repeat=len(free_cells)):
            rows = [[0] * ambient for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_cells, vals):
                rows[r][c] = v
            out.append(Subspace(field, ambient, tuple(tuple(r) for r in rows)))
    out.sort(key=subspace_sort_key)
    if len(out) != total:  # pragma: no cover
        raise InternalError("subspace enumeration count mismatch")
    return out


# ---------------------------------------------------------------------------
# similarity via invariant factors of xI - A, read off a Krylov relation matrix


# Vector codes: x = sum_k x_k q^k encodes (x_0, ..., x_{n-1}) in F_q^n.  Up
# to this many codes the Krylov pass runs on lookup tables; the tables of
# F_q^n take about q^(2n) list slots, so larger spaces keep the list pass.
VEC_TABLE_CAP = 256


@lru_cache(maxsize=16)
def _vec_tables(f: FieldSpec, n: int):
    """Arithmetic on the vector codes of F_q^n: (ADD, SMUL, DIG, CODE, LEAD,
    W).

    ADD[x][y] is the code of x + y, SMUL[c][x] that of c x, DIG[x] the
    coordinate tuple of x and CODE its inverse, LEAD[x] the pair (p, x_p)
    of the first nonzero coordinate of x (None for x = 0), and W[j] = q^j
    the code of e_j.  The tables grow one coordinate at a time, the new one
    most significant, from f.add and f.mul.  They are plain lists: every
    entry is a small int, so a table costs only its list slots.
    """
    q = f.q
    add, smul, dig = [[0]], [[0] for _ in range(q)], [()]
    for k in range(n):
        w = q**k
        add = [
            [h + t for h in hs for t in row]
            for hs in ([s * w for s in sums] for sums in f.add)
            for row in add
        ]
        smul = [[mc[d] * w + t for d in range(q) for t in prev] for mc, prev in zip(f.mul, smul)]
        dig = [t + (d,) for d in range(q) for t in dig]
    code = {t: x for x, t in enumerate(dig)}
    lead = [next(((p, c) for p, c in enumerate(t) if c), None) for t in dig]
    return add, smul, dig, code, lead, [q**j for j in range(n)]


def _krylov_key(a: Matrix) -> tuple[int, ...]:
    """Krylov relations of a as the flat tuple (end_1, c_1, end_2, c_2, ...).

    Krylov blocks v_i, a v_i, ..., a^{d_i - 1} v_i are grown from the
    standard basis vectors in order, skipping those already spanned.  Each
    power u = a^l v_i, with k Krylov vectors found before it, enters as the
    augmented row [u | e_k] and is reduced in one pass against the rows
    kept so far, each of which is [echelon vector | its coefficients on the
    Krylov vectors].  A row that keeps a nonzero left half is scaled to a
    unit pivot and kept as Krylov vector k.  The first dependent power
    a^{d_i} v_i reduces to [0 | c] with c_k = 1 at its own position k =
    end_i, so block i is recorded by end_i and the vector code c_i of
    (c_0, ..., c_{end_i - 1}).  _relation_matrix reads the relation matrix
    off this key, which keys the class-key memo.

    For q^n <= VEC_TABLE_CAP the pass runs on vector codes (_krylov_codes),
    above it on coordinate lists (_krylov_lists); both give the same key.
    """
    if a.field.q**a.rows <= VEC_TABLE_CAP:
        return _krylov_codes(a)
    return _krylov_lists(a)


def _krylov_codes(a: Matrix) -> tuple[int, ...]:
    """_krylov_key on the vector tables of _vec_tables: each kept row is
    (pivot, vector code, coefficient code), and a v = sum_k v_k (a e_k)."""
    f, n = a.field, a.rows
    add, smul, dig, code, lead, w = _vec_tables(f, n)
    neg, inv = f.neg, f.inv
    codes = a.codes
    acols = [code[codes[k::n]] for k in range(n)]
    reduced = []
    key = []
    found = 0
    for j in range(n):
        if found == n:
            break
        v, start = w[j], found
        while True:
            x, y = v, 0
            for p, rx, ry in reduced:
                c = dig[x][p]
                if c:
                    mc = smul[neg[c]]
                    x = add[x][mc[rx]]
                    y = add[y][mc[ry]]
            pc = lead[x]
            if pc is None:
                break  # [0 | c]: a^{d_i} v_i is dependent
            mc = smul[inv[pc[1]]]
            reduced.append((pc[0], mc[x], mc[y + w[found]]))  # y_found is 0
            found += 1
            nxt = 0
            for k, c in enumerate(dig[v]):
                if c:
                    nxt = add[nxt][smul[c][acols[k]]]
            v = nxt
        if found > start:
            key += (found, y)
    return tuple(key)


def _krylov_lists(a: Matrix) -> tuple[int, ...]:
    """_krylov_key on coordinate lists, for any n: each kept row is
    [echelon vector | coefficients], and c_i is joined by Horner's rule."""
    f, n = a.field, a.rows
    mul, add, neg, inv, q = f.mul, f.add, f.neg, f.inv, f.q
    codes = a.codes
    acols = [codes[j::n] for j in range(n)]
    pad = [0] * (n + 1)
    reduced = []  # (pivot, [echelon vector | coefficients on the Krylov vectors])
    key = []
    found = 0
    for j in range(n):
        if found == n:
            break
        v = [0] * n
        v[j] = 1
        start = found
        while True:
            row = v + pad
            row[n + found] = 1
            for p, r in reduced:
                c = row[p]
                if c:
                    mc = mul[neg[c]]
                    row = [add[x][mc[y]] for x, y in zip(row, r)]
            for p in range(n):
                if row[p]:
                    break
            else:
                break  # [0 | c]: a^{d_i} v_i is dependent
            c = row[p]
            if c != 1:
                mc = mul[inv[c]]
                row = [mc[x] for x in row]
            reduced.append((p, row))
            found += 1
            nxt = [0] * n
            for k, x in enumerate(v):
                if x:
                    mx = mul[x]
                    nxt = [add[y][mx[z]] for y, z in zip(nxt, acols[k])]
            v = nxt
        if found > start:
            code = 0
            for x in reversed(row[n : n + found]):
                code = code * q + x
            key += (found, code)
    return tuple(key)


def _relation_matrix(q: int, key) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Relation matrix of F^n as an F[x]-module with x acting as a, from
    a's _krylov_key over GF(q).

    Block i spans Krylov indices [end_{i-1}, end_i), and its relation
    c_i, read as polynomials block by block, is column i: x^{d_i} plus the
    polynomial of its coefficients on block i on the diagonal, and the
    polynomials of those on each earlier block above it.  The s x s result
    is upper triangular with det of degree n, and its Smith form carries
    the nontrivial invariant factors of xI - a; s = 1 iff a is cyclic.
    """
    ends = key[0::2]
    rels = []
    for end, code in zip(ends, key[1::2]):
        rel = []
        for _ in range(end):
            code, c = divmod(code, q)
            rel.append(c)
        rels.append(rel)
    return tuple(
        tuple(
            () if b > i else (*rel[start:end], 1) if b == i else _pnorm(rel[start:end])
            for i, rel in enumerate(rels)
        )
        for b, (start, end) in enumerate(zip((0, *ends), ends))
    )


def _krylov_relations(a: Matrix) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The Krylov relation matrix of a (see _relation_matrix), as nested
    tuples."""
    return _relation_matrix(a.field.q, _krylov_key(a))


def _smith_factors(f, m) -> tuple[tuple[int, ...], ...]:
    """Nontrivial invariant factors of a square polynomial matrix m (rows of
    coefficient tuples, left as they are: the loop reduces a copy), monic,
    in divisibility order.

    Pivot on a nonzero entry of least degree in the trailing block, clear
    its row and column by division, and move on once it divides the whole
    trailing block; a row or column remainder, or an entry it does not
    divide (whose row is added to the pivot row), starts the step again on
    an entry of smaller degree.
    """
    m = [list(row) for row in m]
    s = len(m)
    for t in range(s):
        while True:
            best, bl = None, 0
            for i in range(t, s):
                row = m[i]
                for j in range(t, s):
                    e = row[j]
                    if e and (best is None or len(e) < bl):
                        best, bl = (i, j), len(e)
            if best is None:
                break  # the trailing block is zero
            bi, bj = best
            if bi != t:
                m[bi], m[t] = m[t], m[bi]
            if bj != t:
                for row in m:
                    row[bj], row[t] = row[t], row[bj]
            piv, prow = m[t][t], m[t]
            dirty = False
            for i in range(t + 1, s):
                row = m[i]
                if row[t]:
                    q, r = _pdivmod(f, row[t], piv)
                    if q:
                        nq = _pneg(f, q)
                        m[i] = [_padd(f, x, _pmul(f, nq, y)) for x, y in zip(row, prow)]
                    dirty = dirty or bool(r)
            for j in range(t + 1, s):
                if prow[j]:
                    q, r = _pdivmod(f, prow[j], piv)
                    if q:
                        nq = _pneg(f, q)
                        for row in m:
                            row[j] = _padd(f, row[j], _pmul(f, nq, row[t]))
                    dirty = dirty or bool(r)
            if dirty:
                continue  # a remainder of lower degree is left: pivot on it
            offender = next(
                (i for i in range(t + 1, s) for j in range(t + 1, s) if m[i][j] and _pdivmod(f, m[i][j], piv)[1]),
                None,
            )
            if offender is None:
                break
            m[t] = [_padd(f, x, y) for x, y in zip(m[t], m[offender])]
    factors = (_pmonic(f, m[i][i]) for i in range(s))
    return tuple(p for p in factors if len(p) >= 2)  # drop degree-0 units


def _pgcd_of(f, polys):
    """Monic gcd of an iterable of polynomials, () when all are zero; stops
    reading at the first gcd of degree 0."""
    g = ()
    for p in polys:
        g = _pgcd(f, p, g)
        if len(g) == 1:
            break
    return g


def _relation_factors(f, m) -> tuple[tuple[int, ...], ...]:
    """Nontrivial invariant factors of a Krylov relation matrix m (see
    _krylov_relations), monic, in divisibility order.

    s = 1 (a cyclic): R = (r11), the characteristic polynomial.

    s = 2 and s = 3: R is upper triangular with a monic diagonal, and its
    Smith form diag(d1, ..., ds) has d1 ... dk = D_k, the k-th
    determinantal divisor (the monic gcd of the k x k minors), because the
    D_k are invariant under unimodular row and column operations.  So
    d_k = D_k / D_(k-1), exact divisions of monic polynomials; D_s is the
    product of the diagonal.  For s = 3 the nonzero 2 x 2 minors are
    r11 r22, r11 r23, r12 r23 - r13 r22, r11 r33, r12 r33 and r22 r33.

    s >= 4: the general Smith loop (_smith_factors).
    """
    s = len(m)
    if s == 1:
        return (m[0][0],)
    if s == 2:
        (r11, r12), (_, r22) = m
        divisors = (_pgcd_of(f, (r22, r12, r11)), _pmul(f, r11, r22))
    elif s == 3:
        (r11, r12, r13), (_, r22, r23), (_, _, r33) = m
        r11r22 = _pmul(f, r11, r22)
        minors = (
            r11r22,
            _pmul(f, r11, r23),
            _padd(f, _pmul(f, r12, r23), _pneg(f, _pmul(f, r13, r22))),
            _pmul(f, r11, r33),
            _pmul(f, r12, r33),
            _pmul(f, r22, r33),
        )
        divisors = (_pgcd_of(f, (r33, r23, r13, r22, r12, r11)), _pgcd_of(f, minors), _pmul(f, r11r22, r33))
    else:
        return _smith_factors(f, m)
    factors, prev = [], (1,)
    for d in divisors:
        factors.append(_pdivmod(f, d, prev)[0])
        prev = d
    return tuple(p for p in factors if len(p) >= 2)  # drop degree-0 units


# Bounded: a sweep meets almost every matrix once, so an unbounded cache
# stores nearly every matrix and is rarely hit; the repeats of a query
# stream fall within the last thousand calls.
@lru_cache(maxsize=1024)
def invariant_factors(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Nontrivial invariant factors of xI - a, monic, in divisibility order.

    This is a complete similarity invariant over any field, so it doubles as
    the canonical class key for unit conjugacy.  They are read off the
    s x s Krylov relation matrix R of a (see _krylov_relations), which has
    the same nontrivial invariants as xI - a; its augmented rows
    [echelon vector | Krylov coefficients] give each relation column with
    one reduction per Krylov vector, and _relation_factors reads the
    factors off R.
    """
    if not a.is_square():
        raise DimMismatch("similarity needs square matrices")
    return _relation_factors(a.field, _krylov_relations(a))


def similar(a: Matrix, b: Matrix) -> bool:
    """True iff a and b are conjugate under the general linear group."""
    if a.field != b.field:
        raise FieldMismatch("matrices over different fields")
    if a.rows != b.rows or a.cols != b.cols or not a.is_square():
        raise DimMismatch("similarity needs equal square shapes")
    return invariant_factors(a) == invariant_factors(b)


def format_poly(coeffs: tuple[int, ...]) -> str:
    """Render a coefficient tuple (low degree first, scalar codes) as text.

    Examples: (0, 0, 1) -> "x^2"; (1, 1) -> "x+1"; () -> "0".
    """
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            xs = "x" if d == 1 else f"x^{d}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(parts) if parts else "0"
