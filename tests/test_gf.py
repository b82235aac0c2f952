import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import (
    CapExceeded,
    FieldSpec,
    InvariantViolation,
    NotInvertible,
    Matrix,
    NotPrime,
    enumerate_matrices,
    enumerate_subspaces,
    field_make,
    format_field,
    format_matrix,
    format_poly,
    format_subspace,
    gaussian_binomial,
    identity_matrix,
    invariant_factors,
    mat_image,
    mat_inverse,
    mat_kernel,
    mat_pow,
    mat_rank,
    mat_set,
    matrix,
    parse_field,
    parse_matrix,
    parse_subspace,
    projection_idempotent,
    similar,
    standard_complement,
    subspace,
    unit_matrix,
    zero_matrix,
    zero_subspace,
)
from matsemi.errors import AmbientMismatch
from matsemi.gf import (
    PRIME_CAP,
    VEC_TABLE_CAP,
    _is_irreducible,
    _krylov_codes,
    _krylov_key,
    _krylov_lists,
    _krylov_relations,
    _pnorm,
    _relation_factors,
    _relation_matrix,
    _rref,
    _smith_factors,
    all_codes,
    batch_mul,
    batch_rref,
    capped_power,
    code_keys,
    codes_array,
    prime_power,
    subspace_codes,
)
from oracles import complement_by_rref, intersect, is_zero, span_sum

FIELDS = [field_make(2), field_make(3), field_make(5), field_make(2, 2), field_make(3, 2)]

# q -> (modulus, sha256 of repr((p, k, q, add, mul, neg, inv))) for every
# field with q <= 64, as the tables were first frozen
FROZEN_FIELDS = {
    2: ((), "da0a5e3b94edf3ee9501d4bacabfcd02c42a02a4fcb8c8894c7e7953e46b26d4"),
    3: ((), "6592c13a252eaef604b87af6e9d0db063535399ffc2e8f2b889362619b6ecdb0"),
    4: ((1, 1, 1), "49a8ed0b3bceae4e8bccf2bbf74a3b0bd866120ba6d9c61c985a25bd062c7ce0"),
    5: ((), "bad96bf1ae64de8d516ad8362e9066e7641579b09fcee078020b5427a3c52223"),
    7: ((), "d4dda1289b444896eafd9741888d7b24280e58caaf3d5f109680ec9242c52743"),
    8: ((1, 1, 0, 1), "2cf2aa38171bc8ea867c81d3c16160cab8d8399c05787b1a655a2d011a047f46"),
    9: ((1, 0, 1), "c06e41618f66c88f9b3635cf778558656e7ff4a9f752a010e6de094ba92328ce"),
    11: ((), "95c4514803749a9e93fdcf2a8bc7936cd81186caa683fe0273fe202d3c15a904"),
    13: ((), "a2e9b74c12999c41c21e86dd76fce9eacc2fc8d40c1ebc8433f4a7695d7153a4"),
    16: ((1, 1, 0, 0, 1), "a42e8b9ce357b0c2182e0d05b43c78b3283a8ddeed614ffa022410a957e54572"),
    17: ((), "a7cd4f8035513d491c5bc48bac680da89b9304ca61dbd0dbda9dae4a9d40c344"),
    19: ((), "faac84ecabb221763b5124358fd3a0bcafc15f2eaefc2f07fc8e81342b6cb779"),
    23: ((), "b35efb6fbc60827cadd00fd3f62c82c602d2e07b75e7a6bbfc34469b95d5ec2d"),
    25: ((2, 0, 1), "4e47e7d0b422cffb06c2bd20ddbdc9743d828b839a793a557e1b98e4bd1edbed"),
    27: ((1, 2, 0, 1), "ed3e2e0153ee365342b58d69c89a3ad6ca5a84d57f25947f106758680920e7ab"),
    29: ((), "1bb6368986f765bb6ee03e5a2b600269bf334bf55ca2eac27ea9b58d468142ea"),
    31: ((), "d81586fc520d264994a5805b11ad399f20842f8e31510666f64baf219f761816"),
    32: ((1, 0, 1, 0, 0, 1), "db9ac0483c3b2689adc6c83fc4a21119f0fa1ebf6954105a150a8159bd2eeaab"),
    37: ((), "ca7565b7ba159ebf29aa9ed2a082f02119a0e0261a331dcdfd9c15d51474095a"),
    41: ((), "52429d4263d9cb31b1edea616bfc85b261c7023cb86b30eda3642f16935ca985"),
    43: ((), "b5190e010678538114ff0bf4782a08dc4bc1c208f6b68aa118387bfde46d9f62"),
    47: ((), "4a1c0bf49a140b9f14fd8beca20328776764e2fee019ad0267825eeabc4002f8"),
    49: ((1, 0, 1), "bc09fbf4de7563b4899d1bd787aad4ea322b75a0137d7885f5851099d2d2ae40"),
    53: ((), "f2c33fe957f09a50f9af89c1e31339df723a2d0681c83d01f483743c3fa2e29d"),
    59: ((), "4057bec4195dddf3513edc1e96d083cdd8abaa0354698639723b2ea359725ca3"),
    61: ((), "f135769aaf8f4a042fb89f5e164921bd543a44fe633a1b63ece4554d82617067"),
    64: ((1, 1, 0, 0, 0, 0, 1), "c56890dd17a744e0d1bd175806332330993efed331e6f49169017f3734b6dd92"),
}


@st.composite
def mats(draw, n_min=1, n_max=3, count=1):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(n_min, n_max))
    out = []
    for _ in range(count):
        codes = draw(st.lists(st.integers(0, f.q - 1), min_size=n * n, max_size=n * n))
        out.append(matrix(f, [codes[i * n : (i + 1) * n] for i in range(n)]))
    return out if count > 1 else out[0]


class TestField:
    @pytest.mark.parametrize("f", FIELDS, ids=format_field)
    def test_table_laws(self, f: FieldSpec):
        q = f.q
        for a in range(q):
            assert f.add[a][0] == a
            assert f.mul[a][1] == a
            assert f.mul[a][0] == 0
            assert f.add[a][f.neg[a]] == 0
            for b in range(q):
                assert f.add[a][b] == f.add[b][a]
                assert f.mul[a][b] == f.mul[b][a]
                for c in range(q):
                    assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
                    assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
                    assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]

    @pytest.mark.parametrize("f", FIELDS, ids=format_field)
    def test_nonzero_invertible(self, f):
        for a in range(1, f.q):
            assert any(f.mul[a][b] == 1 for b in range(1, f.q))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            field_make(6)
        with pytest.raises(NotPrime, match=r"the field of size 4 is 2\^2"):
            parse_field("4")  # 4 means p=4, not GF(4); that is 2^2
        with pytest.raises(NotPrime, match=r"the field of size 81 is 3\^4"):
            parse_field("9^2")

    def test_prime_power(self):
        primes = [p for p in range(2, 130) if all(p % d for d in range(2, p))]
        found = {q: prime_power(q) for q in range(-2, 130)}
        for q, pk in found.items():
            if pk is None:
                assert all(p**k != q for p in primes for k in range(1, 8))
            else:
                p, k = pk
                assert p in primes and k >= 1 and p**k == q
        assert found[64] == (2, 6) and found[121] == (11, 2) and found[6] is None

    def test_prime_power_near_the_cap(self):
        # the largest prime below 2^64, a Mersenne prime, a square of a prime
        # above 2^31, and a composite that is a strong probable prime to the
        # bases 2..23 (so only the bases 29..37 expose it)
        assert prime_power(PRIME_CAP - 59) == (PRIME_CAP - 59, 1)
        assert prime_power(2**61 - 1) == (2**61 - 1, 1)
        assert prime_power(4294967291**2) == (4294967291, 2)
        assert prime_power(2**63) == (2, 63)
        assert prime_power(3825123056546413051) is None
        assert prime_power(PRIME_CAP - 1) is None

    def test_capped_power_prints_every_size_python_converts(self):
        refusal = "size {}".format
        assert capped_power(2, 12, 4096, refusal) == 4096
        assert capped_power(64, 2, 4096, refusal) == 4096
        with pytest.raises(CapExceeded, match=r"^size 8192$"):
            capped_power(2, 13, 4096, refusal)
        # 2^14284 has 4300 digits, the most that int-to-str converts by default
        with pytest.raises(CapExceeded) as got:
            capped_power(2, 14284, 4096, refusal)
        assert str(got.value) == f"size {2**14284}"
        with pytest.raises(CapExceeded, match=r"^size 2\^14285$"):
            capped_power(2, 14285, 4096, refusal)
        with pytest.raises(CapExceeded, match=r"^size 64\^9999800001$"):  # would take 7.5 GB
            capped_power(64, 99999**2, 4096, refusal)
        with pytest.raises(CapExceeded, match="prime-power cap"):
            prime_power(PRIME_CAP)

    def test_caps_are_module_constants(self, monkeypatch):
        # no caller passes a cap: a small one is set on the module, and the
        # refusal names it as before
        from matsemi import all_flags, ambient, engine, gf

        f2 = field_make(2)
        monkeypatch.setattr(gf, "ENUM_CAP", 8)
        with pytest.raises(CapExceeded, match=r"^16 matrices exceed cap 8$"):
            next(enumerate_matrices(f2, 2, 2))
        with pytest.raises(CapExceeded, match=r"^35 subspaces exceed cap 8$"):
            enumerate_subspaces(f2, 4, 2)
        with pytest.raises(CapExceeded, match=r"^15 subspaces exceed cap 8$"):  # the lines of F_2^4
            all_flags(f2, 4)
        assert len(enumerate_subspaces(f2, 3, 1)) == 7
        monkeypatch.setattr(engine, "AMBIENT_ELEMS_CAP", 15)
        with pytest.raises(CapExceeded, match=r"^\|M\(2, F_2\)\| = 16 exceeds cap 15$"):
            ambient(f2, 2)
        monkeypatch.setattr(gf, "Q_CAP", 4)
        with pytest.raises(CapExceeded, match=r"^field size 5 exceeds cap 4$"):
            gf.field_make.__wrapped__(5)
        assert gf.field_make.__wrapped__(2, 2).q == 4

    def test_field_roundtrip(self):
        for f in FIELDS:
            assert parse_field(format_field(f)) == f

    @pytest.mark.parametrize("q", sorted(FROZEN_FIELDS))
    def test_tables_and_modulus_are_frozen(self, q):
        p, k = prime_power(q)
        f = field_make(p, k)
        digest = hashlib.sha256(repr((f.p, f.k, f.q, f.add, f.mul, f.neg, f.inv)).encode()).hexdigest()
        assert (f.modulus, digest) == FROZEN_FIELDS[q]


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize(
    "q, d",
    [(q, d) for q in (2, 3, 4, 5, 7, 8, 9) for d in (1, 2, 3)] + [(q, 4) for q in (2, 3, 4)],
)
def test_irreducible_count_is_gauss_formula(q, d):
    """The monic irreducibles of degree d over F_q number
    (1/d) sum_{e | d} mu(d/e) q^e (Lidl & Niederreiter, Thm 3.25)."""
    f = field_make(*prime_power(q))
    found = sum(_is_irreducible(f, (*low, 1)) for low in itertools.product(range(q), repeat=d))
    assert found * d == sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0)


def test_is_irreducible_edge_cases():
    f4 = field_make(2, 2)
    assert not _is_irreducible(f4, (1,))  # a unit
    assert _is_irreducible(f4, (2, 1))  # every linear polynomial
    assert not _is_irreducible(f4, (1, 0, 1))  # (x + 1)^2
    assert _is_irreducible(f4, (2, 1, 1))  # x^2 + x + w: no root in GF(4)


class TestMatrixAlgebra:
    @given(mats(count=3))
    def test_ring_laws(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(mats())
    def test_identities(self, a):
        f, n = a.field, a.rows
        one = identity_matrix(f, n)
        zero = zero_matrix(f, n, n)
        assert one * a == a and a * one == a
        assert zero * a == zero and a + zero == a
        assert a + (-a) == zero
        assert a - a == zero

    @given(mats(count=2))
    def test_rank_subadditive(self, pair):
        a, b = pair
        assert mat_rank(a * b) <= min(mat_rank(a), mat_rank(b))
        assert mat_rank(a + b) <= mat_rank(a) + mat_rank(b)

    @given(mats())
    def test_rank_nullity(self, a):
        assert mat_rank(a) + mat_kernel(a).dim == a.rows
        assert mat_image(a).dim == mat_rank(a)

    @given(mats())
    def test_inverse_roundtrip(self, a):
        if mat_rank(a) < a.rows:
            with pytest.raises(NotInvertible):
                mat_inverse(a)
        else:
            assert a * mat_inverse(a) == identity_matrix(a.field, a.rows)

    @given(mats(), st.integers(0, 6))
    def test_pow(self, a, k):
        expect = identity_matrix(a.field, a.rows)
        for _ in range(k):
            expect = expect * a
        assert mat_pow(a, k) == expect

    @given(mats())
    def test_text_roundtrip(self, a):
        assert parse_matrix(a.field, format_matrix(a)) == a

    def test_unit_matrix(self):
        f = field_make(3)
        e = unit_matrix(f, 3, 0, 2)
        assert e.codes[2] == 1 and mat_rank(e) == 1


class TestSimilarity:
    @given(mats(count=2))
    def test_invariant_factors_decide_similarity(self, pair):
        a, b = pair
        assert similar(a, b) == (invariant_factors(a) == invariant_factors(b))

    @given(mats())
    def test_conjugation_preserves_factors(self, a):
        # conjugate by a fixed invertible of matching size
        f, n = a.field, a.rows
        g = identity_matrix(f, n)
        for i in range(n - 1):
            g = g + unit_matrix(f, n, i, i + 1)
        gi = mat_inverse(g)
        assert invariant_factors(gi * a * g) == invariant_factors(a)

    def test_factor_degrees_sum_to_n(self):
        f = field_make(2)
        for a in enumerate_matrices(f, 2, 2):
            fac = invariant_factors(a)
            assert sum(len(c) - 1 for c in fac) == 2
            assert all(c[-1] == 1 for c in fac)  # monic

    def test_format_poly(self):
        assert format_poly((0, 0, 1)) == "x^2"
        assert format_poly((1, 1)) == "x+1"
        assert format_poly(()) == "0"


# Polynomial arithmetic for the oracles below, on the field tables alone and
# written apart from gf's helpers, so that a fault in those cannot pass both
# routes.  Polynomials are coefficient tuples, low degree first, no trailing
# zeros.


def _o_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _o_sub_mul(f, x, q, y):
    """x - q*y."""
    out = list(x) + [0] * max(0, len(q) + len(y) - 1 - len(x))
    for i, a in enumerate(q):
        for j, b in enumerate(y):
            out[i + j] = f.add[out[i + j]][f.neg[f.mul[a][b]]]
    return _o_trim(out)


def _o_divmod(f, x, y):
    """Quotient and remainder of x by y != 0, one leading term at a time."""
    quo = [0] * max(len(x) - len(y) + 1, 0)
    r = _o_trim(x)
    while len(r) >= len(y):
        shift = len(r) - len(y)
        quo[shift] = f.mul[r[-1]][f.inv[y[-1]]]
        r = _o_sub_mul(f, r, (0,) * shift + (quo[shift],), y)
    return _o_trim(quo), r


def _o_monic(f, x):
    return tuple(f.mul[f.inv[x[-1]]][c] for c in x)


def _o_mul(f, x, y):
    out = [0] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = f.add[out[i + j]][f.mul[a][b]]
    return _o_trim(out)


def _smith_of_xI_minus_a(a):
    """Nontrivial invariant factors from the Smith form of xI - a itself.

    This is the direct n x n construction, kept here as a route independent
    of the Krylov relation matrix that invariant_factors reduces.
    """
    f, n = a.field, a.rows
    neg = f.neg
    m = [
        [_o_trim([neg[a.codes[i * n + j]], 1] if i == j else [neg[a.codes[i * n + j]]]) for j in range(n)]
        for i in range(n)
    ]

    diagonal = []
    for t in range(n):
        while True:
            _, i0, j0 = min((len(m[i][j]), i, j) for i in range(t, n) for j in range(t, n) if m[i][j])
            m[t], m[i0] = m[i0], m[t]
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            piv = m[t][t]
            for i in range(t + 1, n):
                q, _ = _o_divmod(f, m[i][t], piv)
                m[i] = [_o_sub_mul(f, x, q, y) for x, y in zip(m[i], m[t])]
            for j in range(t + 1, n):
                q, _ = _o_divmod(f, m[t][j], piv)
                for row in m:
                    row[j] = _o_sub_mul(f, row[j], q, row[t])
            if any(m[i][t] for i in range(t + 1, n)) or any(m[t][j] for j in range(t + 1, n)):
                continue  # a remainder of lower degree is left: pivot on it
            bad = next(
                (i for i in range(t + 1, n) for j in range(t + 1, n) if _o_divmod(f, m[i][j], piv)[1]),
                None,
            )
            if bad is None:
                break
            m[t] = [_o_sub_mul(f, x, (neg[1],), y) for x, y in zip(m[t], m[bad])]  # x + y
        diagonal.append(_o_monic(f, m[t][t]))
    return tuple(d for d in diagonal if len(d) >= 2)


def _poly_at(p, a):
    """p(a) by Horner's rule."""
    f, n = a.field, a.rows
    out = zero_matrix(f, n)
    for c in reversed(p):
        out = out * a + matrix(f, [[c if i == j else 0 for j in range(n)] for i in range(n)])
    return out


def _oracle_matrices():
    """Every matrix of three small ambients and 500 seeded ones of four more."""
    for p, k, n in ((2, 2, 2), (2, 1, 3), (5, 1, 2)):
        yield from enumerate_matrices(field_make(p, k), n, n)
    for p, k, n in ((3, 1, 3), (2, 1, 4), (2, 2, 3), (2, 1, 5)):
        f = field_make(p, k)
        rng = random.Random(f"{f.q}:{n}")
        for _ in range(500):
            yield Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n)))


class TestInvariantFactorOracle:
    def test_krylov_route_matches_smith_of_xI_minus_a(self):
        count = 0
        for a in _oracle_matrices():
            assert invariant_factors(a) == _smith_of_xI_minus_a(a), format_matrix(a)
            count += 1
        assert count == 256 + 512 + 625 + 4 * 500

    def test_closed_form_facts(self):
        for a in _oracle_matrices():
            f, n = a.field, a.rows
            fac = invariant_factors(a)
            assert sum(len(c) - 1 for c in fac) == n
            for lo, hi in zip(fac, fac[1:]):
                assert _o_divmod(f, hi, lo)[1] == ()
            assert is_zero(_poly_at(fac[-1], a))


def _partition_lengths(n, largest=None):
    """Number of parts of every partition of n."""
    largest = n if largest is None else largest
    if n == 0:
        yield 0
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partition_lengths(n - part, part):
            yield rest + 1


def _companion(f, p):
    """Companion matrix of a monic p: ones below the diagonal, -p's low
    coefficients in the last column."""
    d = len(p) - 1
    codes = [0] * (d * d)
    for i in range(d):
        if i:
            codes[i * d + i - 1] = 1
        codes[i * d + d - 1] = f.neg[p[i]]
    return codes


def _rational_form(f, chain):
    """Block diagonal sum of the companions of a divisibility chain, whose
    invariant factors are the chain itself."""
    n = sum(len(p) - 1 for p in chain)
    codes = [0] * (n * n)
    at = 0
    for p in chain:
        d = len(p) - 1
        block = _companion(f, p)
        for i in range(d):
            codes[(at + i) * n + at : (at + i) * n + at + d] = block[i * d : (i + 1) * d]
        at += d
    return Matrix(f, n, n, tuple(codes))


def _structured_chains(f):
    """Divisibility chains of at least three factors (and a few of two) up
    to n = 5: scalar matrices, diag(c, c, d), nilpotent Jordan sums, and
    companions of irreducible quadratics repeated."""

    def lin(c):
        return (f.neg[c], 1)  # x - c

    chains = []
    for c in range(f.q):
        for n in range(3, 6):
            chains.append([lin(c)] * n)  # cI_n
        for d in range(f.q):
            if d != c:
                chains.append([lin(c), _o_mul(f, lin(c), lin(d))])  # diag(c, c, d)
                chains.append([lin(c), lin(c), _o_mul(f, lin(c), lin(d))])
                chains.append([lin(c), _o_mul(f, lin(c), lin(d)), _o_mul(f, lin(c), lin(d))])
    for parts in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 1, 1)):
        chains.append([(0,) * k + (1,) for k in parts])  # Jordan blocks J_k at 0
    irreducible = [
        (c0, c1, 1)
        for c0 in range(1, f.q)
        for c1 in range(f.q)
        if all(f.add[f.add[c0][f.mul[c1][r]]][f.mul[r][r]] for r in range(f.q))
    ]
    for p in irreducible[:2]:
        chains.append([p, p])  # C + C
        for c in (0, 1):
            chains.append([p, _o_mul(f, p, lin(c))])  # C + C + (c)
            chains.append([lin(c), lin(c), _o_mul(f, lin(c), p)])  # cI_2 + C + (c)
    return chains


class TestInvariantFactorKernel:
    @pytest.mark.parametrize(
        "q,n",
        [(q, n) for n in (1, 2) for q in (2, 3, 4, 5, 7, 8)] + [(2, 3), (3, 3)],
    )
    def test_class_count(self, q, n):
        # similarity classes of M(n, F_q): sum over partitions of n of
        # q^(number of parts), from prod 1/(1 - q x^i); q, q^2+q, q^3+q^2+q
        f = field_make(*prime_power(q))
        keys = {invariant_factors(a) for a in enumerate_matrices(f, n, n)}
        assert len(keys) == sum(q**parts for parts in _partition_lengths(n))

    @pytest.mark.parametrize("f", [field_make(2), field_make(3), field_make(2, 2)], ids=format_field)
    def test_structured_chains(self, f):
        rng = random.Random(f"chains:{f.q}")
        blocks_seen = set()
        for chain in _structured_chains(f):
            a = _rational_form(f, chain)
            n = a.rows
            assert n <= 5
            while True:
                g = Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n)))
                if mat_rank(g) == n:
                    break
            # each companion block of the rational form is one Krylov block;
            # a conjugate may split into more blocks, with unit factors
            s = len(_krylov_relations(a))
            assert s == len(chain)
            blocks_seen.add(s)
            for b in (a, mat_inverse(g) * a * g):
                assert invariant_factors(b) == tuple(chain), format_matrix(b)
        assert blocks_seen == {2, 3, 4, 5}

    def test_two_block_closed_form_matches_the_smith_loop(self):
        f = field_make(3)
        two_block = 0
        for a in enumerate_matrices(f, 3, 3):
            m = _krylov_relations(a)
            if len(m) == 2:
                assert invariant_factors(a) == _smith_factors(f, m), format_matrix(a)
                two_block += 1
        assert two_block == 7290

    @pytest.mark.parametrize("q,n", [(3, 3), (2, 4)])
    def test_three_block_closed_form_matches_the_smith_loop(self, q, n):
        f = field_make(q)
        keys = {k for k in map(_krylov_key, enumerate_matrices(f, n, n)) if len(k) == 6}
        for key in keys:
            m = _relation_matrix(q, key)
            assert _relation_factors(f, m) == _smith_factors(f, m), key
        assert len(keys) == {3: 729, 2: 896}[q]

    def test_one_relation_block_iff_e1_is_cyclic(self):
        # diag(1, 2) over F_3 is cyclic (one invariant factor, x^2 + 2), yet
        # e_1 is an eigenvector, so its relation matrix has two blocks
        f = field_make(3)
        a = matrix(f, [[1, 0], [0, 2]])
        assert _krylov_key(a) == (1, 2, 2, 3)
        assert len(_relation_matrix(3, _krylov_key(a))) == 2
        assert invariant_factors(a) == ((2, 0, 1),)
        for b in enumerate_matrices(f, 2, 2):
            e1_cyclic = mat_rank(matrix(f, [[1, b.codes[0]], [0, b.codes[2]]])) == 2
            assert (len(_relation_matrix(3, _krylov_key(b))) == 1) == e1_cyclic

    @pytest.mark.parametrize("f", [field_make(2, 2), field_make(5), field_make(7), field_make(2, 3)], ids=format_field)
    def test_closed_forms_match_the_smith_loop_on_seeded_matrices(self, f):
        # upper triangular with a monic diagonal, as relation matrices are
        rng = random.Random(f"relation-factors:{f.q}")

        def poly(deg):
            return _pnorm([rng.randrange(f.q) for _ in range(deg)])

        for _ in range(2000):
            s = rng.choice((2, 3))
            m = [[() for _ in range(s)] for _ in range(s)]
            for i in range(s):
                m[i][i] = (*[rng.randrange(f.q) for _ in range(rng.randint(1, 2))], 1)
                for j in range(i + 1, s):
                    m[i][j] = poly(rng.randint(0, 3))
            assert _relation_factors(f, m) == _smith_factors(f, m), m

    def test_smith_loop_leaves_its_input_as_it_is(self):
        # the relation matrix is nested tuples, and a list copy of it must
        # come out of the Smith loop unchanged too
        f = field_make(2)
        three_block = 0
        for a in enumerate_matrices(f, 3, 3):
            m = _krylov_relations(a)
            assert isinstance(m, tuple) and all(isinstance(row, tuple) for row in m)
            if len(m) == 3:
                rows = [list(row) for row in m]
                assert _smith_factors(f, rows) == _smith_factors(f, m) == invariant_factors(a)
                assert rows == [list(row) for row in m]
                three_block += 1
        assert three_block == 64


# sha256 over repr(_krylov_relations(a)) for every a in enumerate_matrices
# order, as the nested relation matrices were built before the flat key
FROZEN_RELATIONS = {
    (3, 1, 3): "58f726550999946db052fb73685c801b0065131bf1af356f41449ce5d791ac6a",
    (2, 1, 4): "0b88e3848b9a145a744094f3759ac873404d57ee9d60d218543f9f33073b71f7",
    (2, 3, 2): "779e8556df4c6ede76ca6b7ec200b86df40755496d9046e624271f7048b6df05",
}


class TestVectorCodeKrylov:
    """The Krylov pass on vector codes against the pass on coordinate
    lists, which is the route above VEC_TABLE_CAP and the oracle below;
    the relation matrices decoded from the flat keys against frozen
    digests."""

    @pytest.mark.parametrize("p,k,n", list(FROZEN_RELATIONS), ids=["M3F3", "M4F2", "M2F8"])
    def test_every_element(self, p, k, n):
        f = field_make(p, k)
        digest = hashlib.sha256()
        for a in enumerate_matrices(f, n, n):
            key = _krylov_codes(a)
            assert key == _krylov_lists(a), format_matrix(a)
            digest.update(repr(_relation_matrix(f.q, key)).encode())
        assert digest.hexdigest() == FROZEN_RELATIONS[p, k, n]

    @pytest.mark.parametrize(
        "p,k,n", [(5, 1, 3), (2, 2, 3), (2, 2, 4), (2, 1, 8)], ids=["M3F5", "M3F4", "M4F4", "M8F2"]
    )
    def test_seeded_elements(self, p, k, n):
        f = field_make(p, k)
        assert f.q**n <= VEC_TABLE_CAP  # M(4, F_4) and M(8, F_2) sit at the bound
        rng = random.Random(f"krylov:{f.q}:{n}")
        for _ in range(2000):
            a = Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n)))
            assert _krylov_codes(a) == _krylov_lists(a), format_matrix(a)


class TestCodeArrayKernel:
    @pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3)])
    def test_all_codes_match_enumerate_matrices(self, p, k, n):
        f = field_make(p, k)
        got = all_codes(f, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, codes_array(enumerate_matrices(f, n, n)))

    def test_every_pair_of_m2_f4(self):
        f = field_make(2, 2)
        ms = list(enumerate_matrices(f, 2, 2))
        arr = codes_array(ms)
        got = batch_mul(f, arr[:, None], arr[None, :])  # broadcast to all pairs
        want = codes_array([a * b for a in ms for b in ms]).reshape(256, 256, 2, 2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p,k,n", [(2, 3, 2), (3, 2, 3), (2, 2, 3), (5, 1, 3)])
    def test_seeded_pairs(self, p, k, n):
        f = field_make(p, k)
        rng = random.Random(f"batch_mul:{f.q}:{n}")

        def draw():
            return Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n)))

        xs = [draw() for _ in range(2000)]
        ys = [draw() for _ in range(2000)]
        got = batch_mul(f, codes_array(xs), codes_array(ys))
        assert np.array_equal(got, codes_array([x * y for x, y in zip(xs, ys)]))

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
    def test_empty_inner_dimension_gives_zeros(self, p, k):
        got = batch_mul(field_make(p, k), np.zeros((2, 0), dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
        assert got.tolist() == [[0] * 4] * 2

    def test_keys_are_base_q_digits(self):
        f = field_make(2, 2)
        ms = list(enumerate_matrices(f, 2, 2))
        keys = code_keys(f, codes_array(ms))
        assert sorted(keys.tolist()) == list(range(256))
        assert keys[1] == 4**3  # (0, 0, 0, 1): the last code is the top digit
        assert code_keys(field_make(2), np.zeros((1, 7, 7), dtype=np.int64)).tolist() == [0]

    @pytest.mark.parametrize("p,k,n", [(2, 2, 6), (2, 4, 4), (7, 1, 5), (2, 1, 8)])
    def test_keys_past_int64_still_identify_matrices(self, p, k, n):
        # q^(n*n) > 2^63: the keys are raw code bytes, equal iff the codes are
        f = field_make(p, k)
        rng = random.Random(f"wide_keys:{f.q}:{n}")
        rows = [tuple(rng.randrange(f.q) for _ in range(n * n)) for _ in range(200)]
        rows += rows[:50] + [(f.q - 1,) * (n * n), (0,) * (n * n)]
        keys = code_keys(f, np.array(rows, dtype=np.int64).reshape(-1, n, n))
        assert keys.shape == (len(rows),)
        assert len(np.unique(keys)) == len(set(rows))
        order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(keys[order], keys)
        assert [rows[i] for i in order[pos]] == rows


def _oracle_rref(f, arr):
    """(reduced, ranks, pivots) of a (B, r, c) code array, one _rref per
    matrix: the pure-Python elimination batch_rref replaces."""
    b, r, c = arr.shape
    reduced = np.zeros((b, r, c), dtype=np.int64)
    ranks, pivots = [], np.zeros((b, c), dtype=bool)
    for i, mat in enumerate(arr.tolist()):
        rows, piv = _rref(f, mat)
        if rows:
            reduced[i, : len(rows)] = rows
        ranks.append(len(rows))
        pivots[i, piv] = True
    return reduced, ranks, pivots


class TestBatchRref:
    """batch_rref against the per-matrix routes, and mat_set's order
    against the (mat_rank, codes) sort it replaced."""

    @pytest.mark.parametrize("p,k,n", [(3, 1, 3), (2, 3, 2), (2, 1, 4)], ids=["M3F3", "M2F8", "M4F2"])
    def test_every_element(self, p, k, n):
        f = field_make(p, k)
        ms = list(enumerate_matrices(f, n, n))
        want = [mat_rank.__wrapped__(a) for a in ms]  # uncached: these fill no cache
        assert batch_rref(f, codes_array(ms))[1].tolist() == want
        oracle = sorted(range(len(ms)), key=lambda i: (want[i], ms[i].codes))
        assert mat_set(f, n, reversed(ms)).elements == tuple(ms[i] for i in oracle)

    @pytest.mark.parametrize("p,k", [(2, 2), (5, 1)], ids=["M3F4", "M3F5"])
    def test_seeded_matrices(self, p, k):
        f = field_make(p, k)
        rng = random.Random(f"batch_rref:{f.q}")
        ms = [Matrix(f, 3, 3, tuple(rng.randrange(f.q) for _ in range(9))) for _ in range(2000)]
        ms += [zero_matrix(f, 3), identity_matrix(f, 3)] + [unit_matrix(f, 3, i, j, f.q - 1) for i in range(3) for j in range(3)]
        reduced, ranks, pivots = batch_rref(f, codes_array(ms))
        want = [mat_rank.__wrapped__(a) for a in ms]
        assert ranks.tolist() == want
        o_reduced, o_ranks, o_pivots = _oracle_rref(f, codes_array(ms))
        assert o_ranks == want
        assert np.array_equal(reduced, o_reduced) and np.array_equal(pivots, o_pivots)
        oracle = sorted(set(ms), key=lambda a: (mat_rank(a), a.codes))  # mat_set drops repeats
        assert list(mat_set(f, 3, ms).elements) == oracle

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 2, 5), (1, 3, 3), (1, 4, 2), (40, 2, 5), (40, 5, 2), (7, 1, 6), (7, 6, 1), (3, 0, 4), (3, 4, 0)])
    @pytest.mark.parametrize("f", FIELDS[:4], ids=lambda f: str(f.q))
    def test_shapes(self, f, shape):
        rng = np.random.default_rng([f.q, *shape])
        arr = rng.integers(0, f.q, shape)
        arr[: len(arr) // 3, :1] = 0  # some leading zero rows
        got = batch_rref(f, arr)
        want = _oracle_rref(f, arr)
        assert got[0].shape == shape and got[1].shape == (shape[0],) and got[2].shape == (shape[0], shape[2])
        assert np.array_equal(got[0], want[0]) and got[1].tolist() == want[1]
        assert np.array_equal(got[2], want[2])

    def test_input_left_unchanged(self):
        f = field_make(3)
        arr = np.array([[[2, 1], [1, 2]], [[0, 0], [1, 1]]])
        before = arr.copy()
        batch_rref(f, arr)
        assert np.array_equal(arr, before)


class TestSubspace:
    @given(st.sampled_from(FIELDS), st.data())
    @settings(max_examples=60)
    def test_dimension_formula(self, f, data):
        n = data.draw(st.integers(1, 3))
        rows_u = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n), max_size=3))
        rows_w = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n), max_size=3))
        u = subspace(f, n, rows_u)
        w = subspace(f, n, rows_w)
        s, i = span_sum(u, w), intersect(u, w)
        assert s.dim + i.dim == u.dim + w.dim
        assert s.contains(u) and s.contains(w)
        assert u.contains(i) and w.contains(i)

    @pytest.mark.parametrize("f,n", [(field_make(2), 4), (field_make(3), 3), (field_make(2, 2), 2)], ids=["F2^4", "F3^3", "F4^2"])
    def test_enumeration_is_every_row_space_sorted(self, f, n):
        # the row spaces of every d x n matrix, kept at rank d: no pivot blocks
        for d in range(n + 1):
            spaces = {subspace(f, n, [a.row_codes(i) for i in range(d)]) for a in enumerate_matrices(f, d, n)}
            expect = sorted((s for s in spaces if s.dim == d), key=lambda s: s.basis)
            assert enumerate_subspaces(f, n, d) == expect
            codes = subspace_codes(f, n, d)
            assert codes.shape == (len(expect), d, n) and codes.dtype == np.int64
            assert codes.tolist() == [[list(row) for row in s.basis] for s in expect]
        assert enumerate_subspaces(f, n, n + 1) == []

    def test_enumeration_matches_gaussian_binomial(self):
        for f in (field_make(2), field_make(3)):
            for n in (2, 3):
                for d in range(n + 1):
                    got = len(list(enumerate_subspaces(f, n, d)))
                    assert got == gaussian_binomial(n, d, f.q)

    def test_contains_vector_matches_the_member_list(self):
        # gf.in_span reads a vector off its entries at the pivots
        for f, n in ((field_make(2), 4), (field_make(3), 3), (field_make(2, 2), 2)):
            every = list(itertools.product(range(f.q), repeat=n))
            for d in range(n + 1):
                for s in enumerate_subspaces(f, n, d):
                    assert s.pivots == tuple(next(i for i, x in enumerate(row) if x) for row in s.basis)
                    members = set(s.vectors())
                    assert [s.contains_vector(v) for v in every] == [v in members for v in every]
        with pytest.raises(AmbientMismatch):
            s.contains_vector((0,) * (n + 1))

    def test_standard_complement_matches_the_rref_route(self):
        for f, n in ((field_make(2), 4), (field_make(3), 3), (field_make(2, 2), 2)):
            for d in range(n + 1):
                for s in enumerate_subspaces(f, n, d):
                    comp = standard_complement(s)
                    assert comp == complement_by_rref(s), format_subspace(s)
                    assert comp.dim == n - d and span_sum(s, comp).dim == n

    def test_equal_subspaces_hash_equal(self):
        # the cached hash of a subspace rebuilt from another spanning set
        for f, n in ((field_make(2), 3), (field_make(3), 3), (field_make(2, 2), 2)):
            for d in range(n + 1):
                for s in enumerate_subspaces(f, n, d):
                    rows = list(s.vectors())[::-1]
                    t = subspace(f, n, rows)
                    assert t == s and t is not s and hash(t) == hash(s)
                    assert {s: d}[t] == d

    def test_vectors_count(self):
        f = field_make(3)
        s = subspace(f, 3, [[1, 0, 0], [0, 1, 0]])
        assert len(list(s.vectors())) == 9
        assert all(s.contains_vector(v) for v in s.vectors())

    def test_text_roundtrip(self):
        f = field_make(2)
        for d in range(4):
            for s in enumerate_subspaces(f, 3, d):
                assert parse_subspace(f, 3, format_subspace(s)) == s

    def test_projection_idempotent(self):
        f = field_make(2)
        onto = subspace(f, 3, [[1, 0, 0]])
        along = subspace(f, 3, [[0, 1, 0], [0, 0, 1]])
        e = projection_idempotent(onto, along)
        assert e * e == e
        assert mat_image(e) == onto and mat_kernel(e) == along

    @pytest.mark.parametrize("f,n", [(field_make(2), 3), (field_make(3), 2)], ids=["F2^3", "F3^2"])
    def test_projection_equals_the_conjugated_diagonal(self, f, n):
        # the former route: an intersection check, then P D P^-1
        # with D keeping the first dim(onto) columns of P = [onto | along]
        spaces = [s for d in range(n + 1) for s in enumerate_subspaces(f, n, d)]
        pairs = 0
        for onto in spaces:
            for along in spaces:
                if onto.dim + along.dim != n:
                    continue
                if intersect(onto, along).dim:
                    with pytest.raises(InvariantViolation):
                        projection_idempotent(onto, along)
                    continue
                cols = onto.basis + along.basis
                p = Matrix(f, n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))
                d = Matrix(f, n, n, tuple(int(i == j < onto.dim) for i in range(n) for j in range(n)))
                assert projection_idempotent(onto, along) == p * d * mat_inverse(p)
                pairs += 1
        # ordered complementary pairs: q^(d(n-d)) complements per subspace
        assert pairs == sum(gaussian_binomial(n, d, f.q) * f.q ** (d * (n - d)) for d in range(n + 1))

    def test_projection_refuses_meeting_subspaces_of_complementary_dimension(self):
        f = field_make(3)
        onto = subspace(f, 3, [[1, 0, 0], [0, 1, 0]])
        for along in (subspace(f, 3, [[1, 1, 0]]), subspace(f, 3, [[0, 1, 0]])):
            assert onto.dim + along.dim == 3 and intersect(onto, along).dim == 1
            with pytest.raises(InvariantViolation, match="not complementary"):
                projection_idempotent(onto, along)
        with pytest.raises(InvariantViolation, match="not complementary"):
            projection_idempotent(onto, zero_subspace(f, 3))

    def test_zero_subspace(self):
        f = field_make(2)
        z = zero_subspace(f, 3)
        assert z.dim == 0 and z.contains_vector((0, 0, 0))
