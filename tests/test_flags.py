import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import (
    BadSignature,
    CapExceeded,
    Matrix,
    NotAChain,
    NotNilpotent,
    SignatureMismatch,
    all_flags,
    closure,
    consolidates,
    enumerate_matrices,
    enumerate_subspaces,
    field_make,
    flag_basis,
    flag_make,
    flag_semigroup,
    flags_with_signature,
    format_flag,
    gaussian_binomial,
    is_k_maximal,
    lowering_mask,
    lowers_flag,
    mat_image,
    mat_inverse,
    mat_set,
    matrix,
    nilpotency_degree,
    parse_flag,
    parse_subspace,
    power_image_flag,
    standard_flag,
    subspace,
    unit_matrix,
    zero_subspace,
)
from matsemi import flags, nilclass
from matsemi.flags import Flag
from matsemi.gf import codes_array, full_space
from oracles import enumerated_flag_basis, flag_transporter, is_zero, span_sum, stratum_of

F2 = field_make(2)
F3 = field_make(3)

FLAGS3 = all_flags(F2, 3)


def flags3():
    return st.sampled_from(FLAGS3)


class TestFlagBasics:
    def test_all_flags_census(self):
        by_len = {}
        for f in FLAGS3:
            by_len[f.length] = by_len.get(f.length, 0) + 1
        # 1 trivial, 7 + 7 of length two, 21 complete
        assert by_len == {1: 1, 2: 14, 3: 21}

    def test_standard_flag(self):
        f = standard_flag(F2, (1, 2, 1))
        assert f.signature == (1, 2, 1)
        assert f.chain[1] == subspace(F2, 4, [[1, 0, 0, 0]])
        with pytest.raises(BadSignature):
            standard_flag(F2, (1, 0, 2))

    @given(flags3())
    def test_text_roundtrip(self, f):
        assert parse_flag(F2, 3, format_flag(f)) == f

    def test_parse_rejects_non_chain(self):
        with pytest.raises(NotAChain):
            parse_flag(F2, 3, "1,0,0|0,1,0")

    @given(flags3())
    def test_signature_sums_to_ambient(self, f):
        assert sum(f.signature) == 3
        dims = [s.dim for s in f.chain]
        assert dims == sorted(dims) and dims[0] == 0 and dims[-1] == 3

    @given(flags3())
    def test_stratum_of_partitions(self, f):
        for v in ((1, 0, 0), (0, 1, 1), (1, 1, 1)):
            i = stratum_of(f, v)
            assert f.chain[i].contains_vector(v)
            assert i == 0 or not f.chain[i - 1].contains_vector(v)


class TestFlagSemigroup:
    @given(flags3())
    def test_members_lower_the_flag(self, f):
        s = flag_semigroup(f)
        for a in s:
            assert lowers_flag(a, f)

    @given(flags3())
    @settings(max_examples=40, deadline=None)
    def test_closed_under_products(self, f):
        s = flag_semigroup(f)
        members = frozenset(s)
        for a in s:
            for b in s:
                assert a * b in members

    @given(flags3())
    def test_size_law(self, f):
        sig = f.signature
        exp = sum(sig[i] * sig[j] for i in range(len(sig)) for j in range(i + 1, len(sig)))
        assert len(flag_semigroup(f)) == 2**exp

    def test_cap(self):
        with pytest.raises(CapExceeded):
            flag_semigroup(standard_flag(F2, (1, 1, 1)), cap=4)

    @given(flags3())
    def test_nilpotency_degree_is_flag_length(self, f):
        s = flag_semigroup(f)
        if f.length == 1:
            assert is_zero(s.elements[0]) and len(s) == 1
        else:
            assert nilpotency_degree(s) == f.length

    def test_adapted_basis(self):
        for f in FLAGS3[:10]:
            p = flag_basis(f)
            assert mat_inverse(p) is not None
            # leading columns of p span the chain prefix by prefix
            for s in f.interior:
                cols = [list(p.col_codes(j)) for j in range(s.dim)]
                assert subspace(F2, 3, cols) == s


def _greedy_basis(f):
    """flag_basis by a walk over subspaces: each vector of a stratum, in
    enumeration order, joins the columns when the span so far misses it."""
    cols, span = [], zero_subspace(f.field, f.ambient)
    for s in f.chain[1:]:
        for vec in s.vectors():
            if any(vec) and not span.contains_vector(vec):
                cols.append(vec)
                span = span_sum(span, subspace(f.field, f.ambient, [vec]))
                if span.dim == s.dim:
                    break
    n = f.ambient
    return Matrix(f.field, n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3), (5, 3)])
def test_flag_basis_matches_the_greedy_walk(q, n):
    field = field_make(*{4: (2, 2)}.get(q, (q, 1)))
    for f in all_flags(field, n):
        # the last-to-first scan of each V_i's rows keeps the vectors that
        # the echelon walk over all q^dim vectors of V_i keeps
        assert flag_basis(f) == _greedy_basis(f) == enumerated_flag_basis(f), format_flag(f)


class TestPowerImageFlag:
    @given(flags3())
    def test_recovers_the_flag(self, f):
        if f.length < 2:
            return
        assert power_image_flag(flag_semigroup(f)) == f

    def test_rejects_non_nilpotent(self):
        s = mat_set(F2, 2, [matrix(F2, [[1, 0], [0, 1]])])
        with pytest.raises(NotNilpotent):
            power_image_flag(s)

    def test_proper_subset_is_detected(self):
        z = matrix(F2, [[0] * 3] * 3)
        e13 = unit_matrix(F2, 3, 0, 2)
        small = mat_set(F2, 3, [z, e13])
        assert nilpotency_degree(small) == 2
        assert not is_k_maximal(small)

    @given(flags3())
    def test_flag_semigroups_are_maximal(self, f):
        if f.length >= 2:
            assert is_k_maximal(flag_semigroup(f))


class TestConsolidation:
    @given(flags3(), flags3())
    @settings(max_examples=150, deadline=None)
    def test_matches_containment(self, f1, f2):
        assert consolidates(f1, f2) == (frozenset(flag_semigroup(f2)) <= frozenset(flag_semigroup(f1)))

    def test_refinement_example(self):
        full = standard_flag(F2, (1, 1, 1))
        part = standard_flag(F2, (1, 2))
        assert consolidates(full, part)
        assert not consolidates(part, full)


class TestTransporter:
    def test_same_signature_pairs(self):
        # every ordered pair of F_2^3 flags of one signature
        for sig in ((1, 2), (2, 1), (1, 1, 1)):
            group = flags_with_signature(F2, 3, sig)
            for f1, f2 in itertools.product(group, group):
                g = flag_transporter(f1, f2)
                gi = mat_inverse(g)
                assert gi is not None
                for v, w in zip(f1.chain, f2.chain):
                    image_rows = [list((g * matrix(F2, [[c] for c in vec])).col_codes(0)) for vec in v.basis]
                    assert subspace(F2, 3, image_rows) == w

    @pytest.mark.parametrize("sig", [(1, 2), (2, 1), (1, 1, 1)])
    def test_carry_mask_matches_chain_images(self, sig):
        # the check batch_transport runs (nilclass._carried), against the
        # images of all vectors: X V_i ⊆ V'_i at every level
        group = flags_with_signature(F2, 3, sig)
        rng = random.Random(f"carry:{sig}")
        mats = [Matrix(F2, 3, 3, tuple(rng.randrange(2) for _ in range(9))) for _ in range(48)]
        for f1, f2 in [(group[0], other) for other in group] + [(group[-1], group[1])]:
            cands = mats + [flag_transporter(f1, f2)]
            want = [
                all(w.contains_vector((a * matrix(F2, [[c] for c in vec])).col_codes(0)) for v, w in zip(f1.chain, f2.chain) for vec in v.vectors())
                for a in cands
            ]
            assert want[-1] and not all(want)
            got = nilclass._carried(codes_array(cands)[:, None], [f1] * len(cands), [f2])
            assert got[:, 0].tolist() == want

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            flag_transporter(standard_flag(F2, (1, 2)), standard_flag(F2, (2, 1)))


def test_flag_make_rejects_bad_chain():
    a = subspace(F2, 3, [[1, 0, 0]])
    b = subspace(F2, 3, [[0, 1, 0]])
    with pytest.raises(NotAChain):
        flag_make(F2, 3, [a, b])


def test_flags_with_signature_counts():
    assert len(flags_with_signature(F2, 3, (1, 2))) == 7
    assert len(flags_with_signature(F2, 3, (2, 1))) == 7
    assert len(flags_with_signature(F2, 3, (1, 1, 1))) == 21
    assert len(flags_with_signature(F3, 2, (1, 1))) == 4


def _oracle_all_flags(field, n):
    """Every flag of F^n by the all-lengths recursion: each chain met on the
    way is itself a flag, extended by every larger subspace containing its
    top."""
    flags = []

    def extend(chain, dim):
        flags.append(flag_make(field, n, chain))
        for d in range(dim + 1, n):
            for s in enumerate_subspaces(field, n, d):
                if not chain or s.contains(chain[-1]):
                    extend(chain + (s,), d)

    extend((), 0)
    flags.sort(key=lambda fl: (fl.length, tuple(s.basis for s in fl.interior)))
    return flags


def _q_multinomial(sig, q):
    """Flags of signature sig: choose V_i inside V_{i+1}, top level first."""
    out, total = 1, 0
    for d in sig:
        total += d
        out *= gaussian_binomial(total, d, q)
    return out


def _oracle_flags_with_signature(field, n, sig):
    """The containment search: each level keeps the subspaces of its
    dimension containing the one chosen at the level below, and flag_make
    checks every finished chain."""
    levels = [enumerate_subspaces(field, n, d) for d in itertools.accumulate(sig[:-1])]
    flags = []

    def extend(chain):
        if len(chain) == len(levels):
            flags.append(flag_make(field, n, chain))
            return
        for s in levels[len(chain)]:
            if not chain or s.contains(chain[-1]):
                extend(chain + (s,))

    extend(())
    flags.sort(key=lambda fl: tuple(s.basis for s in fl.interior))
    return flags


class TestFlagOracle:
    @pytest.mark.parametrize(
        "field, n",
        [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F3, 3), (field_make(2, 2), 3), (field_make(5), 2)],
        ids=["2-1", "2-2", "2-3", "2-4", "3-3", "4-3", "5-2"],
    )
    def test_matches_the_all_lengths_recursion(self, field, n):
        oracle = _oracle_all_flags(field, n)
        assert all_flags(field, n) == oracle
        sigs = {fl.signature for fl in oracle}
        assert len(sigs) == 2 ** (n - 1)  # one per composition of n
        for sig in sigs:
            group = flags_with_signature(field, n, sig)
            assert group == [fl for fl in oracle if fl.signature == sig]
            assert len(group) == _q_multinomial(sig, field.q)

    def test_q_multinomial_counts(self):
        for sig in ((1, 3), (2, 2), (3, 1)):
            assert len(flags_with_signature(F3, 4, sig)) == _q_multinomial(sig, 3)
        assert [_q_multinomial(s, 3) for s in ((1, 3), (2, 2), (3, 1))] == [40, 130, 40]

    @pytest.mark.parametrize(
        "field, sig",
        [(F2, (1, 1, 2)), (F2, (2, 1, 2)), (F3, (1, 2, 1)), (field_make(2, 2), (1, 1, 1)), (field_make(5), (1, 1, 1))],
        ids=["2-112", "2-212", "3-121", "4-111", "5-111"],
    )
    def test_lift_matches_the_containment_search(self, field, sig):
        n = sum(sig)
        assert flags_with_signature(field, n, sig) == _oracle_flags_with_signature(field, n, sig)

    @pytest.mark.parametrize("sig, count", [((2, 2, 2), 22_785), ((1, 1, 1, 1, 1), 9_765)])
    def test_lifted_counts_are_q_multinomials(self, sig, count):
        group = flags_with_signature(F2, sum(sig), sig)
        assert len(group) == len(set(group)) == _q_multinomial(sig, 2) == count
        assert all(fl.signature == sig for fl in group)

    def test_too_many_flags_are_refused_before_any_lift(self, monkeypatch):
        # (1, 1, 1) over F_2 lifts 1 * 3 * 7 = 21 flags; each level's
        # subspace count is below the cap
        def no_lift(*args):
            raise AssertionError("batch_mul ran")

        monkeypatch.setattr(flags, "ENUM_CAP", 20)
        monkeypatch.setattr(flags, "batch_mul", no_lift)
        with pytest.raises(CapExceeded, match=r"^21 flags exceed cap 20$"):
            flags_with_signature(F2, 3, (1, 1, 1))


def _oracle_lowers_flag(a, f):
    """Chain containment: the image of each basis vector of V_i lies in V_{i-1}."""
    for i in range(1, len(f.chain)):
        below = f.chain[i - 1]
        for row in f.chain[i].basis:
            img = a * matrix(a.field, [[c] for c in row])
            if not below.contains_vector(img.col_codes(0)):
                return False
    return True


def _oracle_flag_semigroup(f):
    """P B P^-1 for every block strictly upper B, one Matrix product at a time."""
    n, sig = f.ambient, f.signature
    offs = [sum(sig[:i]) for i in range(len(sig) + 1)]
    free = [
        (r, c)
        for ci in range(len(sig))
        for ri in range(ci)
        for r in range(offs[ri], offs[ri + 1])
        for c in range(offs[ci], offs[ci + 1])
    ]
    p = flag_basis(f)
    p_inv = mat_inverse(p)
    out = []
    for vals in itertools.product(range(f.field.q), repeat=len(free)):
        codes = [0] * (n * n)
        for (r, c), v in zip(free, vals):
            codes[r * n + c] = v
        out.append(p * Matrix(f.field, n, n, tuple(codes)) * p_inv)
    return mat_set(f.field, n, out)


class TestBatchedFlagLayer:
    @pytest.mark.parametrize("field", [F2, F3, field_make(2, 2)], ids=["2", "3", "4"])
    def test_flag_semigroup_matches_matrix_conjugation(self, field):
        for f in all_flags(field, 3):
            assert flag_semigroup(f) == _oracle_flag_semigroup(f)

    @pytest.mark.parametrize("field, n", [(F2, 3), (field_make(2, 2), 2)], ids=["2-3", "4-2"])
    def test_parity_check_mask_matches_chain_containment(self, field, n):
        # every matrix of the ambient against every flag
        mats = list(enumerate_matrices(field, n, n))
        codes = codes_array(mats)
        for f in all_flags(field, n):
            want = [_oracle_lowers_flag(a, f) for a in mats]
            assert lowering_mask(f, codes).tolist() == want
            assert [lowers_flag(a, f) for a in mats] == want


def _random_flag(field, sig, rng):
    """The flag of prefix column spans of a seeded invertible matrix."""
    n = sum(sig)
    while True:
        p = Matrix(field, n, n, tuple(rng.randrange(field.q) for _ in range(n * n)))
        if p.rank() == n:
            break
    cols = [list(p.col_codes(j)) for j in range(n)]
    ends = list(itertools.accumulate(sig))[:-1]
    return flag_make(field, n, [subspace(field, n, cols[:e]) for e in ends])


def _free_positions(sig):
    return sum(sig[i] * sig[j] for i in range(len(sig)) for j in range(i + 1, len(sig)))


class TestLoweringSpace:
    """_lowering_space: the RREF basis of S(F) inside F^(n*n), which
    lowers_flag and lowering_mask read."""

    @pytest.mark.parametrize("field, n", [(F3, 3), (F2, 4)], ids=["3-3", "2-4"])
    def test_matches_chain_containment(self, field, n):
        # members, members with one entry changed, and seeded random
        # matrices, for every flag
        rng = random.Random(f"lowering:{field.q}:{n}")
        seen = {True: 0, False: 0}
        for f in all_flags(field, n):
            members = flag_semigroup(f).elements
            mats = rng.sample(members, min(len(members), 8))
            for a in rng.sample(members, min(len(members), 8)):
                codes = list(a.codes)
                pos = rng.randrange(n * n)
                codes[pos] = field.add[codes[pos]][rng.randrange(1, field.q)]
                mats.append(Matrix(field, n, n, tuple(codes)))
            mats += [Matrix(field, n, n, tuple(rng.randrange(field.q) for _ in range(n * n))) for _ in range(8)]
            want = [_oracle_lowers_flag(a, f) for a in mats]
            assert [lowers_flag(a, f) for a in mats] == want, format_flag(f)
            assert lowering_mask(f, codes_array(mats)).tolist() == want, format_flag(f)
            for w in want:
                seen[w] += 1
        assert seen[True] and seen[False]

    def test_dimension_is_the_number_of_free_positions(self):
        # every flag of F_2^n for n <= 4; seeded flags of every signature
        # of F_2^5 (enumerating its 27 808 flags takes seconds)
        for n in range(1, 5):
            for f in all_flags(F2, n):
                assert len(flags._lowering_space(f).rows) == _free_positions(f.signature)
        rng = random.Random("lowering-dim:5")
        for cuts in itertools.product((False, True), repeat=4):
            ends = [i for i, cut in enumerate(cuts, start=1) if cut] + [5]
            sig = tuple(hi - lo for lo, hi in zip([0] + ends, ends))
            for _ in range(8):
                f = _random_flag(F2, sig, rng)
                space = flags._lowering_space(f)
                assert f.signature == sig and len(space.rows) == _free_positions(sig)
                assert space.codes.shape == (len(space.rows), 25)

    def test_built_without_the_adapted_basis(self, monkeypatch):
        # lowering checks flag_semigroup's P B P^-1 enumeration, so it must
        # not read P
        def refuse(f):
            raise AssertionError("lowering space read the adapted basis")

        monkeypatch.setattr(flags, "flag_basis", refuse)
        monkeypatch.setattr(flags, "flag_basis_inverse", refuse)
        f = _random_flag(field_make(5), (1, 2, 1), random.Random("lowering-independence"))
        space = flags._lowering_space.__wrapped__(f)
        assert len(space.rows) == _free_positions(f.signature)
        assert lowering_mask(f, codes_array([unit_matrix(f.field, 4, 0, 0)])).tolist() == [False]


def _oracle_powers(s):
    """[S^1, S^2, ..., S^k = {0}], one Matrix product at a time; None when
    the powers never reach {0}.  k is the nilpotency degree."""
    zero = Matrix(s.field, s.dim, s.dim, (0,) * (s.dim * s.dim))
    powers = [frozenset(s)]
    while powers[-1] != {zero}:
        nxt = frozenset(x * y for x in powers[-1] for y in s)
        if nxt == powers[-1]:
            return None
        powers.append(nxt)
    return powers


def _oracle_power_image_flag(s):
    """The flag of power-image spans, one mat_image and Subspace.sum_ per
    element of each power set: the per-element route that the stacked
    columns replace."""
    f, n = s.field, s.dim
    chain = [zero_subspace(f, n)]
    for level in _oracle_powers(s)[-2::-1]:  # S^(k-1) first: the smallest span
        span = zero_subspace(f, n)
        for x in level:
            span = span_sum(span, mat_image(x))
        chain.append(span)
    return Flag(field=f, ambient=n, chain=(*chain, full_space(f, n)))


def _oracle_is_k_maximal(s):
    """The enumeration test that size and lowering replace: s equals the
    semigroup of its power-image flag, enumerated again."""
    return frozenset(s) == frozenset(flag_semigroup(_oracle_power_image_flag(s)))


def _nilpotent_sets(field, per_flag):
    """Every flag semigroup of length >= 2 over field^3, closures of
    seeded subsets of each (nilpotent, mostly not maximal), and the small
    set {0, E13}."""
    rng = random.Random(f"nilpotent_sets:{field.q}")
    sets = []
    for fl in all_flags(field, 3):
        if fl.length < 2:
            continue
        s = flag_semigroup(fl)
        sets.append(s)
        for _ in range(per_flag):
            seed = rng.sample(s.elements, rng.randint(1, 3))
            sets.append(closure(mat_set(field, 3, seed)))
    z = matrix(field, [[0] * 3] * 3)
    sets.append(mat_set(field, 3, [z, unit_matrix(field, 3, 0, 2)]))
    return sets


class TestMaximalityOracle:
    """is_k_maximal (size and lowering) and power_image_flag (stacked
    columns) against the routes they replace."""

    @pytest.mark.parametrize("field, per_flag", [(F2, 3), (F3, 2)], ids=["2", "3"])
    def test_against_enumeration_and_image_sums(self, field, per_flag):
        seen = {True: 0, False: 0}
        for s in _nilpotent_sets(field, per_flag):
            k = len(_oracle_powers(s))
            assert nilpotency_degree(s) == k
            if k < 2:  # {0}: no flag
                with pytest.raises(NotNilpotent):
                    is_k_maximal(s)
                continue
            assert power_image_flag(s) == _oracle_power_image_flag(s)
            want = _oracle_is_k_maximal(s)
            assert is_k_maximal(s) == want
            seen[want] += 1
        # some closures regenerate a flag semigroup
        assert seen[True] >= sum(1 for fl in all_flags(field, 3) if fl.length >= 2)
        assert seen[False] > 0
