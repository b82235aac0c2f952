import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import (
    ConjugacyChain,
    Matrix,
    ambient,
    class_key,
    core,
    core_chain,
    core_decomposition,
    enumerate_matrices,
    field_make,
    identity_matrix,
    invariant_factors,
    mat_image,
    mat_kernel,
    mat_pow,
    mat_rank,
    matrix,
    projection_idempotent,
    semigroup_conjugate,
    sg_classes,
    similar,
    stability_index,
    standard_complement,
    unit_matrix,
)
from matsemi import conjugacy, gf
from matsemi.cli import run_command
from matsemi.gf import _krylov_key, _krylov_relations, _relation_matrix, _smith_factors
from oracles import is_zero, primary_pair_keys_full

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F7 = field_make(7)


@st.composite
def square(draw, fields=(F2, F3), n_max=3, n_min=1):
    f = draw(st.sampled_from(fields))
    n = draw(st.integers(n_min, n_max))
    codes = draw(st.lists(st.integers(0, f.q - 1), min_size=n * n, max_size=n * n))
    return matrix(f, [codes[i * n : (i + 1) * n] for i in range(n)])


class TestCore:
    @given(square())
    def test_stability_index(self, a):
        t = stability_index(a)
        assert mat_rank(mat_pow(a, t)) == mat_rank(mat_pow(a, t + 1))
        if t > 0:
            assert mat_rank(mat_pow(a, t - 1)) > mat_rank(mat_pow(a, t))

    @given(square())
    def test_decomposition_shape(self, a):
        dec = core_decomposition(a)
        e = dec.projector
        assert e * e == e
        assert dec.core == e * a * e
        assert mat_rank(dec.core) == dec.image.dim
        assert dec.image.dim + dec.kernel.dim == a.rows

    @given(square())
    def test_core_is_stable(self, a):
        # the core acts bijectively on its image, so its index is at most 1
        c = core(a)
        assert stability_index(c) <= 1
        assert mat_image(c) == core_decomposition(a).image

    def test_invertible_is_its_own_core(self):
        g = matrix(F2, [[1, 1], [0, 1]])
        assert core(g) == g and stability_index(g) == 0

    def test_nilpotent_core_is_zero(self):
        e = unit_matrix(F2, 3, 0, 1)
        assert is_zero(core(e))
        # key of the 3x3 zero matrix: x, x, x
        assert class_key(e) == ((0, 1),) * 3


def _core_report(field, n, matrix_text, t, image, kernel, projector, core_text, key):
    return {
        "tool": "matsemi",
        "version": "0.1.0",
        "command": "core",
        "params": {"field": field, "n": n, "matrix": matrix_text},
        "result": {
            "matrix": matrix_text,
            "stability_index": t,
            "image": image,
            "kernel": kernel,
            "projector": projector,
            "core": core_text,
            "class_key": key,
        },
        "caps": {"max_elems": None},
        "timing_ms": None,
    }


class TestClosedFormCores:
    """Invertible and nilpotent matrices take closed-form cores; each must
    equal the projector route e a e with e onto Im(a^t) along ker(a^t)."""

    @pytest.mark.parametrize("f,n,units,nilpotents", [(F3, 2, 48, 9), (F2, 3, 168, 64)])
    def test_match_the_projector_route(self, f, n, units, nilpotents):
        seen = {"unit": [], "nilpotent": []}
        for a in enumerate_matrices(f, n, n):
            t = stability_index(a)
            at = mat_pow(a, t)
            if t == 0:
                kind = "unit"
            elif is_zero(at):
                kind = "nilpotent"
            else:
                continue
            image, kernel = mat_image(at), mat_kernel(at)
            e = projection_idempotent(image, kernel)
            dec = core_decomposition(a)
            assert (dec.t, dec.image, dec.kernel, dec.projector, dec.core) == (t, image, kernel, e, e * a * e)
            seen[kind].append(dec)
        # |GL(n, q)| units and q^(n(n-1)) nilpotents (Fine-Herstein)
        assert (len(seen["unit"]), len(seen["nilpotent"])) == (units, nilpotents)
        for decs in seen.values():
            for attr in ("image", "kernel", "projector"):
                assert len({id(getattr(d, attr)) for d in decs}) == 1

    def test_frozen_invertible_report(self):
        text, code = run_command(["core", "--field", "3", "--n", "2", "--matrix", "1,2;0,1", "--format", "json"])
        assert code == 0
        want = _core_report("3", 2, "1,2;0,1", 0, "1,0;0,1", "-", "1,0;0,1", "1,2;0,1", ["x^2+x+1"])
        assert text == json.dumps(want, indent=2) + "\n"

    def test_frozen_nilpotent_report(self):
        argv = ["core", "--field", "2", "--n", "3", "--matrix", "0,1,1;0,0,1;0,0,0", "--format", "json"]
        text, code = run_command(argv)
        assert code == 0
        zero = "0,0,0;0,0,0;0,0,0"
        want = _core_report("2", 3, "0,1,1;0,0,1;0,0,0", 3, "-", "1,0,0;0,1,0;0,0,1", zero, zero, ["x", "x", "x"])
        assert text == json.dumps(want, indent=2) + "\n"


LARGE = st.sampled_from([(F3, 4), (F5, 3), (F4, 3)])  # M(4,F_3), M(3,F_5), M(3,F_2^2)


class TestKeyReadOff:
    """class_key reads the core's invariant factors off those of a; the
    core route invariant_factors(core(a)) is the oracle."""

    @pytest.mark.parametrize(
        "f,n", [(F4, 2), (F2, 3), (F5, 2), (F3, 3)], ids=["M2F4", "M3F2", "M2F5", "M3F3"]
    )
    def test_every_element(self, f, n):
        for a in enumerate_matrices(f, n, n):
            assert class_key(a) == invariant_factors(core(a))

    @pytest.mark.parametrize(
        "f,n,relations", [(F4, 2, 80), (F2, 3, 120), (F3, 3, 1080)], ids=["M2F4", "M3F2", "M3F3"]
    )
    def test_memo_holds_one_key_per_relation_matrix(self, f, n, relations):
        mats = list(enumerate_matrices(f, n, n))
        assert len({_krylov_relations(a) for a in mats}) == relations
        conjugacy._relation_key.cache_clear()
        keys = [class_key(a) for a in mats]
        info = conjugacy._relation_key.cache_info()
        assert (info.misses, info.hits, info.currsize) == (relations, len(mats) - relations, relations)
        # a second sweep is answered from the memo alone, with the same keys
        assert [class_key(a) for a in mats] == keys
        assert conjugacy._relation_key.cache_info().misses == relations

    @given(LARGE.flatmap(lambda fn: square(fields=fn[:1], n_min=fn[1], n_max=fn[1])))
    @settings(max_examples=150)
    def test_random_elements(self, a):
        assert class_key(a) == invariant_factors(core(a))

    def test_seeded_elements_past_the_vector_tables(self):
        # q^n = 343 > VEC_TABLE_CAP: the key comes from the list pass
        rng = random.Random("class_key:7:3")
        for _ in range(300):
            a = Matrix(F7, 3, 3, tuple(rng.randrange(7) for _ in range(9)))
            assert class_key(a) == invariant_factors(core(a))

    def test_cold_sweep_builds_the_vector_tables_once(self, monkeypatch):
        lists = []
        monkeypatch.setattr(gf, "_krylov_lists", lambda a: lists.append(a))
        gf._vec_tables.cache_clear()
        conjugacy._relation_key.cache_clear()
        assert len({class_key(a) for a in enumerate_matrices(F3, 3, 3)}) == 35
        assert gf._vec_tables.cache_info().misses == 1
        assert lists == []

    def test_keys_past_the_vector_tables_build_no_table(self):
        gf._vec_tables.cache_clear()
        a = matrix(F7, [[1, 2, 3], [0, 4, 5], [6, 0, 0]])
        assert class_key(a) == invariant_factors(core(a))
        assert gf._vec_tables.cache_info().misses == 0

    @given(LARGE.flatmap(lambda fn: st.tuples(*[square(fields=fn[:1], n_min=fn[1], n_max=fn[1])] * 2)))
    @settings(max_examples=80)
    def test_conjugate_iff_cores_similar(self, xy):
        x, y = xy
        for a, b in ((x, y), (x * y, y * x)):
            assert semigroup_conjugate(a, b) == similar(core(a), core(b))

    def test_builds_no_core(self):
        before = core_decomposition.cache_info().misses
        keys = {class_key(a) for a in enumerate_matrices(F3, 2, 2)}
        assert len(keys) == 11  # the class count of M(2, F_3)
        assert core_decomposition.cache_info().misses == before

    def test_x_parts_move_to_the_last_factors(self):
        # a = J_2(0) ⊕ (1) over F_2 has the one factor x^2 (x + 1); its core
        # 0 ⊕ 0 ⊕ 1 has x, x (x + 1)
        a = matrix(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        assert invariant_factors(a) == ((0, 0, 1, 1),)
        assert class_key(a) == ((0, 1), (0, 1, 1)) == invariant_factors(core(a))


def _diagonal(f, flat):
    """(d_b, code_b) of each diagonal entry of the relation matrix of flat."""
    rel = _relation_matrix(f.q, flat)
    return tuple((len(row[b]) - 1, sum(c * f.q**k for k, c in enumerate(row[b][:-1]))) for b, row in enumerate(rel))


def _diagonal_answers(f, n, flats) -> int:
    """How many of flats the diagonal route answers, after checking that
    its answers and every key of _relation_key equal the Smith-loop route."""
    answered = 0
    for flat in flats:
        want = conjugacy._key_of(n, _smith_factors(f, _relation_matrix(f.q, flat)))
        assert conjugacy._relation_key.__wrapped__(f, n, flat) == want, flat
        diag = conjugacy._diagonal_key(f, n, _diagonal(f, flat))
        assert diag in (None, want), flat
        answered += diag is not None
    return answered


class TestDiagonalKey:
    """Where the x-free parts of the relation matrix's diagonal are pairwise
    coprime, _diagonal_key reads the class key off the diagonal; the
    invariant factors of the whole relation matrix are the oracle."""

    @pytest.mark.parametrize(
        "f,n,by_diagonal", [(F4, 2, 68), (F2, 3, 76), (F3, 3, 630)], ids=["M2F4", "M3F2", "M3F3"]
    )
    def test_every_flat_key_matches_the_smith_route(self, f, n, by_diagonal):
        assert _diagonal_answers(f, n, {_krylov_key(a) for a in enumerate_matrices(f, n, n)}) == by_diagonal

    @pytest.mark.parametrize("f,n", [(F2, 4), (F5, 3), (F7, 3)], ids=["M4F2", "M3F5", "M3F7"])
    def test_seeded_flat_keys_match_the_smith_route(self, f, n):
        rng = random.Random(f"diagonal:{f.q}:{n}")
        mats = [Matrix(f, n, n, tuple(rng.randrange(f.q) for _ in range(n * n))) for _ in range(1000)]
        mats += [x * y for x, y in zip(mats, mats[1:])]
        assert _diagonal_answers(f, n, {_krylov_key(a) for a in mats}) > 0

    @pytest.mark.parametrize(
        "f,rows,key,by_diagonal",
        [
            (F3, [[0, 0, 0], [0, 0, 0], [0, 0, 0]], ((0, 1), (0, 1), (0, 1)), True),
            (F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ((2, 1), (2, 1), (2, 1)), False),
            (F3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], ((2, 1), (2, 0, 1)), False),
            # J_2(1) ⊕ (2) is cyclic, though (x + 2) ends two diagonal entries
            (F3, [[1, 1, 0], [0, 1, 0], [0, 0, 2]], ((1, 2, 2, 1),), False),
            (F2, [[1, 0], [0, 1]], ((1, 1), (1, 1)), False),
            (F2, [[1, 1], [0, 1]], ((1, 0, 1),), False),
            (F2, [[0, 1, 0], [0, 0, 0], [0, 0, 1]], ((0, 1), (0, 1, 1)), True),
        ],
        ids=["zero", "identity", "diag-1-1-2", "J2(1)+(2)", "I2-F2", "J2(1)-F2", "J2(0)+(1)-F2"],
    )
    def test_frozen_cases(self, f, rows, key, by_diagonal):
        a = matrix(f, rows)
        flat = _krylov_key(a)
        assert class_key(a) == key == invariant_factors(core(a))
        diag = conjugacy._diagonal_key(f, a.rows, _diagonal(f, flat))
        assert (diag == key) if by_diagonal else diag is None

    def test_memo_misses_once_per_diagonal(self):
        mats = list(enumerate_matrices(F3, 3, 3))
        diagonals = {_diagonal(F3, _krylov_key(a)) for a in mats}
        assert len(diagonals) == 3**3 * 2**2  # q^n 2^(n-1): every diagonal occurs
        conjugacy._relation_key.cache_clear()
        conjugacy._diagonal_key.cache_clear()
        assert len({class_key(a) for a in mats}) == 35
        info = conjugacy._diagonal_key.cache_info()
        assert (info.misses, info.hits, info.currsize) == (108, 1080 - 108, 108)


def _chain_by_powers(a):
    """core_chain as it was first written, the oracle for the route that
    reuses core_decomposition: every projector e_0 .. e_{t+1} from the
    powers of a (along a pivot completion of Im(a^i) for i < t, along
    ker(a^i) from t on), every step e_i a e_{i-1} as a product."""
    f, n = a.field, a.rows
    t = core_decomposition(a).t
    powers = [identity_matrix(f, n)]
    for _ in range(t + 1):
        powers.append(powers[-1] * a)
    projs = []
    for i, ai in enumerate(powers):
        img = mat_image(ai)
        if img.dim == n:
            projs.append(powers[0])
        else:
            comp = mat_kernel(ai) if i >= t else standard_complement(img)
            projs.append(projection_idempotent(img, comp))
    steps = [projs[i] * a * projs[i - 1] for i in range(1, t + 2)]
    witnesses = [(projs[i + 1], steps[i]) for i in range(len(steps) - 1)]
    while len(steps) >= 2 and steps[-1] == steps[-2]:
        steps.pop()
        witnesses.pop()
    return ConjugacyChain(source=a, steps=tuple(steps), witnesses=tuple(witnesses))


class TestChain:
    @pytest.mark.parametrize("f,n,longest", [(F2, 3, 3), (F3, 2, 2)], ids=["M3F2", "M2F3"])
    def test_every_element_matches_the_per_power_route(self, f, n, longest):
        lengths = set()
        for a in enumerate_matrices(f, n, n):
            ch, want = core_chain(a), _chain_by_powers(a)
            assert (ch.steps, ch.witnesses) == (want.steps, want.witnesses), a
            lengths.add(len(ch.steps))
        assert max(lengths) == longest

    @given(square(fields=(F2,), n_min=4, n_max=4))
    @settings(max_examples=120)
    def test_sampled_m4f2_matches_the_per_power_route(self, a):
        ch, want = core_chain(a), _chain_by_powers(a)
        assert (ch.steps, ch.witnesses) == (want.steps, want.witnesses)

    @given(square())
    @settings(max_examples=80)
    def test_chain_replays(self, a):
        ch = core_chain(a)
        assert ch.steps[0] == a
        assert ch.steps[-1] == core(a)
        for i, (u, v) in enumerate(ch.witnesses):
            assert u * v == ch.steps[i]
            assert v * u == ch.steps[i + 1]

    @given(square())
    def test_class_key_constant_along_chain(self, a):
        ch = core_chain(a)
        keys = {class_key(s) for s in ch.steps}
        assert keys == {class_key(a)}


class TestCaches:
    def test_traced_caches_expose_cache_info(self):
        # the perf harness reads hits and misses of these five
        for fn in (gf.invariant_factors, gf.mat_rank, gf.mat_kernel, gf.mat_image, conjugacy.core_decomposition):
            info = fn.cache_info()
            assert info.hits >= 0 and info.misses >= 0, fn

    def test_conjugacy_caches_are_bounded(self):
        assert conjugacy.core_decomposition.cache_info().maxsize == 1024
        assert conjugacy._relation_key.cache_info().maxsize == 8192
        assert conjugacy._diagonal_key.cache_info().maxsize == 4096
        assert gf._vec_tables.cache_info().maxsize == 16

    def test_one_matrix_routes_are_bounded(self):
        for fn in (gf.mat_rank, gf.mat_kernel, gf.mat_image, gf.invariant_factors):
            assert fn.cache_info().maxsize == 1024, fn


class TestRelation:
    @given(square())
    def test_reflexive(self, a):
        assert semigroup_conjugate(a, a)

    @given(square(), st.data())
    @settings(max_examples=80)
    def test_products_both_ways_conjugate(self, a, data):
        f, n = a.field, a.rows
        codes = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n * n, max_size=n * n))
        b = matrix(f, [codes[i * n : (i + 1) * n] for i in range(n)])
        assert semigroup_conjugate(a * b, b * a)
        assert class_key(a * b) == class_key(b * a)

    def test_similar_cores_decide(self):
        amb = ambient(F2, 2)
        for x in (1, 3, 6, 10):
            for y in (2, 7, 12, 15):
                a, b = amb.s.elements[x], amb.s.elements[y]
                assert semigroup_conjugate(a, b) == similar(core(a), core(b))


class TestClasses:
    @pytest.mark.parametrize("f,n", [(F2, 2), (F3, 2)])
    def test_theorem_equals_brute(self, f, n):
        assert sg_classes(f, n, "theorem").classes() == sg_classes(f, n, "brute").classes()

    @pytest.mark.parametrize(
        "p,k,n",
        [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 3, 2), (2, 1, 3)],
        ids=["M2F2", "M2F3", "M2F4", "M2F5", "M2F7", "M2F8", "M3F2"],
    )
    def test_one_triangle_marks_the_pairs_of_the_whole_grid(self, p, k, n):
        grid = ambient(field_make(p, k), n).grid
        assert np.array_equal(conjugacy._primary_pair_keys(grid), primary_pair_keys_full(grid))

    def test_classes_are_key_level_sets(self):
        amb = ambient(F2, 2)
        part = sg_classes(F2, 2)
        for c in part.classes():
            keys = {class_key(amb.s.elements[x]) for x in c}
            assert len(keys) == 1

    def test_identity_class_is_central_units(self):
        # the identity is alone in its class iff it is alone with its key
        amb = ambient(F2, 2)
        part = sg_classes(F2, 2)
        ident = amb.identity_id
        cls = next(c for c in part.classes() if ident in c)
        assert cls == (ident,)
