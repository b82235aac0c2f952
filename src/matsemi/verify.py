"""End-to-end verification battery.

Thirteen numbered criteria, each an independent pass/fail check with a
witness on failure.  The quick profile keeps every ambient at or below the
512-element M(3, F_2); the full profile widens the conjugacy oracle to
q = 4 and adds two extra items (q = 5, and spot checks in the 65536-element
M(4, F_2), which never builds a product grid).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, wraps
from time import perf_counter

import numpy as np

from .conjugacy import class_key, core_chain, sg_classes
from .engine import ambient, table_iso
from .errors import MatSemiError, PreconditionViolated
from .flags import (
    all_flags,
    consolidates,
    flag_semigroup,
    flag_semigroups,
    flags_with_signature,
    format_flag,
    lowering_mask,
    standard_flag,
)
from .gf import (
    Matrix,
    all_codes,
    code_keys,
    enumerate_matrices,
    field_make,
    format_matrix,
    invariant_factors,
    mat_image,
    mat_kernel,
    mat_pow,
    prime_power,
)
from .isolated import enumerate_isolated, ideal_generated_by_stratum
from .nilclass import (
    annihilator_census,
    batch_transport,
    depth_sets,
    fingerprint,
    nil_context,
    nil_contexts,
    u_stat,
)

CLASS_PAIRS_QUICK = ((2, 2), (2, 3), (3, 2))
CLASS_PAIRS = CLASS_PAIRS_QUICK + ((2, 4),)

# criterion 15's seeded samples of M(4, F_2): product pairs, replayed chains
SAMPLE_PAIRS = 50_000
CHAIN_SAMPLE = 512

# frozen fingerprint entries for the three standard width-4 contexts
TRIO_EXPECT = {
    (1, 1, 2): {"size": 32, "power_2": 4, "right_ann": 8, "left_ann": 16, "u_2": 1},
    (1, 2, 1): {"size": 32, "power_2": 2, "right_ann": 8, "left_ann": 8, "u_2": 2},
    (2, 1, 1): {"size": 32, "power_2": 4, "right_ann": 16, "left_ann": 8, "u_2": 1},
}


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    details: tuple[tuple[str, object], ...]
    witness: str | None
    elapsed_ms: float


# key -> (title, full-profile only, criterion), filled by _criterion at each
# definition; run takes the entries in key order
_REGISTRY: dict = {}


def _criterion(key: str, title: str, full: bool = False):
    """Register a check as battery criterion `key`.  The check returns
    (details, witness), witness None when it passes; the registered
    criterion returns them as a timed CriterionResult."""

    def register(check):
        @wraps(check)
        def criterion(*args, **kwargs) -> CriterionResult:
            t0 = perf_counter()
            details, witness = check(*args, **kwargs)
            elapsed_ms = (perf_counter() - t0) * 1000.0
            return CriterionResult(key, title, witness is None, tuple(details), witness, elapsed_ms)

        _REGISTRY[key] = (title, full, criterion)
        return criterion

    return register


@lru_cache(maxsize=1)
def _trio_and_cube():
    """The standard contexts of TRIO_EXPECT's signatures, then those of
    every F_2^3 flag of length >= 2: what criterion 09 reads, built by
    signature groups and shared with the battery."""
    f2 = field_make(2)
    cube = [f for f in all_flags(f2, 3) if f.length >= 2]
    return tuple(nil_contexts([*(standard_flag(f2, sig) for sig in TRIO_EXPECT), *cube]))


@lru_cache(maxsize=1)
def _battery():
    """The forty standing contexts: every F_2^3 flag of length >= 2, the
    four standard signatures of F_2^4, and the width-one (2,1,2) middle."""
    f2 = field_make(2)
    shared, k = _trio_and_cube(), len(TRIO_EXPECT)
    return (*shared[k:], *shared[:k], *nil_contexts([standard_flag(f2, (1, 1, 1, 1)), standard_flag(f2, (2, 1, 2))]))


# ---------------------------------------------------------------------------
# criteria


@_criterion("01", "conjugacy classes: structural method matches brute closure")
def criterion_01(pairs=CLASS_PAIRS):
    details, witness = [], None
    for n, q in pairs:
        f = field_make(*prime_power(q))
        left = sg_classes(f, n, method="theorem").classes()
        right = sg_classes(f, n, method="brute").classes()
        details.append((f"classes_n{n}_q{q}", len(left)))
        if left != right and witness is None:
            bad = next(c for c, d in zip(left, right) if c != d)
            witness = (
                f"n={n} q={q}: structural and brute partitions differ; "
                f"first structural class off: {sorted(bad)[:6]}"
            )
    details.append(("agree", witness is None))
    return details, witness


@_criterion("02", "M(2,F2) class census")
def criterion_02():
    f2 = field_make(2)
    amb = ambient(f2, 2)
    witness = None
    sizes = {}
    for method in ("theorem", "brute"):
        part = sg_classes(f2, 2, method=method)
        cls = part.classes()
        sizes[method] = tuple(sorted(len(c) for c in cls))
        nil_ids = [x for x in range(amb.m) if amb.nilpotent[x]]
        zero_root = part.find(amb.zero_id)
        if len(cls) != 5 or sizes[method] != (1, 2, 3, 4, 6):
            witness = f"{method}: {len(cls)} classes with sizes {sizes[method]}"
        elif len(nil_ids) != 4 or any(part.find(x) != zero_root for x in nil_ids):
            witness = f"{method}: nilpotents {nil_ids} do not all share the class of 0"
    details = [
        ("count", 5),
        ("sizes", sizes["theorem"]),
        ("nilpotent_count", 4),
        ("nilpotents_with_zero", witness is None),
    ]
    return details, witness


@_criterion("03", "flag semigroup size law")
def criterion_03():
    witness = None
    checked = 0
    for n, q in itertools.product((2, 3, 4), (2, 3)):
        f = field_make(q)
        full = all_codes(f, n) if n <= 3 else None  # the ambient scan
        for fl in (fl for m in range(1, n) for fl in flags_with_signature(f, n, (m, n - m))):
            s = flag_semigroup(fl)
            checked += 1
            expect = q ** (fl.signature[0] * fl.signature[1])
            scan = expect if full is None else int(lowering_mask(fl, full).sum())
            if len(s) != expect:
                witness = f"{format_flag(fl)} over F_{q}: {len(s)} != {expect}"
            elif not lowering_mask(fl, s.codes).all():
                witness = f"{format_flag(fl)} over F_{q}: enumerated element fails the predicate"
            elif scan != expect:
                witness = f"{format_flag(fl)} over F_{q}: ambient scan {scan} != {expect}"
            if witness:
                break
        if witness:
            break
    details = [("flags_checked", checked), ("size_law", witness is None)]
    return details, witness


def round_one_refuted(grid: np.ndarray, nil: np.ndarray, member: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Mask over the nilpotent escapes xs of a set of nilpotent ids
    `member`: true where some product of two elements of member ∪ {x} is
    not nilpotent (nil is the per-id nilpotent flag).

    It drops only escapes that words_vanish would reject for any length r:
    if a product t x is not nilpotent, then (t x)^r != 0, so its first r
    letters already form a nonzero word.  A product inside member * member
    refutes every x.  Of the products with x, member * x decides alone:
    x * x is nilpotent with x, and x t is nilpotent exactly when t x is, as
    (x t)^(k+1) = x (t x)^k t.  So one gather tests every escape.
    """
    if not nil[grid[np.ix_(member, member)]].all():
        return np.ones(len(xs), dtype=bool)
    return ~nil[grid[np.ix_(member, xs)]].all(axis=0)


def words_vanish(grid: np.ndarray, member: np.ndarray, xs: np.ndarray, r: int, zero_id: int) -> np.ndarray:
    """Mask over the escapes xs of a set of ids `member`: true where every
    word of length r over member ∪ {x} is zero, that is, where the closure
    C = <member ∪ {x}> is nilpotent of degree at most r.

    Write G = member ∪ {x}.  nd(C) <= r holds exactly when C^r = {0}, and
    C^r = {0} exactly when G^r = {0}: G^r lies in C^r, and an r-fold
    product of elements of C is a product of at least r generators, whose
    first r factors already give 0.  An x whose closure would leave the
    nilpotents has G^r != {0} too, so the mask needs no closure at all.

    Each escape gets a row of letters, member then x, and r - 1 gathers
    extend every word of the row by every letter: k escapes cost
    k (|member| + 1)^r ids.
    """
    letters = np.concatenate([np.broadcast_to(member, (len(xs), len(member))), xs[:, None]], axis=1)
    words = letters
    for _ in range(r - 1):
        words = grid[words[:, :, None], letters[:, None, :]].reshape(len(xs), words.shape[1] * letters.shape[1])
    return (words == zero_id).all(axis=1)


@_criterion("04", "flag semigroups are maximal nilpotent")
def criterion_04():
    """Every flag semigroup T of F_2^3 is maximal among the nilpotent
    subsemigroups of degree at most its length r: no nilpotent x outside T
    has <T ∪ {x}> nilpotent of degree <= r.  A non-nilpotent x breaks
    nilpotency itself; round_one_refuted drops the escapes whose products
    with T already leave the nilpotents, and words_vanish decides the rest."""
    f2 = field_make(2)
    amb = ambient(f2, 3)
    nil = np.array(amb.nilpotent)
    witness = None
    escapes = 0
    flags = all_flags(f2, 3)
    for fl, sg in zip(flags, flag_semigroups(flags)):
        member = np.sort(amb.s.key_index.find(sg.codes)[0])
        nil_outside = nil.copy()
        nil_outside[member] = False
        escapes += amb.m - len(member)
        xs = np.flatnonzero(nil_outside)
        xs = xs[~round_one_refuted(amb.grid, nil, member, xs)]
        hits = xs[words_vanish(amb.grid, member, xs, fl.length, amb.zero_id)]
        if len(hits):
            witness = (
                f"{format_flag(fl)} + {format_matrix(amb.s.elements[hits[0]])}: closure stays "
                f"nilpotent of degree <= {fl.length}"
            )
            break
    details = [("flags", len(flags)), ("escapes_checked", escapes), ("all_blocked", witness is None)]
    return details, witness


@_criterion("05", "consolidation matches containment")
def criterion_05():
    """consolidates against element-set containment for every ordered pair
    of F_2^3 flags.  The containments come from one 0/1 incidence matrix
    of the sets over the ambient's code keys: entry (j, i) of
    inc (1 - inc)^T counts the elements of S(F_j) outside S(F_i), so
    S(F_j) ⊆ S(F_i) exactly when it is zero."""
    f2, n = field_make(2), 3
    flags = all_flags(f2, n)
    inc = np.zeros((len(flags), f2.q ** (n * n)), dtype=np.int64)
    for i, sg in enumerate(flag_semigroups(flags)):
        inc[i, code_keys(f2, sg.codes)] = 1
    contained = inc @ (1 - inc).T == 0
    witness = None
    pairs = 0
    for i, f1 in enumerate(flags):
        for j, f2_ in enumerate(flags):
            pairs += 1
            if consolidates(f1, f2_) != contained[j, i]:
                witness = f"{format_flag(f1)} vs {format_flag(f2_)}: consolidation and containment disagree"
                break
        if witness:
            break
    details = [("ordered_pairs", pairs), ("biconditional", witness is None)]
    return details, witness


@_criterion("06", "divisibility preorders: product and subspace routes agree")
def criterion_06():
    """Each context's product-route preorder matrices against its subspace
    ones; a split names the first differing pair in row-major order, prec
    before ll at that pair."""
    witness = None
    pairs = 0
    battery = _battery()
    for ctx in battery:
        split_prec = ctx.prec_products != ctx.prec_kernels
        split = split_prec | (ctx.ll_products != ctx.ll_images)
        if split.any():
            first = int(np.argmax(split))
            a, b = (ctx.t.elements[i] for i in divmod(first, ctx.m))
            which = "prec" if split_prec.flat[first] else "ll"
            witness = f"{which} routes split on sig {ctx.sig}: {format_matrix(a)} vs {format_matrix(b)}"
            pairs += first + 1
            break
        pairs += ctx.m * ctx.m
        # depth_sets cross-checks dimension depths against order depths
        depth_sets(ctx, "prec", 0)
        depth_sets(ctx, "ll", 0)
    details = [("contexts", len(battery)), ("pairs", pairs), ("routes_agree", witness is None)]
    return details, witness


@_criterion("07", "super rank equals rank on decomposables")
def criterion_07():
    """Super rank equals rank on every nonzero decomposable of the battery,
    read off each context's super-rank array and its table's ranks; a
    super rank of 0 is undefined and breaks the law."""
    witness = None
    checked = 0
    for ctx in _battery():
        nonzero = ctx.decomposable.copy()
        nonzero[ctx.table.zero_id] = False
        ids = np.flatnonzero(nonzero)
        broken = np.flatnonzero(ctx.super_ranks[ids] != ctx.table.ranks[ids])
        if len(broken):
            x = int(ids[broken[0]])
            checked += int(broken[0]) + 1
            sr = int(ctx.super_ranks[x]) or None
            witness = f"sig {ctx.sig}, {format_matrix(ctx.t.elements[x])}: super rank {sr} != rank {ctx.table.ranks[x]}"
            break
        checked += len(ids)
    details = [("contexts", len(_battery())), ("decomposables_checked", checked), ("law_holds", witness is None)]
    return details, witness


@_criterion("08", "covering statistic recovers the signature")
def criterion_08():
    witness = None
    checked = 0
    for ctx in _battery():
        for s in range(2, ctx.r):
            checked += 1
            u, _cert = u_stat(ctx, s)
            if u != ctx.sig[s - 1]:
                witness = f"sig {ctx.sig}, position {s}: u = {u} != {ctx.sig[s - 1]}"
                break
        if witness:
            break
    details = [("positions_checked", checked), ("all_equal", witness is None)]
    return details, witness


@_criterion("09", "fingerprints separate; equal signatures transport")
def criterion_09():
    witness = None
    built = _trio_and_cube()
    ctxs = dict(zip(TRIO_EXPECT, built))
    trio = {}
    for sig, ctx in ctxs.items():
        trio[sig] = dict(fingerprint(ctx).items())
        for key, want in TRIO_EXPECT[sig].items():
            got = trio[sig][key]
            if got != want:
                witness = f"sig {sig}: fingerprint {key} = {got}, expected {want}"
    prints = [tuple(sorted(d.items())) for d in trio.values()]
    if witness is None and len(set(prints)) != 3:
        witness = "width-4 fingerprints are not pairwise distinct"

    # equal signatures over a common ambient: transport every ordered pair
    verified = 0
    if witness is None:
        by_sig: dict = {}
        for ctx in built[len(ctxs) :]:
            by_sig.setdefault(ctx.sig, []).append(ctx)
        for group in by_sig.values():
            batch_transport(group, group)  # raises if a transport breaks
            verified += len(group) ** 2

    # one cross-signature pair of equal size: the table search must refuse
    refusal = None
    if witness is None:
        refusal = table_iso(ctxs[1, 1, 2].table, ctxs[1, 2, 1].table) is None
        if not refusal:
            witness = "32-element tables of signatures (1,1,2) and (1,2,1) reported isomorphic"
    details = [
        ("trio_distinct", witness is None),
        ("iso_pairs_verified", verified),
        ("cross_sig_refusal", bool(refusal)),
    ]
    return details, witness


@_criterion("10", "annihilator census of the width-one middle context")
def criterion_10():
    ctx = nil_context(standard_flag(field_make(2), (2, 1, 2)))
    census = dict(annihilator_census(ctx))
    expect = {
        "two_sided_ann": 16,
        "decomposable_in_ann": 10,
        "rank_le_one_corner": 10,
        "geometric_shortcut": 8,
        "expected_mismatch": True,
        "right_ann": 64,
        "right_ann_closed_form": 64,
        "right_ann_matches": True,
    }
    witness = None
    for key, want in expect.items():
        if census[key] != want:
            witness = f"census {key} = {census[key]}, expected {want}"
            break
    details = [(k, v if not isinstance(v, tuple) else list(v)) for k, v in census.items()]
    return details, witness


@_criterion("11", "rank strata generate the ideals")
def criterion_11():
    witness = None
    details = []
    for n, q in ((2, 2), (2, 3), (3, 2)):
        f = field_make(q)
        for k in range(1, n):
            try:
                gen = ideal_generated_by_stratum(f, n, k)
            except MatSemiError as exc:
                witness = f"n={n} q={q} k={k}: {exc}"
                break
            details.append((f"ideal_n{n}_q{q}_k{k}", len(gen)))
            if n == 3 and q == 2 and k == 2 and len(gen) != 344:
                witness = f"|closure of the rank-2 stratum in M(3,F2)| = {len(gen)} != 344"
                break
        if witness:
            break
    details.append(("all_match", witness is None))
    return details, witness


@_criterion("12", "isolated subsemigroup classification")
def criterion_12():
    f2, f3 = field_make(2), field_make(3)
    witness = None
    recs2 = enumerate_isolated(f2, 2, mode="exhaustive")
    kinds = sorted(r.kind for r in recs2)
    complete = sorted(r.kind for r in recs2 if r.completely_isolated)
    if len(recs2) != 15 or kinds.count("SAB") != 12:
        witness = f"M(2,F2): {len(recs2)} isolated records with kinds {kinds}"
    elif complete != ["GL", "I", "M"]:
        witness = f"M(2,F2): completely isolated kinds {complete} != [GL, I, M]"
    recs3 = ()
    if witness is None:
        recs3 = enumerate_isolated(f3, 2, mode="theorem_list")  # each record re-verified
        if len(recs3) != 53:
            witness = f"M(2,F3): theorem list has {len(recs3)} records, expected 53"
    details = [
        ("f2_isolated", len(recs2)),
        ("f2_completely_isolated", 3),
        ("f3_isolated", len(recs3)),
        ("sound", witness is None),
    ]
    return details, witness


DETERMINISM_COMMANDS = (
    ("classes", "--field", "2", "--n", "2", "--check", "brute"),
    ("classes", "--field", "3", "--n", "2", "--check", "brute"),
    ("flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2"),
    ("nil", "fingerprint", "--field", "2", "--n", "4", "--sig", "1,1,2"),
    ("isolated", "enum", "--field", "2", "--n", "2"),
)


@_criterion("13", "reports are byte-reproducible")
def criterion_13():
    """Each command renders twice in json and csv; the second run sees warm
    caches, and its bytes must equal the first's."""
    from .cli import run_command

    witness = None
    compared = 0
    for argv in DETERMINISM_COMMANDS:
        for fmt in ("json", "csv"):
            (text, code), again = (run_command([*argv, "--format", fmt]) for _ in range(2))
            if code != 0:
                witness = f"{' '.join(argv)} --format {fmt}: exit {code}"
            elif again != (text, code):
                witness = f"{' '.join(argv)} --format {fmt}: reports differ between two runs"
            if witness:
                break
        if witness:
            break
        compared += 1
    details = [("commands", compared), ("byte_identical", witness is None)]
    return details, witness


# ---------------------------------------------------------------------------
# full-profile extras


@_criterion("14", "conjugacy oracle at q=5", full=True)
def extra_classes_q5():
    f5 = field_make(5)
    left = sg_classes(f5, 2, method="theorem").classes()
    right = sg_classes(f5, 2, method="brute").classes()
    witness = None if left == right else "structural and brute partitions differ on M(2,F5)"
    details = [("classes_n2_q5", len(left)), ("agree", witness is None)]
    return details, witness


def _is_core(c: Matrix, a: Matrix) -> bool:
    """c is the core of a by the core's definition, read without
    core_decomposition: c agrees with a on the stable image Im(a^n) and
    vanishes on the stable kernel Ker(a^n), which together span F^n."""
    n, p = a.rows, mat_pow(a, a.rows)

    def columns(space):
        return Matrix(a.field, n, space.dim, tuple(v[i] for i in range(n) for v in space.basis))

    image, kernel = columns(mat_image(p)), columns(mat_kernel(p))
    return c * image == a * image and not any((c * kernel).codes)


@_criterion("15", "large ambient spot checks (n=4, q=2)", full=True)
def extra_large_ambient():
    """Spot checks in M(4, F_2) without a product grid (65536 elements).

    Exhaustive pair verification is out of reach (4.3e9 product pairs), so
    this item checks (a) the class map over every element, (b) the law
    key(xy) = key(yx) on a seeded random pair sample, and (c) replayed
    conjugation chains down to the core on a seeded element sample.
    """
    f2 = field_make(2)
    mats = list(enumerate_matrices(f2, 4, 4))
    keys = {class_key(a) for a in mats}
    witness = None
    rng = random.Random(20260814)
    for _ in range(SAMPLE_PAIRS):
        x = mats[rng.randrange(len(mats))]
        y = mats[rng.randrange(len(mats))]
        if class_key(x * y) != class_key(y * x):
            witness = f"key(xy) != key(yx) for x={format_matrix(x)} y={format_matrix(y)}"
            break
    chains = 0
    if witness is None:
        for _ in range(CHAIN_SAMPLE):
            a = mats[rng.randrange(len(mats))]
            ch = core_chain(a)  # replays every step witness on construction
            if not _is_core(ch.steps[-1], a) or invariant_factors(ch.steps[-1]) != class_key(a):
                witness = f"chain from {format_matrix(a)} does not land in the class of the core"
                break
            chains += 1
    details = [
        ("elements", len(mats)),
        ("class_count", len(keys)),
        ("sampled_pairs", SAMPLE_PAIRS),
        ("commute_law", witness is None),
        ("chains_replayed", chains),
    ]
    return details, witness


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class VerifyReport:
    profile: str
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run(profile: str = "quick") -> VerifyReport:
    if profile not in ("quick", "full"):
        raise PreconditionViolated(f"unknown profile {profile!r}")
    results = []
    for key, (title, full, fn) in sorted(_REGISTRY.items()):
        if full and profile != "full":
            continue
        kwargs = {}
        if key == "01":
            kwargs["pairs"] = CLASS_PAIRS if profile == "full" else CLASS_PAIRS_QUICK
        t0 = perf_counter()
        try:
            res = fn(**kwargs)
        except MatSemiError as exc:
            res = CriterionResult(
                key=key,
                title=title,
                passed=False,
                details=(),
                witness=f"{type(exc).__name__}: {exc}",
                elapsed_ms=(perf_counter() - t0) * 1000.0,
            )
        results.append(res)
    return VerifyReport(profile=profile, results=tuple(results))
