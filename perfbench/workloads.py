"""The benchmark's workloads: fixed job lists, their frozen outputs, and the
seeded element-query stream.

A job is a JSON-serialisable dict that ``worker.py`` runs in a fresh
interpreter. Its ``kind`` is one of

- ``cli``: ``matsemi.cli.run_command(argv + ["--format", "json"])``;
- ``criterion``: one ``matsemi.verify.criterion_NN()``;
- ``flag_sizes``: criterion 3's size law on the flags of given signatures;
- ``sweep``: ``class_key`` over every element of ``M(n, F_q)``;
- ``queries``: the seeded query stream of ``query_stream`` below.

``gate(job, output)`` compares what a worker returned with the frozen
outputs, which were recorded from the library at the commit that added the
benchmark. Reports must stay byte-identical, so a CLI job is checked by the
exit code and the sha256 of its report.
"""

from __future__ import annotations

import hashlib
import json
import random


def _cli(name, argv, exit_code, sha256, **result):
    """A CLI job; ``result`` holds frozen fields of the report's result."""
    return {"kind": "cli", "name": name, "argv": argv, "exit": exit_code, "sha256": sha256, "result": result}


def _criterion(name, details):
    return {"kind": "criterion", "name": name, "details": details}


# M(2, F_5) has 29 classes, M(2, F_4) 19 and M(3, F_2) 11, as the closed form
# sum_r c(r, q) over the class numbers of GL(r, q) (Feit & Fine) gives.
AMBIENT_GRID = [
    _cli(
        "classes-5-2-brute",
        ["classes", "--field", "5", "--n", "2", "--check", "brute"],
        0,
        "a81feb3dd3c4ecdc62b5eeb4b1f7181ad41917537a607167aad4ce3d4eec00bf",
        count=29,
    ),
    _cli(
        "classes-4-2-brute",
        ["classes", "--field", "2^2", "--n", "2", "--check", "brute"],
        0,
        "13658a254c9922b85b809ee6e047915b5e16ba27801b9df7384309c72e1f43f9",
        count=19,
    ),
    _cli(
        "classes-2-3-brute",
        ["classes", "--field", "2", "--n", "3", "--check", "brute"],
        0,
        "dcbcb9180259b372a23a9cf1fdbff5bbaa0ab00505138694e943b43bbf655d7b",
        count=11,
    ),
    _cli(
        "isolated-5-2-theorem",
        ["isolated", "enum", "--field", "5", "--n", "2", "--mode", "theorem_list"],
        0,
        "74292a1742a9354360551bf7c4afcfba8bfed3f8334df987ecaa9c98978dbf8f",
        count=605,
    ),
    _cli(
        "isolated-2-2-exhaustive",
        ["isolated", "enum", "--field", "2", "--n", "2"],
        0,
        "664379b7907264c514877614c4f53e2637c96d165ab4a2b866ed646cb8bf7e40",
        count=15,
    ),
    # The generic GF(p^k) closure path, then the prime one; 344 is a frozen
    # number of criterion 11.
    _cli(
        "ideal-4-2-k1",
        ["ideal", "gen", "--field", "2^2", "--n", "2", "--k", "1"],
        0,
        "073a6f25f7ba0f37a44792d274faaf10edd05d5e2cc51cda49f5b5d5f62181e7",
        closure_size=76,
    ),
    _cli(
        "ideal-2-3-k2",
        ["ideal", "gen", "--field", "2", "--n", "3", "--k", "2"],
        0,
        "a5fefe4f05d8fc7ba67a1690c63b1751ec69b5176cb9f308bcc2fa76cf6f9e54",
        closure_size=344,
    ),
    # closure_ids inside the M(3, F_2) grid
    _criterion("criterion_04", [["flags", 36], ["escapes_checked", 18207], ["all_blocked", True]]),
    # Over the subsemigroup scan cap: the correct outcome is a refusal.
    _cli(
        "isolated-3-2-over-cap",
        ["isolated", "enum", "--field", "3", "--n", "2"],
        3,
        "4008dea9f881d39dabfd6b3a975012531cfdabbad2208864d72dda0476585a63",
    ),
]

FLAG_INVARIANTS = [
    # criterion 3's size law without its scan of M(3, F_3), which takes
    # most of that criterion's time: 15 + 35 + 15 + 13 + 13 + 40 flags.
    {
        "kind": "flag_sizes",
        "name": "flag-sizes",
        "signatures": [[2, 4, 1], [2, 4, 2], [2, 4, 3], [3, 3, 1], [3, 3, 2], [3, 4, 1]],
        "flags": 131,
    },
    _criterion("criterion_05", [["ordered_pairs", 1296], ["biconditional", True]]),
    _criterion("criterion_06", [["contexts", 40], ["pairs", 74272], ["routes_agree", True]]),
    _criterion("criterion_09", [["trio_distinct", True], ["iso_pairs_verified", 539], ["cross_sig_refusal", True]]),
    _cli(
        "fingerprint-4-4-1.3",
        ["nil", "fingerprint", "--field", "2^2", "--n", "4", "--sig", "1,3"],
        0,
        "c6006fc060899c6324819372a05fc32e2e7da0a6ac94dfba435196dd135cbe1a",
    ),
    _cli(
        "fingerprint-3-4-1.2.1",
        ["nil", "fingerprint", "--field", "3", "--n", "4", "--sig", "1,2,1"],
        0,
        "d6900f03d26985a2e0ee4f648ea49cf329adb422e41cd7768086fd1fe3dd48ca",
    ),
    _cli(
        "iso-construct-3-4",
        ["nil", "iso-construct", "--field", "3", "--n", "4", "--sig1", "1,2,1", "--flag2", "0,1,0,0|0,1,0,0;0,0,1,0;1,0,0,0"],
        0,
        "b105e8c9d8f1954bcd22e0977a9cb4ca282b73de7038c8969d8200c61afadc17",
    ),
]

# M(3, F_3) has 35 classes; the sizes are the class-size multiset.
SWEEP = {
    "kind": "sweep",
    "name": "sweep-class-key-3-3",
    "p": 3,
    "k": 1,
    "n": 3,
    "keys": 35,
    "sizes": [1, 1, 104, 104, 117, 117, 117, 117, 432, 432, 432, 432, 432, 432, 432, 432, 624, 624,
              702, 702, 702, 702, 702, 702, 702, 702, 702, 729, 936, 936, 936, 936, 1053, 1053, 1404],
}

QUERIES = {
    "kind": "queries",
    "name": "queries-4-2-and-3-5",
    "ambients": [[2, 1, 4], [5, 1, 3]],
    "per_ambient": 1000,
    "pool": 256,
}

# The two phases use separate fields, so they share no cache entries.
ELEMENT_QUERIES = [SWEEP, QUERIES]

WORKLOADS = {
    "ambient-grid": AMBIENT_GRID,
    "flag-invariants": FLAG_INVARIANTS,
    "element-queries": ELEMENT_QUERIES,
}


def query_stream(seed: int, q: int, n: int, count: int, pool_size: int):
    """``count`` queries on ``M(n, F_q)`` as ``(kind, x, y)`` with matrices
    given by their row-major entry codes.

    Half of the queries draw their operands from a fixed pool of
    ``pool_size`` matrices with Zipf-like weights ``1 / (i + 1)``, so the
    library caches see repeated keys; the other half draw fresh uniform
    matrices. ``kind`` is ``key`` (``class_key(xy) == class_key(yx)``),
    ``chain`` (``core_chain(x)`` ends at ``core(x)``) or ``conj``
    (``semigroup_conjugate(xy, yx)``); each answer must be true.
    """
    rng = random.Random(f"{seed}:{q}:{n}")

    def fresh():
        return tuple(rng.randrange(q) for _ in range(n * n))

    pool = [fresh() for _ in range(pool_size)]
    weights = [1.0 / (i + 1) for i in range(pool_size)]
    out = []
    for _ in range(count):
        kind = rng.choice(("key", "chain", "conj"))
        if rng.random() < 0.5:
            x, y = rng.choices(pool, weights, k=2)
        else:
            x, y = fresh(), fresh()
        out.append((kind, x, y))
    return out


def _normal(value):
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(value))


def gate(job: dict, out: dict) -> list[str]:
    """Every way ``out`` differs from the frozen output of ``job``."""
    kind = job["kind"]
    if "error" in out:
        return [f"{job['name']}: {out['error']}"]
    bad = []
    if kind == "cli":
        text = out["text"]
        if out["exit"] != job["exit"]:
            bad.append(f"exit {out['exit']} != {job['exit']}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != job["sha256"]:
            bad.append(f"report sha256 {digest} != {job['sha256']}")
        if job["result"]:
            try:
                got = json.loads(text)["result"]
            except (ValueError, KeyError):
                got = {}
            for key, want in job["result"].items():
                if got.get(key) != want:
                    bad.append(f"{key} {got.get(key)} != {want}")
    elif kind == "criterion":
        if not out["passed"]:
            bad.append("criterion failed")
        if _normal(out["details"]) != _normal(job["details"]):
            bad.append(f"details {out['details']} != {job['details']}")
    elif kind == "flag_sizes":
        if out["flags"] != job["flags"]:
            bad.append(f"{out['flags']} flags != {job['flags']}")
        bad.extend(f"size law fails on {fl}" for fl in out["wrong"])
    elif kind == "sweep":
        if out["keys"] != job["keys"]:
            bad.append(f"{out['keys']} keys != {job['keys']}")
        if out["sizes"] != job["sizes"]:
            bad.append("class-size multiset differs")
    elif kind == "queries":
        bad.extend(out["wrong"])
    return [f"{job['name']}: {b}" for b in bad]
