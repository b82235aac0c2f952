"""Command line interface.

Every subcommand assembles one report (a nested dict with fixed key order)
and renders it as json, csv, or text.  json and csv are deterministic down
to the byte, with timing_ms pinned to null; the text format is for humans
and carries real wall times.

csv rows are `path,value` with the value as the unsplit tail of the line,
so values may themselves contain commas (matrix text does); parse with
split(",", 1).

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from time import perf_counter

from . import __version__
from .conjugacy import class_key, core_chain, core_decomposition, sg_classes
from .engine import ambient, mat_set
from .errors import (
    BadDimension,
    BadSignature,
    CapExceeded,
    ConflictingOptions,
    DimMismatch,
    InternalError,
    MatSemiError,
    OutputNotWritable,
    VerificationFailed,
)
from .flags import (
    PHI_CAP,
    _is_k_maximal,
    _nil_table,
    _power_image_flag,
    flag_semigroup,
    format_flag,
    parse_flag,
    standard_flag,
)
from .flags import consolidates as flag_consolidates
from .gf import (
    format_field,
    format_matrix,
    format_poly,
    format_subspace,
    parse_field,
    parse_matrix,
)
from .isolated import (
    enumerate_isolated,
    ideal,
    ideal_absorption_check,
    ideal_generated_by_stratum,
    is_completely_isolated,
    is_isolated,
    rank_stratum,
)
from .nilclass import (
    annihilator_census,
    fingerprint,
    iso_construct,
    iso_decide,
    nil_context,
    nil_contexts,
)

ELEMENT_LISTING_LIMIT = 512


# the options commands share, in the order of the help listings; each entry
# of _COMMANDS names the ones its command takes
_COMMON = (
    ("--field", {"required": True, "help": "field size p or p^k"}),
    ("--n", {"required": True, "type": int, "help": "ambient matrix dimension"}),
    ("--format", {"choices": ("json", "csv", "text"), "default": "text"}),
    ("--max-elems", {"type": int, "default": None, "help": "element cap for the flag semigroup"}),
    ("--out", {"default": None}),
)
_PLAIN = ("--field", "--n", "--format", "--out")
_CAPPED = (*_PLAIN, "--max-elems")  # the commands that build flag semigroups
_FIELDLESS = ("--format", "--out")


_GROUPS = {
    "flags": "flags and their nilpotent semigroups",
    "nil": "structure of one flag semigroup",
    "isolated": "isolated subsemigroups of the full semigroup",
    "ideal": "two-sided ideals by rank",
    "verify": "run the verification battery",
}


def _options(path: str):
    """(flag, add_argument keywords) of every option of the command path,
    in the order of its help listing."""
    _, _, common, own = _COMMANDS[path]
    return [option for option in _COMMON if option[0] in common] + own


def _parser() -> argparse.ArgumentParser:
    """The whole argparse tree: it parses what _read declines, and it
    prints help and usage errors."""
    ap = argparse.ArgumentParser(prog="matsemi", description="exact matrix-semigroup structure over small finite fields")
    sub = ap.add_subparsers(dest="cmd", required=True)
    groups = {}
    for cmd, (text, *_) in _COMMANDS.items():
        group, _, leaf = cmd.partition(" ")
        if leaf:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(dest="sub", required=True)
            p = groups[group].add_parser(leaf, help=text)
        else:
            p = sub.add_parser(cmd, help=text)
        for flag, keywords in _options(cmd):
            p.add_argument(flag, **keywords)
        p.set_defaults(path=cmd)
    return ap


def _read(argv) -> argparse.Namespace | None:
    """The namespace the whole tree parses argv to, read straight off the
    option table, or None unless argparse's reading is plain: a command
    path, then each of its options once and in full, store_true flags bare
    and every other one as `--opt value` with a value that does not start
    with "-" and passes the option's type and choices, and every required
    option given.  Building no parser spares gettext its `locale` import."""
    path = next((path for path in _COMMANDS if path.split() == argv[: path.count(" ") + 1]), None)
    if path is None:
        return None
    options = dict(_options(path))
    given = {}
    rest = iter(argv[path.count(" ") + 1 :])
    for flag in rest:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    group, _, leaf = path.partition(" ")
    args = argparse.Namespace(cmd=group, **({"sub": leaf} if leaf else {}), path=path)
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse(argv):
    """Read argv off the option table when it is well formed; anything
    else, help and usage errors included, goes to the whole tree."""
    argv = list(argv)
    args = _read(argv)
    return args if args is not None else _parser().parse_args(argv)


# ---------------------------------------------------------------------------
# helpers


def _field_of(args):
    """Check the dimensions and parse --field: where arguments become
    domain objects.  Returns None for commands without a field."""
    for key in ("n", "n1", "n2", "max_elems"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            raise BadDimension(f"--{key.replace('_', '-')} must be at least 1, got {value}")
    return parse_field(args.field) if hasattr(args, "field") else None


def _sig(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadSignature(f"signature must be comma-separated integers, got {text!r}") from None


def _flag_of(args, field, flag_text, sig_text):
    if (flag_text is None) == (sig_text is None):
        raise ConflictingOptions("give exactly one of --flag and --sig")
    if flag_text is not None:
        return parse_flag(field, args.n, flag_text)
    sig = _sig(sig_text)
    if sum(sig) != args.n:
        raise BadSignature(f"signature {sig} does not sum to --n {args.n}")
    return standard_flag(field, sig)


def _square_matrix(field, n, text):
    a = parse_matrix(field, text)
    if a.rows != n or a.cols != n:
        raise DimMismatch(f"--matrix is {a.rows}x{a.cols}, but --n is {n}")
    return a


def _elements(field, n, text):
    return mat_set(field, n, [parse_matrix(field, t) for t in text.split()])


def _cap(args) -> int:
    return PHI_CAP if args.max_elems is None else args.max_elems


def _ctx(args, field, flag_text, sig_text):
    return nil_context(_flag_of(args, field, flag_text, sig_text), cap=_cap(args))


def _polys(key) -> list[str]:
    return [format_poly(c) for c in key]


# ---------------------------------------------------------------------------
# subcommand payloads


def _do_classes(args, field):
    part = sg_classes(field, args.n, method="theorem")
    cls = part.classes()
    amb = ambient(field, args.n)
    result = {
        "method": "theorem",
        "count": len(cls),
        "sizes": sorted(len(c) for c in cls),
        "classes": [[format_matrix(amb.s.elements[x]) for x in c] for c in cls],
    }
    if args.check == "brute":
        brute = sg_classes(field, args.n, method="brute").classes()
        if brute != cls:
            raise VerificationFailed(
                "structural and brute conjugacy partitions differ",
                evidence={
                    "theorem_count": len(cls),
                    "brute_count": len(brute),
                },
            )
        result["check"] = "brute"
        result["agrees"] = True
    return result


def _do_core(args, field):
    a = _square_matrix(field, args.n, args.matrix)
    dec = core_decomposition(a)
    return {
        "matrix": format_matrix(a),
        "stability_index": dec.t,
        "image": format_subspace(dec.image),
        "kernel": format_subspace(dec.kernel),
        "projector": format_matrix(dec.projector),
        "core": format_matrix(dec.core),
        "class_key": _polys(class_key(a)),
    }


def _do_chain(args, field):
    a = _square_matrix(field, args.n, args.matrix)
    ch = core_chain(a)
    return {
        "matrix": format_matrix(a),
        "steps": [format_matrix(s) for s in ch.steps],
        "witnesses": [[format_matrix(u), format_matrix(v)] for u, v in ch.witnesses],
    }


def _do_flags_phi(args, field):
    fl = _flag_of(args, field, args.flag, args.sig)
    s = flag_semigroup(fl, cap=_cap(args))
    result = {
        "flag": format_flag(fl),
        "signature": list(fl.signature),
        "size": len(s),
    }
    if len(s) <= ELEMENT_LISTING_LIMIT:
        result["elements"] = [format_matrix(a) for a in s]
    else:
        result["elements_omitted"] = True
    return result


def _do_flags_psi(args, field):
    s = _elements(field, args.n, args.elements)
    table, k = _nil_table(s)
    fl = _power_image_flag(table, k)
    return {
        "elements": len(s),
        "nilpotency_degree": k,
        "flag": format_flag(fl),
        "signature": list(fl.signature),
    }


def _do_flags_maximal(args, field):
    s = _elements(field, args.n, args.elements)
    table, k = _nil_table(s)
    return {
        "elements": len(s),
        "nilpotency_degree": k,
        "maximal": _is_k_maximal(table, k),
    }


def _do_flags_consolidation(args, field):
    f1 = parse_flag(field, args.n, args.flag)
    f2 = parse_flag(field, args.n, args.flag2)
    cap = _cap(args)
    cons = flag_consolidates(f1, f2)
    contain = flag_semigroup(f2, cap=cap).issubset(flag_semigroup(f1, cap=cap))
    if cons != contain:
        raise VerificationFailed(
            "consolidation and semigroup containment disagree",
            evidence={"flag": format_flag(f1), "flag2": format_flag(f2)},
        )
    return {"consolidates": cons, "containment": contain}


def _do_nil_fingerprint(args, field):
    ctx = _ctx(args, field, args.flag, args.sig)
    fp = fingerprint(ctx)
    certs = {
        f"u_{s}": [format_matrix(ctx.t.elements[x]) for x in cert]
        for s, cert in enumerate(fp.u_certificates, start=2)
    }
    result = {
        "flag": format_flag(ctx.flag),
        "signature": list(ctx.sig),
        "fingerprint": {k: v for k, v in fp.items()},
        "u_certificates": certs,
    }
    if ctx.r == 3:
        result["census"] = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in annihilator_census(ctx)
        }
    return result


def _do_nil_iso_decide(args, field):
    if args.infinite == (args.q is not None):
        raise ConflictingOptions("give exactly one of --q and --infinite")
    decision = iso_decide(args.q, args.n1, _sig(args.sig1), args.n2, _sig(args.sig2))
    return {
        "q": args.q,
        "n1": args.n1,
        "sig1": list(_sig(args.sig1)),
        "n2": args.n2,
        "sig2": list(_sig(args.sig2)),
        "decision": decision.value,
    }


def _do_nil_iso_construct(args, field):
    f1, f2 = _flag_of(args, field, args.flag1, args.sig1), _flag_of(args, field, args.flag2, args.sig2)
    c1, c2 = nil_contexts((f1, f2), cap=_cap(args))
    iso = iso_construct(c1, c2)
    return {
        "flag1": format_flag(c1.flag),
        "flag2": format_flag(c2.flag),
        "transporter": format_matrix(iso.g),
        "pairs": len(iso.pairs),
        "verified": True,
    }


def _fam(subspaces, fmt):
    if subspaces is None:
        return None
    return [fmt(s) for s in subspaces]


def _do_isolated_enum(args, field):
    records = enumerate_isolated(field, args.n, mode=args.mode)
    # the families of one report all draw on a few subspaces: format each once
    fmt = lru_cache(maxsize=None)(format_subspace)
    return {
        "mode": args.mode,
        "count": len(records),
        "records": [
            {
                "kind": r.kind,
                "A_family": _fam(r.a_family, fmt),
                "B_family": _fam(r.b_family, fmt),
                "size": r.size,
                "isolated": r.isolated,
                "completely_isolated": r.completely_isolated,
            }
            for r in records
        ],
    }


def _do_isolated_check(args, field):
    if args.elements is not None:
        s = _elements(field, args.n, args.elements)
        return {
            "size": len(s),
            "isolated": is_isolated(s),
            "completely_isolated": is_completely_isolated(s),
        }
    ok, rows = ideal_absorption_check(field, args.n)
    return {"all_ok": ok, "rows": [dict(r) for r in rows]}


def _do_ideal_gen(args, field):
    gen = ideal_generated_by_stratum(field, args.n, args.k)
    return {
        "k": args.k,
        "stratum_size": len(rank_stratum(field, args.n, args.k)),
        "ideal_size": len(ideal(field, args.n, args.k)),
        "closure_size": len(gen),
        "equal": True,
    }


def _do_verify(args, field):
    from .verify import run

    rep = run(profile=args.profile)
    return {
        "profile": rep.profile,
        "passed": rep.passed,
        "criteria": [
            {
                "id": r.key,
                "title": r.title,
                "passed": r.passed,
                "details": {k: (list(v) if isinstance(v, tuple) else v) for k, v in r.details},
                "witness": r.witness,
            }
            for r in rep.results
        ],
    }


_REQUIRED = {"required": True}
_NONE = {"default": None}

# command path -> (help, payload builder, the _COMMON options it takes, its
# own options as (flag, add_argument keywords)).  Dict order is the order of
# the help listings; own options are listed in the order the report's params
# echo them after field and n.  Every builder takes (args, field).
_COMMANDS = {
    "classes": (
        "conjugacy classes of the full semigroup",
        _do_classes, _PLAIN, [("--check", {"choices": ("brute",), "default": None})],
    ),
    "core": ("stable-image decomposition of one matrix", _do_core, _PLAIN, [("--matrix", _REQUIRED)]),
    "chain": ("witnessed conjugation path to the core", _do_chain, _PLAIN, [("--matrix", _REQUIRED)]),
    "flags phi": (
        "all matrices lowering a flag",
        _do_flags_phi,
        _CAPPED,
        [("--flag", _NONE), ("--sig", {"default": None, "help": "take the coordinate flag of this signature"})],
    ),
    "flags psi": (
        "power-image flag of a closed nilpotent set",
        _do_flags_psi, _PLAIN, [("--elements", {"required": True, "help": "space-separated matrix texts"})],
    ),
    "flags maximal": (
        "is a closed nilpotent set maximal for its degree",
        _do_flags_maximal, _PLAIN, [("--elements", _REQUIRED)],
    ),
    "flags consolidation": (
        "flag refinement vs semigroup containment",
        _do_flags_consolidation, _CAPPED, [("--flag", _REQUIRED), ("--flag2", _REQUIRED)],
    ),
    "nil fingerprint": (
        "isomorphism-invariant fingerprint",
        _do_nil_fingerprint, _CAPPED, [("--flag", _NONE), ("--sig", _NONE)],
    ),
    "nil iso-decide": (
        "classify two signatures up to isomorphism",
        _do_nil_iso_decide,
        _FIELDLESS,
        [
            ("--sig1", _REQUIRED),
            ("--sig2", _REQUIRED),
            ("--q", {"type": int, "default": None, "help": "field size (omit with --infinite)"}),
            ("--infinite", {"action": "store_true", "help": "decide over an infinite field"}),
            ("--n1", {"required": True, "type": int}),
            ("--n2", {"required": True, "type": int}),
        ],
    ),
    "nil iso-construct": (
        "conjugating isomorphism for equal signatures",
        _do_nil_iso_construct, _CAPPED, [("--flag2", _NONE), ("--flag1", _NONE), ("--sig1", _NONE), ("--sig2", _NONE)],
    ),
    "isolated enum": (
        "classified list of isolated subsemigroups",
        _do_isolated_enum, _PLAIN, [("--mode", {"choices": ("exhaustive", "theorem_list"), "default": "exhaustive"})],
    ),
    "isolated check": (
        "absorption hypotheses force the singular ideal",
        _do_isolated_check, _PLAIN, [("--elements", {"default": None, "help": "test this closed set instead"})],
    ),
    "ideal gen": (
        "closure of a rank stratum against the ideal",
        _do_ideal_gen, _PLAIN, [("--k", {"required": True, "type": int})],
    ),
    "verify all": (
        "all numbered criteria",
        _do_verify, _FIELDLESS, [("--profile", {"choices": ("quick", "full"), "default": "quick"})],
    ),
}


# ---------------------------------------------------------------------------
# report assembly and rendering


def _params(args, field, own) -> dict:
    p = {}
    if field is not None:
        p["field"] = format_field(field)
        p["n"] = args.n
    for flag, _ in own:
        key = flag[2:].replace("-", "_")
        p[key] = getattr(args, key)
    return p


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        if value is None:
            text = "null"
        elif value is True:
            text = "true"
        elif value is False:
            text = "false"
        else:
            text = str(value)
        rows.append(f"{prefix},{text}")


def _render(report: dict, fmt: str, elapsed_ms: float) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        rows: list[str] = ["key,value"]
        _flatten("", report, rows)
        return "\n".join(rows) + "\n"
    lines = [f"matsemi {report['command']}"]
    flat: list[str] = []
    _flatten("", {k: v for k, v in report.items() if k not in ("tool", "version", "command")}, flat)
    for row in flat:
        key, _, val = row.partition(",")
        lines.append(f"  {key} = {val}")
    lines.append(f"  elapsed = {elapsed_ms:.1f} ms")
    return "\n".join(lines) + "\n"


def run_command(argv) -> tuple[str, int]:
    """Render one CLI invocation; returns (report text, exit code)."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return "", int(exc.code or 0)
    t0 = perf_counter()
    try:
        field = _field_of(args)
        _, build, _, own = _COMMANDS[args.path]
        result = build(args, field)
    except (VerificationFailed, InternalError) as exc:
        return _error_text(exc), 1
    except CapExceeded as exc:
        return _error_text(exc), 3
    except (MatSemiError, ValueError) as exc:
        return _error_text(exc), 2
    report = {
        "tool": "matsemi",
        "version": __version__,
        "command": args.path,
        "params": _params(args, field, own),
        "result": result,
        "caps": {"max_elems": getattr(args, "max_elems", None)},
        "timing_ms": None,
    }
    text = _render(report, args.format, (perf_counter() - t0) * 1000.0)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _error_text(OutputNotWritable(f"cannot write --out: {exc}")), 2
    return text, (1 if result.get("passed") is False else 0)  # only the battery reports passed


def _error_text(exc) -> str:
    lines = [f"error {type(exc).__name__}: {exc}"]
    evidence = getattr(exc, "evidence", None)
    if evidence:
        for k, v in sorted(evidence.items()) if isinstance(evidence, dict) else enumerate(evidence):
            lines.append(f"  {k} = {v}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    text, code = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        stream = sys.stderr if text.startswith("error ") else sys.stdout
        stream.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
