"""Command-line surface: exit codes, determinism, report round-trips."""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsemi import cli, engine, flags, nilclass, verify
from matsemi.cli import run_command
from matsemi.engine import ambient
from matsemi.errors import CapExceeded, VerificationFailed
from matsemi.flags import parse_flag
from matsemi.gf import parse_matrix, parse_subspace, unit_matrix


def _run_json(argv):
    text, code = run_command(argv + ["--format", "json"])
    assert code == 0, text
    return json.loads(text)


class TestExitCodes:
    def test_ok_is_zero(self):
        text, code = run_command(["classes", "--field", "2", "--n", "2", "--format", "json"])
        assert code == 0
        assert json.loads(text)["result"]["count"] == 5

    def test_usage_error_is_two(self):
        _, code = run_command(["no-such-command"])
        assert code == 2

    def test_conflicting_selectors_are_two(self):
        text, code = run_command(
            ["flags", "phi", "--field", "2", "--n", "3", "--flag", "1,0,0", "--sig", "1,2"]
        )
        assert code == 2
        assert text.startswith("error ConflictingOptions")

    def test_bad_field_is_two(self):
        text, code = run_command(["classes", "--field", "6", "--n", "2"])
        assert code == 2
        assert text.startswith("error NotPrime")

    def test_core_matrix_must_be_n_by_n(self):
        text, code = run_command(["core", "--field", "2", "--n", "3", "--matrix", "1,0;0,1"])
        assert code == 2
        assert text.startswith("error DimMismatch")

    def test_chain_matrix_must_be_n_by_n(self):
        text, code = run_command(["chain", "--field", "2", "--n", "3", "--matrix", "1,0;0,1"])
        assert code == 2
        assert text.startswith("error DimMismatch")

    @pytest.mark.parametrize(
        "argv",
        [
            ["nil", "fingerprint", "--field", "2", "--n", "4", "--sig", "1,1"],
            ["flags", "phi", "--field", "2", "--n", "4", "--sig", "1,2"],
        ],
        ids=["nil-fingerprint", "flags-phi"],
    )
    def test_sig_must_sum_to_n(self, argv):
        text, code = run_command(argv)
        assert code == 2
        assert text.startswith("error BadSignature")

    @pytest.mark.parametrize("sig", ["1,x", ""], ids=["not-int", "empty"])
    def test_sig_must_be_integers(self, sig):
        text, code = run_command(["flags", "phi", "--field", "2", "--n", "3", "--sig", sig])
        assert code == 2
        assert text.startswith("error BadSignature")

    @pytest.mark.parametrize("command", [["isolated", "check"], ["flags", "psi"], ["flags", "maximal"]], ids=" ".join)
    def test_elements_must_name_a_matrix(self, command):
        # the empty set is no subsemigroup: no report, and no degree read off it
        text, code = run_command([*command, "--field", "2", "--n", "2", "--elements", ""])
        assert code == 2
        assert text == "error PreconditionViolated: --elements names no matrix\n"

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["classes", "--field", "2", "--n", "0"], "--n"),
            (["classes", "--field", "2", "--n", "-1"], "--n"),
            (["isolated", "enum", "--field", "2", "--n", "0"], "--n"),
            (["nil", "iso-decide", "--q", "2", "--n1", "0", "--sig1", "1", "--n2", "2", "--sig2", "1,1"], "--n1"),
            (["nil", "iso-decide", "--q", "2", "--n1", "2", "--sig1", "1,1", "--n2", "-1", "--sig2", "1"], "--n2"),
            (["flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2", "--max-elems", "0"], "--max-elems"),
            (["nil", "fingerprint", "--field", "2", "--n", "3", "--sig", "1,2", "--max-elems", "-5"], "--max-elems"),
        ],
        ids=[
            "classes-n0",
            "classes-n-1",
            "isolated-n0",
            "iso-decide-n1",
            "iso-decide-n2",
            "phi-max-elems-0",
            "fingerprint-max-elems-5",
        ],
    )
    def test_dimension_below_one_is_two(self, argv, option):
        text, code = run_command(argv)
        assert code == 2
        assert text.startswith(f"error BadDimension: {option} must be at least 1")

    def test_field_of_prime_power_size_points_to_its_spec(self):
        text, code = run_command(["classes", "--field", "4", "--n", "2"])
        assert code == 2
        assert text.startswith("error NotPrime") and "2^2" in text

    def test_iso_decide_q_must_be_a_prime_power(self):
        argv = ["nil", "iso-decide", "--n1", "2", "--sig1", "1,1", "--n2", "2", "--sig2", "1,1"]
        text, code = run_command(argv + ["--q", "6"])
        assert code == 2
        assert text.startswith("error NotPrime") and "6 is not a prime power" in text
        for q in (4, 8, 9):
            rep = _run_json(argv + ["--q", str(q)])
            assert rep["params"]["q"] == rep["result"]["q"] == q
            assert rep["result"]["decision"] == "isomorphic"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--field", "1000000000000000003", "--n", "1"],
            ["classes", "--field", "1000000000000000000000000000057", "--n", "1"],
            ["nil", "iso-decide", "--q", "1000000000000000000000000000057", "--n1", "1", "--sig1", "1", "--n2", "1", "--sig2", "1"],
        ],
        ids=["prime-1e18", "prime-1e30", "iso-decide-q-1e30"],
    )
    def test_huge_field_size_is_refused_in_bounded_time(self, argv):
        # primality by trial division up to sqrt(p) did not end on these;
        # a subprocess with a timeout keeps a regression from hanging the suite
        cp = subprocess.run([sys.executable, "-m", "matsemi.cli", *argv], capture_output=True, timeout=30)
        assert cp.returncode == 3
        assert cp.stderr.decode().startswith("error CapExceeded")

    def test_table_above_the_cap_is_refused_before_its_grid(self):
        # 2^(3*(1*1 + 1*2 + 1*2)) = 32 768 elements pass PHI_CAP, and their
        # grid would take 4 GiB; a 1 GiB address-space limit keeps a
        # regression from taking the machine's memory
        limit = 1 << 30
        cp = subprocess.run(
            [sys.executable, "-m", "matsemi.cli", "nil", "fingerprint", "--field", "2^3", "--n", "4", "--sig", "1,1,2"],
            capture_output=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert cp.returncode == 3, cp.stderr.decode()
        assert cp.stderr.decode() == f"error CapExceeded: table of 32768 elements exceeds cap {engine.TABLE_ELEMS_CAP}\n"

    def test_isolated_scan_above_its_cap_is_refused_at_once(self):
        # q^(n^2) = 4096 elements are far above the 16 of the subset scan;
        # the refusal comes before the theorem list and the ambient grid
        t0 = perf_counter()
        cp = subprocess.run(
            [sys.executable, "-m", "matsemi.cli", "isolated", "enum", "--field", "2^3", "--n", "2"],
            capture_output=True,
            timeout=60,
        )
        elapsed = perf_counter() - t0
        assert cp.returncode == 3, cp.stderr.decode()
        assert cp.stderr.decode() == "error CapExceeded: table size 4096 exceeds subsemigroup scan cap 16\n"
        assert elapsed < 2.0

    def test_huge_exponent_is_refused_without_building_the_size(self):
        text, code = run_command(["classes", "--field", "2^100000", "--n", "1"])
        assert code == 3
        assert text.startswith("error CapExceeded: field size 2^100000 exceeds cap 64")
        text, code = run_command(["classes", "--field", "4^100000", "--n", "1"])
        assert code == 2
        assert text.startswith("error NotPrime: 4 is not prime; the field of size 4^100000 is 2^200000")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classes", "--n", "200"], "|M(200, F_2)| = 2^40000 exceeds cap 4096"),
            (["isolated", "enum", "--n", "200"], "table size 2^40000 exceeds subsemigroup scan cap 16"),
            (["isolated", "check", "--n", "200"], "table size 2^40000 exceeds subsemigroup scan cap 16"),
            (["ideal", "gen", "--n", "200", "--k", "1"], "|M(200, F_2)| = 2^40000 exceeds cap 4096"),
            (["flags", "phi", "--n", "300", "--sig", "150,150"], "flag semigroup has 2^22500 elements, cap 1048576"),
            (["nil", "fingerprint", "--n", "300", "--sig", "150,150"], "flag semigroup has 2^22500 elements, cap 1048576"),
        ],
        ids=["classes", "isolated-enum", "isolated-check", "ideal-gen", "flags-phi", "nil-fingerprint"],
    )
    def test_huge_size_is_refused_without_building_it(self, argv, message):
        # each size has more digits than Python converts to text, so it is
        # printed as q^e; the exponent is compared with the cap first
        t0 = perf_counter()
        text, code = run_command([*argv, "--field", "2"])
        assert perf_counter() - t0 < 1.0
        assert code == 3
        assert text == f"error CapExceeded: {message}\n"

    @pytest.mark.parametrize("extra", [[], ["--q", "2", "--infinite"]], ids=["neither", "both"])
    def test_iso_decide_needs_one_of_q_and_infinite(self, extra):
        argv = ["nil", "iso-decide", "--n1", "2", "--sig1", "1,1", "--n2", "2", "--sig2", "1,1"]
        text, code = run_command(argv + extra)
        assert code == 2
        assert text.startswith("error ConflictingOptions")

    def test_threads_option_is_gone(self):
        _, code = run_command(["classes", "--field", "2", "--n", "2", "--threads", "2"])
        assert code == 2

    def test_cap_exceeded_is_three(self):
        # sig (1,2) over F2 yields exactly 2^(1*2) = 4 elements; cap 4 fits
        text, code = run_command(
            ["flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2", "--max-elems", "3"]
        )
        assert code == 3
        assert text.startswith("error CapExceeded")

    @pytest.mark.parametrize(
        "argv",
        [
            ["flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2"],
            ["flags", "consolidation", "--field", "2", "--n", "3", "--flag", "1,0,0", "--flag2", "1,0,0|1,0,0;0,1,0"],
            ["nil", "fingerprint", "--field", "2", "--n", "3", "--sig", "1,2"],
            ["nil", "iso-construct", "--field", "2", "--n", "3", "--sig1", "1,2", "--sig2", "1,2"],
        ],
        ids=lambda a: "-".join(a[:2]),
    )
    def test_max_elems_caps_the_flag_semigroup(self, argv):
        text, code = run_command(argv + ["--max-elems", "3"])
        assert code == 3
        assert text.startswith("error CapExceeded: flag semigroup has")
        assert _run_json(argv + ["--max-elems", "100"])["caps"] == {"max_elems": 100}

    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--field", "7", "--n", "2"],
            ["core", "--field", "2", "--n", "2", "--matrix", "0,1;0,0"],
            ["chain", "--field", "2", "--n", "2", "--matrix", "0,1;0,0"],
            ["flags", "psi", "--field", "2", "--n", "2", "--elements", "0,1;0,0"],
            ["flags", "maximal", "--field", "2", "--n", "2", "--elements", "0,1;0,0"],
            ["nil", "iso-decide", "--q", "2", "--n1", "2", "--sig1", "1,1", "--n2", "2", "--sig2", "1,1"],
            ["isolated", "enum", "--field", "2", "--n", "2"],
            ["isolated", "check", "--field", "2", "--n", "2"],
            ["ideal", "gen", "--field", "2", "--n", "2", "--k", "1"],
            ["verify", "all"],
        ],
        ids=lambda a: "-".join(a[:2]),
    )
    def test_max_elems_is_a_usage_error_where_nothing_reads_it(self, argv):
        # classes --field 7 --n 2 --max-elems 10 used to run on all 2401
        # elements; an option that is accepted and ignored is now refused
        assert run_command(argv + ["--max-elems", "10"]) == ("", 2)
        if argv[0] in ("core", "chain"):
            assert _run_json(argv)["caps"] == {"max_elems": None}


class TestFaultInjection:
    def test_poisoned_product_grid_fails_brute_check(self, f2, monkeypatch):
        # Corrupt one product in the cached ambient so the pair-relation
        # route disagrees with the class-key route; the check must surface
        # it, not mask it.  The cached grid is read-only, so the poisoned
        # copy replaces the whole cache entry.
        amb = ambient(f2, 2)
        e12 = amb.index[unit_matrix(f2, 2, 0, 1)]
        e21 = amb.index[unit_matrix(f2, 2, 1, 0)]
        poisoned = amb.grid.copy()
        poisoned[e12, e21] = amb.identity_id
        key = (f2, 2)
        assert engine._AMBIENT_CACHE[key] is amb
        with monkeypatch.context() as mp:
            mp.setitem(engine._AMBIENT_CACHE, key, dataclasses.replace(amb, prebuilt_grid=poisoned))
            text, code = run_command(
                ["classes", "--field", "2", "--n", "2", "--check", "brute"]
            )
        assert engine._AMBIENT_CACHE[key] is amb
        assert code == 1
        assert text.startswith("error VerificationFailed")
        assert "brute_count = 4" in text and "theorem_count = 5" in text
        # cache restored: the honest run agrees again
        text2, code2 = run_command(
            ["classes", "--field", "2", "--n", "2", "--check", "brute", "--format", "json"]
        )
        assert code2 == 0
        assert json.loads(text2)["result"]["agrees"] is True


UPPER8 = " ".join(f"0,{a},{b};0,0,{c};0,0,0" for a in (0, 1) for b in (0, 1) for c in (0, 1))


class TestOneTablePerRun:
    # report sha256s recorded before these commands shared one table
    @pytest.mark.parametrize(
        "sub,elements,sha256",
        [
            ("psi", UPPER8, "af5c29620ad67206e66b0666356598e83391d8caae354d92797092b0a5727f83"),
            ("maximal", UPPER8, "2844b21a0f415f24aedd13ba69d92b0a5b7f5939bb626e9bcf7c10aa85984567"),
            (
                "maximal",
                "0,0,0;0,0,0;0,0,0 0,0,1;0,0,0;0,0,0",
                "65bdd0046188b03b99f78d05b368f7c9765d91cf5a77807fa3bc603f175fba5c",
            ),
        ],
        ids=["psi", "maximal", "not-maximal"],
    )
    def test_flag_commands_build_one_table(self, monkeypatch, sub, elements, sha256):
        calls = []
        real = engine.build_table

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for mod in (engine, flags, nilclass):
            if getattr(mod, "build_table", None) is real:
                monkeypatch.setattr(mod, "build_table", counting)
        text, code = run_command(
            ["flags", sub, "--field", "2", "--n", "3", "--elements", elements, "--format", "json"]
        )
        assert code == 0, text
        assert len(calls) == 1
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


    # report sha256s recorded while the ambient still built its grid eagerly
    @pytest.mark.parametrize(
        "check,grids,sha256",
        [
            ([], 0, "02e5370a67ed1fd11cad76955335c9f56fd163911661c0779c5fcb0ba277f628"),
            (["--check", "brute"], 1, "434df0613b2a0be78ad75c0e374739a1dd2342a7833649afee8942c113eb948a"),
        ],
        ids=["theorem", "brute"],
    )
    def test_classes_build_a_grid_only_for_the_brute_check(self, monkeypatch, check, grids, sha256):
        calls = []
        real = engine.product_grid

        def counting(elements):
            calls.append(len(elements))
            return real(elements)

        monkeypatch.setattr(engine, "_AMBIENT_CACHE", {})
        monkeypatch.setattr(engine, "product_grid", counting)
        text, code = run_command(["classes", "--field", "3", "--n", "2", *check, "--format", "json"])
        assert code == 0, text
        assert calls == [81] * grids
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestKeysPastInt64:
    # q^(n*n) > 2^63; sha256s are of the reports from before code keys were added
    @pytest.mark.parametrize(
        "field,n,sha256",
        [
            ("2^4", 4, "3acf7084a2d3c234f639ce1a7af80f7589ad340ac2128dbf1c9994bfc3273c4a"),
            ("2^3", 5, "db21e1063b665aa157398f9624abfc6598bc94d60624694ea932c77c5a3ee151"),
        ],
        ids=["F16-4", "F8-5"],
    )
    def test_flags_psi_reports_are_unchanged(self, field, n, sha256):
        zero = [[0] * n for _ in range(n)]
        e1n = [[int(i == 0 and j == n - 1) for j in range(n)] for i in range(n)]
        elements = " ".join(";".join(",".join(map(str, r)) for r in m) for m in (zero, e1n))
        text, code = run_command(
            ["flags", "psi", "--field", field, "--n", str(n), "--elements", elements]
            + ["--format", "json"]
        )
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestIsolatedReports:
    # json report sha256s recorded before the theorem list moved onto H-classes
    @pytest.mark.parametrize(
        "argv,sha256",
        [
            ("--field 5 --n 2 --mode theorem_list", "74292a1742a9354360551bf7c4afcfba8bfed3f8334df987ecaa9c98978dbf8f"),
            ("--field 2 --n 2", "664379b7907264c514877614c4f53e2637c96d165ab4a2b866ed646cb8bf7e40"),
            ("--field 2^2 --n 2 --mode theorem_list", "5c0e1764b45939fd1b765661492db705ab88a78a0694e034aa684124f8c504c8"),
            ("--field 2 --n 3 --mode theorem_list", "7112a23325aecb09af57bbb5201883053559f96bcc03177b18eb0a5fbf6378aa"),
            ("--field 7 --n 2 --mode theorem_list", "69cbd313b7de5e17dadec89291ba813d78f59a2ae5c8ace293312821d4c96ded"),
        ],
        ids=["M2F5", "M2F2-exhaustive", "M2F4", "M3F2", "M2F7"],
    )
    def test_reports_are_unchanged(self, argv, sha256):
        text, code = run_command(["isolated", "enum", "--format", "json", *argv.split()])
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    # (json, csv) report sha256s recorded while every record still held its member set
    @pytest.mark.parametrize(
        "argv,json_sha256,csv_sha256",
        [
            (
                "enum --field 2 --n 2 --mode theorem_list",
                "60dac380d5209538bac8c3fe494c94f1c3796bc9e548acf74b287e1808c16ac6",
                "e0955cccad25e3ef53f0f68ab2eb892a39183c1d6a999ccd3a198254b92bc936",
            ),
            (
                "enum --field 3 --n 2 --mode theorem_list",
                "9f5936ee4278a50293d994e7547834a47612ad041ab320b0c60c9171142aa639",
                "498213517056133923b0a332b16424f4491022e2cb45bbc453060b3541f8ac4f",
            ),
            (
                "enum --field 2^2 --n 2 --mode theorem_list",
                "5c0e1764b45939fd1b765661492db705ab88a78a0694e034aa684124f8c504c8",
                "70e2479e126cbea955217e9724cad6da44aba8422a10d7f080feff9f0ad4a6bd",
            ),
            (
                "enum --field 2 --n 3 --mode theorem_list",
                "7112a23325aecb09af57bbb5201883053559f96bcc03177b18eb0a5fbf6378aa",
                "7ab14e6d5f9c05c29e576ccb5f4f655d039ab3570c5c63a91747e902830a40b6",
            ),
            (
                "check --field 2 --n 2",
                "98f2512b1c1a070edfb683b497c04dd6fa801086b561be62d2faf8df43469dc2",
                "46c262129066915092d5827932b4228beb5ef6780c128b58715ba8a2ef05fafb",
            ),
        ],
        ids=["M2F2", "M2F3", "M2F4", "M3F2", "check-M2F2"],
    )
    def test_json_and_csv_reports_are_pinned(self, argv, json_sha256, csv_sha256):
        for fmt, sha256 in (("json", json_sha256), ("csv", csv_sha256)):
            text, code = run_command(["isolated", *argv.split(), "--format", fmt])
            assert code == 0, text
            assert hashlib.sha256(text.encode()).hexdigest() == sha256, fmt


class TestNilReports:
    # json report sha256s of the flag-invariants benchmark jobs, recorded
    # before iso_construct became the one-pair call of batch_transport, and
    # of two contexts with a (2, 2) K cell to exclude from (F2-11111 keeps
    # 136 ids in it, F3-1111 none), recorded before the K cells became masks
    @pytest.mark.parametrize(
        "argv,sha256",
        [
            ("fingerprint --field 2^2 --n 4 --sig 1,3", "c6006fc060899c6324819372a05fc32e2e7da0a6ac94dfba435196dd135cbe1a"),
            ("fingerprint --field 3 --n 4 --sig 1,2,1", "d6900f03d26985a2e0ee4f648ea49cf329adb422e41cd7768086fd1fe3dd48ca"),
            ("fingerprint --field 2 --n 5 --sig 1,1,1,1,1", "d675fcf948a98de16ebf37aa5d1a170c9a15c6be1d32bd61e4682cccdd5f6876"),
            ("fingerprint --field 3 --n 4 --sig 1,1,1,1", "2ef554f709b70723abc1a7e1b094fcee3253a83c0b6bbf1030b83c2821a01720"),
            (
                "iso-construct --field 3 --n 4 --sig1 1,2,1 --flag2 0,1,0,0|0,1,0,0;0,0,1,0;1,0,0,0",
                "b105e8c9d8f1954bcd22e0977a9cb4ca282b73de7038c8969d8200c61afadc17",
            ),
        ],
        ids=["fingerprint-F4-13", "fingerprint-F3-121", "fingerprint-F2-11111", "fingerprint-F3-1111", "iso-construct-F3-121"],
    )
    def test_reports_are_unchanged(self, argv, sha256):
        text, code = run_command(["nil", *argv.split(), "--format", "json"])
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    # (json, csv) report sha256s recorded while the order of each command's
    # params echo was a tuple of its own, apart from its option list
    @pytest.mark.parametrize(
        "argv,json_sha256,csv_sha256",
        [
            (
                "iso-decide --q 2 --n1 3 --sig1 1,1,1 --n2 4 --sig2 1,2,1",
                "9414d17efad29a37bc98c6a55db77a8e3e2f1482232d8d9c268ccd0a7ae2a794",
                "12898a43380d17fdf720c94afadad0b9a48e12bbfc3d739d22c283454a141ebb",
            ),
            (
                "iso-construct --field 2 --n 3 --sig1 1,1,1 --sig2 1,1,1",
                "cdffea847b87ef8a01105865201eef38bfeb6e639570f2860d3c274fae56ab5f",
                "bfb7e72fb9e9a53fdad670d83aba37807531c6262dcc373f979e456e99cc0734",
            ),
        ],
        ids=["iso-decide", "iso-construct"],
    )
    def test_json_and_csv_reports_are_pinned(self, argv, json_sha256, csv_sha256):
        for fmt, sha256 in (("json", json_sha256), ("csv", csv_sha256)):
            text, code = run_command(["nil", *argv.split(), "--format", fmt])
            assert code == 0, text
            assert hashlib.sha256(text.encode()).hexdigest() == sha256, fmt

    def test_fingerprint_takes_each_u_stat_once(self, monkeypatch):
        calls = []
        u_stat = nilclass.u_stat
        monkeypatch.setattr(nilclass, "u_stat", lambda ctx, s: calls.append(s) or u_stat(ctx, s))
        text, code = run_command(["nil", "fingerprint", "--field", "2", "--n", "5", "--sig", "1,1,1,1,1"])
        assert code == 0, text
        assert calls == [2, 3, 4]  # one per middle position, certificates included


class TestRoundTrips:
    def test_core_report_texts_parse_back(self, f2):
        rep = _run_json(
            ["core", "--field", "2", "--n", "3", "--matrix", "0,1,0;0,0,1;0,0,0"]
        )
        res = rep["result"]
        a = parse_matrix(f2, res["matrix"])
        assert a == parse_matrix(f2, "0,1,0;0,0,1;0,0,0")
        proj = parse_matrix(f2, res["projector"])
        assert proj * proj == proj
        co = parse_matrix(f2, res["core"])
        assert co == proj * a * proj
        img = parse_subspace(f2, 3, res["image"])
        ker = parse_subspace(f2, 3, res["kernel"])
        assert img.dim + ker.dim == 3

    def test_flag_report_text_parses_back(self, f2):
        rep = _run_json(["flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2"])
        res = rep["result"]
        fl = parse_flag(f2, 3, res["flag"])
        assert list(fl.signature) == res["signature"]
        assert res["size"] == len(res["elements"])
        for text in res["elements"]:
            m = parse_matrix(f2, text)
            assert m.rows == m.cols == 3

    def test_chain_witnesses_replay(self, f2):
        rep = _run_json(["chain", "--field", "2", "--n", "2", "--matrix", "0,1;0,0"])
        res = rep["result"]
        steps = [parse_matrix(f2, s) for s in res["steps"]]
        assert len(steps) == len(res["witnesses"]) + 1
        for i, (ut, vt) in enumerate(res["witnesses"]):
            u, v = parse_matrix(f2, ut), parse_matrix(f2, vt)
            assert u * v == steps[i]
            assert v * u == steps[i + 1]


class TestDispatch:
    def test_every_command_path_has_one_handler(self):
        def paths(parser, prefix=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from paths(sub, (*prefix, name))
                    return
            yield " ".join(prefix)

        found = list(paths(cli._parser()))
        assert len(found) == len(set(found)) == 14
        assert set(found) == set(cli._COMMANDS)

    def test_params_echo_each_commands_own_options(self):
        # the options a report's params echo, after field and n, are the
        # command's own, in the order of its help listing: all but the ones
        # every command or cap shares
        shared = {"help", "field", "n", "format", "out", "max_elems"}

        def commands(parser, prefix=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from commands(sub, (*prefix, name))
                    return
            yield " ".join(prefix), parser

        for path, parser in commands(cli._parser()):
            own = [action.dest for action in parser._actions if action.dest not in shared]
            args = argparse.Namespace(**{dest: None for dest in own})
            assert list(cli._params(args, None, cli._COMMANDS[path][3])) == own, path

    def test_a_failing_battery_exits_one_with_its_report(self, monkeypatch):
        monkeypatch.setattr(verify, "_REGISTRY", {})
        verify._criterion("02", "M(2,F2) class census")(lambda: ([("forced", True)], "forced failure"))
        text, code = run_command(["verify", "all", "--format", "json"])
        assert code == 1
        (crit,) = json.loads(text)["result"]["criteria"]
        assert crit["title"] == "M(2,F2) class census" and crit["witness"] == "forced failure"


def _stub_battery(monkeypatch):
    """Swap the battery for fifteen passing stubs, registered out of key
    order; returns the (key, keyword arguments) of every stub call."""
    monkeypatch.setattr(verify, "_REGISTRY", {})
    calls = []
    for i in range(15, 0, -1):
        key = f"{i:02d}"

        def stub(key=key, **kwargs):
            calls.append((key, kwargs))
            return [("stub", True)], None

        verify._criterion(key, f"stub {key}", full=i > 13)(stub)
    return calls


class TestBatteryRun:
    @pytest.mark.parametrize("profile,last", [("quick", 13), ("full", 15)])
    def test_the_profile_plans_its_criteria_in_key_order(self, monkeypatch, profile, last):
        calls = _stub_battery(monkeypatch)
        rep = verify.run(profile)
        keys = [f"{i:02d}" for i in range(1, last + 1)]
        assert [key for key, _ in calls] == [r.key for r in rep.results] == keys
        assert [r.title for r in rep.results] == [f"stub {key}" for key in keys]
        assert rep.passed

    @pytest.mark.parametrize(
        "profile,pairs", [("quick", verify.CLASS_PAIRS_QUICK), ("full", verify.CLASS_PAIRS)]
    )
    def test_criterion_01_takes_the_class_pairs_of_the_profile(self, monkeypatch, profile, pairs):
        calls = _stub_battery(monkeypatch)
        verify.run(profile)
        assert calls[0] == ("01", {"pairs": pairs})
        assert all(kwargs == {} for _, kwargs in calls[1:])

    def test_a_criterion_that_raises_fails_with_the_error_as_witness(self, monkeypatch):
        _stub_battery(monkeypatch)

        def capped():
            raise CapExceeded("table of 70000 elements exceeds the cap")

        verify._criterion("05", "consolidation matches containment")(capped)
        text, code = run_command(["verify", "all", "--format", "json"])
        assert code == 1
        criteria = json.loads(text)["result"]["criteria"]
        assert [c["id"] for c in criteria] == [f"{i:02d}" for i in range(1, 14)]
        assert criteria[4] == {
            "id": "05",
            "title": "consolidation matches containment",
            "passed": False,
            "details": {},
            "witness": "CapExceeded: table of 70000 elements exceeds the cap",
        }
        assert all(c["passed"] for c in criteria if c["id"] != "05")


def _parser_output(parse, argv, capsys):
    """(stdout, stderr, exit code) of one parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


def _branch_parser_cases():
    yield ["--help"]
    yield ["nil", "--help"]
    yield ["no-such-command"]
    yield ["flags", "no-such-sub"]
    yield ["isolated", "enum", "--field", "2", "--n", "2", "--no-such-option"]  # top-level usage
    for path in cli._COMMANDS:
        yield [*path.split(), "--help"]
        yield [*path.split(), "--format"]  # an option without its value
        if path != "verify all":  # the only command without a required option
            yield path.split()


class TestBranchParser:
    @pytest.mark.parametrize("argv", list(_branch_parser_cases()), ids="_".join)
    def test_help_and_usage_errors_equal_the_whole_tree(self, argv, capsys):
        want = _parser_output(cli._parser().parse_args, argv, capsys)
        assert want[2] in (0, 2) and (want[0] or want[1])
        got = _parser_output(cli._parse, argv, capsys)
        assert got == want
        assert run_command(argv) == ("", want[2])

    @pytest.mark.parametrize("path", list(cli._COMMANDS), ids=lambda path: path.replace(" ", "_"))
    def test_builds_only_the_named_branch(self, path, monkeypatch):
        # so little that it builds none: a full line is read off the table
        argv = path.split()
        leaf = cli._parser()
        for name in argv:
            (sub,) = [a for a in leaf._actions if isinstance(a, argparse._SubParsersAction)]
            leaf = sub.choices[name]
        for action in leaf._actions:
            if action.required:
                argv += [action.option_strings[0], "1" if action.type is int else "x"]
        want = vars(cli._parser().parse_args(argv))

        def no_parser():
            raise AssertionError("a well-formed line built an argparse parser")

        monkeypatch.setattr(cli, "_parser", no_parser)
        assert vars(cli._parse(argv)) == want


@functools.lru_cache(maxsize=None)
def _whole_tree():
    return cli._parser()


def _tree_reading(argv):
    """The whole tree's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _whole_tree().parse_args(argv)
        except SystemExit:
            return None


def _option_value(keywords):
    if keywords.get("action") == "store_true":
        return st.just(None)
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(0, 9).map(str)
    return st.text("x1,| ", min_size=1, max_size=4)


@st.composite
def _command_lines(draw, path):
    """A well-formed line of the command path, as its (flag, value) groups."""
    options = cli._options(path)
    taken = [o for o in options if o[1].get("required") or draw(st.booleans())]
    lines = []
    for flag, keywords in draw(st.permutations(taken)):
        value = draw(_option_value(keywords))
        lines.append([flag] if value is None else [flag, value])
    return lines


_PERTURBATIONS = (
    "abbreviate", "equals", "repeat", "dash_value", "drop_required",
    "non_int_n", "bad_format", "help", "unknown", "trailing",
)


def _perturb(draw, kind, lines, required):
    """Apply one perturbation to the (flag, value) groups of a line; returns
    the new groups, or the old ones where the perturbation does not apply."""
    lines = [list(group) for group in lines]
    pairs = [i for i, group in enumerate(lines) if len(group) == 2]
    if kind == "abbreviate" and lines:
        group = lines[draw(st.integers(0, len(lines) - 1))]
        group[0] = group[0][: draw(st.integers(3, len(group[0]) - 1))] if len(group[0]) > 3 else "--"
    elif kind == "equals" and pairs:
        i = draw(st.sampled_from(pairs))
        lines[i] = ["=".join(lines[i])]
    elif kind == "repeat" and lines:
        group = draw(st.sampled_from(lines))
        lines.insert(draw(st.integers(0, len(lines))), list(group))
    elif kind == "dash_value" and pairs:
        lines[draw(st.sampled_from(pairs))][1] = draw(st.sampled_from(("-1", "-x", "-", "--", "--out")))
    elif kind == "drop_required" and required:
        flag = draw(st.sampled_from(required))
        lines = [group for group in lines if group[0] != flag]
    elif kind == "non_int_n":
        lines = [[g[0], draw(st.sampled_from(("x", "1.5", "")))] if g[0] == "--n" else g for g in lines]
    elif kind == "bad_format":
        lines.append(["--format", draw(st.sampled_from(("xml", "JSON", "")))])
    elif kind == "help":
        lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(("-h", "--help", "--he")))])
    elif kind == "unknown":
        lines.insert(draw(st.integers(0, len(lines))), ["--no-such-option", "1"])
    elif kind == "trailing":
        lines.append([draw(st.sampled_from(("x", "1", "phi")))])
    return lines


class TestReadOffTheTable:
    @pytest.mark.parametrize("path", list(cli._COMMANDS), ids=lambda path: path.replace(" ", "_"))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reads_what_the_whole_tree_reads(self, path, data):
        required = [flag for flag, keywords in cli._options(path) if keywords.get("required")]
        lines = data.draw(_command_lines(path))
        argv = path.split() + [token for group in lines for token in group]
        got = cli._read(argv)  # a well-formed line is read off the table
        assert got is not None and vars(got) == vars(_tree_reading(argv))
        for kind in data.draw(st.lists(st.sampled_from(_PERTURBATIONS), min_size=1, max_size=2)):
            lines = _perturb(data.draw, kind, lines, required)
        argv = path.split() + [token for group in lines for token in group]
        got = cli._read(argv)
        want = _tree_reading(argv)
        if want is None:
            assert got is None
        elif got is not None:
            assert vars(got) == vars(want)


class TestRendering:
    def test_unwritable_out_is_a_named_error(self, tmp_path):
        out = tmp_path / "missing" / "rep.json"
        text, code = run_command(["classes", "--field", "2", "--n", "1", "--out", str(out)])
        assert code == 2
        assert text.startswith("error OutputNotWritable: cannot write --out")
        assert str(out) in text and not out.exists()

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "rep.json"
        text, code = run_command(
            ["classes", "--field", "2", "--n", "2", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == text.encode()

    def test_csv_shape(self):
        text, code = run_command(["classes", "--field", "2", "--n", "2", "--format", "csv"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "key,value"
        paths = []
        for line in lines[1:]:
            path, _, value = line.partition(",")
            assert _ == ","
            paths.append(path)
        assert "result.count" in paths
        assert "command" in paths

    def test_text_format_mentions_elapsed(self):
        text, code = run_command(["classes", "--field", "2", "--n", "2", "--format", "text"])
        assert code == 0
        assert "elapsed" in text

    def test_json_fixed_key_order(self):
        rep = _run_json(["classes", "--field", "2", "--n", "2"])
        assert list(rep) == ["tool", "version", "command", "params", "result", "caps", "timing_ms"]
        assert rep["timing_ms"] is None
        assert "threads" not in rep["params"]


CHEAP = [
    ["classes", "--field", "2", "--n", "2", "--check", "brute"],
    ["flags", "phi", "--field", "2", "--n", "3", "--sig", "1,2"],
    ["nil", "fingerprint", "--field", "2", "--n", "4", "--sig", "1,1,2"],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", CHEAP, ids=lambda a: a[0] + "-" + a[-1])
    def test_subprocess_matches_in_process(self, argv):
        cp = subprocess.run(
            [sys.executable, "-m", "matsemi.cli"] + argv + ["--format", "json"],
            capture_output=True,
        )
        assert cp.returncode == 0, cp.stderr.decode()
        text, code = run_command(argv + ["--format", "json"])
        assert code == 0
        assert cp.stdout == text.encode()

    def test_console_script_installed(self, tmp_path):
        # The `matsemi` a shell user runs is the wrapper that an installer
        # writes from the `[project.scripts]` entry. Write that wrapper from
        # this tree's pyproject.toml, so the check runs uninstalled too.
        declared = _declared_console_script("matsemi")
        module, _, func = declared.partition(":")
        script = tmp_path / "matsemi"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({func}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)  # PYTHONPATH reaches this tree (conftest)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        _assert_help_runs(["matsemi", "--help"], env)

        # Where the package is installed, the installed script must carry
        # the same entry point and reach the same CLI.
        installed = entry_points(group="console_scripts", name="matsemi")
        if installed:
            assert [ep.value for ep in installed] == [declared]
            found = shutil.which("matsemi")
            assert found is not None, "matsemi is installed but not on PATH"
            _assert_help_runs([found, "--help"], None)


def _declared_console_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} console script"
    return scripts[name]


def _assert_help_runs(argv, env):
    cp = subprocess.run(argv, capture_output=True, env=env)
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stdout.startswith(b"usage: matsemi")
    assert b"classes" in cp.stdout
