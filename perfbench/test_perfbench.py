"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os

import pytest

import run
import workloads
from tracer import CACHED, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_enclosed_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tr.span("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0
        traced_leaf()

    tr.span("outer", outer)()
    assert tr.self_s["outer"] == pytest.approx(4.0)
    assert tr.self_s["leaf"] == pytest.approx(4.0)
    assert tr.calls == {"outer": 1, "leaf": 2}


def test_generator_span_excludes_consumer_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.now += 1.0
            yield i

    for _ in tr.span("gen", gen)():
        clock.now += 10.0  # the consumer's time
    assert tr.self_s["gen"] == pytest.approx(3.0)
    assert tr.calls["gen"] == 1


def test_percentile_nearest_rank_and_sample_count():
    xs = list(range(1, 1001))  # 1..1000
    assert run.percentile(xs, 50) == 500
    assert run.percentile(xs, 99) == 990  # ten samples lie above it
    with pytest.raises(ValueError):
        run.percentile(xs[:-1], 99)  # 999 samples leave only nine above p99
    assert run.percentile(list(reversed(xs)), 99) == 990


def test_count_mismatches_ignore_times():
    a = {"flags.lowers_flag.calls": 10, "flags.lowers_flag.ms": 1.0, "gf.mat_rank.hit_ratio": 0.5}
    b = {"flags.lowers_flag.calls": 10, "flags.lowers_flag.ms": 2.0, "gf.mat_rank.hit_ratio": 0.5}
    assert run.count_mismatches(a, b) == []
    b["flags.lowers_flag.calls"] = 11
    assert run.count_mismatches(a, b) == ["flags.lowers_flag.calls: 10 then 11"]


def _over_cap_job():
    return next(j for j in workloads.AMBIENT_GRID if j["name"] == "isolated-3-2-over-cap")


def test_digest_gate_rejects_an_altered_report(monkeypatch):
    monkeypatch.chdir(ROOT)
    job = _over_cap_job()
    _setup_s, out = run.run_job(job, seed=0, trace=False)
    assert workloads.gate(job, out) == []
    altered = dict(out, text=out["text"].replace("81", "82", 1))
    assert any("sha256" in p for p in workloads.gate(job, altered))
    assert any("exit" in p for p in workloads.gate(job, dict(out, exit=0)))
    assert workloads.gate(job, {"error": "boom"}) == [f"{job['name']}: boom"]


def test_traced_worker_wraps_every_binding(monkeypatch):
    monkeypatch.chdir(ROOT)
    job = {"kind": "cli", "name": "isolated-2-2", "argv": ["isolated", "enum", "--field", "2", "--n", "2"]}
    _setup_s, out = run.run_job(job, seed=0, trace=True)
    tr = out["trace"]
    # cli calls enumerate_isolated through its own imported binding
    assert tr["calls"]["cli.run_command"] == 1
    assert tr["calls"]["isolated.enumerate_isolated"] == 1
    assert tr["work"]["cli.report_bytes"] == len(out["text"].encode())
    assert set(tr["caches"]) == {f"{m}.{f}" for m, f in CACHED}


def test_query_stream_is_seeded():
    a = workloads.query_stream(7, 2, 4, 50, 16)
    assert a == workloads.query_stream(7, 2, 4, 50, 16)
    assert a != workloads.query_stream(8, 2, 4, 50, 16)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.SPEC


def test_jobs_of_one_worker_see_cold_caches(monkeypatch):
    monkeypatch.chdir(ROOT)
    job = {"kind": "cli", "name": "isolated-2-2", "argv": ["isolated", "enum", "--field", "2", "--n", "2"]}
    worker = run.Worker()
    try:
        first, second = (worker.run(job, seed=0, trace=True) for _ in range(2))
    finally:
        worker.close()
    assert worker.proc.returncode == 0
    assert first["text"] == second["text"]
    assert first["trace"]["caches"] == second["trace"]["caches"]
    assert any(misses for _hits, misses in first["trace"]["caches"].values())
