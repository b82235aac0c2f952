"""Run benchmark jobs, each in a process that has just imported matsemi.

Usage, from the root of a matsemi checkout: ``python3 perfbench/worker.py``.

The worker imports ``matsemi`` from the checkout's ``src`` directory and
prints ``ready``; the time up to that line is set-up. It then reads JSON
lines ``{"job": ..., "seed": n, "trace": bool}`` from standard input until
it ends. For each it forks a child that runs the job, and prints one JSON
line with the job's outputs, its time in seconds and the child's peak RSS.
The worker itself never runs a job, so every child starts with the cold
library caches (``lru_cache``s, the ambient cache) that a new ``matsemi``
CLI process sees, without paying for interpreter start and import again.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import matsemi  # noqa: E402
import matsemi.cli  # noqa: E402
import matsemi.flags  # noqa: E402

if not os.path.abspath(matsemi.__file__).startswith(os.path.join(SRC, "matsemi") + os.sep):
    sys.exit(f"matsemi was imported from {matsemi.__file__}, not from {SRC}")

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402
from workloads import query_stream  # noqa: E402


def _cli(job, inputs):
    text, code = matsemi.cli.run_command([*job["argv"], "--format", "json"])
    return {"exit": code, "text": text}


def _criterion(job, inputs):
    res = getattr(matsemi.verify, job["name"])()
    return {"passed": res.passed, "details": [list(d) for d in res.details]}


def _flag_sizes(job, inputs):
    """The size law of criterion 3 for each ``(q, n, m)`` of the job: the
    semigroup of every flag of signature ``(m, n - m)`` in ``F_q^n`` has
    ``q^(m(n-m))`` elements, and each of them lowers the flag."""
    flags = 0
    wrong = []
    for q, n, m in job["signatures"]:
        for fl in matsemi.flags.flags_with_signature(matsemi.field_make(q), n, (m, n - m)):
            sg = matsemi.flags.flag_semigroup(fl)
            flags += 1
            if len(sg) != q ** (m * (n - m)) or not all(matsemi.flags.lowers_flag(a, fl) for a in sg):
                wrong.append(matsemi.flags.format_flag(fl))
    return {"flags": flags, "wrong": wrong}


def _sweep(job, inputs):
    field = matsemi.field_make(job["p"], job["k"])
    t0 = time.perf_counter()
    keys = Counter(matsemi.class_key(a) for a in matsemi.enumerate_matrices(field, job["n"], job["n"]))
    elapsed = time.perf_counter() - t0
    return {
        "keys": len(keys),
        "sizes": sorted(keys.values()),
        "elems": sum(keys.values()),
        "sweep_s": elapsed,
    }


def _query_inputs(job, seed):
    from matsemi.gf import Matrix

    inputs = []
    for p, k, n in job["ambients"]:
        field = matsemi.field_make(p, k)
        for kind, xc, yc in query_stream(seed, field.q, n, job["per_ambient"], job["pool"]):
            inputs.append((kind, Matrix(field, n, n, xc), Matrix(field, n, n, yc)))
    return inputs


def _queries(job, inputs):
    """Each query is timed alone; only the library calls are inside the
    timed region, the check of the answer is not."""
    lat_ms, wrong = [], []
    clock = time.perf_counter
    for i, (kind, x, y) in enumerate(inputs):
        if kind == "key":
            t0 = clock()
            ok = matsemi.class_key(x * y) == matsemi.class_key(y * x)
            lat_ms.append((clock() - t0) * 1000.0)
        elif kind == "chain":
            t0 = clock()
            chain = matsemi.core_chain(x)
            lat_ms.append((clock() - t0) * 1000.0)
            ok = chain.steps[0] == x and chain.steps[-1] == matsemi.core(x)
        else:
            t0 = clock()
            ok = matsemi.semigroup_conjugate(x * y, y * x)
            lat_ms.append((clock() - t0) * 1000.0)
        if ok is not True:
            wrong.append(f"query {i} ({kind}) on M({x.rows}, F_{x.field.q}) answered {ok!r}")
    return {"attempted": len(inputs), "wrong": wrong, "lat_ms": lat_ms}


# "probe" only starts the interpreter and reports the versions.
RUNNERS = {"cli": _cli, "criterion": _criterion, "flag_sizes": _flag_sizes, "sweep": _sweep, "queries": _queries, "probe": lambda job, inputs: {}}
# Input building that stays outside the job's timed region.
PREPARE = {"queries": _query_inputs}


def run_request(req: dict) -> dict:
    job = req["job"]
    tracer = Tracer() if req["trace"] else None
    job_s = 0.0
    try:
        inputs = PREPARE[job["kind"]](job, req["seed"]) if job["kind"] in PREPARE else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        out = RUNNERS[job["kind"]](job, inputs)
        job_s = time.perf_counter() - t0
    except Exception:  # a failing job is a counted failure, not a crash
        out = {"error": traceback.format_exc(limit=4)}
    if tracer:
        tracer.uninstall()
    out["job_s"] = job_s
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["trace"] = tracer.snapshot() if tracer else None
    out["python"] = platform.python_version()
    out["numpy"] = numpy.__version__
    return out


def main():
    print("ready", flush=True)
    for line in sys.stdin:
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child runs one job and reports through the pipe
            os.close(rfd)
            status = 1
            try:
                with os.fdopen(wfd, "w") as fh:
                    fh.write(json.dumps(run_request(json.loads(line))))
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        with os.fdopen(rfd) as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not reply:
            reply = json.dumps({"error": f"job process exited {code}"})
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
