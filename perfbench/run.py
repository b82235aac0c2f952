"""The matsemi benchmark.

Run from the root of a matsemi checkout::

    python3 perfbench/run.py --workload ambient-grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Each workload is a fixed list of jobs (``workloads.py``), run as one closed
loop by a single client, one job at a time. A pass runs the job list once in
a new worker (``worker.py``): the worker starts the interpreter and imports
``matsemi`` once, then forks a child per job, so every job sees the cold
library caches of a new ``matsemi`` CLI process. The job list is repeated
while the next pass is expected to end within ``--seconds``, and at least
three times. ``setup_s`` is the median over the passes of the worker's
interpreter start plus ``import matsemi``. ``wall_s`` is the sum over the
jobs of each job's fastest time in the run: on a shared machine, time is
lost in bursts that last from a second to a minute, and the fastest
repetition is the one they disturbed least. Every job's output is checked against its frozen output; a
mismatch counts as failed and never stops the run.

With ``--trace 1`` the job list alternates between traced and untraced
passes, traced first, until there are at least two of each and as many of
each. The traced passes wrap the library's public functions from outside
(``tracer.py``) and give the per-layer metrics, times again as the fastest
pass; the count metrics of the first two traced passes must agree exactly.
The tracing overhead is the traced ``wall_s`` minus the untraced one.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import WORK_COUNTS  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
JOB_TIMEOUT_S = 60
MIN_PASSES = 3  # untraced passes per run

WHY = {
    "ambient-grid": "CLI jobs that build whole product grids and walk them: engine grids and closures, brute classes",
    "flag-invariants": "flag enumeration, lowering and nilclass invariants over small tables; no ambient grid is built",
    "element-queries": "gridless class_key sweep of M(3,F3) and a seeded query stream; conjugacy and gf caches only",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# (name, unit): "<layer>.<fn>.ms" is self time, ".calls" a call count,
# ".hit_ratio" and ".misses" come from the function's cache_info().
PER_LAYER = [
    ("engine.product_grid.ms", "ms"),
    ("engine.product_grid.entries", "count"),
    ("engine.ambient.ms", "ms"),
    ("engine.equiv_closure.ms", "ms"),
    ("engine.equiv_closure.pairs", "count"),
    ("engine.closure.ms", "ms"),
    ("engine.closure_ids.ms", "ms"),
    ("engine.enumerate_subsemigroups.ms", "ms"),
    ("engine.build_table.ms", "ms"),
    ("engine.power_sets.ms", "ms"),
    ("conjugacy.sg_classes.theorem.ms", "ms"),
    ("conjugacy.sg_classes.brute.ms", "ms"),
    ("conjugacy.class_key.ms", "ms"),
    ("conjugacy.class_key.calls", "count"),
    ("conjugacy.core_chain.ms", "ms"),
    ("conjugacy.semigroup_conjugate.ms", "ms"),
    ("conjugacy.core_decomposition.hit_ratio", "ratio"),
    ("gf.invariant_factors.hit_ratio", "ratio"),
    ("gf.invariant_factors.misses", "count"),
    ("gf.mat_rank.hit_ratio", "ratio"),
    ("gf.mat_kernel.hit_ratio", "ratio"),
    ("gf.mat_image.hit_ratio", "ratio"),
    ("gf.enumerate_matrices.ms", "ms"),
    ("flags.flags_with_signature.ms", "ms"),
    ("flags.all_flags.ms", "ms"),
    ("flags.flag_make.calls", "count"),
    ("flags.lowers_flag.calls", "count"),
    ("flags.lowers_flag.ms", "ms"),
    ("flags.flag_semigroup.ms", "ms"),
    ("flags.is_k_maximal.ms", "ms"),
    ("flags.consolidates.ms", "ms"),
    ("nilclass.nil_context.ms", "ms"),
    ("nilclass.fingerprint.ms", "ms"),
    ("nilclass.iso_construct.ms", "ms"),
    ("nilclass.prec.calls", "count"),
    ("nilclass.ll.calls", "count"),
    ("isolated.enumerate_isolated.ms", "ms"),
    ("isolated.is_completely_isolated.ms", "ms"),
    ("verify.criterion_04.ms", "ms"),
    ("verify.criterion_05.ms", "ms"),
    ("verify.criterion_06.ms", "ms"),
    ("verify.criterion_09.ms", "ms"),
    ("cli.run_command.ms", "ms"),
    ("cli.report_bytes", "B"),
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_s", "s"),
    ("failed_ratio", "ratio"),
    ("sweep_elems_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("query_samples", "count"),
]

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 36,
    "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
    "end_to_end": END_TO_END,
    "per_layer": [
        {"name": n, "unit": u, "better": "higher" if n.endswith(("hit_ratio", "_per_s")) else "lower"}
        for n, u in PER_LAYER
    ],
}


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``p``-th percentile of ``values``. At least
    ``min_beyond`` samples must lie above it; otherwise ValueError."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{p:g} of {n} samples has {n - rank} beyond it, fewer than {min_beyond}")
    return xs[rank - 1]


# ---------------------------------------------------------------------------
# running jobs


class Fatal(Exception):
    """The program under test could not be started at all."""


class Worker:
    """A ``worker.py`` process: interpreter start plus ``import matsemi``
    once (``setup_s``), then one forked child per job, so that every job
    sees cold library caches."""

    def __init__(self):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        ready = self._readline()
        self.setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            self.close()
            raise Fatal(f"worker did not start (exit {self.proc.returncode})")

    def _readline(self) -> str:
        """One line of the worker's output, or "" if it takes longer than
        JOB_TIMEOUT_S (the worker is then stopped) or the worker ended."""
        readable, _, _ = select.select([self.proc.stdout], [], [], JOB_TIMEOUT_S)
        if not readable:
            os.killpg(self.proc.pid, signal.SIGKILL)  # the worker and its job child
            self.proc.wait()
            return ""
        return self.proc.stdout.readline()

    def run(self, job: dict, seed: int, trace: bool) -> dict:
        """The outputs of ``job``, or ``{"error": ...}``."""
        if self.proc.poll() is not None:
            return {"error": f"worker exited {self.proc.returncode}"}
        self.proc.stdin.write(json.dumps({"job": job, "seed": seed, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self._readline()
        if not line.strip():
            return {"error": f"no output within {JOB_TIMEOUT_S} s"}
        return json.loads(line)

    def close(self):
        """End the worker, and any job it runs, and wait for both."""
        try:
            self.proc.stdin.close()  # the worker ends at the end of its input
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)  # the worker and its job child
            self.proc.wait()
        self.proc.stdout.close()


def run_job(job: dict, seed: int, trace: bool) -> tuple[float, dict]:
    """(set-up seconds, outputs) of one job in a worker of its own."""
    worker = Worker()
    try:
        return worker.setup_s, worker.run(job, seed, trace)
    finally:
        worker.close()


def run_pass(jobs, seed: int, trace: bool) -> dict:
    """The job list once, in order, in a new worker."""
    worker = Worker()
    res = {"setup_s": worker.setup_s, "rss_mb": 0.0, "attempted": 0, "failed": 0, "problems": [], "outs": []}
    try:
        outs = [worker.run(job, seed, trace) for job in jobs]
    finally:
        worker.close()
    for job, out in zip(jobs, outs):
        problems = gate(job, out)
        queries = job["kind"] == "queries" and "error" not in out
        res["attempted"] += out["attempted"] if queries else 1
        res["failed"] += len(out["wrong"]) if queries else bool(problems)
        res["problems"].extend(problems)
        res["rss_mb"] = max(res["rss_mb"], out.get("rss_mb", 0.0))
        res["outs"].append((job, out))
    return res


# ---------------------------------------------------------------------------
# metrics


def layer_values(pass_res: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    self_ms, calls, work, caches = {}, {}, {}, {}
    gc_ms = gc_n = 0
    for _job, out in pass_res["outs"]:
        tr = out.get("trace")
        if not tr:
            continue
        for src, dst in ((tr["self_ms"], self_ms), (tr["calls"], calls), (tr["work"], work)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (hits, misses) in tr["caches"].items():
            h, m = caches.get(k, (0, 0))
            caches[k] = (h + hits, m + misses)
        gc_ms += tr["gc_ms"]
        gc_n += tr["gc_collections"]
    vals = {"runtime.gc_ms": gc_ms, "runtime.gc_collections": gc_n}
    for name, _unit in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "ms":
            vals[name] = self_ms.get(base, 0.0)
        elif leaf == "calls":
            vals[name] = calls.get(base, 0)
        elif leaf in ("hit_ratio", "misses"):
            hits, misses = caches.get(base, (0, 0))
            vals[name] = misses if leaf == "misses" else (hits / (hits + misses) if hits + misses else 0.0)
        elif name in WORK_COUNTS:
            vals[name] = work.get(name, 0)
    return vals


def job_times(passes) -> list[float]:
    """Each job's fastest time over ``passes``, in job-list order."""
    return [min(p["outs"][i][1].get("job_s", 0.0) for p in passes) for i in range(len(passes[0]["outs"]))]


def element_values(passes) -> dict:
    """Fastest sweep rate and pooled query latencies of the untraced
    passes."""
    rates, lat = [], []
    for p in passes:
        for job, out in p["outs"]:
            if job["kind"] == "sweep" and "sweep_s" in out:
                rates.append(out["elems"] / out["sweep_s"])
            elif job["kind"] == "queries" and "lat_ms" in out:
                lat.extend(out["lat_ms"])
    vals = {"sweep_elems_per_s": max(rates, default=0.0), "query_samples": len(lat)}
    vals["query_ms_p50"] = percentile(lat, 50) if lat else 0.0
    vals["query_ms_p99"] = percentile(lat, 99) if lat else 0.0
    return vals


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Count metrics of two traced passes that differ."""
    units = dict(PER_LAYER)
    return [
        f"{k}: {a[k]} then {b[k]}"
        for k in a
        if units.get(k) in ("count", "ratio", "B") and a[k] != b[k]
    ]


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    jobs = WORKLOADS[workload]
    info = machine()
    info["loadavg_start"] = os.getloadavg()
    # One unmeasured start compiles bytecode and proves the package imports.
    _, probe = run_job({"kind": "probe", "name": "probe"}, seed, False)
    info["python"], info["numpy"] = probe.get("python"), probe.get("numpy")

    # Passes go on while the next one is expected to end within ``seconds``.
    t_start = time.perf_counter()
    untraced, traced, durations = [], [], []
    while True:
        if trace:
            enough = len(traced) >= 2 and len(untraced) == len(traced)
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - t_start + statistics.median(durations) > seconds:
            break
        want_traced = trace and len(traced) <= len(untraced)
        t0 = time.perf_counter()
        (traced if want_traced else untraced).append(run_pass(jobs, seed, want_traced))
        durations.append(time.perf_counter() - t0)
    info["loadavg_end"] = os.getloadavg()

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    per_job = job_times(untraced)
    lines = [f"workload {workload}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced passes",
             "machine " + json.dumps(info)]
    metrics = {}
    if not trace:
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in passes), "s")
        metrics["wall_s"] = (sum(per_job), "s")
        metrics["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in untraced), "MB")
    else:
        layers = [layer_values(p) for p in traced]
        problems += [f"count not repeated, {m}" for m in count_mismatches(layers[0], layers[1])]
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            if name in layers[0] and unit == "ms":
                metrics[name] = (min(v[name] for v in layers), unit)
            elif name in layers[0]:
                metrics[name] = (layers[0][name], unit)
        metrics["trace.overhead_s"] = (sum(job_times(traced)) - sum(per_job), "s")
        metrics["failed_ratio"] = (failed / attempted, "ratio")
        for name, value in element_values(untraced).items():
            metrics[name] = (value, units[name])
    lines += [f"job {job['name']} {t:.4f} s" for job, t in zip(jobs, per_job)]
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    lines += [f"FAILED {msg}" for msg in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def write_spec(path: str):
    with open(path, "w") as fh:
        json.dump(SPEC, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec("BENCHMARK.json")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
