"""The public surface that code outside the test suite reaches: the README
quick tour, and every name the benchmark harness in perfbench/ looks up.

The harness is not collected with the suite, so a library name it needs
could disappear without any other test noticing.  These tests only read
the files under perfbench/.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import matsemi
import matsemi.cli
from oracles import is_zero

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(path):
    """The module at path, under a name of its own, so nothing on sys.path
    is shadowed; no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_readme_quick_tour_runs():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    # the values the block's comments state
    assert is_zero(ns["core"](ns["a"]))
    assert ns["class_key"](ns["a"]) == ((0, 1), (0, 1))
    assert len(ns["part"].classes()) == 5
    assert dict(ns["fingerprint"](ns["ctx"]).items())["size"] == 32
    recs = ns["recs"]
    assert len(recs) == 15
    assert sum(r.completely_isolated for r in recs) == 3


@pytest.fixture(scope="module")
def tracer():
    return _load(PERFBENCH / "tracer.py")


def test_traced_functions_resolve(tracer):
    for module, name, how in tracer.TRACED:
        assert how in ("span", "count")
        assert callable(getattr(importlib.import_module(f"matsemi.{module}"), name, None)), (module, name)


def test_cached_functions_have_cache_info(tracer):
    for module, name in tracer.CACHED:
        fn = getattr(importlib.import_module(f"matsemi.{module}"), name, None)
        assert callable(getattr(fn, "cache_info", None)), (module, name)


def test_every_module_cache_is_bounded():
    # an lru_cache at module or class level lives as long as the process
    for info in pkgutil.iter_modules(matsemi.__path__):
        module = importlib.import_module(f"matsemi.{info.name}")
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for name, fn in vars(owner).items():
                if hasattr(fn, "cache_parameters"):
                    assert fn.cache_parameters()["maxsize"] is not None, (module.__name__, name)


def _matsemi_paths(tree):
    """Dotted paths below matsemi that a module's code reads: attribute
    chains on the name matsemi, and names imported from its modules."""
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "matsemi":
                paths.add(".".join(reversed(parts)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("matsemi."):
            paths.update(f"{node.module[len('matsemi.'):]}.{alias.name}" for alias in node.names)
    return paths


def test_worker_names_resolve():
    # worker.py is read, not run: at import it puts the src directory of
    # the current working directory on sys.path
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("matsemi."):
                    importlib.import_module(alias.name)
    paths = _matsemi_paths(tree)
    assert {"cli.run_command", "class_key", "enumerate_matrices", "gf.Matrix"} <= paths
    for path in sorted(paths):
        obj = matsemi
        for part in path.split("."):
            assert hasattr(obj, part), f"matsemi.{path}"
            obj = getattr(obj, part)


WORKLOADS = _load(PERFBENCH / "workloads.py")
REPLAYED = [job for jobs in WORKLOADS.WORKLOADS.values() for job in jobs if job["kind"] in ("cli", "criterion")]


def test_criterion_jobs_resolve():
    verify = importlib.import_module("matsemi.verify")
    names = [job["name"] for job in REPLAYED if job["kind"] == "criterion"]
    assert names
    for name in names:
        assert callable(getattr(verify, name, None)), name


@pytest.mark.parametrize("job", REPLAYED, ids=[job["name"] for job in REPLAYED])
def test_benchmark_job_gives_its_frozen_output(job):
    # in process, as perfbench/worker.py runs the job in a forked child:
    # exit code and report sha256, frozen result fields, criterion details
    if job["kind"] == "cli":
        text, code = matsemi.cli.run_command([*job["argv"], "--format", "json"])
        out = {"exit": code, "text": text}
    else:
        res = getattr(matsemi.verify, job["name"])()
        out = {"passed": res.passed, "details": [list(d) for d in res.details]}
    assert WORKLOADS.gate(job, out) == []
