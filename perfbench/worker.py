"""One fresh interpreter of a perfbench run; started by ``run.py``.

Modes:
  probe  import spechtvar, draw the queries, report ready, exit
  fill   build the cache-read modules into $SPECHTVAR_CACHE, write a manifest
  run    probe's set-up, then the closed loop: one query after another,
         whole rounds, until --seconds of query time have passed

Prints ``ready`` once set-up is done, then (in run mode) one line
``result {json}``.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spechtvar  # noqa: E402
from spechtvar import acceptance, variety  # noqa: E402

import pools  # noqa: E402
import queries  # noqa: E402


def _draw(args):
    """The rounds to run: a given list (replay, traced run) or the open stream."""
    if args.queries:
        return json.loads(Path(args.queries).read_text())
    return pools.rounds(args.workload, args.seed)


def _isolation_errors(workload: str) -> list[str]:
    errors = []
    if variety._LOCUS_MEMO:
        errors.append("variety._LOCUS_MEMO is not empty")
    if acceptance._TABLE9 is not None:
        errors.append("acceptance._TABLE9 is not empty")
    cache = os.environ.get("SPECHTVAR_CACHE")
    if workload in ("locus", "generic") and cache:
        errors.append("SPECHTVAR_CACHE is set")
    if workload == "construct" and (not cache or any(Path(cache).iterdir())):
        errors.append("construct needs an empty private SPECHTVAR_CACHE")
    if workload == "cache-read" and (not cache or not any(Path(cache).iterdir())):
        errors.append("cache-read needs a filled private SPECHTVAR_CACHE")
    return errors


def _environment() -> dict:
    """Python, numpy and BLAS as loaded here; BLAS threads left at default."""
    import ctypes
    import glob
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}}


def _fill(args) -> None:
    """Build every module of this filler's share of the pool, once.

    Shares are dealt largest first, so the fillers finish together.  Each
    filler has a cache directory of its own, so a call that adds a file
    there built its module; a pair member that only loaded its partner's
    file is given the partner's digest, which was taken from the build.
    """
    cache = Path(os.environ["SPECHTVAR_CACHE"])
    slots = sorted(pools.POOLS[args.workload], key=pools.solve_size, reverse=True)
    manifest = {}
    for slot in slots[args.part::args.parts]:
        digest = None
        for key in slot:
            files = len(list(cache.iterdir()))
            acts = queries.execute(key)
            if digest is None or len(list(cache.iterdir())) > files:
                digest = queries.digest(acts)
            manifest[key] = digest
    Path(args.manifest).write_text(json.dumps(manifest, sort_keys=True))


def _loop(args, plan, refs: dict, built: dict, scratch: Path):
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    latencies: list[float] = []
    done: list[list[str]] = []
    failures: list[dict] = []
    busy = 0.0
    cpu0 = os.times()
    wall0 = time.perf_counter()
    for batch in plan:
        if busy >= args.seconds and not args.queries:
            break
        for key in batch:
            index = len(latencies)
            queries.prepare(key, scratch, index)
            if tracer:
                tracer.query = index
                tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                output = queries.execute(key)
            except Exception as exc:  # a failed query is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            busy += elapsed
            latencies.append(elapsed)
            if error is None:
                try:
                    error = queries.check(key, output, refs.get(key), built, scratch, index)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failures.append({"query": key, "error": error})
        done.append(batch)
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    result = {
        "rounds": done,
        "latencies": latencies,
        "failures": failures,
        "busy_s": busy,
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracing.summarize(tracer.spans, latencies)
        Path(args.spans).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "query", "info"],
             "queries": [k for b in done for k in b],
             "spans": tracer.spans}, default=str))
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "fill", "run"), required=True)
    ap.add_argument("--workload", choices=pools.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--queries", help="JSON list of rounds to run instead of a draw")
    ap.add_argument("--manifest", help="cache-read: built-matrix digests")
    ap.add_argument("--scratch", help="private directory for construct caches")
    ap.add_argument("--spans", help="trace the run and write its spans to this file")
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args()

    if args.mode == "fill":
        _fill(args)
        return 0
    plan = _draw(args)
    errors = _isolation_errors(args.workload)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    refs = json.loads((HERE / "refs.json").read_text())["queries"]
    built = json.loads(Path(args.manifest).read_text()) if args.manifest else {}
    result = _loop(args, plan, refs, built, Path(args.scratch or "."))
    result["isolation_errors"] = errors
    result["environment"] = {"spechtvar": spechtvar.__version__, **_environment()}
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
