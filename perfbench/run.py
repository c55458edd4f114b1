"""perfbench: the spechtvar benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run happens in a fresh
interpreter (``worker.py``).  With ``--trace 0`` the last line of stdout
carries the end-to-end metrics; with ``--trace 1`` the same queries run
again with spans around each layer and the last line carries the per-layer
metrics.  ``--replay RECORD`` re-runs the exact queries of an earlier run,
read from its record under ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import pools  # noqa: E402
import tracing  # noqa: E402

_PROBES = 4        # extra fresh interpreters timed for setup_s
_FILLERS = 2       # processes that fill the cache-read directory
_TIME_LIMIT = 170  # seconds; the whole run must end within 180


class BenchError(Exception):
    pass


class Runner:
    """Starts workers, enforces the time limit, and stops every child."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.deadline = time.monotonic() + _TIME_LIMIT
        self.live: list[subprocess.Popen] = []

    def start(self, *args: str, env: dict[str, str] | None = None) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                env=env or self.env)
        self.live.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, t0: float) -> tuple[float | None, list[str]]:
        """Wait for a worker; returns (seconds until it said ready, its lines)."""
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        ready, lines = None, []
        try:
            for line in proc.stdout:
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - t0
                lines.append(line)
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            self.live.remove(proc)
        if code != 0:
            raise BenchError(f"worker {proc.args[2:]} exited with code {code}")
        return ready, lines

    def run(self, *args: str):
        t0 = time.perf_counter()
        return self.finish(self.start(*args), t0)

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def _result(lines: list[str]) -> dict:
    for line in reversed(lines):
        if line.startswith("result "):
            return json.loads(line[len("result "):])
    raise BenchError("worker printed no result")


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights; far steadier from run to run than a single order statistic
    when the queries near the quantile differ in cost.
    """
    x = np.sort(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf), [pdf.sum()]]) / pdf.sum()
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 20001), cdf))
    return float(weights @ x)


def _fill_cache(runner: Runner, base: list[str], work: Path, cache: Path) -> dict:
    """Build the pool into the private cache with a few filler processes.

    The fill is not measured, so each filler runs single-threaded BLAS and
    the fillers share the cores instead of oversubscribing them; the cache
    content does not depend on the thread count (the arithmetic is exact).
    Each filler writes its own directory; the files are merged afterwards.
    """
    procs = []
    for part in range(_FILLERS):
        own = work / f"fill{part}"
        own.mkdir()
        env = dict(runner.env, SPECHTVAR_CACHE=str(own),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        manifest = work / f"manifest-{part}.json"
        args = [*base, "--mode", "fill", "--part", str(part), "--parts", str(_FILLERS),
                "--manifest", str(manifest)]
        procs.append((runner.start(*args, env=env), own, manifest))
    built = {}
    for proc, own, manifest in procs:
        runner.finish(proc, time.perf_counter())
        built.update(json.loads(manifest.read_text()))
        for path in own.iterdir():
            os.replace(path, cache / path.name)
    return built


def _source_hash() -> str:
    """Fingerprint of everything a filled cache-read directory depends on."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "spechtvar").rglob("*.py"))
    for path in files + [HERE / "pools.py", HERE / "queries.py", HERE / "worker.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _filled_cache(runner: Runner, base: list[str]) -> Path:
    """The cache-read directory for this source tree, filled on first use.

    A fill takes longer than a run measures and depends only on the source,
    so one fill per checkout and source tree serves every run.  It is built
    in a staging directory and published by an atomic rename.
    """
    final = ROOT / ".perfbench-run" / f"cache-read-{_source_hash()}"
    if (final / "manifest.json").is_file():
        return final
    staging = Path(tempfile.mkdtemp(prefix="fill-", dir=ROOT / ".perfbench-run"))
    try:
        (staging / "cache").mkdir()
        built = _fill_cache(runner, base, staging, staging / "cache")
        (staging / "manifest.json").write_text(json.dumps(built))
        try:
            os.rename(staging, final)
        except OSError:
            pass  # another run published the same fill first
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


def measure(args, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("SPECHTVAR_CACHE", None)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.replay:
        queries_file = work / "queries.json"
        queries_file.write_text(json.dumps(json.loads(Path(args.replay).read_text())["rounds"]))
        base += ["--queries", str(queries_file)]
    if args.workload == "construct":
        (work / "cache").mkdir()
        env["SPECHTVAR_CACHE"] = str(work / "cache")
    runner = Runner(env)
    phases = {}
    t0 = time.perf_counter()
    try:
        if args.workload == "cache-read":
            filled = _filled_cache(runner, base)
            env["SPECHTVAR_CACHE"] = str(filled / "cache")
            base += ["--manifest", str(filled / "manifest.json")]
            phases["fill_s"] = time.perf_counter() - t0
        setup = [runner.run(*base, "--mode", "probe")[0] for _ in range(_PROBES)]
        t1 = time.perf_counter()
        ready, lines = runner.run(*base, "--mode", "run", "--scratch", str(work / "plain"))
        phases["run_wall_s"] = time.perf_counter() - t1
        setup.append(ready)
        plain = _result(lines)
        traced = None
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
            same = work / "rounds.json"
            same.write_text(json.dumps(plain["rounds"]))
            _, lines = runner.run(*base, "--queries", str(same), "--mode", "run",
                                  "--scratch", str(work / "traced"), "--spans", str(spans))
            traced = _result(lines)
    finally:
        runner.stop_all()
    phases["total_s"] = time.perf_counter() - t0
    return {"setup": setup, "plain": plain, "traced": traced, "phases": phases}


def metrics(args, m: dict) -> tuple[dict, dict]:
    plain, traced = m["plain"], m["traced"]
    lat = plain["latencies"]
    tail_q = pools.tail_quantile(args.workload)
    tail = quantile(lat, tail_q)
    completed = len(lat) - len(plain["failures"])
    info = {"queries": len(lat), "tail_percentile": round(100 * tail_q, 1),
            "beyond_tail": sum(x > tail for x in lat),
            "rounds": len(plain["rounds"]), "busy_s": plain["busy_s"],
            "setup_samples_s": m["setup"], "phases": m["phases"],
            "error_rate": len(plain["failures"]) / len(lat) if lat else 1.0}
    if not args.trace:
        return {
            "ops_per_s": (completed / plain["busy_s"], "op/s"),
            "latency_p50_s": (quantile(lat, 0.5), "s"),
            "latency_tail_s": (tail, "s"),
            "setup_s": (statistics.median(m["setup"]), "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
        }, info
    layers = dict(traced["layers"])
    layers["process.cpu_s"] = plain["cpu_s"]
    layers["process.cpu_per_wall"] = plain["cpu_s"] / plain["wall_s"]
    layers["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"] - 1
    return {name: (value, tracing.unit_of(name)) for name, value in layers.items()}, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=pools.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", help="record of an earlier run whose queries to repeat")
    args = ap.parse_args()

    if not (ROOT / "src" / "spechtvar" / "__init__.py").is_file():
        print(f"perfbench: no spechtvar source under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (ROOT / ".perfbench-run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-run"))
    try:
        measured = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, info = metrics(args, measured)
    plain, traced = measured["plain"], measured["traced"]
    failures = plain["failures"] + (traced["failures"] if traced else [])
    isolation = plain["isolation_errors"] + (traced["isolation_errors"] if traced else [])
    attempted = len(plain["latencies"]) + (len(traced["latencies"]) if traced else 0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": plain["environment"],
        "rounds": plain["rounds"], "latencies_s": plain["latencies"],
        "failures": failures, "isolation_errors": isolation, "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for failure in failures:
        print(f"perfbench: FAILED {failure['query']}: {failure['error']}", file=sys.stderr)
    for error in isolation:
        print(f"perfbench: isolation: {error}", file=sys.stderr)
    print("perfbench: environment " + json.dumps(record["environment"]))
    print("perfbench: info " + json.dumps(info))
    print("perfbench: replay " + json.dumps({"workload": args.workload, "seed": args.seed,
                                             "rounds": plain["rounds"]}))
    print(f"perfbench: record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures and not isolation,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
