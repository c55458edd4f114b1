"""Record the reference output of every query any seed can draw.

    python3 perfbench/make_refs.py [--workload W ...]

Run from the root of a checkout whose outputs are trusted; the committed
``refs.json`` was recorded on the commit that introduced the benchmark.
Each entry also keeps the query's wall time in this process (``cost_s``),
which is what the slot layout in ``pools.py`` was sized with.  cache-read
needs no entry: its reference is the module built when its cache is filled.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pools  # noqa: E402
import queries  # noqa: E402

REFS = HERE / "refs.json"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=[w for w in pools.WORKLOADS if w != "cache-read"])
    args = ap.parse_args()
    doc = json.loads(REFS.read_text()) if REFS.exists() else {"queries": {}}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=HERE.parent).stdout.strip()
    for workload in args.workload or ["locus", "generic", "construct"]:
        for key in pools.all_queries(workload):
            t0 = time.perf_counter()
            output = queries.execute(key)
            cost = time.perf_counter() - t0
            if isinstance(output, tuple) and output[0] != 0:
                raise SystemExit(f"{key}: exit code {output[0]}")
            ref = queries.reference_of(key, output)
            error = queries.check(key, output, ref, {}, HERE, -1) if key.startswith("variety") else None
            if error:
                raise SystemExit(f"{key}: {error}")
            doc["queries"][key] = {**ref, "cost_s": round(cost, 4)}
            print(f"{cost:8.3f}  {key}", flush=True)
        doc.setdefault("recorded_at", {})[workload] = commit
    drawable = {key for w in pools.WORKLOADS for key in pools.all_queries(w)}
    doc["queries"] = {k: v for k, v in doc["queries"].items() if k in drawable}
    REFS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
