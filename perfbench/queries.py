"""Run one query through spechtvar's public entry points, and check it.

``prepare`` and ``check`` run outside the timed interval; only ``execute``
is timed.  Checks:

- ``variety`` / ``jordan``: exit code 0 and CLI stdout byte-identical to
  the reference; GF(27) classes at p = 3 must also match CATALOGUE_P3_9.
- ``perm-jordan``: the generic-type report, rendered canonically,
  byte-identical to the reference.
- ``construct``: dim equals dim_specht, nilpotency_checks() holds, the
  rank vector at the all-ones GF(p) point matches the reference (all three
  hold under any change of basis), and exactly one cache file was written.
- ``cache-read``: the loaded matrices are byte-equal to the ones built
  when the cache was filled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import zlib
from pathlib import Path

import numpy as np

# Called through their modules, so the traced run's patches apply.
from spechtvar import cli, jordan, spechtmod
from spechtvar.partitions import conjugate, dim_specht, parse_partition, size
from spechtvar.variety import CATALOGUE_P3_9


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    words = key.split()
    return words[0], dict(zip(words[1::2], words[2::2]))


def _module_args(opts: dict[str, str]) -> tuple[tuple[int, ...], int, int]:
    mu = parse_partition(opts["--mu"])
    p = int(opts["--p"])
    return mu, size(mu) // p, p


def digest(acts) -> str:
    """Checksum of the restricted action matrices, dtype and shape included.

    CRC-32 rather than a cryptographic hash: it guards against a wrong or
    damaged load, and it keeps the check of thousands of reads short.
    """
    return ";".join(f"{a.dtype.str}{a.shape}:{zlib.crc32(np.ascontiguousarray(a)):08x}"
                    for a in acts.A)


def render_report(rep) -> str:
    """Canonical text of a GenericTypeReport, for byte comparison."""
    return json.dumps({
        "type": list(rep.type.blocks),
        "rank_vector": list(rep.rank_vector.ranks),
        "mode": rep.mode,
        "samples": rep.samples,
        "field_degree": rep.field.k if rep.field is not None else None,
    }, sort_keys=True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(key: str, scratch: Path, index: int) -> None:
    """Untimed set-up: a fresh, empty cache directory for each construct."""
    if key.startswith("construct"):
        fresh = scratch / f"q{index}"
        fresh.mkdir(parents=True)
        os.environ["SPECHTVAR_CACHE"] = str(fresh)


def execute(key: str):
    """The timed call.  Returns the query's raw output."""
    command, opts = parse_key(key)
    if command in ("variety", "jordan"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(key.split())
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue()
    mu, n, p = _module_args(opts)
    if command == "perm-jordan":
        acts = spechtmod.perm_module_actions(mu, n, p)
        return jordan.generic_type(acts, mode=opts["--mode"], seed=int(opts["--seed"]))
    return spechtmod.restricted_actions(mu, n, p)


def _catalogue_error(text: str, opts: dict[str, str]) -> str | None:
    mu = parse_partition(opts["--mu"])
    rep = mu if mu in CATALOGUE_P3_9 else conjugate(mu)
    kind, dim = CATALOGUE_P3_9[rep]
    got = json.loads(text)["report"]["class"]
    if (got["kind"], got["est_dim"]) != (kind, dim):
        return f"class {got['kind']}/{got['est_dim']} != catalogue {kind}/{dim}"
    return None


def reference_of(key: str, output) -> dict:
    """What ``check`` compares against, computed from a trusted output."""
    command, opts = parse_key(key)
    if command in ("variety", "jordan"):
        return {"sha256": sha(output[1])}
    if command == "perm-jordan":
        return {"sha256": sha(render_report(output))}
    mu, n, _ = _module_args(opts)
    return {"dim": output.dim,
            "rank_vector": list(jordan.rank_vector_at(output, [1] * n).ranks)}


def check(key: str, output, ref: dict | None, built: dict[str, str],
          scratch: Path, index: int) -> str | None:
    """None if the output is right, else a one-line reason."""
    command, opts = parse_key(key)
    if command in ("variety", "jordan"):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        if ref is None or sha(text) != ref["sha256"]:
            return "stdout differs from the reference"
        if (command == "variety" and opts["--p"] == "3" and opts["--ext"] == "3"
                and opts["--out"] == "json"):
            return _catalogue_error(text, opts)
        return None
    if command == "perm-jordan":
        if ref is None or sha(render_report(output)) != ref["sha256"]:
            return "report differs from the reference"
        return None
    mu, n, _ = _module_args(opts)
    if output.dim != dim_specht(mu):
        return f"dim {output.dim} != dim_specht {dim_specht(mu)}"
    if command == "cache-read":
        return None if digest(output) == built.get(key) else "loaded matrices differ from the built ones"
    if not output.nilpotency_checks():
        return "A_i^p != 0 or the A_i do not commute"
    if ref is None or list(jordan.rank_vector_at(output, [1] * n).ranks) != ref["rank_vector"]:
        return "rank vector at (1,...,1) differs from the reference"
    written = list((scratch / f"q{index}").iterdir())
    if len(written) != 1:
        return f"{len(written)} cache files written, expected 1"
    return None
