"""Command-line surface: subcommands emitting deterministic JSON or TSV.

Every JSON report embeds the run configuration used to produce it; TSV is
reserved for tabular data (point sweeps and the 16-row classification
table), where diff-friendly golden files matter more than structure.
Output is byte-identical across runs with the same arguments and seed:
aggregation is order-independent and rows are canonically sorted before
emission, so the thread count never changes what is printed.

Exit codes: 0 success, 1 computational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache

from . import __version__, acceptance
from .errors import PreconditionViolated, SpechtvarError
from .ffalg import _is_prime
from .jordan import generic_type, stable_type
from .partitions import (Partition, conjugate, dim_specht, format_partition,
                         is_pxp_blocks, p_core_weight, parse_partition, size)
from .phimap import classify_hypothesis, phi_chain, predict
from .spechtmod import restricted_actions, tabloid_count
from .variety import classify, enumerate_locus, sweep_rank_vectors
from .youngdec import young_summands

_MODULE_PRIMES = (2, 3, 5)
_MODULE_COMMANDS = ("jordan", "variety", "table9", "verify")
_MAX_JSON_POINTS = 10000


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the subcommands; embedded in every JSON report."""

    p: int
    ext_degree: int = 1
    samples: int = 5
    seed: int = 0
    mode: str = "random"
    threads: int = 1
    cache_dir: str | None = None


def _prime(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        prime = _is_prime(value)
    except PreconditionViolated as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _partition(text: str) -> Partition:
    try:
        return parse_partition(text)
    except (SpechtvarError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _emit_json(command: str, config: RunConfig, report: dict) -> None:
    payload = {"command": command, "version": __version__,
               "config": asdict(config), "report": report}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_info(args: argparse.Namespace, config: RunConfig) -> int:
    mu, p = args.mu, config.p
    core = p_core_weight(mu, p)
    n, rem = divmod(size(mu), p)
    report = {
        "mu": format_partition(mu),
        "conjugate": format_partition(conjugate(mu)),
        "size": size(mu),
        "core": format_partition(core.core),
        "weight": core.weight,
        "dim_specht": dim_specht(mu),
        "dim_perm": tabloid_count(mu),
        "n": n if rem == 0 else None,
        "pxp_blocks": is_pxp_blocks(mu, p),
    }
    _emit_json("info", config, report)
    return 0


def _phi_payload(mu: Partition, p: int) -> dict:
    core = p_core_weight(mu, p)
    chain = limit = None
    hyp = "none"
    # classification runs on whichever of mu, mu' fits in p rows
    diagram = next((c for c in dict.fromkeys((mu, conjugate(mu)))
                    if len(c) <= p), None)
    if core.core == () and size(mu) % p == 0 and diagram is not None:
        chain = [format_partition(x) for x in phi_chain(diagram, p)]
        limit = chain[-1]
        hyp = classify_hypothesis(diagram, p, size(mu) // p)
    pred = predict(mu, p)
    return {
        "mu": format_partition(mu),
        "core": format_partition(core.core),
        "weight": core.weight,
        "phi_chain": chain,
        "Phi": limit,
        "hypothesis": hyp,
        "prediction": {"variety": pred.predicted_variety,
                       "complexity": pred.predicted_complexity},
    }


def cmd_phi(args: argparse.Namespace, config: RunConfig) -> int:
    payload = _phi_payload(args.mu, config.p)
    if payload["phi_chain"] is None:
        raise PreconditionViolated(
            f"{format_partition(args.mu)} is outside the phi domain: needs an "
            f"empty {config.p}-core and a diagram with at most {config.p} parts")
    _emit_json("phi", config, payload)
    return 0


def cmd_predict(args: argparse.Namespace, config: RunConfig) -> int:
    _emit_json("predict", config, _phi_payload(args.mu, config.p))
    return 0


def cmd_jordan(args: argparse.Namespace, config: RunConfig) -> int:
    mu, p = args.mu, config.p
    n = max(1, size(mu) // p)
    acts = restricted_actions(mu, n, p)
    rep = generic_type(acts, mode=config.mode, seed=config.seed,
                       samples=config.samples)
    st = stable_type(rep.type)
    report = {
        "mu": format_partition(mu),
        "n": n,
        "module_dim": acts.dim,
        "conjugated": acts.conjugated,
        "type": {"blocks": list(rep.type.blocks), "pretty": rep.type.pretty()},
        "stable_type": {"blocks": list(st.blocks), "pretty": st.pretty()},
        "rank_vector": list(rep.rank_vector.ranks),
        "mode": rep.mode,
        "samples": rep.samples,
        "field": f"GF({p}^{rep.field.k})" if rep.field is not None else None,
        # generic_type raises CertificationFailed rather than return an
        # uncertified report, so this field is always true
        "certified_by_single_sample": True,
        "generically_free": rep.rank_vector.is_free,
    }
    _emit_json("jordan", config, report)
    return 0


def cmd_variety(args: argparse.Namespace, config: RunConfig) -> int:
    mu, p, k = args.mu, config.p, config.ext_degree
    n = max(1, size(mu) // p)
    acts = restricted_actions(mu, n, p)
    if args.out == "tsv":
        rows = sorted((pt, free, rv.ranks)
                      for pt, free, rv in sweep_rank_vectors(acts, k))
        lines = ["point\tfree\trank_vector"]
        for pt, free, ranks in rows:
            lines.append("\t".join((
                ",".join(str(c) for c in pt),
                "true" if free else "false",
                ",".join(str(r) for r in ranks))))
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    sample = enumerate_locus(acts, k)
    cls = classify(acts, k)
    points = sorted(sample.points)
    report = {
        "mu": format_partition(mu),
        "n": n,
        "ext_degree": k,
        "field": f"GF({p}^{k})",
        "module_dim": acts.dim,
        "total_projective_points": sample.total_projective_points,
        "locus_size": len(points),
        "class": {"kind": cls.kind, "est_dim": cls.est_dim,
                  "form": repr(cls.form) if cls.form is not None else None},
        "points": ([list(pt) for pt in points]
                   if len(points) <= _MAX_JSON_POINTS else None),
    }
    _emit_json("variety", config, report)
    return 0


def _render_table9(rows: list[dict]) -> str:
    lines = ["mu\tconjugate\tclass\test_dim\tagrees_with_paper"]
    for r in rows:
        lines.append("\t".join((
            format_partition(r["mu"]),
            format_partition(r["conjugate"]),
            r["class"],
            str(r["est_dim"]),
            "true" if r["agrees_with_paper"] else "false")))
    return "\n".join(lines) + "\n"


def cmd_table9(args: argparse.Namespace, config: RunConfig) -> int:
    rows = acceptance.compute_table9(threads=config.threads)
    sys.stdout.write(_render_table9(rows))
    return 0


def cmd_young(args: argparse.Namespace, config: RunConfig) -> int:
    ss = young_summands(args.r, args.m, config.p)
    report = {
        "r": ss.r,
        "m": ss.m,
        "p": ss.p,
        "s_values": ss.sorted(),
        "summands": [format_partition((ss.r - s, s) if s else (ss.r,))
                     for s in ss.sorted()],
    }
    _emit_json("young", config, report)
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    results = acceptance.run_all(threads=config.threads, log=print)
    passed = sum(1 for r in results if r[2])
    print(f"{passed}/{len(results)} acceptance checks passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parsing


@cache  # parsing reads the parser and never changes it: build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spechtvar",
        description="Specht and permutation module restrictions: Jordan "
                    "types, freeness loci, and variety classification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, mu=True, prime=True):
        if mu:
            sp.add_argument("--mu", type=_partition, required=True,
                            help='partition, e.g. "(4,3,2)"')
        if prime:
            sp.add_argument("--p", type=_prime, default=3,
                            help="prime characteristic (default 3)")
        sp.add_argument("--cache-dir", default=None,
                        help="module cache directory (overrides SPECHTVAR_CACHE)")

    sp = sub.add_parser("info", help="partition invariants: core, weight, dimensions")
    common(sp)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("phi", help="phi chain, Phi, hypothesis class, prediction")
    common(sp)
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("predict", help="variety and complexity prediction")
    common(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("jordan", help="generic Jordan type of the restricted Specht module")
    common(sp)
    sp.add_argument("--mode", choices=("random", "exact"), default="random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=5)
    sp.set_defaults(func=cmd_jordan)

    sp = sub.add_parser("variety", help="non-free locus over GF(p^ext)")
    common(sp)
    sp.add_argument("--ext", type=int, default=1, help="field extension degree")
    sp.add_argument("--out", choices=("json", "tsv"), default="json")
    sp.set_defaults(func=cmd_variety)

    sp = sub.add_parser("table9", help="16-row classification table for p=3, |mu|=9")
    common(sp, mu=False, prime=False)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_table9, p=3)

    sp = sub.add_parser("young", help="Young-module summands of a two-row permutation module")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=_prime, default=3,
                    help="prime characteristic (default 3)")
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=cmd_young)

    sp = sub.add_parser("verify", help="run the acceptance checks; nonzero exit on failure")
    common(sp, mu=False, prime=False)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_verify, p=3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        p=getattr(args, "p", 3),
        ext_degree=getattr(args, "ext", 1),
        samples=getattr(args, "samples", 5),
        seed=getattr(args, "seed", 0),
        mode=getattr(args, "mode", "random"),
        threads=getattr(args, "threads", 1),
        cache_dir=getattr(args, "cache_dir", None) or os.environ.get("SPECHTVAR_CACHE"),
    )
    if config.samples < 1:
        parser.error("--samples must be at least 1")
    if config.ext_degree < 1:
        parser.error("--ext must be at least 1")
    if config.threads < 1:
        parser.error("--threads must be at least 1")
    if args.command in _MODULE_COMMANDS and config.p not in _MODULE_PRIMES:
        parser.error(f"module construction supports p in {_MODULE_PRIMES}")
    saved = os.environ.get("SPECHTVAR_CACHE")
    if getattr(args, "cache_dir", None):
        os.environ["SPECHTVAR_CACHE"] = args.cache_dir
    try:
        return args.func(args, config)
    except SpechtvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:  # --cache-dir holds for this command only
        if saved is None:
            os.environ.pop("SPECHTVAR_CACHE", None)
        else:
            os.environ["SPECHTVAR_CACHE"] = saved


if __name__ == "__main__":
    sys.exit(main())
