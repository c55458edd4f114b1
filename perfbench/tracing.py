"""Spans around spechtvar's layer functions, recorded from outside the package.

``install`` replaces each traced function with a wrapper in every module
that binds it, so a name imported with ``from .jordan import
rank_vector_at`` is patched where ``variety`` looks it up.  Spans live in
memory as ``[name, start, end, parent, query, info]`` and are summarised
into per-layer metrics at the end of the run.  The program's source is not
touched.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

# (module, attribute) pairs; "Class.method" patches a method.  Layers are
# the name before the first dot.
TARGETS = [
    ("gfp", "rank"), ("gfp", "rref"), ("gfp", "solve"), ("gfp", "nullspace"),
    ("gfp", "mod_matmul"),
    ("jordan", "rank_vector_at"), ("jordan", "generic_type"),
    ("symrank", "generic_power_ranks"),
    ("variety", "enumerate_locus"), ("variety", "classify"),
    ("variety", "sweep_rank_vectors"),
    ("spechtmod", "restricted_actions"), ("spechtmod", "standard_basis"),
    ("ffalg", "FieldCtx.mul_matrix"),
]
# numpy functions the package reaches as ``np.<name>``
NUMPY_TARGETS = ("kron", "load", "savez_compressed")
_GENERATORS = {"variety.sweep_rank_vectors"}


def _shape_info(name: str, args, kwargs, result):
    """Per-call facts kept on the span, read from argument shapes."""
    if name == "gfp.rank":
        stop = kwargs.get("stop_at", args[2] if len(args) > 2 else None)
        return (np.shape(args[0]), stop, result)
    if name in ("gfp.rref", "gfp.nullspace"):
        return (np.shape(args[0]),)
    if name == "gfp.solve":
        b, c = np.shape(args[0]), np.shape(args[1])
        return ((b[0], b[1] + (int(np.prod(c[1:])) if len(c) > 1 else 1)),)
    if name == "gfp.mod_matmul":
        return (np.shape(args[0]), np.shape(args[1]))
    if name == "numpy.kron":
        return result.nbytes
    if name in ("numpy.load", "numpy.savez_compressed"):
        path = os.fspath(args[0]) if isinstance(args[0], (str, os.PathLike)) else None
        return os.path.getsize(path) if path and os.path.exists(path) else 0
    if name == "variety.enumerate_locus":
        return result.total_projective_points
    if name == "jordan.generic_type":
        return (result.mode, result.samples, result.field.k if result.field else None)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.enabled = False

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.query, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        if name in _GENERATORS:
            def traced_gen(*args, **kwargs):
                # span covers consumption, not the call that builds the generator
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                rec = tracer._open(name)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    tracer._close(rec)
                    rec[5] = count
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[5] = _shape_info(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        import spechtvar  # noqa: F401  (loads every submodule)
        modules = [m for key, m in sys.modules.items()
                   if key == "spechtvar" or key.startswith("spechtvar.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"spechtvar.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        for attr in NUMPY_TARGETS:
            setattr(np, attr, self.wrap(f"numpy.{attr}", getattr(np, attr)))


# ---------------------------------------------------------------------------
# summary


def _ancestors(spans: list[list], i: int):
    """Indices of the spans enclosing span i, innermost first."""
    j = spans[i][3]
    while j >= 0:
        yield j
        j = spans[j][3]


def summarize(spans: list[list], query_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run."""
    child_time = [0.0] * len(spans)
    top_time = [0.0] * len(query_walls)
    for rec in spans:
        dur = rec[2] - rec[1]
        if rec[3] >= 0:
            child_time[rec[3]] += dur
        elif 0 <= rec[4] < len(top_time):
            top_time[rec[4]] += dur

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, rec in enumerate(spans):
        dur = rec[2] - rec[1]
        calls[rec[0]] = calls.get(rec[0], 0) + 1
        busy[rec[0]] = busy.get(rec[0], 0.0) + dur
        self_s[rec[0]] = self_s.get(rec[0], 0.0) + dur - child_time[i]

    m: dict[str, float] = {}

    def count(name):
        return calls.get(name, 0)

    # gfp kernels
    rank_ops = stop_calls = early = 0
    max_bytes = 0
    rref_ops = matmul_flops = 0
    eliminations = 0
    kron = {"jordan": [0.0, 0], "variety": [0.0, 0]}
    restricted_calls = restricted_misses = 0
    read_bytes = write_bytes = 0
    points = 0
    random_reports = samples = retries = 0
    for i, rec in enumerate(spans):
        name, info = rec[0], rec[5]
        if name == "gfp.rank":
            (rows, cols), stop, result = info
            rank_ops += rows * cols * min(rows, cols)
            max_bytes = max(max_bytes, rows * cols * 8)
            if stop is not None:
                stop_calls += 1
                early += result == stop
            if any(spans[a][0].startswith("variety.") for a in _ancestors(spans, i)):
                eliminations += 1
        elif name in ("gfp.rref", "gfp.solve", "gfp.nullspace"):
            rows, cols = info[0]
            max_bytes = max(max_bytes, rows * cols * 8)
            if name == "gfp.rref":
                rref_ops += rows * cols * min(rows, cols)
        elif name == "gfp.mod_matmul":
            a_shape, b_shape = info
            matmul_flops += 2 * math.prod(a_shape) * (b_shape[-1] if len(b_shape) > 1 else 1)
            max_bytes = max(max_bytes, 8 * max(math.prod(a_shape), math.prod(b_shape)))
        elif name == "numpy.kron":
            parent = next((spans[a][0].split(".")[0] for a in _ancestors(spans, i)
                           if spans[a][0].split(".")[0] in kron), None)
            if parent is not None:
                kron[parent][0] += rec[2] - rec[1]
                kron[parent][1] += info
        elif name == "numpy.load":
            read_bytes += info
        elif name == "numpy.savez_compressed":
            write_bytes += info
        elif name == "spechtmod.restricted_actions":
            restricted_calls += 1
        elif name == "spechtmod.standard_basis":
            # a restricted_actions call that builds the basis missed the cache
            restricted_misses += any(spans[a][0] == "spechtmod.restricted_actions"
                                     for a in _ancestors(spans, i))
        elif name == "variety.enumerate_locus":
            points += info
        elif name == "variety.sweep_rank_vectors":
            points += info or 0
        elif name == "jordan.generic_type":
            mode, n_samples, degree = info
            if mode != "exact":
                random_reports += 1
                samples += n_samples
                retries += degree == 12

    m["gfp.rank.calls"] = count("gfp.rank")
    m["gfp.rank.busy_s"] = busy.get("gfp.rank", 0.0)
    m["gfp.rank.ops_computed"] = rank_ops
    m["gfp.rank.stop_at_calls"] = stop_calls
    m["gfp.rank.early_stop_ratio"] = early / stop_calls if stop_calls else 0.0
    m["gfp.max_matrix_bytes"] = max_bytes
    m["gfp.rref.calls"] = count("gfp.rref")
    m["gfp.rref.busy_s"] = busy.get("gfp.rref", 0.0)
    m["gfp.rref.ops_computed"] = rref_ops
    m["gfp.solve.busy_s"] = busy.get("gfp.solve", 0.0)
    m["gfp.nullspace.busy_s"] = busy.get("gfp.nullspace", 0.0)
    m["gfp.mod_matmul.calls"] = count("gfp.mod_matmul")
    m["gfp.mod_matmul.busy_s"] = busy.get("gfp.mod_matmul", 0.0)
    m["gfp.mod_matmul.flops_computed"] = matmul_flops
    m["jordan.kron_s"], m["jordan.kron_bytes"] = kron["jordan"]
    m["variety.kron_s"], m["variety.kron_bytes"] = kron["variety"]
    m["jordan.rank_vector_at.calls"] = count("jordan.rank_vector_at")
    m["jordan.rank_vector_at.busy_s"] = busy.get("jordan.rank_vector_at", 0.0)
    m["jordan.rank_vector_at.self_s"] = self_s.get("jordan.rank_vector_at", 0.0)
    m["jordan.generic_type.busy_s"] = busy.get("jordan.generic_type", 0.0)
    m["jordan.samples_per_result"] = samples / random_reports if random_reports else 0.0
    m["jordan.gf12_retries"] = retries
    m["ffalg.mul_matrix.calls"] = count("ffalg.mul_matrix")
    m["symrank.generic_power_ranks.calls"] = count("symrank.generic_power_ranks")
    m["symrank.generic_power_ranks.busy_s"] = busy.get("symrank.generic_power_ranks", 0.0)
    m["variety.enumerate_locus.busy_s"] = busy.get("variety.enumerate_locus", 0.0)
    m["variety.enumerate_locus.self_s"] = self_s.get("variety.enumerate_locus", 0.0)
    m["variety.points_total"] = points
    m["variety.eliminations"] = eliminations
    m["variety.eliminations_per_point"] = eliminations / points if points else 0.0
    m["variety.classify.busy_s"] = busy.get("variety.classify", 0.0)
    m["variety.sweep_rank_vectors.busy_s"] = busy.get("variety.sweep_rank_vectors", 0.0)
    m["spechtmod.restricted_actions.busy_s"] = busy.get("spechtmod.restricted_actions", 0.0)
    m["spechtmod.standard_basis.busy_s"] = busy.get("spechtmod.standard_basis", 0.0)
    m["spechtmod.cache_hits"] = restricted_calls - restricted_misses
    m["spechtmod.cache_misses"] = restricted_misses
    m["spechtmod.cache_hit_ratio"] = (
        (restricted_calls - restricted_misses) / restricted_calls if restricted_calls else 0.0)
    m["spechtmod.cache_read_bytes"] = read_bytes
    m["spechtmod.cache_write_bytes"] = write_bytes
    m["trace.unattributed_s"] = sum(max(0.0, w - t) for w, t in zip(query_walls, top_time))
    return m



def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("ops_computed"):
        return "op"
    if name.endswith(("_ratio", "_per_point", "_per_result", "per_wall")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"
