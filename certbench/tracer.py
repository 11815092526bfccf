"""Outside-in layer trace: spans around the public entry points of each module.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each entry
point with a timing wrapper in every loaded module that holds it
(``verify`` keeps its own ``operator_matrix`` name, the package re-exports
most of them, the workloads import some), on the class for methods, and
inside the ``OPERATORS`` registry for the differential operators.  An entry
point that no longer exists is recorded as absent and its metrics read zero;
a counter hook that no longer fits an entry point's arguments or result
raises, so the traced operation fails rather than reading zero.

Clocks: ``incl_s`` is wall time of the outermost call on its thread, so calls
running side by side in a thread pool add up to more than the wall time they
share (set ``verify.certified_ranks.incl_s`` beside the summed
``verify.exact_rank.incl_s`` to see the overlap).  ``self_s`` is CPU time of
the calling thread minus that of the traced calls it made, with one span
stack per thread, so the self times of all spans add up to at most the
process's CPU time; :meth:`Tracer.check_consistent` enforces that.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable

_MIB = 1024 * 1024


def _nnz_in(args, kwargs, result) -> dict[str, float]:
    return {"nnz_in": sum(len(row) for row in args[0])}


def _dense_mb(args, kwargs, result) -> dict[str, float]:
    mat = args[0]
    return {"dense_mb_computed": mat.nrows * mat.ncols * 8 / _MIB}


def _nnz_out(args, kwargs, result) -> dict[str, float]:
    return {"nnz_out": result.nnz}


def _dofs(args, kwargs, result) -> dict[str, float]:
    return {"dofs": result.dimension}


def _block_key(args, kwargs, result):
    op, src, dst, h = args
    return (op, src.name, src.k, dst.name, dst.k, h)


#: (metric prefix, module, attribute, how it is bound, counter hook,
#:  distinct-argument key).  "function" entries are rebound wherever the
#: original object is held, "method" entries on the class, "registry"
#: entries replace every value of a dict; "count" wrappers only count calls.
ENTRIES = [
    ("exactcore.ff_rank", "cuboid_complex._exactcore", "ff_rank",
     "function", _nnz_in, None),
    ("exactcore.fj_inverse", "cuboid_complex._exactcore", "fj_inverse",
     "function", None, None),
    ("exactcore.imat_mul", "cuboid_complex._exactcore", "imat_mul",
     "function", None, None),
    ("exactcore.spmul", "cuboid_complex._exactcore", "spmul",
     "function", None, None),
    ("verify.exact_rank", "cuboid_complex.verify", "exact_rank",
     "function", None, None),
    ("verify.composition_is_zero", "cuboid_complex.verify",
     "composition_is_zero", "function", None, None),
    ("verify.float_rank", "cuboid_complex.verify", "float_rank",
     "function", _dense_mb, None),
    ("verify.certified_ranks", "cuboid_complex.verify", "certified_ranks",
     "function", None, None),
    ("assembly.local_operator_block", "cuboid_complex.assembly",
     "local_operator_block", "function", None, _block_key),
    ("assembly.operator_matrix", "cuboid_complex.assembly", "operator_matrix",
     "function", _nnz_out, None),
    ("assembly.assemble_space", "cuboid_complex.assembly", "assemble_space",
     "function", _dofs, None),
    ("assembly.reconstruct_local", "cuboid_complex.assembly",
     "reconstruct_local", "function", None, None),
    ("assembly.interpolate", "cuboid_complex.assembly", "interpolate",
     "function", None, None),
    ("elements.check_unisolvence", "cuboid_complex.elements",
     "check_unisolvence", "function", None, None),
    ("elements.group_dof_matrix", "cuboid_complex.elements",
     "group_dof_matrix", "function", None, None),
    ("operators.OPERATORS", "cuboid_complex.operators", "OPERATORS",
     "registry", None, None),
    ("polytensor.TensorPoly.eval_physical", "cuboid_complex.polytensor",
     "TensorPoly.eval_physical", "method", None, None),
    ("polytensor.TensorPoly.trace", "cuboid_complex.polytensor",
     "TensorPoly.trace", "count", None, None),
]

#: every per-layer metric the traced run reports, with its unit
PER_LAYER = [
    ("exactcore.ff_rank.self_s", "s"),
    ("exactcore.ff_rank.calls", "count"),
    ("exactcore.ff_rank.nnz_in", "count"),
    ("exactcore.fj_inverse.self_s", "s"),
    ("exactcore.fj_inverse.calls", "count"),
    ("exactcore.imat_mul.self_s", "s"),
    ("exactcore.spmul.self_s", "s"),
    ("verify.exact_rank.incl_s", "s"),
    ("verify.composition_is_zero.incl_s", "s"),
    ("verify.float_rank.self_s", "s"),
    ("verify.float_rank.calls", "count"),
    ("verify.float_rank.dense_mb_computed", "MiB"),
    ("verify.certified_ranks.incl_s", "s"),
    ("assembly.local_operator_block.incl_s", "s"),
    ("assembly.local_operator_block.calls", "count"),
    ("assembly.local_operator_block.misses", "count"),
    ("assembly.local_operator_block.hit_ratio", "ratio"),
    ("assembly.operator_matrix.self_s", "s"),
    ("assembly.operator_matrix.nnz_out", "count"),
    ("assembly.assemble_space.incl_s", "s"),
    ("assembly.assemble_space.dofs", "count"),
    ("assembly.reconstruct_local.self_s", "s"),
    ("assembly.reconstruct_local.calls", "count"),
    ("assembly.interpolate.self_s", "s"),
    ("assembly.interpolate.calls", "count"),
    ("elements.check_unisolvence.incl_s", "s"),
    ("elements.group_dof_matrix.self_s", "s"),
    ("elements.group_dof_matrix.calls", "count"),
    ("operators.OPERATORS.self_s", "s"),
    ("operators.OPERATORS.calls", "count"),
    ("polytensor.TensorPoly.eval_physical.self_s", "s"),
    ("polytensor.TensorPoly.eval_physical.calls", "count"),
    ("polytensor.TensorPoly.trace.calls", "count"),
    ("mesh.cells", "count"),
    ("mesh.cell_shapes", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.absent_entries", "count"),
]


class _Stat:
    __slots__ = ("calls", "incl_s", "self_s", "counts", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.keys: set = set()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {entry[0]: _Stat() for entry in ENTRIES}
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------

    def _thread_state(self):
        tl = self._local
        if not hasattr(tl, "stack"):
            tl.stack = []           # child CPU seconds of each open span
            tl.depth = {}           # open spans per entry, for recursion
        return tl

    def _timed(self, name: str, fn: Callable, hook, key) -> Callable:
        stat = self.stats[name]
        lock = self._lock
        state = self._thread_state
        perf, cpu = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            tl = state()
            frame = [0.0]
            tl.stack.append(frame)
            depth = tl.depth.get(name, 0)
            tl.depth[name] = depth + 1
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), perf()
                tl.stack.pop()
                tl.depth[name] = depth
                spent = c1 - c0
                if tl.stack:
                    tl.stack[-1][0] += spent
                with lock:
                    stat.calls += 1
                    stat.self_s += spent - frame[0]
                    if depth == 0:
                        stat.incl_s += w1 - w0
            if hook is not None or key is not None:
                # a hook that no longer fits the entry point's signature
                # raises here, which fails the traced operation
                extra = hook(args, kwargs, result) if hook else {}
                seen = key(args, kwargs, result) if key else None
                with lock:
                    for k, v in extra.items():
                        stat.counts[k] = stat.counts.get(k, 0) + v
                    if key is not None:
                        stat.keys.add(seen)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        lock = self._lock

        def counted(*args, **kwargs):
            with lock:
                stat.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; record the rest as absent."""
        for name, modname, attr, how, hook, key in ENTRIES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            if how == "registry":
                for k, fn in list(orig.items()):
                    orig[k] = self._timed(name, fn, hook, key)
            elif how == "method":
                setattr(owner, leaf, self._timed(name, orig, hook, key))
            elif how == "count":
                setattr(owner, leaf, self._counted(name, orig))
            else:
                self._rebind_everywhere(orig,
                                        self._timed(name, orig, hook, key))

    @staticmethod
    def _rebind_everywhere(orig, wrapper) -> None:
        """Every loaded module, the benchmark's own included, that holds
        ``orig`` under some name gets ``wrapper`` under that name."""
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def check_consistent(self, cpu_s: float) -> list[str]:
        """Problems with the trace's own bookkeeping, empty when sound."""
        total_self = sum(s.self_s for s in self.stats.values())
        # thread_time and getrusage tick separately; allow a little slack
        if total_self > cpu_s * 1.02 + 0.01:
            return [f"summed self time {total_self:.3f}s exceeds the "
                    f"process CPU time {cpu_s:.3f}s"]
        return []

    def metrics(self) -> dict[str, float]:
        """Flat per-layer values for every entry (zeros when absent)."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.incl_s"] = s.incl_s
            out[f"{name}.self_s"] = s.self_s
            out.update({f"{name}.{k}": v for k, v in s.counts.items()})
        block = self.stats["assembly.local_operator_block"]
        misses = len(block.keys)
        out["assembly.local_operator_block.misses"] = misses
        out["assembly.local_operator_block.hit_ratio"] = (
            1.0 - misses / block.calls if block.calls else 0.0)
        out["trace.absent_entries"] = len(self.absent)
        return out
