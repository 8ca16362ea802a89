"""Span recorder for traced runs.

``Recorder.install()`` replaces each layer's public function by a timing
wrapper at every name a caller looks it up under: the defining module,
each fpknl module that imported it with ``from .x import f``, and the
benchmark's own modules.  Methods are wrapped on their class.  Spans stay
in memory as (name, start, end, parent, op) tuples and are written out
once, when the run ends.  Self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> where the public function lives: (module, class or None, attribute)
SPANS = {
    "fdsolver.fd_solve": [("fpknl.fdsolver", None, "fd_solve")],
    "fdsolver.compare": [("fpknl.fdsolver", None, "compare")],
    "checks.fd_vs_analytic": [("fpknl.checks", None, "fd_vs_analytic")],
    "kernels.kernel_matrix": [("fpknl.kernels", None, "kernel_matrix")],
    "kernels.kernel_context": [("fpknl.kernels", None, "kernel_context")],
    "evolution.evolve_quadrature": [("fpknl.evolution", None, "evolve_quadrature")],
    "evolution.forward_quadrature_matrix": [("fpknl.evolution", None, "forward_quadrature_matrix")],
    "evolution.inverse_evolve": [("fpknl.evolution", None, "inverse_evolve")],
    "evolution.plan_for": [("fpknl.evolution", None, "plan_for")],
    "evolution.evolve_analytic": [("fpknl.evolution", None, "evolve_analytic")],
    "variations.matriciant": [("fpknl.variations", None, "matriciant")],
    "variations.fraction": [("fpknl.variations", None, "fraction")],
    "packets.propagate_packet": [("fpknl.packets", None, "propagate_packet")],
    "packets.evolve_packet": [("fpknl.packets", None, "evolve_packet")],
    "packets.eval": [("fpknl.packets", "GaussianPacket", "eval")],
    "model.moment_at": [("fpknl.model", "MomentTrajectory", "at")],
    "model.trapezoid": [("fpknl.model", "SampledDensity", "total_mass"),
                        ("fpknl.model", "SampledDensity", "first_moment")],
    "symmetry.build_shifts": [("fpknl.symmetry", None, "build_shifts")],
    "symmetry.apply_shift": [("fpknl.symmetry", None, "symmetry_apply_shift")],
    "symmetry.apply_conclusion": [("fpknl.symmetry", None, "symmetry_apply_conclusion")],
    "symmetry.apply_evolution": [("fpknl.symmetry", None, "symmetry_apply_evolution")],
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_fd(counts, args, kwargs, result, err):
    cfg = _arg(args, kwargs, 2, "cfg")
    steps = int(round(cfg.t_end / cfg.dt))
    counts["fdsolver.steps"] += steps
    counts["fdsolver.cell_steps"] += steps * cfg.nx


def _count_kernel(counts, args, kwargs, result, err):
    if err is None:
        dim = _arg(args, kwargs, 0, "ctx").params.dim
        counts["kernels.kernel_matrix.entries"] += result.size
        # the (rows, cols, dim) offset array plus the (rows, cols) output, float64
        counts["kernels.kernel_matrix.bytes_computed"] += 8 * result.size * (dim + 1)


def _count_inverse(counts, args, kwargs, result, err):
    u = _arg(args, kwargs, 0, "u")
    values = getattr(u, "values", None)
    plan = _arg(args, kwargs, 1, "plan")
    if values is not None and plan.t != plan.s:
        counts["evolution.inverse_evolve.matrix_entries"] += values.size ** 2
    if type(err).__name__ == "IllPosedInverseError":
        counts["evolution.inverse_evolve.rejected"] += 1


def _count_eval(counts, args, kwargs, result, err):
    if err is None:
        counts["packets.eval.points"] += int(getattr(result, "size", 1))


COUNTERS = {
    "fdsolver.fd_solve": _count_fd,
    "kernels.kernel_matrix": _count_kernel,
    "evolution.inverse_evolve": _count_inverse,
    "packets.eval": _count_eval,
}


class Recorder:
    def __init__(self, extra_modules=()):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._extra = list(extra_modules)
        self._undo: list = []

    def _wrap(self, name, fn, counter):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(idx)
            result = err = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (name, start, end, parent, rec.op)
                rec.counts[name + ".calls"] += 1
                if counter is not None:
                    counter(rec.counts, args, kwargs, result, err)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fpknl" or n.startswith("fpknl.")] + self._extra
        for name, sites in SPANS.items():
            for mod_name, cls_name, attr in sites:
                owner = sys.modules[mod_name]
                if cls_name is not None:
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(name, orig, COUNTERS.get(name)))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, COUNTERS.get(name))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {name: 0.0 for name in SPANS}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def call_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds, timed on a no-op in this process."""
        def noop():
            return None

        probe = Recorder()
        wrapped = probe._wrap("probe", noop, None)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        return max(0.0, (mid - start) - (time.perf_counter() - mid)) / calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
