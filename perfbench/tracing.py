"""Spans around calls into popstab's layers, recorded from outside the package.

Every public function of every popstab module is wrapped under the name
``<module>.<function>``, at every binding that refers to it: the defining
module's own global (so intra-module calls such as ``assemble_2d`` ->
``assemble_boundary`` are seen), each consumer's imported name (``from
.linalg import lu_solve`` in ``assembly`` and ``quad``, ``spectra.assemble_2d``
used by ``cli``) and the package namespace.  ``cli`` binds its ``cmd_*``
handlers inside ``build_parser()``, which reads the patched globals at call
time.  The LAPACK drivers that ``popstab.linalg`` calls through
``scipy.linalg`` are wrapped as ``lapack.<name>``.  Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` restores every binding.

A span is ``[name, start, end, parent, solve_id, size]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``solve_id`` the id that the
benchmark set for the enclosing operation, and ``size`` a count measured at
that boundary (dim**3 of an eigensolve, bytes held by an assembled
generator) or None.  A recursive call of the same function is folded into
its outer span.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np
import scipy.linalg

LAYERS = ("model", "expr", "grid", "quad", "assembly", "linalg", "spectra", "cli")
LAPACK = ("eig", "lu_factor", "lu_solve")

# Stage spans whose self time is reported under its own name instead of
# the module's self time.
STAGES = {
    "assembly.assemble_boundary": "assembly.boundary_s",
    "assembly.assemble_mortality": "assembly.mortality_s",
    "spectra.eigen_errors": "spectra.errors_s",
    "spectra.reconstruct_eigenfunction": "spectra.errors_s",
}
GENERATORS = ("assembly.assemble_1d", "assembly.assemble_2d")

# Per-layer metric -> unit.  Times are self times (see layer_metrics);
# cli.bytes_written is measured by the workload from the files it finds.
PER_LAYER = {
    "linalg.lapack_s": "s", "linalg.self_s": "s", "linalg.eig_calls": "count",
    "linalg.lu_calls": "count", "linalg.eig_dim3": "count",
    "assembly.boundary_s": "s", "assembly.mortality_s": "s", "assembly.self_s": "s",
    "assembly.calls": "count", "assembly.dense_bytes": "B",
    "spectra.errors_s": "s", "spectra.self_s": "s",
    "model.self_s": "s", "model.calls": "count", "expr.self_s": "s", "expr.calls": "count",
    "grid.self_s": "s", "grid.calls": "count", "quad.self_s": "s", "quad.calls": "count",
    "cli.self_s": "s", "cli.bytes_written": "B",
}


def held_bytes(obj, seen=None) -> int:
    """Bytes of the distinct ndarray buffers reachable through dataclass fields."""
    if seen is None:
        seen = set()
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            held_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj)
        )
    return 0


def _eig_dim3(args, result) -> int:
    return int(np.shape(args[0])[0]) ** 3


def _generator_bytes(args, result) -> int:
    return held_bytes(result)


class Tracer:
    """Records spans while installed; one instance serves a whole run."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (``bench.*``)."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("popstab")
        modules = [importlib.import_module(f"popstab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    size = _generator_bytes if name in GENERATORS else None
                    wrappers[value] = self._wrap(value, name, size)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for attr in LAPACK:
            size = _eig_dim3 if attr == "eig" else None
            self._patch(scipy.linalg, attr,
                        self._wrap(getattr(scipy.linalg, attr), f"lapack.{attr}", size))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def check_nesting(spans) -> None:
    """Every child lies inside its parent's interval and, unless it opens a
    new solve, shares its solve id."""
    for index, (name, start, end, parent, solve_id, _) in enumerate(spans):
        if not start <= end:
            raise AssertionError(f"span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_solve, _ = spans[parent]
        if not (parent < index and p_start <= start and end <= p_end):
            raise AssertionError(f"span {index} ({name}) is not inside {p_name}")
        if solve_id != p_solve and name != "bench.solve":
            raise AssertionError(f"span {index} ({name}) changes solve id inside {p_name}")


def layer_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced pass).

    Self times partition the traced time: a span's duration minus the
    durations of its direct children.  ``linalg.lapack_s`` is the self time
    of the wrapped LAPACK drivers; the stage spans in STAGES report their
    self time under the stage name and not under their module.
    """
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
    for offset, (name, start, end, parent, _, size) in enumerate(spans[lo:hi]):
        layer, func = name.split(".", 1)
        own = (end - start) - child[offset]
        if layer == "bench":
            continue
        if layer == "lapack":
            out["linalg.lapack_s"] += own
            if func == "eig":
                out["linalg.eig_calls"] += 1
                out["linalg.eig_dim3"] += size
            elif func == "lu_factor":
                out["linalg.lu_calls"] += 1
            continue
        out[STAGES.get(name, f"{layer}.self_s")] += own
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        if name in GENERATORS:
            out["assembly.dense_bytes"] = max(out["assembly.dense_bytes"], size)
    return out
