"""Span tracing of densecap from outside the package.

`Tracer.install()` wraps the public functions of every densecap layer
(plus the numpy.linalg eigen/SVD routines every module calls) under each
name a caller looks them up by, since modules bind names such as
`von_neumann_entropy` with `from .qstate import ...`.  Spans are kept in
memory as tuples and only summarised after the traced call returns.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import tracemalloc
from functools import cached_property
from time import perf_counter

import numpy as np

# (span name, module, attribute) of every wrapped densecap function
_FUNCTIONS = [
    ("cli.main", "densecap.cli", "main"),
    ("qstate.entropy", "densecap.qstate", "von_neumann_entropy"),
    ("qstate.partial_trace", "densecap.qstate", "partial_trace"),
    ("encodings.build", "densecap.encodings", "gellmann_basis"),
    ("encodings.build", "densecap.encodings", "weyl_set"),
    ("encodings.build", "densecap.encodings", "lift_ensemble"),
    ("encodings.build", "densecap.encodings", "canonical_qubit_set"),
    ("sampling", "densecap.sampling", "random_unitary"),
    ("sampling", "densecap.sampling", "random_pure_state"),
    ("sampling", "densecap.sampling", "random_density_matrix"),
    ("sampling", "densecap.sampling", "random_bipartite_state"),
    ("sampling", "densecap.sampling", "random_orthonormal_frame"),
    ("capacity.closed_form", "densecap.capacity", "normal_capacity"),
    ("capacity.closed_form", "densecap.capacity", "dense_capacity"),
    ("capacity.closed_form", "densecap.capacity", "mutual_information"),
    ("capacity.optimize_prior", "densecap.capacity", "optimize_prior"),
    ("capacity.relative_entropy", "densecap.capacity", "relative_entropy"),
    ("entanglement.convex_roof", "densecap.entanglement", "convex_roof"),
    ("entanglement.oracle", "densecap.entanglement", "concurrence_oracle"),
    ("protosim.run", "densecap.protosim", "run_quantum_dense"),
    ("protosim.run", "densecap.protosim", "run_classical_dense"),
]
_LINALG = [("linalg.eig", "eigh"), ("linalg.eig", "eigvalsh"), ("linalg.eig", "eigvals"), ("linalg.svd", "svd")]


def _info(name: str, result) -> dict | None:
    """Work counts carried by a call's return value."""
    if name == "capacity.optimize_prior":
        return {"iters": result.iterations, "converged": result.converged}
    if name == "entanglement.convex_roof":
        return {"restarts": result.restarts_used, "converged": result.converged}
    if name == "protosim.run":
        return {"trials": result.trials}
    return None


class Tracer:
    """Records (id, name, start, end, parent, info) spans while installed.

    A span opened on a thread with no open span of its own (the sweep's
    pool threads) takes the call's root span as parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, alloc: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            stack.append(sid)
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(name, result)
                return result
            finally:
                end = perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    info = dict(info or {}, peak_bytes=peak)
                stack.pop()
                if parent is None:
                    self._root = None
                self.spans.append((sid, name, start, end, parent, info))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import densecap.qstate as qstate

        modules = [m for n, m in list(sys.modules.items()) if n == "densecap" or n.startswith("densecap.")]
        for name, module_name, attr in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, alloc=name == "protosim.run")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for name, attr in _LINALG:
            self._patch(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr)))
        dm = qstate.DensityMatrix
        self._patch(dm, "__post_init__", self._wrap("qstate.validate", dm.__post_init__))
        gamma = cached_property(self._wrap("qstate.gamma", qstate.BipartiteState.__dict__["gamma"].func))
        gamma.__set_name__(qstate.BipartiteState, "gamma")
        self._patch(qstate.BipartiteState, "gamma", gamma)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-name totals of one traced call.

    `<name>.calls` counts every span; `<name>.s` sums only spans with no
    ancestor of the same name, so nested calls are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for sid, name, start, end, parent, info in spans:
        ancestors = set()
        p = parent
        while p is not None and p in by_id:
            ancestors.add(by_id[p][1])
            p = by_id[p][4]
        add(f"{name}.calls", 1)
        if name not in ancestors:
            add(f"{name}.s", end - start)
        if name == "linalg.eig" and "capacity.optimize_prior" in ancestors:
            add("linalg.eig.in_optimizer", 1)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
        for key, value in (info or {}).items():
            if key == "peak_bytes":
                out[f"{name}.peak_bytes"] = max(out.get(f"{name}.peak_bytes", 0.0), value)
            else:
                add(f"{name}.{key}", float(value))
    for sid, name, start, end, parent, info in spans:
        if name == "cli.main":
            covered = [(max(a, start), min(b, end)) for a, b in children.get(sid, [])]
            add("cli.self_s", (end - start) - _union_length([c for c in covered if c[1] > c[0]]))
    return out
