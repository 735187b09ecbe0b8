"""Span tracing around nqdot's public names, from outside the package.

Each wrapped name is replaced, in every module that looks it up, by a
function that records a span (name, start, end, parent) around the
original call.  Spans stay in memory; `metrics` turns them into per-layer
counts and seconds and `dump` writes them out when the run ends.  A name
that no longer exists is skipped and its layer reports zero calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.matrix_bytes = 0  # largest K(kappa) handed to the eigensolver
        self.block_pairs = 0  # target x source kernel entries computed
        self.field_points = 0
        self.levels_found = 0
        self.kpoints = 0
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a spanned call; `after(args, kwargs, out)`
        records counts from the call.  Missing names are skipped."""
        fn = None if owner is None else getattr(owner, attr, None)
        if fn is None:
            return

        def spanned(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, fn))

    def unwrap(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def install(self, nqdot):
        """Wrap the public names of every layer where they are looked up."""
        geometry, solver = nqdot.geometry, nqdot.solver
        transitions, bands = nqdot.transitions, nqdot.bands

        def matrix(args, kwargs, out):
            self.matrix_bytes = max(self.matrix_bytes, getattr(out, "nbytes", 0))

        def block(args, kwargs, out):
            self.block_pairs += getattr(out, "size", 0)

        def field(args, kwargs, out):
            self.field_points += len(out)

        def solved(args, kwargs, out):
            self.levels_found += len(out)

        def dispersion(args, kwargs, out):
            self.kpoints += len(args[2] if len(args) > 2 else kwargs["k_samples"])

        for module in (geometry, bands):
            self.wrap(module, "build_grid", "geometry.build")
        self.wrap(getattr(solver, "KernelFactory", None), "__call__", "kernel.matrix", matrix)
        self.wrap(solver, "kernel_block", "kernel.block", block)
        self.wrap(getattr(solver, "TopEigenSolver", None), "__call__", "solver.eigen")
        self.wrap(solver, "lobpcg", "solver.eigen_lobpcg")
        self.wrap(solver, "eigh", "solver.eigen_dense")
        self.wrap(solver, "branch_scan", "solver.scan")
        for module in (solver, bands):
            self.wrap(module, "solve_bound_states", "solver.solve", solved)
        self.wrap(solver, "classify_angular", "solver.label")
        self.wrap(solver, "lifetime_with_leakage", "solver.lifetime")
        for module in (solver, transitions):
            self.wrap(module, "reconstruction_scale", "solver.scale")
        self.wrap(solver, "reconstruct_wavefunction", "solver.field", field)
        self.wrap(transitions, "dipole_element", "transitions.dipole")
        self.wrap(transitions, "simulate_two_level", "transitions.dynamics")
        self.wrap(bands, "subband_dispersion", "bands.dispersion", dispersion)

    def metrics(self) -> dict:
        dur = [s[2] - s[1] for s in self.spans]
        child = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            total[s[0]] += dur[i]
            own[s[0]] += dur[i] - child[i]

        def ancestors(i):
            while self.spans[i][3] >= 0:
                i = self.spans[i][3]
                yield self.spans[i][0]

        scan_eigen = refine_eigen = 0
        refine_s = 0.0
        for i, s in enumerate(self.spans):
            up = list(ancestors(i))
            if s[0] == "solver.eigen":
                if "solver.scan" in up:
                    scan_eigen += 1
                elif "solver.solve" in up:
                    refine_eigen += 1
            if up[:1] == ["solver.solve"] and s[0] in ("solver.eigen", "kernel.matrix"):
                refine_s += dur[i]
        solve_eigen = scan_eigen + refine_eigen
        passes = max(calls["pass"], 1)

        m = {
            "geometry.build_s": (total["geometry.build"], "s"),
            "kernel.matrix_calls": (calls["kernel.matrix"], "count"),
            "kernel.matrix_s": (total["kernel.matrix"], "s"),
            "kernel.matrix_mb": (self.matrix_bytes / 1e6, "MB"),
            "kernel.block_points": (self.block_pairs, "count"),
            "kernel.block_s": (total["kernel.block"], "s"),
            "solver.eigen_calls": (calls["solver.eigen"], "count"),
            "solver.eigen_lobpcg_calls": (calls["solver.eigen_lobpcg"], "count"),
            "solver.eigen_dense_calls": (calls["solver.eigen_dense"], "count"),
            "solver.eigen_s": (total["solver.eigen"], "s"),
            "solver.scan_eigen_calls": (scan_eigen, "count"),
            "solver.refine_eigen_calls": (refine_eigen, "count"),
            "solver.levels_found": (self.levels_found, "count"),
            "solver.eigen_calls_per_level": (
                solve_eigen / self.levels_found if self.levels_found else 0.0,
                "calls/level",
            ),
            "solver.scan_s": (total["solver.scan"], "s"),
            "solver.refine_s": (refine_s, "s"),
            "solver.solve_calls": (calls["solver.solve"], "count"),
            "solver.solve_s": (total["solver.solve"], "s"),
            "solver.solve_self_s": (own["solver.solve"], "s"),
            "solver.label_calls": (calls["solver.label"], "count"),
            "solver.label_s": (total["solver.label"], "s"),
            "solver.lifetime_calls": (calls["solver.lifetime"], "count"),
            "solver.lifetime_s": (total["solver.lifetime"], "s"),
            "solver.scale_calls": (calls["solver.scale"], "count"),
            "solver.scale_s": (total["solver.scale"], "s"),
            "solver.field_points": (self.field_points, "count"),
            "solver.field_s": (total["solver.field"], "s"),
            "solver.field_self_s": (own["solver.field"], "s"),
            "transitions.dipole_calls": (calls["transitions.dipole"], "count"),
            "transitions.dipole_s": (total["transitions.dipole"], "s"),
            "transitions.dynamics_s": (total["transitions.dynamics"], "s"),
            "bands.kpoints": (self.kpoints, "count"),
            "bands.s": (total["bands.dispersion"], "s"),
            "trace.unattributed_s": (own["pass"], "s"),
            "trace.wall_s": (total["pass"], "s"),
        }
        # counts and seconds are per pass, so a run of several passes
        # reads the same as a run of one
        return {
            k: {"value": v / passes if u in ("s", "count") else v, "unit": u}
            for k, (v, u) in m.items()
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

