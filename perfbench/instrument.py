"""Wrappers around the pipeline's public calls, installed from outside.

Each wrapper replaces a function at the module attribute through which the
pipeline calls it (``diracloud.cli.solve_generalized``,
``diracloud.assembly.evaluate_coupled``, ...) and puts the original back on
``restore``.  No file of the package is touched.

Two modes share the wrappers:

* untraced (``trace=False``): only the two calls whose results the
  correctness checks read are wrapped, and the wrapper does nothing but keep
  the result (``classify_spectrum`` reports and ``assemble_system`` pencils);
* traced (``trace=True``): every call below opens a span (name, start, end,
  parent span, iteration id) and bumps counters read off its arguments and
  results.  Spans stay in memory until the run ends.
"""
import hashlib
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _weak_form_key(cb, sys, quad, *args, **kwargs):
    """Fingerprint of everything the weak-form blocks depend on.

    kappa, c and m do not enter the blocks, so two solves that differ only
    in those share one key."""
    h = hashlib.sha1()
    for arr in (cb.grid.nodes, cb.grid.dilations, quad.points, quad.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((cb.basis.name, cb.weight.kind, cb.fem_nodes, cb.cond_cap,
                   sys.Z, sys.A, sys.nucleus, sys.r0_fm, args,
                   sorted(kwargs.items()))).encode())
    return h.hexdigest()


def window_upper(sys, levels):
    """Upper edge of the bound window: midway between exact levels
    ``levels`` and ``levels + 1`` (shifted hartree).  The window holds every
    requested level and any interloper between them."""
    from diracloud.eigen import exact_levels
    ex = exact_levels(sys, levels + 1)
    return 0.5 * (ex[-2] + ex[-1])


def window_counts(eigs, sys, levels, imag_tol=1e-8):
    """(eigenvalues in the bound window, complex ones among them)."""
    raw = np.asarray(eigs, dtype=complex)
    shifted = raw.real - sys.mc2
    inside = (shifted > -sys.mc2) & (shifted <= window_upper(sys, levels))
    cplx = np.abs(raw.imag) > imag_tol * np.maximum(np.abs(raw.real), 1.0)
    return int(inside.sum()), int((inside & cplx).sum())


def _block_bandwidth(M, nd):
    """Largest |i - j| of a nonzero inside any nd x nd block of M."""
    bw = 0
    for r in range(0, M.shape[0], nd):
        for c in range(0, M.shape[1], nd):
            i, j = np.nonzero(M[r:r + nd, c:c + nd])
            if len(i):
                bw = max(bw, int(np.abs(i - j).max()))
    return bw


class Instrument:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []          # [name, start, end, parent, iteration]
        self.counts = Counter()
        self.maxima = {}
        self.minima = {}
        self.reports = []        # (sys, levels, SpectrumReport) per solve
        self.systems = []        # (WeakFormMatrices, AssembledSystem) per assembly
        self.weak_form_keys = []
        self.iteration = None
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ spans

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _min(self, key, value):
        self.minima[key] = min(self.minima.get(key, value), value)

    # ------------------------------------------------------- observers

    def _on_quadrature(self, args, kwargs, quad):
        self.counts["assembly.quad_points"] += quad.total_points

    def _on_weak_form(self, args, kwargs, wfm):
        self.counts["assembly.weak_form_calls"] += 1
        self.weak_form_keys.append(_weak_form_key(*args, **kwargs))

    def _on_shape(self, args, kwargs, ev):
        self.counts["cloud.shape_evals"] += 1
        self._max("cloud.cond_max", float(ev.cond))

    def _on_potential(self, args, kwargs, v):
        self.counts["physics.potential_calls"] += 1

    def _on_system(self, args, kwargs, system):
        self.systems.append((args[0], system))
        if not self.trace:
            return
        self._min("assembly.tau_min", float(system.tau.min()))
        self._max("assembly.tau_max", float(system.tau.max()))
        dim = system.A.shape[0]
        if dim > self.counts["assembly.pencil_dim"]:
            # the largest pencil of the iteration sets the memory figures
            nd = system.tau.shape[0]
            self.counts["assembly.pencil_dim"] = dim
            self.counts["assembly.pencil_nnz"] = int(
                np.count_nonzero(system.A) + np.count_nonzero(system.B))
            self.counts["assembly.pencil_bandwidth"] = max(
                _block_bandwidth(system.A, nd), _block_bandwidth(system.B, nd))
            self.counts["assembly.pencil_bytes"] = system.A.nbytes + system.B.nbytes

    def _on_eigensolve(self, args, kwargs, eigs):
        w = eigs[0] if kwargs.get("return_vectors") else eigs
        self.counts["eigen.eigh_calls" if kwargs.get("symmetric_definite")
                    else "eigen.qz_calls"] += 1
        self.counts["eigen.eigs_computed"] += len(w)

    def _on_classify(self, args, kwargs, report):
        sys = args[1]
        levels = kwargs.get("levels", args[2] if len(args) > 2 else 15)
        self.reports.append((sys, levels, report))
        if not self.trace:
            return
        in_window, complex_in_window = window_counts(report.raw, sys, levels)
        self.counts["eigen.window_eigs"] += in_window
        self.counts["eigen.n_complex"] += report.n_complex
        self.counts["eigen.n_complex_window"] += complex_in_window

    def _on_write(self, args, kwargs, result):
        self.counts["cli.output_bytes"] += os.path.getsize(args[0])

    def _on_dump(self, args, kwargs, result):
        M = np.asarray(args[1])
        self.counts["assembly.dump_bytes"] += os.path.getsize(args[0])
        self.counts["assembly.dump_triplets"] += M.size
        self.counts["assembly.dump_nonzero"] += int(np.count_nonzero(M))

    # --------------------------------------------------------- install

    def _targets(self):
        """(module, attribute, span name, observer).  Attributes are the
        names through which the pipeline calls each layer."""
        captured = [
            ("diracloud.cli", "assemble_system", "assembly.system", self._on_system),
            ("diracloud.cli", "classify_spectrum", "eigen.classify", self._on_classify),
        ]
        if not self.trace:
            return captured
        return captured + [
            ("diracloud.cli", "run_solve", "cli.run_solve", None),
            ("diracloud.cli", "generate_grid", "grid.generate", None),
            ("diracloud.cli", "build_cloud_basis", "cloud.build", None),
            ("diracloud.cli", "build_quadrature", "assembly.quadrature", self._on_quadrature),
            ("diracloud.cli", "assemble_weak_form", "assembly.weak_form", self._on_weak_form),
            ("diracloud.assembly", "evaluate_coupled", "cloud.shape", self._on_shape),
            ("diracloud.assembly", "potential", "physics.potential", self._on_potential),
            ("diracloud.assembly", "stability_tau", "assembly.tau", None),
            ("diracloud.cli", "solve_generalized", "eigen.solve", self._on_eigensolve),
            ("diracloud.cli", "check_spectrum_reality", "assembly.reality_check", None),
            ("diracloud.cli", "rates_from_errors", "eigen.rate_fit", None),
            ("diracloud.cli", "write_solve_csv", "cli.write", self._on_write),
            ("diracloud.cli", "write_solve_json", "cli.write", self._on_write),
            ("diracloud.cli", "dump_matrix", "assembly.dump", self._on_dump),
        ]

    def _wrap(self, fn, name, observer):
        if not self.trace:
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                observer(args, kwargs, result)
                return result
            return captured

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observer is not None:
                observer(args, kwargs, result)
            return result
        return traced

    def install(self):
        for mod_name, attr, name, observer in self._targets():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, observer))
        return self

    def restore(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # --------------------------------------------------------- results

    def times(self):
        """(inclusive, self) seconds per span name.  Self time is a span's
        duration minus the durations of its direct children; calls are
        sequential, so children never overlap."""
        incl, child = defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return incl, own

    def layer_metrics(self):
        """Per-layer metrics of everything recorded, as {name: (value, unit)}."""
        incl, own = self.times()
        c = self.counts
        calls = c["assembly.weak_form_calls"]
        computed = c["eigen.eigs_computed"]
        triplets = c["assembly.dump_triplets"]
        return {
            "grid.generate_s": (incl["grid.generate"], "s"),
            "cloud.shape_evals": (c["cloud.shape_evals"], "count"),
            "cloud.shape_s": (incl["cloud.shape"], "s"),
            "cloud.cond_max": (self.maxima.get("cloud.cond_max", 0.0), "dimensionless"),
            "physics.potential_calls": (c["physics.potential_calls"], "count"),
            "physics.potential_s": (incl["physics.potential"], "s"),
            "assembly.quad_points": (c["assembly.quad_points"], "count"),
            "assembly.quadrature_s": (incl["assembly.quadrature"], "s"),
            "assembly.weak_form_s": (incl["assembly.weak_form"], "s"),
            "assembly.weak_form_self_s": (own["assembly.weak_form"], "s"),
            "assembly.weak_form_calls": (calls, "count"),
            "assembly.weak_form_distinct_frac": (
                len(set(self.weak_form_keys)) / calls if calls else 0.0, "ratio"),
            "assembly.tau_s": (incl["assembly.tau"], "s"),
            "assembly.system_s": (incl["assembly.system"], "s"),
            "assembly.tau_min": (self.minima.get("assembly.tau_min", 0.0), "bohr"),
            "assembly.tau_max": (self.maxima.get("assembly.tau_max", 0.0), "bohr"),
            "assembly.pencil_dim": (c["assembly.pencil_dim"], "count"),
            "assembly.pencil_nnz": (c["assembly.pencil_nnz"], "count"),
            "assembly.pencil_bandwidth": (c["assembly.pencil_bandwidth"], "count"),
            "assembly.pencil_bytes": (c["assembly.pencil_bytes"], "bytes"),
            "eigen.solve_s": (incl["eigen.solve"], "s"),
            "eigen.qz_calls": (c["eigen.qz_calls"], "count"),
            "eigen.eigh_calls": (c["eigen.eigh_calls"], "count"),
            "eigen.eigs_computed": (computed, "count"),
            "eigen.window_frac": (
                c["eigen.window_eigs"] / computed if computed else 0.0, "ratio"),
            "eigen.n_complex": (c["eigen.n_complex"], "count"),
            "eigen.n_complex_window": (c["eigen.n_complex_window"], "count"),
            "eigen.classify_s": (incl["eigen.classify"], "s"),
            "cli.write_s": (incl["cli.write"], "s"),
            "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
            "assembly.dump_s": (incl["assembly.dump"], "s"),
            "assembly.dump_bytes": (c["assembly.dump_bytes"], "bytes"),
            "assembly.dump_nonzero_frac": (
                c["assembly.dump_nonzero"] / triplets if triplets else 0.0, "ratio"),
        }

    def self_times(self):
        """Self seconds per span name, largest first."""
        _, own = self.times()
        return dict(sorted(own.items(), key=lambda kv: -kv[1]))


def span_cost(calls=20000):
    """Seconds one traced wrapper adds to a call (no observer)."""
    def noop():
        return None
    wrapped = Instrument(trace=True)._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
