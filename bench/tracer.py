"""In-memory spans around calls into each diracshell layer.

The spans come only from this file: ``Tracer.installed()`` rebinds the
names that ``diracshell.cli``, ``diracshell.checks`` and the modules they
call look up, and restores the originals on exit.  Nothing under
``src/`` is edited and no value is changed; curves get a counting
``curvature`` through ``dataclasses.replace``.

A span is ``[name, start, end, parent, run, counts]``; ``parent`` is the
index of the enclosing span (-1 at the root) and ``run`` the id of the
top-level call.  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np

from diracshell import checks, cli, effective, eigsolve, geometry, shell

_CURVE = "geometry.curve_build"
_EFF_ASM = "effective.assemble"
_EFF_EIGH = "effective.eigh"
_SHELL = "shell.assemble"
_SOLVE = "eigsolve.solve"
_CURVATURE = "geometry.curvature"


def _count_effective(result, counts):
    counts["dim"] = result.pencil.dim


def _count_shell(result, counts):
    pencils = [getattr(result, p) for p in ("pencil", "pencil_minus", "pencil_plus") if hasattr(result, p)]
    counts["dof"] = result.dof_count
    counts["nnz"] = sum(p.a.nnz for p in pencils)


def _count_pairs(result, counts):
    counts["residual_max"] = max(r for _, r in result)


def _count_spectrum(result, counts):
    counts["iterations"] = result.iterations
    counts["residual_max"] = float(np.max(result.residuals))


# every looked-up name the benchmark wraps: (module, attribute, span, counter)
TARGETS = [
    (cli, "curve_from_json", _CURVE, None),
    (geometry, "make_curve", _CURVE, None),
    (geometry, "flat_strip", _CURVE, None),
    (cli, "assemble_effective", _EFF_ASM, _count_effective),
    (effective, "assemble_effective", _EFF_ASM, _count_effective),
    (effective, "assemble_magnetic", _EFF_ASM, _count_effective),
    (cli, "effective_eigenvalues", _EFF_EIGH, None),
    (effective, "effective_eigenvalues", _EFF_EIGH, None),
    (cli, "assemble_shell", _SHELL, _count_shell),
    (shell, "assemble_shell", _SHELL, _count_shell),
    (shell, "assemble_sandwich", _SHELL, _count_shell),
    (cli, "lowest_eigenvalues", _SOLVE, _count_pairs),
    (shell, "lowest_eigenvalues", _SOLVE, _count_pairs),
    (shell, "lobpcg_smallest", _SOLVE, _count_spectrum),
    (eigsolve, "lobpcg_smallest", _SOLVE, _count_spectrum),
    (eigsolve, "dense_hermitian_eig", _SOLVE, None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.run = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.run, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs), span
        finally:
            self._close(span)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            result, span = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(result, span[5])
            if name == _CURVE:
                result = self._counting_curve(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_curve(self, curve):
        kappa = curve.curvature
        if getattr(kappa, "__wrapped__", None) is not None:
            return curve

        def curvature(s):
            result, span = self.call(_CURVATURE, kappa, s)
            span[5]["points"] = int(np.size(s))
            return result

        curvature.__wrapped__ = kappa
        return dataclasses.replace(curve, curvature=curvature)

    def _suite(self, fn):
        def traced():
            result, span = self.call("checks." + fn.__name__, fn)
            span[0] = "checks." + result.name
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target name for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        saved.append((checks, "REGISTRY", checks.REGISTRY))
        try:
            for mod, attr, name, counter in TARGETS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), counter))
            checks.REGISTRY = [self._suite(fn) for fn in checks.REGISTRY]
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def top(self, name, fn, *args, **kwargs):
        """One traced top-level call with a fresh run id."""
        self.run += 1
        return self.call(name, fn, *args, **kwargs)[0]

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, "counts": c}
            for n, s, e, p, r, c in self.spans
        ]
