"""Experiment driver: eigenvalue sweeps over shell width, asymptotic fits,
and the property-check suite.

The sweep subtracts the transverse ground level E_1(m eps)^2/eps^2 (its
assembly's ``ground``) from each shell eigenvalue and fits the remaining
residual affinely in eps; the fitted intercept is compared against the
corresponding eigenvalue of the effective curve operator.  With an even
count the same report carries the corollary: the square root of the
paired shell spectrum, less E_1(m eps)/eps, feeds the first-order
expansion of the operator's own nonnegative eigenvalues.  ``effective``
reports values of one of the operator's two isospectral spin blocks; this
module alone maps shell levels 2p and 2p + 1 (from 0) onto block value p,
and ``effective-spectrum`` writes each value of the spin-up and magnetic
blocks it solves on two rows.

Verbs: check, sweep, transverse-table, effective-spectrum, dump-clifford.
Exit codes: 0 ok, 1 check failure, 2 config error, 3 partial sweep (an eps
point failed to solve or to be certified, the effective reference had not
converged at its cap, or too few points solved for the fit, which
``no_fit_reason`` states; the outputs are still written, flagged
``partial``).  The effective reference doubles its
Fourier size until its values stop changing (``effective.converged_eigenvalues``);
``eff_ns`` in a job config caps that size, and its default ``"auto"`` is AUTO_NS_CAP.
A sweep job is the ``--config`` file's keys with each flag
given in place of its key; its ``SweepConfig`` is checked when it is built,
each eps's transverse level and grid included; only the curve's injectivity
guard and length rule wait for the curve, which ``run_sweep`` builds before any solve.
Both the eps rule and the length rule (``_check_length``, which ``effective-spectrum``
applies at ``--ns`` too) are ``_finite_square``: a level the job puts on a pencil's
diagonal must have a finite square.  ``run_checks`` runs ``checks.REGISTRY`` itself and,
like ``run_sweep``, sets BLAS to one thread (``threads.set_blas_threads``) before its
first solve, as ``main`` does.
This is the one module that reads or writes a file format (JSON, and
every CSV through ``_write_csv``, each float as ``repr(float(v))``).
``effective-spectrum`` refuses a curve whose total curvature misses -2*pi
by more than ``geometry.CLOSURE_TOL``: the magnetic flux (pi-2)/L it
compares against assumes -2*pi.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import checks, transverse
from .clifford import build_clifford
from .effective import (AUTO_NS_CAP, ConvergedReference, assemble_effective, assemble_magnetic, checked_ns,
                        converged_eigenvalues, effective_eigenvalues)
from .eigsolve import EigensolveError
from .geometry import CLOSURE_TOL, CurveError, curve_from_json, shell_metric
from .shell import MAX_COUNT, assemble_shell, checked_grid, lowest_eigenvalues
from .threads import set_blas_threads

__all__ = [
    "SweepConfig",
    "AsymptoticsReport",
    "run_sweep",
    "run_checks",
    "main",
]


EXIT_PARTIAL = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """One sweep job; a value the sweep cannot run is a ConfigError at construction.

    That includes a mass or width that ``_is_real`` refuses, each eps whose
    ``transverse.level`` fails ``_finite_square`` or whose grid ``shell.checked_grid``
    refuses.  Only the curve's guards, eps < 0.9/max|kappa| and ``_check_length``, wait for it.
    """

    curve: dict
    m: float = 0.0
    eps: tuple = (0.1, 0.07, 0.05, 0.035)
    ns: int = 192
    nt: int | None = None          # None: per-eps rule max(8, ceil(4/sqrt(eps)))
    count: int = 4
    eff_ns: int | str = "auto"     # largest Fourier size of the effective reference; "auto": AUTO_NS_CAP
    seed: int = 0                  # start vector of each shift-invert solve

    @staticmethod
    def from_dict(payload: dict) -> "SweepConfig":
        """The config of a JSON job; keys absent from ``payload`` keep the field defaults.

        A key that names no field is a ConfigError, so a misspelled field
        cannot silently run its default.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"a sweep config is a JSON object, got {payload!r}")
        unknown = sorted(set(payload) - {f.name for f in fields(SweepConfig)})
        if unknown:
            raise ConfigError("unknown sweep config keys: " + ", ".join(map(str, unknown)))
        if "curve" not in payload:
            raise ConfigError("a sweep config needs a curve")
        return SweepConfig(**payload)

    def __post_init__(self) -> None:
        # one normalization for JSON and Python callers: an integral float such
        # as 48.0 becomes an int, m and each eps a float; a bool or a string is no number
        if not isinstance(self.curve, dict) or "kind" not in self.curve:
            raise ConfigError(f"curve must be a JSON object with a kind, got {self.curve!r}")
        object.__setattr__(self, "curve", copy.deepcopy(self.curve))  # the caller's dict stays the caller's
        for name in ("ns", "nt", "count", "eff_ns", "seed"):
            value = getattr(self, name)
            if (name == "nt" and value is None) or (name == "eff_ns" and value == "auto"):
                continue
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not _is_real(self.m) or not self.m >= 0:
            raise ConfigError(f"m must be finite and nonnegative, got {self.m!r}")
        if (
            not isinstance(self.eps, (tuple, list))
            or len(self.eps) < 1
            or any(not _is_real(e) or not e > 0 for e in self.eps)
        ):
            raise ConfigError(f"eps must be a list of finite positive numbers, got {self.eps!r}")
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "eps", tuple(map(float, self.eps)))  # a list passed in stays as checked
        if any(a <= b for a, b in zip(self.eps, self.eps[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed!r}")
        if self.count < 1 or self.count > MAX_COUNT:
            raise ConfigError(f"count must lie in 1..{MAX_COUNT}")
        if self.eff_ns != "auto":
            try:
                checked_ns(self.eff_ns)
            except ValueError as exc:
                raise ConfigError(f'eff_ns, when not "auto": {exc}') from exc
        for eps in self.eps:
            try:
                ground = transverse.level(self.m, eps)
            except ArithmeticError:  # eps^2 underflows to 0 or overflows
                ground = math.nan
            if not _finite_square(ground):
                which = f"level {ground:.3g} squared" if math.isfinite(ground) else "level E_1(m eps)^2/eps^2"
                raise ConfigError(f"eps={eps!r}, m={self.m!r}: the transverse {which} is not a finite float")
            try:
                checked_grid(eps, self.ns, self.nt)
            except ValueError as exc:
                raise ConfigError(f"eps={eps!r}: {exc}") from exc


def _is_real(value) -> bool:
    """A finite real number (an int inside double range), never a bool: ``geometry._real``'s rule."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _finite_square(level: float) -> bool:
    """A level the job puts on a pencil's diagonal must have a finite square: the residual
    norm squares entries of order eps_mach*level, and an infinite norm is never certified."""
    return math.isfinite(level * level)


def _check_length(curve, n_s: int) -> None:
    """The length rule: refuse a curve so short that an effective block of Fourier size
    ``n_s`` has a largest mode (pi*n_s/L)^2 that fails ``_finite_square``."""
    mode = math.pi * n_s / curve.length
    top = mode * mode  # the block's largest diagonal level
    if not _finite_square(top):
        which = f"= {top:.3g} squared is not a finite float" if math.isfinite(top) else "overflows"
        raise ConfigError(f"curve length {curve.length!r} is too short: the effective reference's "
                          f"largest mode (pi*{n_s}/L)^2 {which}")


@dataclass
class AsymptoticsReport:
    config: SweepConfig     # the job it ran: curve, m, eps, grids, count, seed
    curve_id: str
    mu_shell: dict          # eps -> list of eigenvalues
    residuals: dict         # eps -> list r_j(eps)
    effective: ConvergedReference  # the reference's spin-up block values and their record
    fits: list              # per j: dict(intercept, slope, stderr_intercept)
    no_fit_reason: str | None = None  # why ``fits`` is empty: too few eps solved (see _eps_fits)
    corollary: dict | None = None  # an even count's first-order expansion (see _corollary); None for an odd count
    failures: dict = field(default_factory=dict)
    # eps -> grid, dof, the SpectrumResult.record() of its solve, seconds
    solves: dict = field(default_factory=dict)
    effective_s: float = 0.0   # seconds spent on the effective reference
    versions: dict = field(default_factory=dict)      # numpy and scipy
    blas_threads: dict = field(default_factory=dict)  # threads.set_blas_threads(), before the solves

    @property
    def mu_effective(self) -> list:
        return np.repeat(self.effective.eigenvalues, 2)[: self.config.count].tolist()

    @property
    def partial(self) -> bool:
        return bool(self.failures) or not self.fits

    def verdicts(self) -> list:
        """Per fitted level j (from 1): its fit and the effective value it is compared with."""
        mu_eff = self.mu_effective
        return [{"j": j + 1, **fit, "mu_effective": mu_eff[j], "intercept_error": abs(fit["intercept"] - mu_eff[j])}
                for j, fit in enumerate(self.fits)]

    def write(self, out_dir) -> None:
        """Write ``sweep.csv``, ``corollary.csv`` when there is a corollary, and the run record ``sweep.json``.

        An odd count removes an earlier run's ``corollary.csv``, which ``"corollary": null`` would contradict.
        """
        solved = [eps for eps in self.config.eps if eps in self.mu_shell]  # the keys of the corollary's lam too
        mu_eff, cor = self.mu_effective, self.corollary
        with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
            _write_csv(fh, ["eps", "j", "mu_shell", "residual", "mu_eff_ref"], [
                [eps, j + 1, mu, self.residuals[eps][j], mu_eff[j]]
                for eps in solved
                for j, mu in enumerate(self.mu_shell[eps])
            ])
        if cor is None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, "corollary.csv"))
        else:
            with open(os.path.join(out_dir, "corollary.csv"), "w", newline="") as fh:
                _write_csv(fh, ["eps", "p", "lambda", "linear_coeff_partial"], [
                    [eps, p, lam, excess / eps]
                    for eps in solved
                    for p, (lam, excess) in enumerate(zip(cor["lam"][eps], cor["excess"][eps]), start=1)
                ])
        with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)

    def summary(self) -> dict:
        cor = self.corollary
        return {
            "config": asdict(self.config),
            "curve": self.curve_id,
            "partial": self.partial,
            "failures": {str(k): v for k, v in self.failures.items()},
            "no_fit_reason": self.no_fit_reason,
            "solves": {repr(k): v for k, v in self.solves.items()},
            "effective_s": self.effective_s,
            "effective_ns": self.effective.n_s,
            "effective_err": self.effective.err,
            "effective_residual_max": self.effective.residual_max,
            "versions": self.versions,
            "blas_threads": self.blas_threads,
            "verdicts": self.verdicts(),
            # lambda_p and the excess per eps are the rows of corollary.csv
            "corollary": None if cor is None else {
                "linear_coeffs": cor["linear_coeffs"],
                "references": cor["references"],
                "pairing_defect": {repr(k): v for k, v in cor["pairing_defect"].items()},
                "partial": cor["partial"],
                "no_fit_reason": cor["no_fit_reason"],
            },
        }


def _write_csv(fh, header, rows) -> None:
    """Write one CSV table to a file opened with ``newline=""``; each float cell, numpy's too, as ``repr(float(v))``."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def _affine_fit(xs: np.ndarray, ys: np.ndarray) -> dict:
    """Least-squares fit y ~ a + b x with the intercept standard error."""
    design = np.vstack([np.ones_like(xs), xs]).T
    coef, res, *_ = np.linalg.lstsq(design, ys, rcond=None)
    dof = max(len(xs) - 2, 1)
    ss = float(res[0]) if len(res) else float(np.sum((ys - design @ coef) ** 2))
    cov = np.linalg.inv(design.T @ design) * (ss / dof)
    return {
        "intercept": float(coef[0]),
        "slope": float(coef[1]),
        "stderr_intercept": float(math.sqrt(max(cov[0, 0], 0.0))),
    }


def _eps_fits(eps_order, series: dict, minimum: int, what: str) -> tuple:
    """Affine fits in eps, one per level, of ``series`` (solved eps -> per-level values) over
    its eps in ``eps_order``, and None; or, with fewer than ``minimum`` eps, no fits and why."""
    fit_eps = np.array([e for e in eps_order if e in series])
    if fit_eps.size < minimum:
        return [], f"{fit_eps.size} of {len(eps_order)} eps solved; the {what} needs {minimum}"
    return [_affine_fit(fit_eps, np.array(ys)) for ys in zip(*(series[e] for e in fit_eps))], None


def _curve(spec):
    """The curve of a JSON curve config; a config it cannot build is a ConfigError."""
    try:
        return curve_from_json(spec)
    except CurveError as exc:
        raise ConfigError(str(exc)) from exc


def run_sweep(config, out_dir=None) -> AsymptoticsReport:
    """Shell spectra over the eps list, residuals, and affine fits per level.

    The effective reference comes from ``effective.converged_eigenvalues``
    with ``eff_ns`` as its cap (``"auto"``: ``effective.AUTO_NS_CAP``).  An
    eps point whose solve fails or cannot be certified is listed in
    ``failures`` under its eps, and a reference that has not converged at
    its cap under ``"effective"``; the report is ``partial`` when anything
    failed or fewer than 3 points solved (no fit; ``no_fit_reason`` says how
    many solved).  A dict ``config`` is built into a ``SweepConfig``, whose
    own rules are checked then; a curve config it cannot build, a curve so
    short that the reference's largest mode (pi*cap/L)^2 fails the length
    rule ``_check_length``, or an eps at or beyond the curve's injectivity guard
    is a ConfigError, and an ``out_dir`` that cannot be created an OSError,
    all raised before any solve.  The eps points are solved one after another.
    Each shell solve is given the lowest effective eigenvalue as its
    predicted level above its assembly's ``ground``, which the residuals
    subtract too (see ``shell.lowest_eigenvalues``).  With ``out_dir`` it writes ``sweep.csv``
    and the run record ``sweep.json``: the job as ``config`` (the resolved
    SweepConfig, which ``diracshell sweep --config`` runs again), per eps
    under ``solves`` the grid assembled (``ns``, ``nt``), the dof, the
    solve's ``eigsolve.SpectrumResult.record()`` (its ``factor_s``: the
    seconds of the solve spent factoring) and the assembly and solve
    seconds, and at the top level ``effective_s`` (seconds spent on the
    effective reference), ``effective_ns`` (the size used),
    ``effective_err`` (the last change of the values; null when the cap
    allowed one size only), ``effective_residual_max`` (the dense oracle's
    largest residual over the reference values), ``no_fit_reason``, the
    numpy/scipy versions and the BLAS thread settings the solves ran with
    (the record ``threads.set_blas_threads`` returns).  With an even count
    the report's ``corollary`` (see ``_corollary``) is written too: its
    lambda_p and partial coefficients as ``corollary.csv``, the rest as
    the ``corollary`` block of ``sweep.json``, null for an odd count.
    """
    cfg = config if isinstance(config, SweepConfig) else SweepConfig.from_dict(config)
    curve = _curve(cfg.curve)
    cap = AUTO_NS_CAP if cfg.eff_ns == "auto" else cfg.eff_ns
    _check_length(curve, cap)
    try:
        metrics = {eps: shell_metric(curve, eps) for eps in cfg.eps}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    threads_in_effect = set_blas_threads()
    fam = build_clifford(2)  # read by the shell assemblies only
    failures: dict = {}
    t0 = time.perf_counter()
    ref = converged_eigenvalues(curve, (cfg.count + 1) // 2, cap=cap)
    effective_s = time.perf_counter() - t0
    if not ref.converged:
        failures["effective"] = (
            f"effective reference not converged by n_s={ref.n_s} (cap {ref.cap}): last change {ref.err}"
        )

    results: dict = {}
    residuals: dict = {}
    levels: dict = {}
    solves: dict = {}
    for eps in cfg.eps:
        asm = None  # the last eps's assembly is freed before this one is built
        try:
            t0 = time.perf_counter()
            asm = assemble_shell(fam, metrics[eps], cfg.m, cfg.ns, cfg.nt)
            t1 = time.perf_counter()
            res = lowest_eigenvalues(asm, cfg.count, seed=cfg.seed, level=float(ref.eigenvalues[0]))
        except EigensolveError as exc:
            failures[eps] = str(exc)
            continue
        solves[eps] = {
            "ns": asm.n_s,
            "nt": asm.n_t,
            "dof": asm.dof_count,
            **res.record(),
            "assemble_s": t1 - t0,
            "solve_s": time.perf_counter() - t1,
        }
        results[eps] = res.eigenvalues.tolist()
        levels[eps] = asm.ground
        residuals[eps] = [mu - levels[eps] for mu in results[eps]]
    fits, no_fit_reason = _eps_fits(cfg.eps, residuals, 3, "affine fit")
    report = AsymptoticsReport(
        config=cfg,
        curve_id=curve.name,
        mu_shell=results,
        residuals=residuals,
        effective=ref,
        fits=fits,
        no_fit_reason=no_fit_reason,
        corollary=None if cfg.count % 2 else _corollary(cfg, results, levels, ref.eigenvalues.tolist(), failures),
        failures=failures,
        solves=solves,
        effective_s=effective_s,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
        blas_threads=threads_in_effect,
    )
    if out_dir is not None:
        report.write(out_dir)
    return report


def _corollary(cfg: SweepConfig, mu_shell: dict, levels: dict, mu_block: list, failures: dict) -> dict:
    """First-order expansion of the nonnegative operator eigenvalues.

    The shell spectrum comes in near-degenerate pairs; ``lam`` holds per
    eps lambda_p, the square root of the 2p-th eigenvalue, and ``excess``
    lambda_p - E_1(m eps)/eps, E_1(m eps)/eps being the square root of the
    sweep's transverse level.  ``linear_coeffs`` are the eps-slopes of the excess fitted per p,
    and ``references`` the (2/pi) mu_{2p} they are compared with, the p-th value of
    ``mu_block``, the spin-up block; ``pairing_defect`` is per eps the worst relative split
    of the pairs.  The fit needs 2 solved eps where the sweep's needs
    3, so the block has its own ``partial`` (a failure, or no fit) and
    ``no_fit_reason``.
    """
    n_p = cfg.count // 2
    lam: dict = {}
    excess: dict = {}
    pairing: dict = {}
    for eps, mus in mu_shell.items():
        arr = np.array(mus)
        pairs = arr.reshape(n_p, 2)
        pairing[eps] = float((np.abs(pairs[:, 1] - pairs[:, 0]) / np.abs(arr).max()).max())
        lam[eps] = [math.sqrt(pairs[p, 1]) for p in range(n_p)]
        excess[eps] = [value - math.sqrt(levels[eps]) for value in lam[eps]]
    fits, no_fit_reason = _eps_fits(cfg.eps, excess, 2, "corollary fit")
    return {
        "lam": lam,
        "excess": excess,
        "pairing_defect": pairing,
        "linear_coeffs": [fit["slope"] for fit in fits],
        "references": [(2.0 / math.pi) * mu for mu in mu_block[: len(fits)]],
        "partial": bool(failures) or not fits,
        "no_fit_reason": no_fit_reason,
    }


def run_checks(out=None) -> int:
    """Execute every suite of ``checks.REGISTRY`` in order; returns 0 iff all pass.

    The registry is read at call time, so a caller may replace it; each
    suite's ``checks.format_result`` line is printed as it finishes.  With
    ``out`` it writes one JSON entry per suite (``passed``, ``detail`` and
    wall time ``seconds``), opening ``out`` before the first suite runs, so
    a path that cannot be written fails before any work.
    """
    with open(out, "w") if out is not None else contextlib.nullcontext() as fh:
        set_blas_threads()
        results = []
        for entry in checks.REGISTRY:
            results.append(entry())
            print(checks.format_result(results[-1]))
        if fh is not None:
            summary = {r.name: {"passed": r.passed, "detail": r.detail, "seconds": r.seconds} for r in results}
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(r.passed for r in results) else 1


def _load_curve_arg(arg: str):
    """The JSON value of a --curve text; the caller checks its type.

    Text that starts with ``{`` or ``[`` is inline JSON.  Other text names
    a file; when no such file exists and the text is JSON (a bare ``5``),
    it is that value, so the caller refuses it by type, not as a missing file.
    """
    text = arg.strip()
    if text.startswith(("{", "[")):
        return json.loads(text)
    try:
        with open(text) as fh:
            return json.load(fh)
    except FileNotFoundError as missing:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise missing from None


def _build_config(args) -> SweepConfig:
    """The job of a sweep call: the keys of the config file, if one is
    given, each replaced by the flag of the same name if that was given."""
    payload = {}
    if args.config is not None:
        with open(args.config) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ConfigError(f"a job config is a JSON object, got {payload!r}")
    for f in fields(SweepConfig):
        value = getattr(args, f.name, None)  # eff_ns has no flag
        if value is None:
            continue
        if f.name == "curve":
            value = _load_curve_arg(value)
        elif f.name == "eps":
            try:
                value = [float(e) for e in value.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--eps: {exc}") from exc
        payload[f.name] = value
    if "curve" not in payload:
        raise ConfigError("a job needs a curve: give --curve or a config file with one")
    return SweepConfig.from_dict(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diracshell", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="run every property suite")
    p_check.add_argument("--out", default=None, help="write a JSON summary here")

    p_sw = sub.add_parser("sweep", help="eps sweep; an even count adds the corollary")
    p_sw.add_argument("--config", default=None, help="job config JSON file")
    p_sw.add_argument("--curve", default=None, help="curve JSON (inline or path)")
    # None: the config file's key, else the SweepConfig default
    p_sw.add_argument("--m", type=float, default=None)
    p_sw.add_argument("--eps", default=None, help="comma-separated decreasing widths")
    for flag in ("--ns", "--nt", "--count", "--seed"):
        p_sw.add_argument(flag, type=int, default=None)
    p_sw.add_argument("--out", default="out", help="output directory")

    p_tt = sub.add_parser("transverse-table")
    p_tt.add_argument("--m", default="0,0.1,0.5,1.0", help="comma-separated masses")
    p_tt.add_argument("--bands", type=int, default=4)
    p_tt.add_argument("--out", default="transverse.csv")

    p_es = sub.add_parser("effective-spectrum")
    p_es.add_argument("--curve", required=True)
    p_es.add_argument("--ns", type=int, default=512)
    p_es.add_argument("--count", type=int, default=8)
    p_es.add_argument("--out", default="effective.csv")

    p_dc = sub.add_parser("dump-clifford")
    p_dc.add_argument("--n", type=int, required=True)
    p_dc.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    set_blas_threads()

    try:
        if args.verb == "check":
            return run_checks(out=args.out)
        if args.verb == "sweep":
            report = run_sweep(_build_config(args), out_dir=args.out)
            for v in report.verdicts():
                print(
                    f"j={v['j']}: intercept {v['intercept']:.6f} vs effective "
                    f"{v['mu_effective']:.6f} (|diff| {v['intercept_error']:.2e}), slope {v['slope']:.4f}"
                )
            if report.corollary is not None:
                fitted = zip(report.corollary["linear_coeffs"], report.corollary["references"])
                for p, (coef, ref) in enumerate(fitted, start=1):
                    print(f"p={p}: fitted linear coefficient {coef:.6f} vs reference {ref:.6f}")
            if report.partial:
                reasons = [report.no_fit_reason] if report.no_fit_reason else []
                if report.failures:
                    reasons.append(f"failures {report.failures}")
                print("warning: report is partial;", "; ".join(reasons))
                return EXIT_PARTIAL
            return 0
        if args.verb == "transverse-table":
            try:
                ms = [float(v) for v in args.m.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--m: {exc}") from exc
            if any(not 0.0 <= v < math.inf for v in ms):
                raise ConfigError("--m: masses must be finite and nonnegative")
            if args.bands < 1:
                raise ConfigError("--bands must be >= 1")
            try:
                rows = transverse.transverse_table(ms, range(1, args.bands + 1))
            except ArithmeticError as exc:  # a normalization out of double range
                raise ConfigError(f"--m: {exc}") from exc
            with open(args.out, "w", newline="") as fh:
                _write_csv(fh, ["m", "p", "k", "E", "N"], rows)
            print(f"wrote {args.out}")
            return 0
        if args.verb == "effective-spectrum":
            try:
                checked_ns(args.ns)
            except ValueError as exc:
                raise ConfigError(f"--ns: {exc}") from exc
            if not 1 <= args.count <= args.ns - 1:
                raise ConfigError("--count must lie in 1..ns-1 (one spin block)")
            curve = _curve(_load_curve_arg(args.curve))
            _check_length(curve, args.ns)
            total = curve.total_curvature()
            if abs(total + 2.0 * math.pi) > CLOSURE_TOL:  # the magnetic flux (pi-2)/L assumes -2*pi
                raise ConfigError(f"effective-spectrum needs a closed curve of total curvature -2*pi; "
                                  f"{curve.name} has total curvature {total:.6g}")
            with open(args.out, "w", newline="") as fh:  # a path that cannot be written fails before the solves
                blocks = [effective_eigenvalues(asm, (args.count + 1) // 2).eigenvalues
                          for asm in (assemble_effective(curve, args.ns), assemble_magnetic(curve, args.ns))]
                distance = float(np.abs(blocks[0] - blocks[1]).max())
                doubled = np.repeat(blocks, 2, axis=1)[:, : args.count]
                _write_csv(fh, ["index", "mu_effective", "mu_magnetic_pair", "abs_diff"],
                           [[i, a, b, abs(a - b)] for i, (a, b) in enumerate(doubled.T, start=1)])
            print(f"wrote {args.out}; spectral distance {distance:.3e}")
            return 0
        if args.verb == "dump-clifford":
            try:
                fam = build_clifford(args.n)
            except ValueError as exc:
                raise ConfigError(f"--n: {exc}") from exc
            # each alpha as rows of [re, im] pairs, which restore it exactly
            alphas = [[[[float(v.real), float(v.imag)] for v in row] for row in a] for a in fam.alphas]
            text = json.dumps({"n": fam.n, "N": fam.N, "alphas": alphas})
            if args.out is None:
                print(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return 0
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
