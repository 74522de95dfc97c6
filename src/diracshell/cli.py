"""Experiment driver: eigenvalue sweeps over shell width, asymptotic fits,
and the property-check suite.

The sweep subtracts the transverse ground level E_1(m eps)^2/eps^2
(``transverse.level``) from each shell eigenvalue and fits the remaining
residual affinely in eps; the fitted intercept is compared against the
corresponding eigenvalue of the effective curve operator, and the square
root of the paired shell spectrum, less E_1(m eps)/eps, feeds the
first-order expansion of the operator's own nonnegative eigenvalues.

Verbs: check, sweep, corollary, transverse-table, effective-spectrum,
dump-clifford.  Exit codes: 0 ok, 1 check failure, 2 config error,
3 partial report (sweep or corollary: an eps point failed to solve or to be
certified, the effective reference had not converged at its cap, or too few
points solved for the fit, which ``no_fit_reason`` states; the outputs are
still written, flagged ``partial``).  The effective reference doubles its
Fourier size until its values stop changing (``effective.converged_eigenvalues``);
``eff_ns`` in a job config caps that size, and its default ``"auto"`` is AUTO_NS_CAP.
A sweep or corollary job is the ``--config`` file's keys with each flag
given in place of its key; its ``SweepConfig`` is checked when it is built,
each eps's transverse level and grid included, and only the curve's
injectivity guard waits for the curve, which ``_sweep`` builds before any solve.
``run_sweep``, ``run_corollary`` and ``run_checks`` set BLAS to one thread
(``threads.set_blas_threads``) before their first solve, as ``main`` does.
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

from . import transverse
from .checks import run_all
from .clifford import build_clifford, family_to_json
from .effective import (
    MIN_NS as EFF_MIN_NS,
    ConvergedReference,
    converged_eigenvalues,
    effective_spectrum_csv,
    valid_ns,
)
# nothing here calls these two; their only reader is bench/tracer.py, which wraps them here by name
from .effective import assemble_effective, effective_eigenvalues  # noqa: F401
from .eigsolve import DENSE_DIM_LIMIT, EigensolveError
from .geometry import CurveError, curve_from_json, shell_metric
from .shell import MAX_COUNT, assemble_shell, checked_grid, lowest_eigenvalues
from .threads import set_blas_threads

__all__ = [
    "SweepConfig",
    "AsymptoticsReport",
    "CorollaryReport",
    "run_sweep",
    "run_corollary",
    "run_checks",
    "main",
]


EXIT_PARTIAL = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """One sweep job; a value the sweep cannot run is a ConfigError at construction.

    That includes each eps whose ``transverse.level`` or its square is not a
    finite float, or whose grid ``shell.checked_grid`` refuses.  Only the
    curve's injectivity guard eps < 0.9/max|kappa| waits for the curve.
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
        if not _is_real(self.m) or not 0 <= self.m < math.inf:
            raise ConfigError(f"m must be finite and nonnegative, got {self.m!r}")
        if (
            not isinstance(self.eps, (tuple, list))
            or len(self.eps) < 1
            or any(not _is_real(e) or not 0 < e < math.inf for e in self.eps)
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
        if self.eff_ns != "auto" and not valid_ns(self.eff_ns):
            raise ConfigError(
                f'eff_ns must be "auto" or an even integer >= {EFF_MIN_NS} with eff_ns - 1 <= {DENSE_DIM_LIMIT}'
            )
        for eps in self.eps:
            try:
                ground = transverse.level(self.m, eps)
            except ArithmeticError:  # eps^2 underflows to 0 or overflows
                ground = math.nan
            if not math.isfinite(ground * ground):  # the residual norm squares entries of order eps_mach*level
                which = f"level {ground:.3g} squared" if math.isfinite(ground) else "level E_1(m eps)^2/eps^2"
                raise ConfigError(f"eps={eps!r}, m={self.m!r}: the transverse {which} is not a finite float")
            try:
                checked_grid(eps, self.ns, self.nt)
            except ValueError as exc:
                raise ConfigError(f"eps={eps!r}: {exc}") from exc


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class AsymptoticsReport:
    config: SweepConfig     # the job it ran: curve, m, eps, grids, count, seed
    curve_id: str
    mu_shell: dict          # eps -> list of eigenvalues
    residuals: dict         # eps -> list r_j(eps)
    effective: ConvergedReference  # the curve operator's reference eigenvalues and their record
    fits: list              # per j: dict(intercept, slope, stderr_intercept)
    failures: dict = field(default_factory=dict)
    # eps -> grid, dof, the SpectrumResult.record() of its solve, seconds
    solves: dict = field(default_factory=dict)
    effective_s: float = 0.0   # seconds spent on the effective reference
    versions: dict = field(default_factory=dict)      # numpy and scipy
    blas_threads: dict = field(default_factory=dict)  # threads.set_blas_threads(), before the solves

    @property
    def mu_effective(self) -> list:
        return self.effective.eigenvalues.tolist()

    @property
    def partial(self) -> bool:
        return bool(self.failures) or not self.fits

    @property
    def no_fit_reason(self) -> str | None:
        """Why ``fits`` is empty: too few eps solved."""
        if self.fits:
            return None
        return f"{len(self.mu_shell)} of {len(self.config.eps)} eps solved; the affine fit needs 3"

    def verdicts(self) -> list:
        out = []
        for j, fit in enumerate(self.fits):
            out.append(
                {
                    "j": j + 1,
                    "intercept": fit["intercept"],
                    "slope": fit["slope"],
                    "stderr_intercept": fit["stderr_intercept"],
                    "mu_effective": self.mu_effective[j],
                    "intercept_error": abs(fit["intercept"] - self.mu_effective[j]),
                }
            )
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "j", "mu_shell", "residual", "mu_eff_ref"])
            for eps in self.config.eps:
                if eps not in self.mu_shell:
                    continue
                for j, mu in enumerate(self.mu_shell[eps]):
                    writer.writerow(
                        [repr(eps), j + 1, repr(mu), repr(self.residuals[eps][j]),
                         repr(self.mu_effective[j])]
                    )

    def summary(self) -> dict:
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
        }


@dataclass
class CorollaryReport:
    sweep: AsymptoticsReport  # the sweep whose spectra it expands: its job, failures and record
    lam: dict               # eps -> list of lambda_p = sqrt(mu_{2p})
    pairing_defect: dict    # eps -> worst relative split of the 2p pairs
    linear_coeffs: list     # fitted eps-linear coefficient per p
    references: list        # (2/pi) mu_{2p}(Upsilon), the coefficient the theorem predicts

    @property
    def failures(self) -> dict:
        return self.sweep.failures

    @property
    def partial(self) -> bool:
        # the fit needs 2 points where the sweep's needs 3, so its own partial flag does not carry over
        return bool(self.failures) or not self.linear_coeffs

    @property
    def no_fit_reason(self) -> str | None:
        if self.linear_coeffs:
            return None
        return f"{len(self.lam)} of {len(self.sweep.config.eps)} eps solved; the corollary fit needs 2"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "p", "lambda", "linear_coeff_partial"])
            for eps in self.sweep.config.eps:
                if eps not in self.lam:
                    continue
                for p, lam in enumerate(self.lam[eps], start=1):
                    partial = (lam - math.sqrt(transverse.level(self.sweep.config.m, eps))) / eps
                    writer.writerow([repr(eps), p, repr(lam), repr(partial)])

    def summary(self) -> dict:
        return {
            "sweep": self.sweep.summary(),
            "linear_coeffs": self.linear_coeffs,
            "references": self.references,
            "pairing_defect": {repr(k): v for k, v in self.pairing_defect.items()},
            "partial": self.partial,
            "no_fit_reason": self.no_fit_reason,
        }


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


def _write_outputs(report, out_dir, stem: str) -> None:
    """Write ``<stem>.csv`` and the run record ``<stem>.json`` of a report into out_dir."""
    report.write_csv(os.path.join(out_dir, stem + ".csv"))
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(report.summary(), fh, indent=2, sort_keys=True)


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
    own rules are checked then; a curve config it cannot build or an eps at
    or beyond the curve's injectivity guard is a ConfigError, and an
    ``out_dir`` that cannot be created an OSError, both raised before any
    solve.  The eps points are solved one after another.
    Each shell solve is given the lowest effective eigenvalue as its
    predicted level above the transverse ground level (see
    ``shell.lowest_eigenvalues``).  With ``out_dir`` it writes ``sweep.csv``
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
    (the record ``threads.set_blas_threads`` returns).
    """
    report = _sweep(config, out_dir)
    if out_dir is not None:
        _write_outputs(report, out_dir, "sweep")
    return report


def _sweep(config, out_dir) -> AsymptoticsReport:
    """The report of ``run_sweep`` and ``run_corollary``; every refusal comes before the first solve."""
    cfg = config if isinstance(config, SweepConfig) else SweepConfig.from_dict(config)
    curve = _curve(cfg.curve)
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
    ref = converged_eigenvalues(curve, cfg.count, cap=None if cfg.eff_ns == "auto" else cfg.eff_ns)
    effective_s = time.perf_counter() - t0
    if not ref.converged:
        failures["effective"] = (
            f"effective reference not converged by n_s={ref.n_s} (cap {ref.cap}): last change {ref.err}"
        )

    results: dict = {}
    residuals: dict = {}
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
        ground = transverse.level(cfg.m, eps)
        residuals[eps] = [mu - ground for mu in results[eps]]
    fit_eps = np.array([e for e in cfg.eps if e in results])
    fits = []
    if fit_eps.size >= 3:
        for j in range(cfg.count):
            ys = np.array([residuals[e][j] for e in fit_eps])
            fits.append(_affine_fit(fit_eps, ys))
    return AsymptoticsReport(
        config=cfg,
        curve_id=curve.name,
        mu_shell=results,
        residuals=residuals,
        effective=ref,
        fits=fits,
        failures=failures,
        solves=solves,
        effective_s=effective_s,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
        blas_threads=threads_in_effect,
    )


def run_corollary(config, out_dir=None) -> CorollaryReport:
    """First-order expansion of the nonnegative operator eigenvalues.

    The shell spectrum comes in near-degenerate pairs; lambda_p is the
    square root of the 2p-th eigenvalue, and the eps-linear coefficient of
    lambda_p - E_1(m eps)/eps (the square root of ``transverse.level``) is
    fitted and compared against (2/pi) mu_{2p} built from the effective
    spectrum.  The report is ``partial``, with no coefficients, when fewer
    than 2 eps points solved, and ``partial`` with coefficients from the
    solved points when some point failed.  It runs the sweep of
    ``run_sweep``, so refuses what that refuses, and an odd count too
    (a ConfigError), before any solve.
    """
    cfg = config if isinstance(config, SweepConfig) else SweepConfig.from_dict(config)
    if cfg.count % 2:
        raise ConfigError("corollary needs an even eigenvalue count (2p pairing)")
    base = _sweep(cfg, out_dir)
    n_p = cfg.count // 2
    lam = {}
    pairing = {}
    for eps, mus in base.mu_shell.items():
        arr = np.array(mus)
        pairs = arr.reshape(n_p, 2)
        pairing[eps] = float((np.abs(pairs[:, 1] - pairs[:, 0]) / np.abs(arr).max()).max())
        lam[eps] = [math.sqrt(pairs[p, 1]) for p in range(n_p)]
    fit_eps = np.array([e for e in cfg.eps if e in lam])
    coeffs = []
    refs = []
    if fit_eps.size >= 2:
        for p in range(n_p):
            ys = np.array([lam[e][p] - math.sqrt(transverse.level(cfg.m, e)) for e in fit_eps])
            coeffs.append(_affine_fit(fit_eps, ys)["slope"])
            refs.append((2.0 / math.pi) * base.mu_effective[2 * p + 1])
    report = CorollaryReport(
        sweep=base, lam=lam, pairing_defect=pairing, linear_coeffs=coeffs, references=refs
    )
    if out_dir is not None:
        _write_outputs(report, out_dir, "corollary")
    return report


def run_checks(out=None) -> int:
    """Execute every property suite; returns 0 iff all pass.

    With ``out`` it writes one JSON entry per suite: ``passed``, ``detail``
    and the suite's wall time ``seconds``.  ``out`` is opened for writing
    before the first suite runs, so a path that cannot be written fails
    before any work.
    """
    with open(out, "w") if out is not None else contextlib.nullcontext() as fh:
        set_blas_threads()
        results = run_all()
        if fh is not None:
            summary = {r.name: {"passed": r.passed, "detail": r.detail, "seconds": r.seconds} for r in results}
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(r.passed for r in results) else 1


def _load_curve_arg(arg: str):
    """Inline JSON (an object or an array) or the JSON of the file named; the caller checks its type."""
    text = arg.strip()
    if text.startswith(("{", "[")):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _build_config(args) -> SweepConfig:
    """The job of a sweep or corollary call: the keys of the config file, if
    one is given, each replaced by the flag of the same name if that was given."""
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

    for name in ("sweep", "corollary"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="job config JSON file")
        p.add_argument("--curve", default=None, help="curve JSON (inline or path)")
        # None: the config file's key, else the SweepConfig default
        p.add_argument("--m", type=float, default=None)
        p.add_argument("--eps", default=None, help="comma-separated decreasing widths")
        for flag in ("--ns", "--nt", "--count", "--seed"):
            p.add_argument(flag, type=int, default=None)
        p.add_argument("--out", default="out", help="output directory")

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
        if args.verb in ("sweep", "corollary"):
            cfg = _build_config(args)
            if args.verb == "sweep":
                report = run_sweep(cfg, out_dir=args.out)
                lines = [
                    f"j={v['j']}: intercept {v['intercept']:.6f} vs effective "
                    f"{v['mu_effective']:.6f} (|diff| {v['intercept_error']:.2e}), slope {v['slope']:.4f}"
                    for v in report.verdicts()
                ]
            else:
                report = run_corollary(cfg, out_dir=args.out)
                lines = [
                    f"p={p}: fitted linear coefficient {coef:.6f} vs reference {ref:.6f}"
                    for p, (coef, ref) in enumerate(zip(report.linear_coeffs, report.references), start=1)
                ]
            for line in lines:
                print(line)
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
            transverse.write_transverse_table(args.out, ms, range(1, args.bands + 1))
            print(f"wrote {args.out}")
            return 0
        if args.verb == "effective-spectrum":
            if not valid_ns(args.ns) or not 1 <= args.count <= args.ns - 1:
                raise ConfigError(
                    f"--ns must be even with {EFF_MIN_NS} <= ns and ns - 1 <= {DENSE_DIM_LIMIT} "
                    "(the dense cap), and --count in 1..ns-1 (one spin block)"
                )
            curve = _curve(_load_curve_arg(args.curve))
            res = effective_spectrum_csv(args.out, curve, args.ns, count=args.count)
            print(f"wrote {args.out}; spectral distance {res.spectral_distance:.3e}")
            return 0
        if args.verb == "dump-clifford":
            try:
                fam = build_clifford(args.n)
            except ValueError as exc:
                raise ConfigError(f"--n: {exc}") from exc
            text = family_to_json(fam)
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
