"""Experiment driver: eigenvalue sweeps over shell width, asymptotic fits,
and the property-check suite.

The sweep subtracts the transverse ladder pi^2/(16 eps^2) + m/eps plus the
constant mass terms from each shell eigenvalue and fits the remaining
residual affinely in eps; the fitted intercept is compared against the
corresponding eigenvalue of the effective curve operator, and the square
root of the paired shell spectrum feeds the first-order expansion of the
operator's own nonnegative eigenvalues.

Verbs: check, sweep, corollary, transverse-table, effective-spectrum,
dump-clifford.  Exit codes: 0 ok, 1 check failure, 2 config error,
3 partial report (sweep or corollary: an eps point failed to solve or to be
certified, the effective reference with ``eff_ns="auto"`` had not converged
at its cap, or too few points solved for the fit; the outputs are still
written, flagged ``partial``).  The effective reference's Fourier size is
``eff_ns`` in a job config; the default ``"auto"`` doubles it until the
reported values stop changing (``effective.converged_eigenvalues``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from .checks import run_all
from .clifford import build_clifford, family_to_json
from .effective import (
    assemble_effective,
    converged_eigenvalues,
    effective_eigenvalues,
    effective_spectrum_csv,
)
from .eigsolve import EigensolveError
from .geometry import curve_from_json, shell_metric
from .shell import MAX_COUNT, assemble_shell, default_nt, lowest_eigenvalues
from .threads import blas_threads, set_blas_threads
from .transverse import write_transverse_table

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


@dataclass
class SweepConfig:
    curve: dict
    m: float = 0.0
    eps: tuple = (0.1, 0.07, 0.05, 0.035)
    ns: int = 192
    nt: int | None = None          # None: per-eps rule max(8, ceil(4/sqrt(eps)))
    count: int = 4
    eff_ns: int | str = "auto"     # Fourier size of the effective reference; "auto": doubled until converged
    seed: int = 0                  # start vector of each shift-invert solve

    @staticmethod
    def from_dict(payload: dict) -> "SweepConfig":
        try:
            cfg = SweepConfig(
                curve=payload["curve"],
                m=float(payload.get("m", 0.0)),
                eps=tuple(float(e) for e in payload.get("eps", (0.1, 0.07, 0.05, 0.035))),
                ns=int(payload.get("ns", 192)),
                nt=(int(payload["nt"]) if payload.get("nt") is not None else None),
                count=int(payload.get("count", 4)),
                eff_ns=_eff_ns(payload.get("eff_ns", "auto")),
                seed=int(payload.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep config: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.m < 0:
            raise ConfigError("m must be nonnegative")
        if len(self.eps) < 1 or any(e <= 0 for e in self.eps):
            raise ConfigError("eps values must be positive")
        if sorted(self.eps, reverse=True) != list(self.eps):
            raise ConfigError("eps list must be strictly decreasing")
        if len(set(self.eps)) != len(self.eps):
            raise ConfigError("eps values must be distinct")
        if self.count < 1 or self.count > MAX_COUNT:
            raise ConfigError(f"count must lie in 1..{MAX_COUNT}")
        if self.ns < 32:
            raise ConfigError("ns must be >= 32")
        if self.nt is not None and self.nt < 8:
            raise ConfigError("nt must be >= 8")
        if isinstance(self.eff_ns, str):
            if self.eff_ns != "auto":
                raise ConfigError(f'eff_ns must be "auto" or an integer, got {self.eff_ns!r}')
        elif self.eff_ns < 16 or self.eff_ns % 2:
            raise ConfigError('eff_ns must be "auto" or an even integer >= 16')


def _eff_ns(value):
    # a string other than "auto" is rejected by validate()
    return value if isinstance(value, str) else int(value)


@dataclass
class AsymptoticsReport:
    curve_id: str
    m: float
    eps: list
    mu_shell: dict          # eps -> list of eigenvalues
    residuals: dict         # eps -> list r_j(eps)
    mu_effective: list      # reference eigenvalues of the curve operator
    fits: list              # per j: dict(intercept, slope, stderr_intercept)
    partial: bool
    failures: dict = field(default_factory=dict)
    solves: dict = field(default_factory=dict)  # eps -> dof, shift, pivots, iterations, residual, seconds
    effective_s: float = 0.0   # seconds spent on the effective reference
    effective_ns: int = 0      # its Fourier size n_s
    effective_err: float | None = None  # eff_ns "auto": the last change of its values
    versions: dict = field(default_factory=dict)      # numpy and scipy
    blas_threads: dict = field(default_factory=dict)  # threads.blas_threads()

    def verdicts(self) -> list:
        out = []
        for j, fit in enumerate(self.fits):
            out.append(
                {
                    "j": j + 1,
                    "intercept": fit["intercept"],
                    "slope": fit["slope"],
                    "mu_effective": self.mu_effective[j],
                    "intercept_error": abs(fit["intercept"] - self.mu_effective[j]),
                }
            )
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "j", "mu_shell", "residual", "mu_eff_ref"])
            for eps in self.eps:
                if eps not in self.mu_shell:
                    continue
                for j, mu in enumerate(self.mu_shell[eps]):
                    writer.writerow(
                        [repr(eps), j + 1, repr(mu), repr(self.residuals[eps][j]),
                         repr(self.mu_effective[j])]
                    )

    def summary(self) -> dict:
        return {
            "curve": self.curve_id,
            "m": self.m,
            "eps": list(self.eps),
            "partial": self.partial,
            "failures": {str(k): v for k, v in self.failures.items()},
            "solves": {repr(k): v for k, v in self.solves.items()},
            "effective_s": self.effective_s,
            "effective_ns": self.effective_ns,
            "effective_err": self.effective_err,
            "versions": self.versions,
            "blas_threads": self.blas_threads,
            "verdicts": self.verdicts(),
        }


@dataclass
class CorollaryReport:
    curve_id: str
    m: float
    eps: list
    lam: dict               # eps -> list of lambda_p = sqrt(mu_{2p})
    pairing_defect: dict    # eps -> worst relative split of the 2p pairs
    linear_coeffs: list     # fitted eps-linear coefficient per p
    references: list        # (2/pi) mu_{2p}(Upsilon) + (2/pi) m^2 - (16/pi^3) m^2
    partial: bool
    failures: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "p", "lambda", "linear_coeff_partial"])
            for eps in self.eps:
                if eps not in self.lam:
                    continue
                for p, lam in enumerate(self.lam[eps], start=1):
                    partial = (lam - math.pi / (4.0 * eps) - (2.0 / math.pi) * self.m) / eps
                    writer.writerow([repr(eps), p, repr(lam), repr(partial)])


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


def _shell_job(fam, curve, cfg: SweepConfig, eps: float):
    met = shell_metric(curve, eps)
    nt = cfg.nt if cfg.nt is not None else default_nt(eps)
    t0 = time.perf_counter()
    asm = assemble_shell(fam, met, cfg.m, cfg.ns, nt)
    t1 = time.perf_counter()
    pairs = lowest_eigenvalues(asm, cfg.count, seed=cfg.seed)
    record = {
        "dof": asm.dof_count,
        "shift": pairs.shift,
        "negative_pivots": pairs.negative_pivots,
        "iterations": pairs.iterations,
        "residual_max": max(r for _, r in pairs),
        "assemble_s": t1 - t0,
        "solve_s": time.perf_counter() - t1,
    }
    return [v for v, _ in pairs], record


def run_sweep(config, out_dir=None, threads: int = 1) -> AsymptoticsReport:
    """Shell spectra over the eps list, residuals, and affine fits per level.

    The effective reference is solved at ``eff_ns`` Fourier modes, or with
    ``eff_ns="auto"`` at the size ``effective.converged_eigenvalues``
    chooses.  An eps point whose solve fails or cannot be certified is
    listed in ``failures`` under its eps, and an auto reference that has
    not converged at the cap under ``"effective"``; the report is
    ``partial`` when anything failed or fewer than 3 points solved (no
    fit).  With ``out_dir`` it writes ``sweep.csv`` and the run record
    ``sweep.json``: per eps under ``solves`` the dof, shift, negative
    pivots, ARPACK operator applications (``iterations``), largest residual
    and the assembly and solve seconds, and at the top level
    ``effective_s`` (seconds spent on the effective reference),
    ``effective_ns`` (the size used), ``effective_err`` (auto: the last
    change of the values; null for an explicit size), the numpy/scipy
    versions and the BLAS thread settings in effect
    (``threads.blas_threads``).
    """
    cfg = config if isinstance(config, SweepConfig) else SweepConfig.from_dict(config)
    cfg.validate()
    fam = build_clifford(2)
    curve = curve_from_json(cfg.curve)
    failures: dict = {}
    t0 = time.perf_counter()
    if cfg.eff_ns == "auto":
        ref = converged_eigenvalues(fam, curve, cfg.count)
        mu_eff, effective_ns, effective_err = ref.eigenvalues.tolist(), ref.n_s, ref.err
        if not ref.converged:
            failures["effective"] = (
                f"effective reference not converged at the cap n_s={ref.n_s}: last change {ref.err}"
            )
    else:
        mu_eff = effective_eigenvalues(assemble_effective(fam, curve, cfg.eff_ns), cfg.count).tolist()
        effective_ns, effective_err = cfg.eff_ns, None
    effective_s = time.perf_counter() - t0

    results: dict = {}
    solves: dict = {}

    def job(eps):
        try:
            return eps, *_shell_job(fam, curve, cfg, eps), None
        except EigensolveError as exc:
            return eps, None, None, str(exc)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(job, cfg.eps))
    else:
        outcomes = [job(eps) for eps in cfg.eps]
    for eps, mus, record, error in outcomes:
        if error is None:
            results[eps] = mus
            solves[eps] = record
        else:
            failures[eps] = error

    m = cfg.m
    const = m * m - (4.0 / math.pi**2) * m * m
    residuals = {
        eps: [mu - math.pi**2 / (16.0 * eps**2) - m / eps - const for mu in mus]
        for eps, mus in results.items()
    }
    fit_eps = np.array([e for e in cfg.eps if e in results])
    fits = []
    if fit_eps.size >= 3:
        for j in range(cfg.count):
            ys = np.array([residuals[e][j] for e in fit_eps])
            fits.append(_affine_fit(fit_eps, ys))
    report = AsymptoticsReport(
        curve_id=curve.name,
        m=m,
        eps=list(cfg.eps),
        mu_shell=results,
        residuals=residuals,
        mu_effective=mu_eff,
        fits=fits,
        partial=bool(failures) or not fits,
        failures=failures,
        solves=solves,
        effective_s=effective_s,
        effective_ns=effective_ns,
        effective_err=effective_err,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
        blas_threads=blas_threads(),
    )
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, "sweep.csv"))
        with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
    return report


def run_corollary(config, out_dir=None, threads: int = 1) -> CorollaryReport:
    """First-order expansion of the nonnegative operator eigenvalues.

    The shell spectrum comes in near-degenerate pairs; lambda_p is the
    square root of the 2p-th eigenvalue, and the eps-linear coefficient of
    lambda_p - pi/(4 eps) - (2/pi) m is fitted and compared against
    (2/pi) mu_{2p} + (2/pi) m^2 - (16/pi^3) m^2 built from the effective
    spectrum.  The report is ``partial``, with no coefficients, when fewer
    than 2 eps points solved, and ``partial`` with coefficients from the
    solved points when some point failed.
    """
    cfg = config if isinstance(config, SweepConfig) else SweepConfig.from_dict(config)
    if cfg.count % 2:
        raise ConfigError("corollary needs an even eigenvalue count (2p pairing)")
    base = run_sweep(cfg, out_dir=None, threads=threads)
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
    m = cfg.m
    if fit_eps.size >= 2:
        for p in range(n_p):
            ys = np.array([lam[e][p] - math.pi / (4.0 * e) - (2.0 / math.pi) * m for e in fit_eps])
            coeffs.append(_affine_fit(fit_eps, ys)["slope"])
            mu2p = base.mu_effective[2 * p + 1]
            refs.append((2.0 / math.pi) * mu2p + (2.0 / math.pi) * m * m - (16.0 / math.pi**3) * m * m)
    report = CorollaryReport(
        curve_id=base.curve_id,
        m=m,
        eps=list(cfg.eps),
        lam=lam,
        pairing_defect=pairing,
        linear_coeffs=coeffs,
        references=refs,
        partial=bool(base.failures) or not coeffs,
        failures=base.failures,
    )
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, "corollary.csv"))
        with open(os.path.join(out_dir, "corollary.json"), "w") as fh:
            json.dump(
                {
                    "curve": report.curve_id,
                    "m": report.m,
                    "linear_coeffs": report.linear_coeffs,
                    "references": report.references,
                    "pairing_defect": {repr(k): v for k, v in report.pairing_defect.items()},
                    "partial": report.partial,
                    "failures": {str(k): v for k, v in report.failures.items()},
                },
                fh,
                indent=2,
                sort_keys=True,
            )
    return report


def run_checks(out=None) -> int:
    """Execute every property suite; returns 0 iff all pass."""
    results = run_all(verbose=True)
    summary = {r.name: {"passed": r.passed, "detail": r.detail} for r in results}
    if out is not None:
        with open(out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(r.passed for r in results) else 1


def _load_curve_arg(arg: str) -> dict:
    text = arg.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _build_config(args) -> SweepConfig:
    if args.config is not None:
        with open(args.config) as fh:
            payload = json.load(fh)
        return SweepConfig.from_dict(payload)
    if args.curve is None:
        raise ConfigError("either --config or --curve is required")
    payload = {
        "curve": _load_curve_arg(args.curve),
        "m": args.m,
        "eps": [float(e) for e in args.eps.split(",")] if args.eps else None,
        "ns": args.ns,
        "nt": args.nt,
        "count": args.count,
        "seed": args.seed,
    }
    payload = {k: v for k, v in payload.items() if v is not None}
    return SweepConfig.from_dict(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diracshell", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="parallel eps jobs (1 = reproducible)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="run every property suite")
    p_check.add_argument("--out", default=None, help="write a JSON summary here")

    for name in ("sweep", "corollary"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="job config JSON file")
        p.add_argument("--curve", default=None, help="curve JSON (inline or path)")
        p.add_argument("--m", type=float, default=0.0)
        p.add_argument("--eps", default=None, help="comma-separated decreasing widths")
        p.add_argument("--ns", type=int, default=192)
        p.add_argument("--nt", type=int, default=None)
        p.add_argument("--count", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")

    p_tt = sub.add_parser("transverse-table")
    p_tt.add_argument("--m", default="0,0.1,0.5,1.0", help="comma-separated masses")
    p_tt.add_argument("--bands", type=int, default=4)
    p_tt.add_argument("--out", default="transverse.csv")

    p_es = sub.add_parser("effective-spectrum")
    p_es.add_argument("--curve", required=True)
    p_es.add_argument("--ns", type=int, default=512)
    p_es.add_argument("--count", type=int, default=8)
    p_es.add_argument("--coupling", type=float, default=None,
                      help="override the derived connection coefficient (sensitivity studies)")
    p_es.add_argument("--out", default="effective.csv")

    p_dc = sub.add_parser("dump-clifford")
    p_dc.add_argument("--n", type=int, required=True)
    p_dc.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    set_blas_threads(1)

    try:
        if args.verb == "check":
            return run_checks(out=args.out)
        if args.verb == "sweep":
            cfg = _build_config(args)
            report = run_sweep(cfg, out_dir=args.out, threads=args.threads)
            for v in report.verdicts():
                print(
                    f"j={v['j']}: intercept {v['intercept']:.6f} vs effective "
                    f"{v['mu_effective']:.6f} (|diff| {v['intercept_error']:.2e}), "
                    f"slope {v['slope']:.4f}"
                )
            if report.partial:
                print("warning: report is partial;", report.failures)
                return EXIT_PARTIAL
            return 0
        if args.verb == "corollary":
            cfg = _build_config(args)
            report = run_corollary(cfg, out_dir=args.out, threads=args.threads)
            for p, (coef, ref) in enumerate(zip(report.linear_coeffs, report.references), start=1):
                print(f"p={p}: fitted linear coefficient {coef:.6f} vs reference {ref:.6f}")
            if report.partial:
                print("warning: report is partial;", report.failures)
                return EXIT_PARTIAL
            return 0
        if args.verb == "transverse-table":
            ms = [float(v) for v in args.m.split(",")]
            write_transverse_table(args.out, ms, range(1, args.bands + 1))
            print(f"wrote {args.out}")
            return 0
        if args.verb == "effective-spectrum":
            from .effective import DEFAULT_COUPLING

            fam = build_clifford(2)
            curve = curve_from_json(_load_curve_arg(args.curve))
            coupling = DEFAULT_COUPLING if args.coupling is None else args.coupling
            res = effective_spectrum_csv(
                args.out, fam, curve, args.ns, count=args.count, coupling=coupling
            )
            print(f"wrote {args.out}; spectral distance {res.spectral_distance:.3e}")
            return 0
        if args.verb == "dump-clifford":
            text = family_to_json(build_clifford(args.n))
            if args.out is None:
                print(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
