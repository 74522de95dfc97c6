"""Regenerate ``reference.json``: the shell eigenvalues every sweep run is checked against.

Run from the repository root (about five minutes and 1.3 GB peak for the
dense oracle):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/make_reference.py

``sweep-ellipse`` uses the dense oracle ``eigsolve.dense_hermitian_eig``
on every eps.  ``sweep-circle`` uses the production path
(``shell.lowest_eigenvalues``, seed 0) and requires every residual to be
at most 1e-8; where the grid is no larger than the largest ellipse grid
it is also compared with the dense oracle, and that agreement is stored.
"""

from __future__ import annotations

import json
import os
import sys

from spec import REFERENCE_RTOL, SWEEPS

from diracshell.clifford import build_clifford
from diracshell.eigsolve import dense_hermitian_eig
from diracshell.geometry import curve_from_json, shell_metric
from diracshell.shell import assemble_shell, default_nt, lowest_eigenvalues

HERE = os.path.dirname(os.path.abspath(__file__))
DENSE_REFERENCE = {"sweep-ellipse"}
DENSE_CROSS_CHECK_DIM = 3328
RESIDUAL_BOUND = 1e-8


def _assembly(fam, curve, cfg, eps):
    return assemble_shell(fam, shell_metric(curve, eps), cfg["m"], cfg["ns"], default_nt(eps))


def _dense(asm, count):
    res = dense_hermitian_eig(asm.pencil.a, asm.pencil.b, check=False)
    return res.eigenvalues[:count].tolist(), float(res.residuals[:count].max())


def reference_for(name: str, cfg: dict) -> dict:
    fam = build_clifford(2)
    curve = curve_from_json(cfg["curve"])
    out = {"config": cfg, "eigenvalues": {}, "dims": {}, "residual_max": {}, "dense_agreement": {}}
    for eps in cfg["eps"]:
        asm = _assembly(fam, curve, cfg, eps)
        key = repr(eps)
        out["dims"][key] = asm.dof_count
        if name in DENSE_REFERENCE:
            vals, res = _dense(asm, cfg["count"])
        else:
            pairs = lowest_eigenvalues(asm, cfg["count"], seed=0)
            vals = [v for v, _ in pairs]
            res = max(r for _, r in pairs)
            if res > RESIDUAL_BOUND:
                raise SystemExit(f"{name} eps={eps}: residual {res:g} above {RESIDUAL_BOUND:g}")
            if asm.dof_count <= DENSE_CROSS_CHECK_DIM:
                dense_vals, _ = _dense(asm, cfg["count"])
                worst = max(abs(a - b) / abs(b) for a, b in zip(vals, dense_vals))
                if worst > REFERENCE_RTOL:
                    raise SystemExit(f"{name} eps={eps}: production vs dense {worst:g}")
                out["dense_agreement"][key] = worst
        out["eigenvalues"][key] = vals
        out["residual_max"][key] = res
        print(f"{name} eps={eps} dim={asm.dof_count} residual_max={res:.2e}", file=sys.stderr)
    out["method"] = (
        "eigsolve.dense_hermitian_eig" if name in DENSE_REFERENCE
        else "shell.lowest_eigenvalues seed 0, residuals <= 1e-8"
    )
    return out


def main() -> None:
    refs = {name: reference_for(name, cfg) for name, cfg in SWEEPS.items()}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
