"""Command line front end.

Subcommands
-----------
observables    bound-state observables as JSON (default) or a text table
wavefunctions  CSV of u(r), w(r) with region labels, optional overlay merge
momentum       CSV of form factors and momentum-space wavefunctions
fit            solve (b, ratio) for a target (r_rms, Q) pair
validate       continuity / transform / normalisation self-checks

Exit codes
----------
0  success
1  a validate check failed
2  bad parameters or arguments
3  quadrature or transform did not converge
4  file I/O failure
5  fit did not converge

Parameters come from defaults (the fitted equal-range point), overridden
by --params-json, overridden by individual flags.  A and B must be given
together; when absent they are re-solved from the normalisation
condition at the requested ratio.

CSV output is deterministic: floats are written with repr, which
round-trips exactly, so identical inputs give byte-identical files.
The u and w columns come from one `uw_coordinate` call over the whole
grid, the momentum columns from one `form_factors` and one `uw_momentum`
call; every value is bit-identical to the same evaluator's at that point
alone.
All evaluation happens before the output is opened, so a failed run
leaves no partial file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .fitting import FitTargets, fit_parameters
from .model import ModelParams, Region, _region_masks
from .observables import (
    probabilities_closed,
    probabilities_coordinate,
    probabilities_numeric,
    report,
    solve_normalisation,
)
from .quadrature import QuadratureError
from .transform_oracle import TransformConvergenceError, validate_transforms
from .wf_coordinate import branch, uw_coordinate
from .wf_momentum import form_factors, uw_momentum

DEFAULT_B = 1.475
DEFAULT_ALPHA = 0.23165
DEFAULT_RATIO = 3.0

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_PARAMS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_FIT_FAILED = 5


def _add_param_options(sub: argparse.ArgumentParser):
    g = sub.add_argument_group("model parameters")
    g.add_argument("--params-json", metavar="PATH", help="JSON file with b1_fm, b2_fm, alpha_inv_fm, A, B")
    g.add_argument("--b1", type=float, help=f"first range in fm (default {DEFAULT_B})")
    g.add_argument("--b2", type=float, help="second range in fm (default: equal to --b1)")
    g.add_argument("--alpha", type=float, help=f"bound-state wavenumber in fm^-1 (default {DEFAULT_ALPHA})")
    g.add_argument("--ratio", type=float, help=f"(B/A)^2 used when A, B are re-solved (default {DEFAULT_RATIO})")
    g.add_argument("--A", type=float, help="S-channel normalisation; requires --B")
    g.add_argument("--B", type=float, help="D-channel normalisation; requires --A")


def _resolve_params(args) -> ModelParams:
    b1 = b2 = alpha = A = B = None
    if args.params_json:
        with open(args.params_json) as f:
            loaded = ModelParams.from_dict(json.load(f))
        b1, b2, alpha, A, B = loaded.b1, loaded.b2, loaded.alpha, loaded.A, loaded.B
    if (args.A is None) != (args.B is None):
        raise ValueError("give --A and --B together or neither")
    if args.b1 is not None:
        b1 = args.b1
    if args.b2 is not None:
        b2 = args.b2
    if args.alpha is not None:
        alpha = args.alpha
    if args.A is not None:
        A, B = args.A, args.B
    b1 = DEFAULT_B if b1 is None else b1
    b2 = b1 if b2 is None else b2
    alpha = DEFAULT_ALPHA if alpha is None else alpha
    if args.ratio is not None and args.A is None:
        A = B = None  # an explicit ratio re-solves even over JSON-supplied A, B
    if A is None:
        ratio = DEFAULT_RATIO if args.ratio is None else args.ratio
        A, B = solve_normalisation(b1, alpha, ratio, b2)
    return ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as f:
            yield f


# ---------------------------------------------------------------------------
# subcommands

def cmd_observables(args) -> int:
    p = _resolve_params(args)
    rep = report(p)
    payload = {"params": p.to_dict(), "observables": rep.to_dict()}
    with _open_out(args.output) as out:
        if args.table:
            rows = [("quantity", "value")] + [(k, repr(v)) for k, v in payload["observables"].items()]
            width = max(len(r[0]) for r in rows)
            for name, value in rows:
                out.write(f"{name:<{width}}  {value}\n")
        else:
            json.dump(payload, out, indent=2)
            out.write("\n")
    return EXIT_OK


def _float_grid(stop: float, step: float) -> np.ndarray:
    """Points i*step from 0 up to stop; the 1e-12 slack keeps a last point
    that lands on stop up to rounding, and no point passes it."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and > 0, got {step!r}")
    if not (math.isfinite(stop) and stop >= 0):
        raise ValueError(f"grid end must be finite and >= 0, got {stop!r}")
    try:  # a count that overflows to inf, or too large for numpy to allocate
        return np.arange(math.floor(stop / step * (1.0 + 1e-12)) + 1) * step
    except (OverflowError, MemoryError, ValueError):
        raise ValueError(f"grid to {stop!r} in steps of {step!r} has too many points") from None


def _reprs(values: np.ndarray) -> list:
    return [repr(v) for v in values.tolist()]


def cmd_wavefunctions(args) -> int:
    p = _resolve_params(args)
    grid = _float_grid(args.r_max, args.dr)
    overlay_fields = []
    if args.overlay:
        with open(args.overlay, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or "r_fm" not in reader.fieldnames:
                raise ValueError(f"overlay file {args.overlay!r} has no r_fm column")
            overlay_fields = [name for name in reader.fieldnames if name != "r_fm"]
            overlay_rows = [row for row in reader]
        if not overlay_rows:
            raise ValueError(f"overlay file {args.overlay!r} has no data rows")
        overlay_r = np.empty(len(overlay_rows))
        for i, row in enumerate(overlay_rows):
            try:
                # DictReader fills missing fields with None and keys extra ones by None
                if None in row or None in row.values():
                    raise ValueError(f"not the header's {len(reader.fieldnames)} fields")
                overlay_r[i] = float(row["r_fm"])
                if not math.isfinite(overlay_r[i]):
                    raise ValueError("r_fm is non-finite")
            except ValueError as exc:
                raise ValueError(f"overlay file {args.overlay!r}, data row {i + 1}: {exc}") from None
    columns = [_reprs(grid), *map(_reprs, uw_coordinate(grid, p))]
    columns.append(np.select(_region_masks(grid, p), [reg.value for reg in Region], default="").tolist())
    if overlay_fields:
        near = [overlay_rows[int(np.argmin(np.abs(overlay_r - r)))] for r in grid.tolist()]
        columns += [[row[name] for row in near] for name in overlay_fields]
    with _open_out(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["r_fm", "u", "w", "region"] + [f"ref_{name}" for name in overlay_fields])
        writer.writerows(zip(*columns))
    return EXIT_OK


def cmd_momentum(args) -> int:
    p = _resolve_params(args)
    grid = _float_grid(args.k_max, args.dk)
    columns = [_reprs(grid), *map(_reprs, form_factors(grid, p)), *map(_reprs, uw_momentum(grid, p))]
    with _open_out(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["k_inv_fm", "g_C", "g_T", "u_k", "w_k"])
        writer.writerows(zip(*columns))
    return EXIT_OK


def cmd_fit(args) -> int:
    targets = FitTargets(r_rms=args.target_rrms, Q=args.target_q)
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    result = fit_parameters(targets, alpha)
    payload = {
        "b_fm": result.b,
        "ratio": result.ratio,
        "A": result.A,
        "B": result.B,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    with _open_out(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_FIT_FAILED
    return EXIT_OK


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def cmd_validate(args) -> int:
    p = _resolve_params(args)
    checks = []  # (name, deviation, tolerance)

    boundaries = []
    if not p.equal_range:
        boundaries.append((p.delta, Region.INNER, Region.MIDDLE))
    boundaries.append((p.range_sum, Region.MIDDLE, Region.OUTER))
    for r0, lo, hi in boundaries:
        # per channel: the value below and above r0, then the slope below and above
        values = zip(*(branch(region, r0, p, d).tolist() for d in (0, 1) for region in (lo, hi)))
        for channel, (a, b, da, db) in zip(("u", "w"), values):
            checks.append((f"continuity {channel} at r={r0:.6g}", _rel(a, b), 1e-10))
            checks.append((f"derivative {channel} at r={r0:.6g}", _rel(da, db), 1e-8))

    trep = validate_transforms(p)
    checks.append(("transform u, max over r grid", trep.max_abs_dev_u, 1e-7))
    checks.append(("transform w, max over r grid", trep.max_abs_dev_w, 1e-7))

    pS_k, pD_k = probabilities_numeric(p)
    pS_r, pD_r = probabilities_coordinate(p)
    checks.append(("Parseval S (k-space vs r-space norm)", abs(pS_k - pS_r), 1e-7))
    checks.append(("Parseval D (k-space vs r-space norm)", abs(pD_k - pD_r), 1e-7))

    lines = []
    if p.equal_range:
        pS_c, pD_c = probabilities_closed(p)
        checks.append(("closed vs numeric P_S", _rel(pS_c, pS_k), 1e-8))
        checks.append(("closed vs numeric P_D", _rel(pD_c, pD_k), 1e-6))
    else:
        lines.append("closed vs numeric probabilities: skipped (unequal ranges)")

    failed = False
    with _open_out(args.output) as out:
        for name, dev, tol in checks:
            ok = dev <= tol
            failed = failed or not ok
            out.write(f"{name}: dev {dev:.3e} (tol {tol:.1e}) {'PASS' if ok else 'FAIL'}\n")
        for line in lines:
            out.write(line + "\n")
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdeut",
        description="Separable-potential deuteron model: wavefunctions, observables, fitting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_obs = subs.add_parser("observables", help="channel probabilities, A_S, A_D, eta, r_rms, Q")
    _add_param_options(p_obs)
    p_obs.add_argument("--table", action="store_true", help="plain text table instead of JSON")
    p_obs.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p_obs.set_defaults(func=cmd_observables)

    p_wf = subs.add_parser("wavefunctions", help="CSV of u(r), w(r) with region labels")
    _add_param_options(p_wf)
    p_wf.add_argument("--r-max", type=float, default=12.0, help="grid end in fm (default 12)")
    p_wf.add_argument("--dr", type=float, default=0.05, help="grid step in fm (default 0.05)")
    p_wf.add_argument("--overlay", metavar="PATH", help="reference CSV with r_fm column; merged by nearest r")
    p_wf.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p_wf.set_defaults(func=cmd_wavefunctions)

    p_mom = subs.add_parser("momentum", help="CSV of form factors and momentum wavefunctions")
    _add_param_options(p_mom)
    p_mom.add_argument("--k-max", type=float, default=5.0, help="grid end in fm^-1 (default 5)")
    p_mom.add_argument("--dk", type=float, default=0.02, help="grid step in fm^-1 (default 0.02)")
    p_mom.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p_mom.set_defaults(func=cmd_momentum)

    p_fit = subs.add_parser("fit", help="solve (b, ratio) for target r_rms and Q")
    p_fit.add_argument("--target-rrms", type=float, default=2.08, help="target rms radius in fm (default 2.08)")
    p_fit.add_argument("--target-q", type=float, default=0.286, help="target quadrupole moment in fm^2 (default 0.286)")
    p_fit.add_argument("--alpha", type=float, help=f"bound-state wavenumber (default {DEFAULT_ALPHA})")
    p_fit.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_val = subs.add_parser("validate", help="run continuity, transform and normalisation checks")
    _add_param_options(p_val)
    p_val.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_PARAMS if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (QuadratureError, TransformConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
