"""Command-line surface: single-curve queries, family sweeps, phi grids,
sharpness scans.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
counterexample or mismatch is printed), 2 usage or validation error, 3 a
host failure (a worker process ended without returning its results).
Big integers are serialized as decimal strings; output ordering is fixed
by input order so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from szpirolab import bounds, families, reduction, sharpness, sweeps
from szpirolab.intarith import FactorBudgetError
from szpirolab.weierstrass import (
    SingularModelError,
    WeierstrassModel,
    compute_invariants,
    integral_model,
    j_invariant,
)

HOST_FAILURE = 3
USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_model(text: str) -> WeierstrassModel:
    parts = text.split(",")
    if len(parts) != 5:
        raise families.ValidationError("--model expects five comma-separated coefficients")
    coeffs = []
    for part in parts:
        try:
            frac = Fraction(part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise families.ValidationError(exc) from exc
        coeffs.append(int(frac) if frac.denominator == 1 else frac)
    return WeierstrassModel(*coeffs)


def _s(x) -> str | int | float:
    """JSON-safe rendering: big ints as decimal strings."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    return x


def _emit(obj, stream=None):
    stream = stream if stream is not None else sys.stdout
    json.dump(obj, stream, separators=(", ", ": "))
    stream.write("\n")


def _model_json(m: WeierstrassModel):
    return [_s(a) for a in m.coefficients()]


def cmd_curve(args) -> int:
    model = _parse_model(args.model)
    inv = compute_invariants(model)
    if args.action == "invariants":
        out = {
            "model": _model_json(model),
            "b2": _s(inv.b2), "b4": _s(inv.b4), "b6": _s(inv.b6), "b8": _s(inv.b8),
            "c4": _s(inv.c4), "c6": _s(inv.c6), "delta": _s(inv.delta),
        }
        if inv.delta != 0:
            out["j"] = _s(j_invariant(model))
        _emit(out)
        return 0
    if inv.delta == 0:
        raise SingularModelError("singular model (discriminant zero)")
    integral, L = integral_model(model)
    if args.action == "minimal":
        mm = reduction.minimal_model(integral)
        _emit({
            "model": _model_json(model),
            "minimal": _model_json(mm.minimal),
            "u": _s(mm.scaling_u * L),
            "delta_min": _s(mm.delta_min),
        })
        return 0
    ca = reduction.analyze(integral)
    N = ca.conductor
    if args.action == "conductor":
        _emit({
            "model": _model_json(model),
            "conductor": _s(N),
            "local": [
                {"p": _s(d.p), "fp": d.fp, "kodaira": d.kodaira,
                 "semistable": d.semistable, "vp_delta": d.vp_delta}
                for d in ca.local
            ],
        })
        return 0
    # ratio
    _emit({
        "model": _model_json(model),
        "height": _s(ca.height),
        "conductor": _s(N),
        "sigma_m": reduction.sigma_m(ca.height, N),
    })
    return 0


def _grid_range(text: str) -> Fraction:
    """--range: a rational half-width of the phi grid."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _family_params(args) -> list[int]:
    taken = ("b", "d")[: families.FAMILIES[args.T].arity - 1]
    for flag in ("b", "d"):
        given = getattr(args, flag) is not None
        if given != (flag in taken):
            verb = "takes no" if given else "requires"
            raise families.ValidationError(f"{args.T} {verb} --{flag}")
    return [args.a, *(getattr(args, flag) for flag in taken)]


def _check_jobs(args) -> None:
    """Rejects a --jobs (or SZPIROLAB_JOBS, its default) above the CPU count:
    every job beyond the first is a worker process, and a pooled call forks
    them all at once."""
    cpus = os.cpu_count() or 1
    if args.jobs > cpus:
        raise families.ValidationError(f"worker count must be <= {cpus}, the number of CPUs")


def cmd_family(args) -> int:
    if args.action == "build":
        if args.T == "all":
            raise families.ValidationError("family build requires a concrete --T")
        if args.a is None:
            raise families.ValidationError("family build requires --a")
        inst = families.validate_params(args.T, *_family_params(args))
        rep = sweeps.check_instance(inst)
        out = {
            "family": inst.family.name,
            "params": [_s(p) for p in inst.params],
            "model": _model_json(families.build_model(inst)),
            "u": _s(rep.u),
            "delta_bound": _s(rep.delta_bound),
            "conductor": _s(rep.conductor),
            "height": _s(rep.height),
            "sigma_m": rep.sigma_m,
            "point_order_certified": inst.family.point_order,
            "findings": list(rep.findings),
        }
        if inst.decomposition:
            out["decomposition"] = [_s(v) for v in inst.decomposition]
        _emit(out)
        return 0 if rep.ok else CHECK_FAILED

    _check_jobs(args)
    names = list(families.FAMILIES) if args.T == "all" else [args.T]
    checks = tuple(args.checks.split(","))
    failed = False
    for name in names:
        summary = sweeps.run_sweep(
            name, args.max, jobs=args.jobs, c30_bound=args.c30_max, checks=checks
        )
        _emit({
            "family": summary.family,
            "bound": summary.bound,
            "instances": summary.checked,
            "violations": len(summary.findings),
            "min_sigma_m": summary.min_sigma,
            "max_sigma_m": summary.max_sigma,
        })
        for finding in summary.findings:
            _emit({"family": summary.family, "finding": finding})
            failed = True
    return CHECK_FAILED if failed else 0


def _parse_u(text: str):
    """--u: a symbolic u key as written, or an integer u."""
    keys = (k for f in families.FAMILIES.values() for k in f.delta_scales)
    if text in {k for k in keys if isinstance(k, str)}:
        return text
    try:
        return int(text)
    except ValueError:
        raise families.ValidationError(f"bad u value {text!r}") from None


def cmd_phi(args) -> int:
    _check_jobs(args)
    names = bounds.PHI_FAMILIES if args.T == "all" else (args.T,)
    # every branch is built, and so checked, before the first line is printed
    if args.u == "all":
        specs = [s for s in bounds.all_phi_specs() if s.family.name in names]
    else:
        u = _parse_u(args.u)
        specs = [bounds.phi_spec(name, u) for name in names]
    failed = False
    scans = bounds.phi_scans(specs, args.den, args.range, jobs=args.jobs)
    for spec, res in zip(specs, scans):
        dom = bounds.leading_dominance(spec)
        _emit({
            "family": spec.family.name,
            "u": _s(spec.u_key),
            "denominator": args.den,
            "range": _s(args.range),
            "points": res.points,
            "violations": [_s(x) for x in res.violations],
            "zeros": [_s(x) for x in res.zeros],
            "min": res.min_approx,
            "argmin": _s(res.argmin),
            "tail_dominant": dom.dominant,
        })
        if res.violations or not dom.dominant:
            failed = True
    return CHECK_FAILED if failed else 0


def cmd_sharp(args) -> int:
    names = list(sharpness.SHARP_FAMILIES) if args.T == "all" else [args.T]
    # rejected arguments must leave --out untouched
    sharpness.check_scan_args(args.nmin, args.nmax, args.samples)
    try:
        stream = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        raise families.ValidationError(exc) from exc
    writer = None
    failed = False
    try:
        for name in names:
            if args.consistency:
                for n in range(2, args.consistency + 1):
                    for signed in (n, -n):
                        rep = sharpness.verify_sharp_consistency(name, signed)
                        if not rep.ok:
                            failed = True
                            for f in rep.findings:
                                _emit({"family": name, "n": signed, "finding": f})
            scan = sharpness.convergence_scan(
                name, args.nmax, n_min=args.nmin, samples=args.samples
            )
            rows = [r.as_dict() for r in scan.records]
            if args.format == "csv":
                if writer is None:
                    writer = csv.DictWriter(
                        stream,
                        fieldnames=["T", "n", "model", "height", "f",
                                    "squarefree", "conductor", "sigma_m"],
                    )
                    writer.writeheader()
                for row in rows:
                    row["model"] = ";".join(row["model"])
                    writer.writerow(row)
            else:
                for row in rows:
                    _emit(row, stream)
            summary = {
                "T": name,
                "sieve_hits": scan.sieve_hits,
                "strictly_above_l": scan.strictly_above,
                "l": _s(sharpness.SHARP_FAMILIES[name].l),
                "fit_intercept": scan.intercept,
                "fit_slope": scan.slope,
            }
            if scan.budget_skipped:
                summary["budget_skipped_n"] = list(scan.budget_skipped)
            if scan.warning:
                summary["warning"] = scan.warning
            _emit(summary, stream if args.format != "csv" else sys.stdout)
            if not scan.strictly_above:
                failed = True
    finally:
        if args.out:
            stream.close()
    return CHECK_FAILED if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szpirolab",
        description="Exact elliptic-curve invariants, conductors, and "
        "Szpiro-ratio bound verification over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="single-model queries")
    p_curve.add_argument("action", choices=["invariants", "minimal", "conductor", "ratio"])
    p_curve.add_argument("--model", required=True,
                         help="a1,a2,a3,a4,a6 (integers or fractions)")
    p_curve.set_defaults(func=cmd_curve)

    family_names = list(families.FAMILIES)
    p_family = sub.add_parser("family", help="build or verify family instances")
    p_family.add_argument("action", choices=["build", "verify"])
    p_family.add_argument("--T", default="all", choices=family_names + ["all"])
    p_family.add_argument("--a", type=int)
    p_family.add_argument("--b", type=int)
    p_family.add_argument("--d", type=int)
    p_family.add_argument("--max", type=int, default=30,
                          help="parameter box bound for verify")
    p_family.add_argument("--c30-max", type=int, default=100,
                          help="range for the cubefree one-parameter family")
    p_family.add_argument("--checks", default=",".join(sweeps.ALL_CHECKS),
                          help="comma list from: bounds, height, torsion")
    p_family.add_argument("--jobs", type=int, default=sweeps.default_jobs())
    p_family.set_defaults(func=cmd_family)

    p_phi = sub.add_parser("phi", help="grid scan of the bound-gap functions")
    p_phi.add_argument("--T", default="all",
                       choices=list(bounds.PHI_FAMILIES) + ["all"])
    p_phi.add_argument("--u", default="all")
    p_phi.add_argument("--den", type=int, default=64)
    p_phi.add_argument("--range", type=_grid_range, default="20")
    p_phi.add_argument("--jobs", type=int, default=sweeps.default_jobs())
    p_phi.set_defaults(func=cmd_phi)

    p_sharp = sub.add_parser("sharp", help="sharpness-sequence scans")
    p_sharp.add_argument("--T", default="all",
                         choices=list(sharpness.SHARP_FAMILIES) + ["all"])
    p_sharp.add_argument("--nmax", type=int, required=True)
    p_sharp.add_argument("--nmin", type=int, default=2)
    p_sharp.add_argument("--samples", type=int, default=None,
                         help="log-spaced sample count (default: exhaustive)")
    p_sharp.add_argument("--consistency", type=int, default=0,
                         help="also cross-check table data for 2 <= |n| <= K")
    p_sharp.add_argument("--format", choices=["json", "csv"], default="json")
    p_sharp.add_argument("--out", default=None)
    p_sharp.set_defaults(func=cmd_sharp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FactorBudgetError as exc:
        print(f"error: {exc} (partial: {exc.partial})", file=sys.stderr)
        return CHECK_FAILED
    except (SingularModelError, families.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED if isinstance(exc, SingularModelError) else USAGE_ERROR
    except bounds.WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return HOST_FAILURE


if __name__ == "__main__":
    sys.exit(main())
