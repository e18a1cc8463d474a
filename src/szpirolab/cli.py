"""Command-line surface: single-curve queries, family sweeps, phi grids,
sharpness scans.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
counterexample or mismatch is printed), 2 usage or validation error.
Big integers are serialized as decimal strings; output ordering is fixed
by input order so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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

USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_model(text: str) -> WeierstrassModel:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("--model expects five comma-separated coefficients")
    coeffs = []
    for part in parts:
        frac = Fraction(part.strip())
        coeffs.append(int(frac) if frac.denominator == 1 else frac)
    return WeierstrassModel(*coeffs)


def _s(x) -> str | int | float:
    """JSON-safe rendering: big ints as decimal strings."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    return x


def _emit(obj, stream=None):
    stream = stream if stream is not None else sys.stdout
    json.dump(obj, stream, separators=(", ", ": "))
    stream.write("\n")


def _model_json(m: WeierstrassModel):
    return [_s(a) for a in m.coefficients()]


def cmd_curve(args) -> int:
    try:
        model = _parse_model(args.model)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
        print("error: singular model (discriminant zero)", file=sys.stderr)
        return CHECK_FAILED
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
    height = ca.height
    if N <= 1:
        print("error: conductor 1; ratio undefined", file=sys.stderr)
        return CHECK_FAILED
    _emit({
        "model": _model_json(model),
        "height": _s(height),
        "conductor": _s(N),
        "sigma_m": math.log(height) / math.log(N),
    })
    return 0


def _grid_range(text: str) -> Fraction:
    """--range: a nonnegative rational half-width of the phi grid."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _family_params(args) -> list[int]:
    fam = families.FAMILIES[args.T]
    params = [args.a]
    if fam.arity >= 2:
        if args.b is None:
            raise families.ValidationError(f"{args.T} requires --b")
        params.append(args.b)
    if fam.arity == 3:
        if args.d is None:
            raise families.ValidationError(f"{args.T} requires --d")
        params.append(args.d)
    return params


def cmd_family(args) -> int:
    if args.action == "build":
        if args.T == "all":
            print("error: family build requires a concrete --T", file=sys.stderr)
            return USAGE_ERROR
        if args.a is None:
            print("error: family build requires --a", file=sys.stderr)
            return USAGE_ERROR
        try:
            inst = families.validate_params(args.T, *_family_params(args))
        except families.ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
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

    try:
        config = sweeps.SweepConfig(
            family=args.T,
            bound=args.max,
            c30_bound=args.c30_max,
            checks=tuple(args.checks.split(",")),
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    failed = False
    for summary in sweeps.run_config(config):
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


def _phi_u_keys(name: str, u_arg: str):
    fam = families.FAMILIES[name]
    if u_arg == "all":
        return list(fam.delta_scales)
    if u_arg in ("c", "2c", "c2d"):
        key = u_arg
    else:
        try:
            key = int(u_arg)
        except ValueError:
            raise ValueError(f"bad u value {u_arg!r}")
    if key not in fam.delta_scales:
        raise ValueError(f"u = {u_arg} is not admissible for {name}")
    return [key]


def cmd_phi(args) -> int:
    names = (
        [n for n in families.FAMILIES if n != "C3_0"]
        if args.T == "all"
        else [args.T]
    )
    if "C3_0" in names:
        print("error: C3_0 has no phi branch", file=sys.stderr)
        return USAGE_ERROR
    failed = False
    for name in names:
        try:
            keys = _phi_u_keys(name, args.u)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        for key in keys:
            spec = bounds.phi_spec(name, key)
            res = bounds.phi_scan(spec, args.den, args.range, jobs=args.jobs)
            dom = bounds.leading_dominance(spec)
            _emit({
                "family": name,
                "u": _s(key) if isinstance(key, int) else key,
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
    stream = open(args.out, "w") if args.out else sys.stdout
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
                    json.dump(row, stream, separators=(", ", ": "))
                    stream.write("\n")
            summary = {
                "T": name,
                "sieve_hits": scan.sieve_hits,
                "strictly_above_l": scan.strictly_above,
                "l": _s(bounds.szpiro_exponent(name).value),
                "fit_intercept": scan.intercept,
                "fit_slope": scan.slope,
            }
            if scan.budget_skipped:
                summary["budget_skipped_n"] = list(scan.budget_skipped)
            if scan.warning:
                summary["warning"] = scan.warning
            json.dump(summary, stream if args.format != "csv" else sys.stdout,
                      separators=(", ", ": "))
            (stream if args.format != "csv" else sys.stdout).write("\n")
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
                       choices=[n for n in family_names if n != "C3_0"] + ["all"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sharp":
        if args.nmax < 10:
            parser.error("--nmax must be >= 10")
        if args.samples is not None and args.samples < 2:
            parser.error("--samples must be >= 2")
    if args.command == "phi" and args.den < 1:
        parser.error("--den must be >= 1")
    try:
        return args.func(args)
    except SingularModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except FactorBudgetError as exc:
        print(f"error: {exc} (partial: {exc.partial.pairs})", file=sys.stderr)
        return CHECK_FAILED
    except families.ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
