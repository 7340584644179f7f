"""Command-line front end.

Subcommands wire JSON descriptors to the library: ``means`` for exponent
arithmetic, ``check`` for concavity verdicts, ``convolve`` for CSV value
grids, ``bbl`` for inequality reports, and ``maximize``/``regiomontanus``
for the unique-maximum solver.  Every JSON report embeds a run manifest
(command, parsed configuration, seed, version); reports are deterministic
for a fixed manifest apart from the recorded wall time.

Exit codes: 0 success/pass, 1 violation or certificate failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .means import as_exponent, exponent_str, holder_exponent, mean_p

__all__ = ["main"]


def _manifest(command: str, config: dict, seed=None) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_time_s": None,  # filled just before writing
    }


def _write_report(path: str | None, manifest: dict, payload: dict, t_start: float):
    manifest = dict(manifest)
    manifest["wall_time_s"] = round(time.monotonic() - t_start, 6)
    report = {"manifest": manifest, **payload}
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_means(args) -> int:
    if args.ell:
        print(exponent_str(holder_exponent(args.p, args.q)))
        return 0
    if args.a is None or args.b is None or args.lam is None:
        raise ValueError("means needs --a, --b and --lambda (or --ell with --p/--q)")
    print(repr(mean_p(as_exponent(args.p), args.a, args.b, args.lam)))
    return 0


def cmd_check(args) -> int:
    from .concavity import (
        EQUALITY_OFF_SPEC,
        VIOLATION,
        CheckConfig,
        check_p_concavity,
        check_parabolic_p_concavity,
    )
    from .fields import field_from_json
    from .geometry import body_from_json, spacetime_box_from_json

    t0 = time.monotonic()
    field = field_from_json(_load_json(args.field))
    mode = args.mode.replace("-", "_")

    if args.which == "concavity":
        if args.domain:
            domain = body_from_json(_load_json(args.domain))
        elif field.support is not None:
            domain = field.support
        else:
            raise ValueError("unbounded field: pass --domain with a body descriptor")
        cfg = CheckConfig(samples=args.samples, seed=args.seed, domain=domain)
        report = check_p_concavity(
            field, as_exponent(args.p), cfg, strict=(mode != "plain")
        )
    else:
        if args.alpha is None:
            raise ValueError("parabolic checks need --alpha")
        if not args.domain:
            raise ValueError("parabolic checks need --domain (spacetime box descriptor)")
        domain = spacetime_box_from_json(_load_json(args.domain))
        cfg = CheckConfig(samples=args.samples, seed=args.seed, domain=domain)
        report = check_parabolic_p_concavity(
            field, args.alpha, as_exponent(args.p), cfg, mode=mode
        )

    manifest = _manifest(
        "check",
        {
            "which": args.which,
            "field": args.field,
            "p": args.p,
            "alpha": args.alpha,
            "mode": args.mode,
            "samples": args.samples,
        },
        seed=args.seed,
    )
    _write_report(args.out, manifest, report.to_json(), t0)
    if report.verdict in (VIOLATION, EQUALITY_OFF_SPEC):
        print(f"check: {report.verdict}", file=sys.stderr)
        return 1
    return 0


def _parse_grid(spec: str):
    out = []
    for part in spec.split(","):
        lo, hi, num = part.split(":")
        out.append(np.linspace(float(lo), float(hi), int(num)))
    return out


def cmd_convolve(args) -> int:
    from .convolve import QuadratureSpec, convolve_at
    from .fields import GaussWeierstrassKernel, IndicatorField, PoissonKernel
    from .geometry import body_from_json

    t0 = time.monotonic()
    body = body_from_json(_load_json(args.body))
    psi = IndicatorField(body)
    kernel = GaussWeierstrassKernel(body.dim) if args.kernel == "gw" else PoissonKernel(body.dim)
    quad = QuadratureSpec.default_for(body)

    x_axes = _parse_grid(args.xgrid)
    if len(x_axes) != body.dim:
        raise ValueError(f"--xgrid must give {body.dim} axis range(s)")
    (t_axis,) = _parse_grid(args.tgrid)
    if (t_axis <= 0).any():
        raise ValueError("--tgrid must be positive")

    mesh = np.meshgrid(*x_axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=1)
    manifest = _manifest(
        "convolve",
        {"kernel": args.kernel, "body": args.body, "xgrid": args.xgrid, "tgrid": args.tgrid},
    )
    manifest["wall_time_s"] = round(time.monotonic() - t0, 6)

    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join([f"x{i}" for i in range(body.dim)] + ["t", "value", "est_error"]))
    for t in t_axis:
        for x in X:
            r = convolve_at(kernel, psi, x, float(t), quad)
            coords = ",".join(repr(float(c)) for c in x)
            lines.append(f"{coords},{float(t)!r},{r.value!r},{r.est_error!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_bbl(args) -> int:
    from .bbl import instance_from_json, verify_bbl

    t0 = time.monotonic()
    inst = instance_from_json(_load_json(args.instance))
    report = verify_bbl(inst)
    manifest = _manifest("bbl", {"instance": args.instance})
    _write_report(args.out, manifest, report.to_json(), t0)
    if not report.ok:
        print("bbl: margin below tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_maximize(args) -> int:
    from .optimize import maximize, problem_from_json

    t0 = time.monotonic()
    spec = _load_json(args.problem)
    if args.seed is not None:
        spec["seed"] = args.seed
    prob = problem_from_json(spec)
    result = maximize(prob)
    manifest = _manifest("maximize", {"problem": args.problem}, seed=prob.seed)
    _write_report(args.out, manifest, result.to_json(), t0)
    if not result.unique:
        print("maximize: uniqueness certificate failed", file=sys.stderr)
        return 1
    return 0


def cmd_regiomontanus(args) -> int:
    from .optimize import feasible_from_json, regiomontanus

    t0 = time.monotonic()
    constraint = feasible_from_json(_load_json(args.constraint))
    result = regiomontanus(args.a, args.b, constraint, seed=args.seed)
    manifest = _manifest(
        "regiomontanus", {"a": args.a, "b": args.b, "constraint": args.constraint},
        seed=args.seed,
    )
    _write_report(args.out, manifest, result.to_json(), t0)
    if not result.unique:
        print("regiomontanus: uniqueness certificate failed", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="concavekit",
        description="power means, concavity checks, kernel convolutions, "
        "BBL verification, and unique-maximum search",
    )
    ap.add_argument("--version", action="version", version=f"concavekit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("means", help="power-mean and exponent arithmetic")
    p.add_argument("--p", required=True, help="exponent (number, inf, -inf)")
    p.add_argument("--q", help="second exponent for --ell")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--ell", action="store_true", help="print the product-inequality exponent")
    p.set_defaults(fn=cmd_means)

    p = sub.add_parser("check", help="randomized concavity verdicts")
    p.add_argument("which", choices=["concavity", "parabolic"])
    p.add_argument("--field", required=True, help="field descriptor JSON file")
    p.add_argument("--p", required=True, help="exponent (number, inf, -inf)")
    p.add_argument("--alpha", type=float, help="time exponent for parabolic checks")
    p.add_argument(
        "--mode", default="plain", choices=["plain", "strict", "almost-strict"]
    )
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", help="domain descriptor JSON file")
    p.add_argument("--out", help="report JSON path (stdout when omitted)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convolve", help="kernel convolution grid as CSV")
    p.add_argument("--kernel", required=True, choices=["gw", "poisson"])
    p.add_argument("--body", required=True, help="support body JSON file")
    p.add_argument("--xgrid", required=True, help="lo:hi:count[,lo:hi:count...]")
    p.add_argument("--tgrid", required=True, help="lo:hi:count")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("bbl", help="verify one inequality instance")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--out", help="report JSON path (stdout when omitted)")
    p.set_defaults(fn=cmd_bbl)

    p = sub.add_parser("maximize", help="multistart unique-maximum search")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="result JSON path (stdout when omitted)")
    p.set_defaults(fn=cmd_maximize)

    p = sub.add_parser("regiomontanus", help="viewing-angle maximization")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--constraint", required=True, help="constraint body JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="result JSON path (stdout when omitted)")
    p.set_defaults(fn=cmd_regiomontanus)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
