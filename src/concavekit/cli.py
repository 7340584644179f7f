"""Command-line front end.

Subcommands wire JSON descriptors to the library: ``means`` for exponent
arithmetic, ``check`` for concavity verdicts, ``convolve`` for CSV value
grids, ``bbl`` for inequality reports, and ``maximize``/``regiomontanus``
for the unique-maximum solver.  Each subcommand reads its inputs and
returns its result, its seed and a failure message (or None); :func:`main`
times the run and writes every result but a ``means`` number with a run
manifest: the command, the configuration (every parsed argument but
``--out`` and ``--seed``), the seed, the version and the wall time.  A
JSON report embeds it; a ``convolve`` CSV starts with ``# manifest:`` and
the manifest as one line of JSON.  Output is standard JSON, with infinite
numbers as "inf"/"-inf", and deterministic for a fixed manifest apart from
the recorded wall time.  Input is standard JSON too: ``NaN``, ``Infinity``
and numbers that overflow to infinity are refused.

Exit codes: 0 success/pass, 1 violation or certificate failure, 2 input
error or a refusal of the library (no usable samples, no convergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__, optimize
from .bbl import BBLInstance, verify_bbl
from .concavity import (
    EQUALITY_OFF_SPEC,
    VIOLATION,
    CheckConfig,
    check_p_concavity,
    check_parabolic_p_concavity,
)
from .convolve import KERNELS, ConvolutionField, QuadratureSpec
from .fields import IndicatorField, field_from_json
from .geometry import SpaceTimeBox, _encode, body_from_json, from_json, number
from .means import as_exponent, exponent_str, holder_exponent, mean_p
from .sampling import SamplingError

__all__ = ["main"]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def _join_exponents(argv: list[str]) -> list[str]:
    """``--p -inf`` as ``--p=-inf``: argparse takes a lone ``-inf`` for an option, not a value."""
    out = []
    for token in argv:
        if out and out[-1] in ("--p", "--q") and token.strip().lower() in ("-inf", "-infinity"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def finite_float(text: str) -> float:
    """A float option; argparse reports a non-finite one as invalid (exit code 2)."""
    return number(float(text))


def cmd_means(args):
    if args.ell:
        return exponent_str(holder_exponent(args.p, args.q)), None, None
    if args.a is None or args.b is None or args.lam is None:
        raise ValueError("means needs --a, --b and --lambda (or --ell with --p/--q)")
    return repr(mean_p(as_exponent(args.p), args.a, args.b, args.lam)), None, None


def cmd_check(args):
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
        domain = from_json(_load_json(args.domain), SpaceTimeBox)
        cfg = CheckConfig(samples=args.samples, seed=args.seed, domain=domain)
        report = check_parabolic_p_concavity(
            field, args.alpha, as_exponent(args.p), cfg, mode=mode
        )
    failed = report.verdict in (VIOLATION, EQUALITY_OFF_SPEC)
    return report, args.seed, report.verdict if failed else None


def _parse_grid(spec: str):
    out = []
    for part in spec.split(","):
        lo, hi, num = part.split(":")
        out.append(np.linspace(float(lo), float(hi), int(num)))
    return out


def cmd_convolve(args):
    body = body_from_json(_load_json(args.body))
    quad = QuadratureSpec.default_for(body)
    field = ConvolutionField(KERNELS[args.kernel](body.dim), IndicatorField(body), quad)

    x_axes = _parse_grid(args.xgrid)
    if len(x_axes) != body.dim:
        raise ValueError(f"--xgrid must give {body.dim} axis range(s)")
    (t_axis,) = _parse_grid(args.tgrid)
    if (t_axis <= 0).any():
        raise ValueError("--tgrid must be positive")

    # one batch: t runs slowest, then x0, x1, ...
    T, *cols = (m.reshape(-1) for m in np.meshgrid(t_axis, *x_axes, indexing="ij"))
    P = np.stack(cols, axis=1)
    values, errors = field.eval_with_error(P, T)

    lines = [",".join([f"x{i}" for i in range(body.dim)] + ["t", "value", "est_error"])]
    for x, t, v, e in zip(P.tolist(), T.tolist(), values.tolist(), errors.tolist()):
        lines.append(",".join(map(repr, [*x, t, v, e])))
    return "\n".join(lines) + "\n", None, None


def cmd_bbl(args):
    report = verify_bbl(from_json(_load_json(args.instance), BBLInstance))
    return report, None, None if report.ok else "margin below tolerance"


def cmd_maximize(args):
    prob = from_json(_load_json(args.problem), optimize.MaxProblem)
    if args.seed is not None:
        prob.seed = args.seed
    result = optimize.maximize(prob)
    return result, prob.seed, None if result.unique else "uniqueness certificate failed"


def cmd_regiomontanus(args):
    constraint = optimize.feasible_from_json(_load_json(args.constraint))
    result = optimize.regiomontanus(args.a, args.b, constraint, seed=args.seed)
    return result, args.seed, None if result.unique else "uniqueness certificate failed"


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
    p.add_argument("--a", type=finite_float)
    p.add_argument("--b", type=finite_float)
    p.add_argument("--lambda", dest="lam", type=finite_float)
    p.add_argument("--ell", action="store_true", help="print the product-inequality exponent")
    p.set_defaults(fn=cmd_means)

    p = sub.add_parser("check", help="randomized concavity verdicts")
    p.add_argument("which", choices=["concavity", "parabolic"])
    p.add_argument("--field", required=True, help="field descriptor JSON file")
    p.add_argument("--p", required=True, help="exponent (number, inf, -inf)")
    p.add_argument("--alpha", type=finite_float, help="time exponent for parabolic checks")
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
    p.add_argument("--a", type=finite_float, required=True)
    p.add_argument("--b", type=finite_float, required=True)
    p.add_argument("--constraint", required=True, help="constraint body JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="result JSON path (stdout when omitted)")
    p.set_defaults(fn=cmd_regiomontanus)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(_join_exponents(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        result, seed, failure = args.fn(args)
        if args.command == "means":  # a bare number, without a manifest
            print(result)
            return 0
        config = {k: v for k, v in vars(args).items() if k not in ("fn", "command", "out", "seed")}
        manifest = _encode({
            "command": args.command,
            "config": config,
            "seed": seed,
            "version": __version__,
            "wall_time_s": round(time.monotonic() - t0, 6),
        })
        csv = isinstance(result, str)
        text = json.dumps(
            manifest if csv else {"manifest": manifest, **result.to_json()},
            indent=None if csv else 2, sort_keys=True, allow_nan=False,
        )
        text = f"# manifest: {text}\n{result}" if csv else text + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
    except (ValueError, OSError, SamplingError, optimize.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure:
        print(f"{args.command}: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
