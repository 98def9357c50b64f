"""Command-line front end: matrix ingestion, dispatch, canonical reports.

Subcommands wrap the computational modules one-to-one and emit a single
JSON report to stdout or --out.  Reports are canonically serialized
(sorted keys, 17 significant digits) so identical inputs give
byte-identical output.  Exit codes: 0 = computed, even when the verdict
itself is negative (a divergence is an answer, not a failure); 2 = input
error; 3 = numerical failure.
"""

import argparse
import sys

import numpy as np

from . import abel, certify, linalg, matrixio, oscillator, semigroup
from .errors import AbelergError, DimensionMismatch, Overflow, ParseError

EXIT_COMPUTED = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

HISTORY_SUFFIX = ".history.csv"
DEFAULT_HISTORY_PATH = "abel_power_history.csv"


def _single_alpha(values, default):
    if not values:
        return default
    if len(values) > 1:
        raise ValueError("this command takes a single --alpha")
    return values[0]


def _report_skeleton(command, inputs):
    return {
        "command": command,
        "inputs_digest": matrixio.payload_digest(inputs),
    }


def _alpha_evidence_payload(ev):
    payload = {"alpha": ev.alpha, "outcome": ev.outcome, "steps": ev.steps}
    if ev.report is not None:
        payload["final_defect"] = ev.report.final_defect
    return payload


def _condition_i_payload(ci):
    return {
        "verdict": ci.verdict,
        "per_alpha": [_alpha_evidence_payload(ev) for ev in ci.per_alpha],
        "witnesses": ci.witnesses,
        "max_limit_mismatch": ci.max_limit_mismatch,
    }


def _condition_ii_payload(cii):
    return {
        "verdict": cii.verdict,
        "witnesses": cii.witnesses,
        "max_real_part": cii.max_real_part,
        "rank_first": cii.rank_first,
        "rank_second": cii.rank_second,
    }


def cmd_certify(args):
    T = matrixio.load_matrix(args.matrix)
    alphas = tuple(args.alpha) if args.alpha else (0.1, 0.5, 0.9)
    rank_tol = args.rank_tol if args.rank_tol is not None \
        else certify.CERTIFY_RANK_TOL
    result = certify.verify_equivalence(
        T, alphas=alphas, tol=args.tol, rank_tol=rank_tol)
    report = _report_skeleton("certify", {
        "matrix": matrixio.serialize_matrix(T),
        "alphas": list(alphas), "tol": args.tol, "rank_tol": rank_tol,
    })
    report["condition_i"] = _condition_i_payload(result.condition_i)
    report["condition_ii"] = _condition_ii_payload(result.condition_ii)
    report["agree"] = result.agree
    report["tolerances_used"] = result.tolerances_used
    return report


def cmd_abel_power(args):
    T = matrixio.load_matrix(args.matrix)
    alpha = _single_alpha(args.alpha, 0.5)
    A = abel.abel_average(T, alpha)
    result = abel.power_iterate(A, tol=args.tol)
    csv_path = (args.out + HISTORY_SUFFIX) if args.out \
        else DEFAULT_HISTORY_PATH
    matrixio.write_history_csv(csv_path, result.history)
    report = _report_skeleton("abel-power", {
        "matrix": matrixio.serialize_matrix(T),
        "alpha": alpha, "tol": args.tol,
    })
    report["alpha"] = alpha
    report["converged"] = result.converged
    report["steps"] = result.steps
    report["divergence_reason"] = result.divergence_reason
    report["final_defect"] = result.final_defect
    report["limit"] = matrixio.serialize_matrix(result.limit) \
        if result.converged else None
    report["history_csv_path"] = csv_path
    return report


def cmd_cesaro(args):
    T = matrixio.load_matrix(args.matrix)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    C = abel.cesaro_average(T, args.n)
    sweep_cap = min(args.n, 1000)
    report = _report_skeleton("cesaro", {
        "matrix": matrixio.serialize_matrix(T), "n": args.n,
    })
    report["n"] = args.n
    report["average"] = matrixio.serialize_matrix(C)
    report["average_norm"] = linalg.operator_norm(C)
    report["sup_cesaro_to_1000"] = certify.cesaro_sup_estimate(T, sweep_cap)
    report["sup_abel_partial_to_1000"] = certify.abel_partial_sup_estimate(
        T, (0.1, 0.5, 0.9), sweep_cap)
    return report


def cmd_semigroup(args):
    B = matrixio.load_matrix(args.matrix)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    tiny = float(np.finfo(np.float64).tiny)
    closed = semigroup.abel_average_closed(B, args.lam)
    scale = max(linalg.operator_norm(closed), tiny)
    quad, gl_nodes = semigroup.abel_average_quadrature(B, args.lam)
    simpson, simpson_panels = semigroup.abel_average_quadrature(
        B, args.lam, semigroup.SCHEME_TRUNCATED_SIMPSON)
    power_int, power_nodes = semigroup.abel_power_quadrature(
        B, args.lam, args.n)
    closed_power = np.linalg.matrix_power(closed, args.n)
    power_scale = linalg.operator_norm(closed_power)
    if power_scale < tiny:
        raise Overflow(f"the power underflowed: ||closed form^{args.n}|| = "
                       f"{power_scale:.3g}, below the smallest normal double")
    bridge = semigroup.discrete_bridge(B, args.lam)

    report = _report_skeleton("semigroup", {
        "matrix": matrixio.serialize_matrix(B),
        "lambda": args.lam, "n": args.n,
    })
    report["lambda"] = args.lam
    report["n"] = args.n
    report["closed_form"] = matrixio.serialize_matrix(closed)
    report["gauss_laguerre_relative_defect"] = \
        linalg.operator_norm(quad - closed) / scale
    report["simpson_relative_defect"] = \
        linalg.operator_norm(simpson - closed) / scale
    report["gauss_laguerre_nodes"] = gl_nodes
    report["simpson_panels"] = simpson_panels
    report["power_integral_nodes"] = power_nodes
    report["power_integral_relative_defect"] = \
        linalg.operator_norm(power_int - closed_power) / power_scale
    report["bridge"] = {
        "alpha": bridge.alpha, "defect": bridge.defect,
        "relative_defect": bridge.relative_defect,
    }
    return report


def cmd_oscillator(args):
    model = oscillator.DiagonalOscillator(truncation=args.truncation)
    gap = oscillator.scaled_resolvent_power_gap(model, args.lam, args.m)
    c_val = oscillator.c_constant(model, args.lam)
    residuals = {
        str(n): oscillator.eigen_residual(n, step=1e-3, half_width=12.0)
        for n in range(7)
    }

    t = np.linspace(-12.0, 12.0, 24001)
    weights = np.full(t.size, t[1] - t[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    rows = np.stack([oscillator.hermite_function(n, t) for n in range(10)])
    gram = (rows * weights) @ rows.T
    gram_defect = float(np.max(np.abs(gram - np.eye(10))))

    report = _report_skeleton("oscillator", {
        "lambda": args.lam, "m": args.m, "truncation": args.truncation,
    })
    report["lambda"] = args.lam
    report["m"] = args.m
    report["truncation"] = args.truncation
    report["gap"] = gap.gap
    report["gap_bound"] = gap.bound
    report["first_order_gap"] = oscillator.first_order_gap(model, args.lam)
    report["c_constant"] = {
        "value": c_val.value, "tail_bound": c_val.tail_bound,
        "estimate": c_val.estimate,
    }
    report["eigen_residuals"] = residuals
    report["gram_defect"] = gram_defect
    return report


def cmd_generate(args):
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    instances = certify.generate_instances(args.seed, count=args.count)
    report = _report_skeleton("generate", {
        "seed": args.seed, "count": args.count,
    })
    report["seed"] = args.seed
    report["count"] = args.count
    report["instances"] = [
        {
            "kind": inst.kind,
            "expected": inst.expected,
            "dim": inst.dim,
            "similarity_cond": inst.similarity_cond,
            "matrix": matrixio.serialize_matrix(inst.matrix),
        }
        for inst in instances
    ]
    return report


def _add_matrix_argument(parser):
    parser.add_argument("matrix", help="path to a matrix JSON file")


def _add_common_flags(parser):
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="abelerg",
        description="Abel averages of operator powers and semigroups: "
                    "convergence certificates and quadrature checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify",
                       help="check power convergence against the spectral "
                            "criterion")
    _add_matrix_argument(p)
    p.add_argument("--alpha", action="append", type=float, default=None,
                   help="Abel parameter in (0, 1); repeatable "
                        "(default 0.1 0.5 0.9)")
    p.add_argument("--tol", type=float, default=abel.DEFAULT_TOL)
    p.add_argument("--rank-tol", type=float, default=None,
                   help="relative rank threshold for the kernel/image "
                        "decomposition")
    _add_common_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("abel-power",
                       help="iterate powers of one Abel average, with a "
                            "CSV convergence history")
    _add_matrix_argument(p)
    p.add_argument("--alpha", action="append", type=float, default=None,
                   help="Abel parameter in (0, 1) (default 0.5)")
    p.add_argument("--tol", type=float, default=abel.DEFAULT_TOL)
    _add_common_flags(p)
    p.set_defaults(func=cmd_abel_power)

    p = sub.add_parser("cesaro",
                       help="Cesaro average of the first n powers plus "
                            "boundedness sweeps")
    _add_matrix_argument(p)
    p.add_argument("--n", type=int, required=True,
                   help="number of powers to average")
    _add_common_flags(p)
    p.set_defaults(func=cmd_cesaro)

    p = sub.add_parser("semigroup",
                       help="continuous Abel average of exp(tB): closed "
                            "form, quadrature, bridge identity")
    _add_matrix_argument(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="Abel parameter lambda > 0")
    p.add_argument("--n", type=int, default=1,
                   help="power checked against the weighted integral")
    _add_common_flags(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("oscillator",
                       help="truncated oscillator model: resolvent gaps, "
                            "series constant, Hermite residuals")
    p.add_argument("--lambda", dest="lam", type=float, default=2.0,
                   help="resolvent parameter lambda > 1")
    p.add_argument("--m", type=int, default=4,
                   help="resolvent power in the gap estimate")
    p.add_argument("--truncation", type=int, default=10_000,
                   help="number of retained eigenvalues")
    _add_common_flags(p)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("generate",
                       help="emit seeded structured test matrices with "
                            "their expected verdicts")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    _add_common_flags(p)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (ParseError, DimensionMismatch, ValueError, OSError) as exc:
        print(f"abelerg: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AbelergError as exc:
        print(f"abelerg: numerical failure: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    if args.out:
        matrixio.write_report(args.out, report)
    else:
        sys.stdout.write(matrixio.canonical_json(report))
    return EXIT_COMPUTED


if __name__ == "__main__":
    sys.exit(main())
