"""Command-line front end: matrix ingestion, dispatch, canonical reports.

Subcommands wrap the computational modules one-to-one and emit a single
JSON report to stdout or --out.  Reports are canonically serialized
(sorted keys, 17 significant digits) so identical inputs give
byte-identical output.  Exit codes: 0 = computed, even when the verdict
itself is negative (a divergence is an answer, not a failure); 2 = input
error (ValueError, OSError); 3 = numerical failure (AbelergError).
"""

import argparse
import dataclasses
import functools
import sys

from . import abel, certify, linalg, matrixio, oscillator, semigroup
from .errors import AbelergError

EXIT_COMPUTED = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


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


def cmd_certify(args):
    T = matrixio.load_matrix(args.matrix)
    alphas = tuple(args.alpha) if args.alpha else certify.DEFAULT_ALPHAS
    result = certify.verify_equivalence(
        T, alphas=alphas, tol=args.tol, rank_tol=args.rank_tol)
    report = _report_skeleton("certify", {
        "matrix": matrixio.matrix_fingerprint(T),
        "alphas": list(alphas), "tol": args.tol, "rank_tol": args.rank_tol,
    })
    report["condition_i"] = _condition_i_payload(result.condition_i)
    report["condition_ii"] = dataclasses.asdict(result.condition_ii)
    report["agree"] = result.agree
    report["tolerances_used"] = result.tolerances_used
    return report


def cmd_abel_power(args):
    T = matrixio.load_matrix(args.matrix)
    alpha = _single_alpha(args.alpha, 0.5)
    A = abel.abel_average(T, alpha)
    result = abel.power_iterate(A, tol=args.tol)
    report = _report_skeleton("abel-power", {
        "matrix": matrixio.matrix_fingerprint(T),
        "alpha": alpha, "tol": args.tol,
    })
    report.update(dataclasses.asdict(result))
    report["alpha"] = alpha
    report["limit"] = matrixio.serialize_matrix(result.limit) \
        if result.converged else None
    return report


def cmd_cesaro(args):
    T = matrixio.load_matrix(args.matrix)
    C = abel.cesaro_average(T, args.n)
    sweep_cap = min(args.n, 1000)
    report = _report_skeleton("cesaro", {
        "matrix": matrixio.matrix_fingerprint(T), "n": args.n,
    })
    report["n"] = args.n
    report["average"] = matrixio.serialize_matrix(C)
    report["average_norm"] = linalg.operator_norm(C)
    report["sup_cesaro_to_1000"] = certify.cesaro_sup_estimate(T, sweep_cap)
    report["sup_abel_partial_to_1000"] = certify.abel_partial_sup_estimate(
        T, certify.DEFAULT_ALPHAS, sweep_cap)
    return report


def cmd_semigroup(args):
    B = matrixio.load_matrix(args.matrix)
    fields = semigroup.check(B, args.lam, args.n)
    report = _report_skeleton("semigroup", {
        "matrix": matrixio.matrix_fingerprint(B),
        "lambda": args.lam, "n": args.n,
    })
    report.update(fields)
    report["closed_form"] = matrixio.serialize_matrix(report["closed_form"])
    return report


def cmd_oscillator(args):
    fields = oscillator.check(args.lam, args.m, args.truncation)
    report = _report_skeleton("oscillator", {
        "lambda": args.lam, "m": args.m, "truncation": args.truncation,
    })
    report.update(fields)
    return report


def cmd_generate(args):
    instances = certify.generate_instances(args.seed, count=args.count)
    report = _report_skeleton("generate", {
        "seed": args.seed, "count": args.count,
    })
    report["seed"] = args.seed
    report["count"] = args.count
    report["instances"] = [{**dataclasses.asdict(inst), "matrix":
                            matrixio.serialize_matrix(inst.matrix)}
                           for inst in instances]
    return report


def _add_matrix_argument(parser):
    parser.add_argument("matrix", help="path to a matrix JSON file")


def _add_common_flags(parser):
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")


@functools.cache
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
                   help="Abel parameter in (0, 1); repeatable (default "
                        + " ".join(map(str, certify.DEFAULT_ALPHAS)) + ")")
    p.add_argument("--tol", type=float, default=abel.DEFAULT_TOL)
    p.add_argument("--rank-tol", type=float,
                   default=certify.CERTIFY_RANK_TOL,
                   help="relative rank threshold for the kernel/image "
                        "decomposition")
    _add_common_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("abel-power",
                       help="iterate powers of one Abel average, with its "
                            "per-doubling convergence history")
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
                       help="truncated oscillator model: resolvent gaps "
                            "and series constant")
    p.add_argument("--lambda", dest="lam", type=float, default=2.0,
                   help="resolvent parameter lambda > 1")
    p.add_argument("--m", type=int, default=4,
                   help="resolvent power in the gap estimate")
    p.add_argument("--truncation", type=int,
                   default=oscillator.DEFAULT_TRUNCATION,
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
    except (ValueError, OSError) as exc:
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
