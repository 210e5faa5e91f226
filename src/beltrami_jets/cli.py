"""Command-line front end with deterministic JSON reports.

Exit codes: 0 success (cascade: TrivialOnly), 1 a verification failed
(cascade: ObstructionInconclusive), 2 bad input (unparsable sigma,
degenerate Hessian, malformed factor file, degree cap exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cascade import (
    DEGREE_CAP,
    TruncatedFactor,
    VERDICT_TRIVIAL,
    analyze,
)
from .cylindrical import verify_beltrami_cylindrical
from .golden import (
    SuiteConfig,
    lifted_fields_span_kernel,
    planar_harmonics_hold,
    run_suite,
)
from .harmonics import lifted_field
from .linalg import format_rational, parse_rational
from .polynomials import coefficient_vector, field_to_json, fields_from_vector
from .single_degree import (
    SigmaTriple,
    assemble_single,
    classify_spectrum,
    kernel_single,
)

_USAGE_ERROR = 2


class _InputError(Exception):
    pass


def _parse_sigma(text: str) -> SigmaTriple:
    try:
        return SigmaTriple.parse(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    """json.loads hook rejecting a repeated key, of which json keeps only the last."""
    if len({key for key, _ in pairs}) != len(pairs):
        raise ValueError("duplicate key in JSON object")
    return dict(pairs)


# what reading, parsing and loading a malformed input file can raise; json
# raises RecursionError on deeply nested arrays or objects
BAD_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, RecursionError)


def _load_json_file(path: str, loader, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
        return loader(json.loads(text, object_pairs_hook=_unique_keys))
    except BAD_INPUT_ERRORS as exc:
        raise _InputError(f"bad {what}: {exc}") from exc


def _run_report(command: str, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "artifact_version": __version__,
    }


def _emit(report: dict, args, human_lines: list[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out_paths = [p for p in (getattr(args, "out", None), getattr(args, "report", None)) if p]
    for path in out_paths:
        Path(path).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _cmd_classify(args) -> int:
    sigma = _parse_sigma(args.sigma)
    results = classify_spectrum(sigma).to_json()
    report = _run_report(
        "classify",
        {"sigma": [format_rational(v) for v in sigma.as_tuple()]},
        results,
    )
    lines = [
        f"sigma = {sigma}",
        f"same_sign={results['same_sign']} plus_minus_pair={results['plus_minus_pair']} "
        f"trace_zero={results['trace_zero']} resonant_pair_degree={results['resonant_pair_degree']}",
        f"risky degrees: {results['risky_degrees']}",
    ]
    _emit(report, args, lines)
    return 0


def _cmd_kernel(args) -> int:
    if args.degree < 0:
        raise _InputError("degree must be nonnegative")
    if args.degree > args.cap:
        raise _InputError(f"degree {args.degree} exceeds cap {args.cap}")
    sigma = _parse_sigma(args.sigma)
    basis = kernel_single(args.degree, sigma)
    fields = [
        field_to_json(fields_from_vector(vec, basis.col_labels)[args.degree])
        for vec in basis.vectors
    ]
    results = {
        "degree": args.degree,
        "dimension": basis.dimension,
        "basis": fields,
        "classification": classify_spectrum(sigma).to_json(),
    }
    report = _run_report(
        "kernel",
        {"degree": args.degree, "sigma": [format_rational(v) for v in sigma.as_tuple()]},
        results,
    )
    lines = [f"kernel dimension at degree {args.degree}, sigma {sigma}: {basis.dimension}"]
    for vec in basis.vectors:
        lines.append(f"  {fields_from_vector(vec, basis.col_labels)[args.degree]}")
    _emit(report, args, lines)
    return 0


def _cmd_cascade(args) -> int:
    factor = _load_json_file(args.factor, TruncatedFactor.from_json, "factor file")
    analyzed, eps = factor, None
    if args.eps is not None:
        try:
            eps = parse_rational(args.eps)
            analyzed = factor.with_cubic_scaled(eps)
        except ValueError as exc:
            raise _InputError(f"--eps: {exc}") from exc
    try:
        report_obj = analyze(
            analyzed,
            depth_f0_zero=args.depth_zero,
            depth_f0_nonzero=args.depth_nonzero,
            degree_cap=args.cap,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    results = report_obj.to_json()
    if eps is not None:
        results["eps"] = format_rational(eps)
    report = _run_report("cascade", {"factor": factor.to_json()}, results)
    lines = [f"sigma = {report_obj.sigma}", f"verdict: {report_obj.verdict}"]
    for entry in report_obj.risky:
        lines.append(
            f"  degree {entry.degree} (depth {entry.depth}): kernel dim {entry.kernel_dim}, "
            f"projection dim {entry.projection_dim}"
        )
    _emit(report, args, lines)
    return 0 if report_obj.verdict == VERDICT_TRIVIAL else 1


def _cmd_verify_harmonic(args) -> int:
    if args.max_degree < 1:
        raise _InputError("max degree must be at least 1")
    planar_ok = True
    lifted_ok = True
    span_ok = True
    for i in range(1, args.max_degree + 1):
        planar_ok = planar_ok and planar_harmonics_hold(i)
        sigma = SigmaTriple(1, 1, -i)
        system = assemble_single(i, sigma)
        for field in (lifted_field(i, 1), lifted_field(i, 2)):
            vec = coefficient_vector({i: field}, system.col_labels)
            lifted_ok = lifted_ok and all(r == 0 for r in system.multiply(vec))
        if i >= 3:
            span_ok = span_ok and lifted_fields_span_kernel(i, sigma)
    results = {
        "max_degree": args.max_degree,
        "planar_ok": planar_ok,
        "lifted_ok": lifted_ok,
        "span_ok": span_ok,
    }
    report = _run_report("verify-harmonic", {"max_degree": args.max_degree}, results)
    ok = planar_ok and lifted_ok and span_ok
    _emit(report, args, [f"harmonic checks through degree {args.max_degree}: "
                         f"{'all passed' if ok else 'FAILED'}"])
    return 0 if ok else 1


def _cmd_verify_bessel(args) -> int:
    if args.order < 6:
        raise _InputError("order must be at least 6")
    result = verify_beltrami_cylindrical(args.order)
    report = _run_report("verify-bessel", {"order": args.order}, result.to_json())
    _emit(
        report,
        args,
        [
            f"order {args.order}: recurrence_ok={result.recurrence_ok} "
            f"bessel_match_ok={result.bessel_match_ok} cartesian_ok={result.cartesian_ok}"
        ],
    )
    return 0 if result.all_ok else 1


def _cmd_verify_suite(args) -> int:
    config = SuiteConfig()
    if args.config:
        config = _load_json_file(args.config, SuiteConfig.from_json, "suite config")
    results = run_suite(config)
    all_passed = all(r.passed for r in results)
    report = _run_report(
        "verify-paper-suite",
        {"config": config.to_json()},
        {"checks": [r.to_json() for r in results], "all_passed": all_passed},
    )
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit(report, args, lines)
    if not all_passed and args.json:
        for r in results:
            if not r.passed:
                print(f"FAIL {r.name}", file=sys.stderr)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the canonical JSON report on stdout")
    common.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")

    parser = argparse.ArgumentParser(
        prog="beltrami-jets",
        description="Exact obstruction analysis for Beltrami fields near a critical factor point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a Hessian spectrum by resonance")
    p.add_argument("--sigma", required=True, help="three comma-separated rationals, e.g. 1,1,-3")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("kernel", parents=[common], help="exact kernel of the single-degree system")
    p.add_argument("-i", "--degree", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--cap", type=int, default=DEGREE_CAP, help="degree cap (default 16)")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("cascade", parents=[common], help="analyze a truncated factor end to end")
    p.add_argument("--factor", required=True, help="factor JSON file")
    p.add_argument("--depth-zero", type=int, default=3, help="window depth when f0 = 0")
    p.add_argument("--depth-nonzero", type=int, default=1, help="window depth when f0 != 0")
    p.add_argument("--eps", help="analyze f0 + f2 + eps*f3 + f4 + ... for this rational eps")
    p.add_argument("--report", metavar="PATH", help="write the JSON report to PATH")
    p.add_argument("--cap", type=int, default=DEGREE_CAP)
    p.set_defaults(handler=_cmd_cascade)

    p = sub.add_parser("verify-harmonic", parents=[common], help="verify the lifted harmonic families")
    p.add_argument("--max-degree", type=int, default=8)
    p.set_defaults(handler=_cmd_verify_harmonic)

    p = sub.add_parser("verify-bessel", parents=[common], help="verify the axisymmetric series example")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(handler=_cmd_verify_bessel)

    p = sub.add_parser(
        "verify-paper-suite", parents=[common], help="run every bundled golden check"
    )
    p.add_argument("--config", help="suite config JSON (sigma tables, sample sizes)")
    p.set_defaults(handler=_cmd_verify_suite)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
