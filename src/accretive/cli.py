"""Batch command-line front end.

Subcommands: analyze, pinv, perturb, factorize, solve-bvp, demo-laplacian,
selftest.  Every command writes a JSON report (and CSV where noted) into
--out and prints one line per asserted claim; the claims of each subcommand
come from its claim function in selftest, which the property suites share.

Exit codes: 0 all asserted claims pass; 1 a numerical claim failed (the
failing claim id is printed); 2 the input or configuration did not parse;
3 a hypothesis required by the mathematics does not hold for the given
data (certificate or diagnostic is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import selftest
from .bvp import BvpProblem, chebyshev_grid, solve_bvp
from .errors import (
    AccuracyError,
    DimensionError,
    HypothesisError,
    ModelError,
    ParameterError,
    ParseError,
    PreconditionError,
)
from .linops import accretivity_report, as_operator
from .matio import read_matrix, read_vector, vector_payload, write_csv, write_json, write_matrix
from .pencil import QuadraticPencil, factorize
from .pinv import perturbation_bound, perturbation_certificate, perturbed_pinv, pseudoinverse
from .sampling import complex_gaussian, rng_for
from .spectral import LaplacianModel, demo
from .tolerances import overridden

EXIT_PASS = 0
EXIT_CLAIM_FAIL = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3

_EPILOG = """\
CSV columns:
  solve-bvp       solution.csv: t, component, re, im
  demo-laplacian  field.csv:    t, x, re, im

exit codes:
  0  every asserted claim passed
  1  a numerical claim failed (claim id printed)
  2  parse or configuration error (location printed)
  3  a mathematical hypothesis fails on this data (diagnostic printed)
"""


def _emit(command, body, claims, out_dir):
    report = {
        "format": selftest.FORMAT_VERSION,
        "kind": "report",
        "command": command,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "claims": claims,
    }
    report.update(body)
    path = os.path.join(out_dir, f"{command}-report.json")
    write_json(path, report)
    return _conclude(claims, path)


def _conclude(claims, path, note=None):
    """Print one line per claim, the note if any and the report path; return the exit code."""
    for c in claims:
        print(
            f"{c['status'].upper():4s} {c['claim']}"
            f"  measured={c['measured']:.6e}  tolerance={c['tolerance']:.6e}"
        )
    if note:
        print(note)
    print(f"report: {path}")
    failing = [c["claim"] for c in claims if c["status"] == "fail"]
    if failing:
        print(f"failed claim: {failing[0]}", file=sys.stderr)
        return EXIT_CLAIM_FAIL
    return EXIT_PASS


def _cmd_analyze(args, out_dir):
    T = as_operator(read_matrix(args.input))
    rep = accretivity_report(T)
    claims = selftest.analyze_claims(T, rep)
    print(f"status: {rep.status}")
    if rep.omega is not None:
        print(f"omega = {rep.omega:.12f} rad  (tan = {rep.lambda0_modulus})")
    return _emit("analyze", {"input": args.input, "analysis": rep.as_dict()}, claims, out_dir)


def _cmd_pinv(args, out_dir):
    T = as_operator(read_matrix(args.input))
    res = pseudoinverse(T)
    claims = selftest.pinv_claims(T, res)
    out_path = os.path.join(out_dir, "pinv.json")
    write_matrix(out_path, res.pinv)
    print(f"rank = {res.rank}, gamma = {res.gamma}")
    print(f"pseudoinverse: {out_path}")
    body = {
        "input": args.input,
        "rank": res.rank,
        "gamma": res.gamma,
        "singular_values": res.singular_values,
    }
    return _emit("pinv", body, claims, out_dir)


def _cmd_perturb(args, out_dir):
    T = as_operator(read_matrix(args.input))
    S = as_operator(read_matrix(args.input2))
    cert = perturbation_certificate(T, S)
    if cert.mode == "fail":
        path = os.path.join(out_dir, "perturb-certificate.json")
        write_json(path, cert.as_dict())
        print("hypotheses unmet; certificate dump:", file=sys.stderr)
        print(json.dumps(cert.as_dict(), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_HYPOTHESIS
    updated = perturbed_pinv(T, S, cert)
    claims = selftest.perturb_claims(cert, updated, pseudoinverse(T.matrix + S.matrix))
    out_path = os.path.join(out_dir, "perturbed-pinv.json")
    write_matrix(out_path, updated)
    print(f"certificate mode: {cert.mode}")
    print(f"updated pseudoinverse: {out_path}")
    body = {
        "input": args.input,
        "input2": args.input2,
        "certificate": cert.as_dict(),
        "error_bound": perturbation_bound(cert),
    }
    return _emit("perturb", body, claims, out_dir)


def _cmd_factorize(args, out_dir):
    p = QuadraticPencil(read_matrix(args.input), read_matrix(args.input2))
    f = factorize(p)
    rng = rng_for(args.seed, "factorize-lambdas")
    lams = np.concatenate([complex_gaussian(rng, 12, 2.0), rng.standard_normal(4) * 3.0])
    claims = selftest.factorize_claims(p, f, lams)
    for name, M in (("z1", f.z1), ("z2", f.z2), ("sqrt-upsilon", f.root.matrix)):
        write_matrix(os.path.join(out_dir, f"{name}.json"), M)
    for w in f.warnings:
        print(f"warning: {w}")
    print(f"separation = {f.separation:.6e} ({f.separation_regime})")
    body = {
        "input": args.input,
        "input2": args.input2,
        "commuting": f.commuting,
        "separation": f.separation,
        "separation_regime": f.separation_regime,
        "sqrt_residual": f.sqrt_residual,
        "z1_sector_angle": f.z1_sector_angle,
        "spectra_z1": [[z.real, z.imag] for z in f.spectra_z1],
        "spectra_z2": [[z.real, z.imag] for z in f.spectra_z2],
        "warnings": list(f.warnings),
    }
    return _emit("factorize", body, claims, out_dir)


def _cmd_solve_bvp(args, out_dir):
    T = read_matrix(args.input)
    S = read_matrix(args.input2)
    u0 = read_vector(args.u0)
    u1 = read_vector(args.u1)
    problem = BvpProblem(T, S, u0, u1)
    sol = solve_bvp(problem, chebyshev_grid(args.grid))
    claims = selftest.bvp_claims(sol, u0, u1)
    rows = []
    for i, t in enumerate(sol.grid):
        for j in range(problem.dim):
            z = complex(sol.values[i, j])
            rows.append((repr(float(t)), j, repr(z.real), repr(z.imag)))
    csv_path = os.path.join(out_dir, "solve-bvp-solution.csv")
    write_csv(csv_path, ("t", "component", "re", "im"), rows)
    print(f"solution: {csv_path}")
    body = {
        "input": args.input,
        "input2": args.input2,
        "grid_points": len(sol.grid),
        "commutation_residual": problem.commutation_residual,
        "x0": vector_payload(sol.x0),
        "x1": vector_payload(sol.x1),
    }
    return _emit("solve-bvp", body, claims, out_dir)


def _cmd_demo_laplacian(args, out_dir):
    model = LaplacianModel(args.eta, args.eta1, complex(args.xi_re, args.xi_im), args.modes)
    if args.u0:
        u0 = read_vector(args.u0)
    else:
        u0 = complex_gaussian(rng_for(args.seed, "laplacian-u0"), model.n_modes)
    if args.u1:
        u1 = read_vector(args.u1)
    else:
        u1 = complex_gaussian(rng_for(args.seed, "laplacian-u1"), model.n_modes)
    out = demo(model, u0, u1, grid=chebyshev_grid(args.grid), x_samples=args.x_samples)
    claims = selftest.laplacian_claims(out, u0, u1)
    sol = out["solution"]
    rows = []
    for i, t in enumerate(sol.grid):
        for k, x in enumerate(out["x_grid"]):
            z = complex(out["field"][i, k])
            rows.append((repr(float(t)), repr(float(x)), repr(z.real), repr(z.imag)))
    csv_path = os.path.join(out_dir, "demo-laplacian-field.csv")
    write_csv(csv_path, ("t", "x", "re", "im"), rows)
    print(f"field: {csv_path}")
    body = {
        "model": out["model"],
        "condition_sum": out["condition_sum"],
        "condition_bound": out["condition_bound"],
        "factorization": out["factorization"],
        "certificate": out["certificate"],
        "certificate_mode": out["certificate_mode"],
        "ode_residual": out["ode_residual"],
        "u0": vector_payload(u0),
        "u1": vector_payload(u1),
    }
    return _emit("demo-laplacian", body, claims, out_dir)


def _cmd_selftest(args, out_dir):
    report = selftest.run_selftest(args.seed, _parse_overrides(args.tol_override))
    path = os.path.join(out_dir, "selftest-report.json")
    write_json(path, report)
    summary = report["body"]["summary"]
    return _conclude(
        report["body"]["claims"], path, f"{summary['passed']}/{summary['total']} claims passed"
    )


def _parse_overrides(pairs):
    out = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"--tol-override needs KEY=VALUE, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ParseError(f"--tol-override {key}: {value!r} is not a number") from exc
    return out


def _seed(text):
    """A --seed value: numpy seeds only from non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="accretive",
        description="Accretive-operator toolkit batch interface.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p):
        p.add_argument("--seed", type=_seed, default=42, help="rng seed, >= 0 (default 42)")
        p.add_argument(
            "--tol-override",
            action="append",
            metavar="KEY=VALUE",
            help="override one tolerance table entry; repeatable",
        )
        p.add_argument("--out", default=".", metavar="DIR", help="output directory")

    p = sub.add_parser("analyze", help="accretivity and sectoriality certificate")
    p.add_argument("--input", required=True, help="matrix JSON file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse with residual claims")
    p.add_argument("--input", required=True, help="matrix JSON file")
    common(p)
    p.set_defaults(func=_cmd_pinv)

    p = sub.add_parser("perturb", help="certified pseudoinverse update for T + S")
    p.add_argument("--input", required=True, help="matrix JSON file for T")
    p.add_argument("--input2", required=True, help="matrix JSON file for S")
    common(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("factorize", help="quadratic pencil factor operators")
    p.add_argument("--input", required=True, help="matrix JSON file for T")
    p.add_argument("--input2", required=True, help="matrix JSON file for S")
    common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("solve-bvp", help="two-point boundary value solve")
    p.add_argument("--input", required=True, help="matrix JSON file for T")
    p.add_argument("--input2", required=True, help="matrix JSON file for S")
    p.add_argument("--u0", required=True, help="vector JSON file, value at t=0")
    p.add_argument("--u1", required=True, help="vector JSON file, value at t=1")
    p.add_argument("--grid", type=int, default=65, metavar="N", help="grid points (default 65)")
    common(p)
    p.set_defaults(func=_cmd_solve_bvp)

    p = sub.add_parser("demo-laplacian", help="interval Laplacian mode pipeline")
    p.add_argument("--eta", type=float, default=1.0, help="second-order damping weight")
    p.add_argument("--eta1", type=float, default=0.0, help="fourth-order damping weight")
    p.add_argument("--xi-re", type=float, default=0.1, help="Re of the zero-order coefficient")
    p.add_argument("--xi-im", type=float, default=0.0, help="Im of the zero-order coefficient")
    p.add_argument("--modes", type=int, default=16, help="number of retained modes")
    p.add_argument("--grid", type=int, default=65, metavar="N", help="time grid points")
    p.add_argument("--x-samples", type=int, default=33, help="spatial sample count")
    p.add_argument("--u0", help="optional vector JSON file for the t=0 data")
    p.add_argument("--u1", help="optional vector JSON file for the t=1 data")
    common(p)
    p.set_defaults(func=_cmd_demo_laplacian)

    p = sub.add_parser("selftest", help="run every property suite, emit conformance report")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with overridden(_parse_overrides(args.tol_override)):
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ParameterError(f"--out {args.out}: {exc.strerror}") from exc
            return args.func(args, args.out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParameterError, DimensionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, PreconditionError, ModelError) as exc:
        # ResonanceError subclasses HypothesisError and lands here too.
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAIL


def console_main():
    raise SystemExit(run())


if __name__ == "__main__":
    console_main()
