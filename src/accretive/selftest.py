"""The claims of each subcommand, and the seeded property suites behind selftest.

Each <subcommand>_claims function turns results its caller holds into that
subcommand's report rows, with no I/O and no random draw, so each claim is
written once: the CLI reports the rows, and the suites call the same function
on every generated input and keep each claim's worst value under their own id.

Each suite draws from its own named stream (rng_for(seed, label)), so the
claim list and every measured value are a deterministic function of the
seed and the tolerance table, independent of suite execution order.  The
volatile parts of a report (wall-clock header, per-suite runtimes) live
outside the body; the body is the unit that determinism claims compare.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import __version__
from .bvp import BvpProblem, fd_oracle, solve_bvp
from .errors import ModelError
from .linops import (
    accretivity_report,
    accretivity_tol,
    as_operator,
    cartesian_parts,
    hermitian_sqrt,
    kato_representation,
    operator_norm,
    sectorial_angle,
)
from .pencil import (
    QuadraticPencil,
    balakrishnan_power,
    factorization_residuals,
    factorize,
    multiset_match_distance,
    pencil_spectrum,
    vandermonde_check,
)
from .pinv import (
    neumann_identity_check,
    penrose_residuals,
    perturbation_bound,
    perturbation_certificate,
    perturbed_pinv,
    pseudoinverse,
    second_power_inequalities,
)
from .sampling import (
    accretive_operator,
    certified_pair,
    commuting_pencil_pair,
    complex_gaussian,
    pencil_pair,
    random_operator,
    rank_deficient_operator,
    rng_for,
    singular_accretive_operator,
)
from .spectral import LaplacianModel, demo
from .tolerances import overridden, tolerance

# The one format version of every report the CLI writes: the conformance
# report and each subcommand's (cli._emit).
FORMAT_VERSION = 1


def claim(name, measured, tol, ok=None):
    """One report row; it passes when measured <= tol unless ok says otherwise."""
    ok = (measured <= tol) if ok is None else bool(ok)
    return {
        "claim": name,
        "status": "pass" if ok else "fail",
        "measured": float(measured),
        "tolerance": float(tol),
    }


def analyze_claims(T, rep):
    """The norm chain r <= w <= ||T|| <= 2w on the matching ends of the w(T)
    bracket [w_lo, w_hi] (r <= w_hi, w_lo <= ||T||, ||T|| <= 2 w_hi), and the
    polygon's own boundary points and the spectrum inside W(T); rep is T's
    accretivity_report."""
    T = as_operator(T)
    scale = max(1.0, T.norm)
    hull = float(np.max(T.excess(T.points))) / scale if T.points.size else 0.0
    chain = max(
        rep.spectral_radius - rep.numerical_radius_upper,
        rep.numerical_radius - rep.operator_norm,
        rep.operator_norm - 2 * rep.numerical_radius_upper,
    ) / scale
    eigs = rep.eigenvalues
    spec = float(np.max(T.excess(eigs))) / scale if eigs.size else 0.0
    return [
        claim("norm-chain", chain, tolerance("norm-chain")),
        claim("hull-consistency", hull, tolerance("hull-distance")),
        claim("spectral-inclusion", spec, tolerance("spectral-inclusion")),
    ]


def pinv_claims(T, res):
    """The Penrose identities of res = pseudoinverse(T) and, when T is
    accretive, the accretivity of its pseudoinverse."""
    T = as_operator(T)
    # ||T|| and ||T^+|| = 1/gamma from the pseudoinverse's SVD: one SVD of T.
    nrm = res.singular_values[0] if T.dim else 0.0
    scale = max(1.0, nrm, 1 / res.gamma)
    worst = max(penrose_residuals(T, res.pinv).values()) / scale
    rows = [claim("penrose-identities", worst, tolerance("penrose"))]
    if T.dim and T.delta >= -accretivity_tol(nrm):
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (res.pinv + res.pinv.conj().T))))
        rows.append(claim("pinv-accretive", max(0.0, -lam), tolerance("pinv-accretive")))
    return rows


def perturb_claims(cert, updated, direct):
    """The update formula against direct = pseudoinverse(T + S), and the
    paper's error bound; cert is the certificate of (T, S)."""
    pinv = cert.pinv_result.pinv
    bound = perturbation_bound(cert)
    formula = operator_norm(updated - direct.pinv) / max(1 / cert.pinv_result.gamma, 1e-300)
    excess = (operator_norm(direct.pinv - pinv) - bound) / max(1.0, bound)
    return [
        claim("update-formula", formula, tolerance("perturb-formula-rel")),
        claim("error-bound", max(0.0, excess), tolerance("bound-slack")),
    ]


def factorize_claims(p, f, lams):
    """The factorization identities of f = factorize(p) at the lambdas and,
    for a commuting pencil, the spectrum of the factors, its matching
    distance relative to max(1, largest pencil eigenvalue modulus)."""
    sym, one = factorization_residuals(f, p, lams)
    tol = tolerance("factorization-identity")
    rows = [claim("factorization-symmetric", sym / p.scale, tol)]
    if f.commuting:
        rows.append(claim("factorization-one-sided", one / p.scale, tol))
        spectrum = pencil_spectrum(p)
        dist = multiset_match_distance(f.spectra_z1 + f.spectra_z2, spectrum)
        size = max([1.0, *map(abs, spectrum)])
        rows.append(claim("spectrum-multiset", dist / size, tolerance("spectrum-match")))
    ok = vandermonde_check(f)
    rows.append(claim("vandermonde-agreement", 0.0 if ok else 1.0, tolerance("bound-slack")))
    return rows


def bvp_claims(sol, u0, u1):
    """Boundary residual, relative to the data u0 and u1, and ODE residual of sol."""
    scale = 1 + float(np.linalg.norm(u0)) + float(np.linalg.norm(u1))
    return [
        claim("boundary-residual", sol.boundary_residual / scale, tolerance("boundary-residual")),
        claim("ode-residual", sol.ode_residual, tolerance("ode-residual")),
    ]


def laplacian_claims(out, u0, u1):
    """The per-mode oracle gap and boundary residual of out = demo(model, u0,
    u1), and its condition sum, which must stay below the model's bound."""
    total, bound = out["condition_sum"], out["condition_bound"]
    return [
        claim("oracle-gap", out["oracle_gap"], tolerance("mode-oracle")),
        bvp_claims(out["solution"], u0, u1)[0],
        claim("condition-sum", total, bound, ok=total < bound),
    ]


def _worst(rows, name):
    """(max(0, worst measured), tolerance) of one claim over the rows of every input.

    Raises LookupError when no row has that claim, so its suite fails rather
    than passing at 0.0.
    """
    found = [row for row in rows if row["claim"] == name]
    if not found:
        raise LookupError(f"no generated input produced the claim {name!r}")
    return max(0.0, *(row["measured"] for row in found)), found[-1]["tolerance"]


def _suite_pinv_basics(rng):
    rows = []
    worst_inv = 0.0
    for k in range(40):
        dim = int(rng.integers(1, 13))
        if k % 2:
            T = rank_deficient_operator(rng, dim, int(rng.integers(0, dim + 1)))
        else:
            T = random_operator(rng, dim)
        res = pseudoinverse(T)
        rows += pinv_claims(T, res)
        back = pseudoinverse(res.pinv).pinv
        worst_inv = max(worst_inv, operator_norm(back - T) / max(1.0, operator_norm(T)))
    return [
        ("pinv-penrose", *_worst(rows, "penrose-identities")),
        ("pinv-involution", worst_inv, tolerance("involution")),
    ]


def _suite_pinv_accretive(rng):
    rows = []
    worst_ep = 0.0
    for _ in range(30):
        dim = int(rng.integers(1, 13))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        res = pseudoinverse(T)
        worst_ep = max(worst_ep, operator_norm(T @ res.pinv - res.pinv @ T))
        rows += pinv_claims(T, res)
    return [
        ("pinv-ep-accretive", worst_ep, tolerance("ep")),
        ("pinv-accretive-real-part", *_worst(rows, "pinv-accretive")),
    ]


def _suite_numerical_range(rng):
    rows = []
    for _ in range(20):
        T = as_operator(random_operator(rng, int(rng.integers(2, 11))))
        rows += analyze_claims(T, accretivity_report(T))
    return [(c, *_worst(rows, c)) for c in ("norm-chain", "hull-consistency", "spectral-inclusion")]


def _suite_sectorial(rng):
    worst_bound = 0.0
    for _ in range(40):
        dim = int(rng.integers(1, 13))
        T = accretive_operator(rng, dim)
        omega, delta, _, tan_om = sectorial_angle(T)
        rhs = math.sqrt(max((operator_norm(T) / delta) ** 2 - 1.0, 0.0))
        worst_bound = max(worst_bound, tan_om - rhs)
    witness_omega = sectorial_angle(np.array([[1.0, 1.0], [-1.0, 1.0]]))[0]
    worst_kato = 0.0
    for _ in range(15):
        dim = int(rng.integers(1, 10))
        T = accretive_operator(rng, dim, max_tan=1.2)
        K = kato_representation(T)
        R = hermitian_sqrt(cartesian_parts(T).re_part)
        rebuilt = R @ (np.eye(dim) + 1j * K) @ R
        worst_kato = max(worst_kato, operator_norm(rebuilt - T) / max(1.0, operator_norm(T)))
    return [
        ("sectorial-angle-bound", worst_bound, tolerance("sectorial-bound")),
        ("sectorial-witness", abs(witness_omega - math.pi / 4), tolerance("sectorial-witness")),
        ("kato-round-trip", worst_kato, tolerance("kato-reconstruction")),
    ]


def _suite_perturbation(rng):
    rows = []
    worst_geom = 0.0
    worst_theta = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 11))
        rank = int(rng.integers(1, dim + 1))
        T, S = certified_pair(rng, dim, rank)
        cert = perturbation_certificate(T, S)
        res = cert.pinv_result
        direct = pseudoinverse(T + S)
        rows += perturb_claims(cert, perturbed_pinv(T, S, cert), direct)
        if direct.rank != res.rank:
            worst_geom = max(worst_geom, 1.0)
        # The range projectors T T^+ and row-space projectors T^+ T of T and T + S.
        worst_geom = max(
            worst_geom,
            operator_norm(T @ res.pinv - (T + S) @ direct.pinv),
            operator_norm(res.pinv @ T - direct.pinv @ (T + S)),
        )
        if cert.s_accretive and cert.theta is not None and cert.theta < math.pi / 2:
            pn = 1 / res.gamma
            norm_bound = 2 * pn + (1 + math.tan(cert.theta)) ** 2 * pn**2
            worst_theta = max(
                worst_theta, (operator_norm(direct.pinv) - norm_bound) / max(1.0, norm_bound)
            )
    worst_scaling = 0.0
    for _ in range(8):
        dim = int(rng.integers(2, 9))
        T = singular_accretive_operator(rng, dim, int(rng.integers(1, dim + 1)))
        res = pseudoinverse(T)
        S = 0.25 * T
        updated = perturbed_pinv(T, S)
        worst_scaling = max(
            worst_scaling,
            operator_norm(updated - res.pinv / 1.25) / max(1.0, 1 / res.gamma),
        )
    return [
        ("perturb-formula", *_worst(rows, "update-formula")),
        ("perturb-geometry", worst_geom, tolerance("subspace-angle")),
        ("perturb-error-bound", *_worst(rows, "error-bound")),
        ("perturb-theta-bound", max(0.0, worst_theta), tolerance("bound-slack")),
        ("perturb-scaling", worst_scaling, tolerance("perturb-scaling")),
    ]


def _suite_neumann(rng):
    T, S = certified_pair(rng, 6, 4, contraction=0.4)
    deviation = neumann_identity_check(T, S, 20)
    return [("neumann-tail", deviation, tolerance("neumann-tail"))]


def _suite_second_power(rng):
    worst_sq = 0.0
    for _ in range(15):
        dim = int(rng.integers(1, 11))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        res = pseudoinverse(T)
        P2 = pseudoinverse(T @ T).pinv
        worst_sq = max(
            worst_sq, operator_norm(P2 - res.pinv @ res.pinv) / max(1.0, (1 / res.gamma) ** 2)
        )
    worst_vec = 0.0
    worst_gamma = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 11))
        T = singular_accretive_operator(rng, dim, int(rng.integers(1, dim + 1)))
        stats = second_power_inequalities(T)
        # The certified upper end; kernel(T^2) adds 0, which the clamp at 0 holds.
        worst_vec = max(worst_vec, stats["vector_violation"][1])
        if math.isfinite(stats["gamma_bound_slack"]):
            worst_gamma = max(worst_gamma, max(0.0, -stats["gamma_bound_slack"]))
    return [
        ("square-pinv", worst_sq, tolerance("square-pinv")),
        ("second-power-vectors", worst_vec, tolerance("vector-inequality")),
        ("gamma-square-bound", worst_gamma, tolerance("second-power-gamma")),
    ]


def _suite_fractional(rng):
    # The oracle is the Schur-method square root (Bjorck & Hammarling 1983),
    # well conditioned on nonnormal input where V diag(lambda^alpha) V^{-1} is
    # not; the exponents are dyadic, so each power is a product of principal
    # roots.  scipy's Schur-Pade fractional_matrix_power agrees to ~5e-15 on
    # these inputs but loads scipy.sparse, which no command may import.
    import scipy.linalg  # deferred: a first import takes ~0.3 s and ~28 MiB

    worst_rel = 0.0
    worst_angle = 0.0
    for _ in range(8):
        dim = int(rng.integers(2, 9))
        T = accretive_operator(rng, dim, max_tan=1.5)
        half = scipy.linalg.sqrtm(T)
        quarter = scipy.linalg.sqrtm(half)
        for alpha, oracle in ((0.25, quarter), (0.5, half), (0.75, half @ quarter)):
            power = balakrishnan_power(T, alpha)
            worst_rel = max(
                worst_rel, operator_norm(power - oracle) / max(operator_norm(oracle), 1e-300)
            )
            omega = sectorial_angle(power)[0]
            worst_angle = max(worst_angle, omega - alpha * math.pi / 2)
    return [
        ("fractional-power-accuracy", worst_rel, tolerance("balakrishnan-rel")),
        ("fractional-power-angle", max(0.0, worst_angle), tolerance("power-angle")),
    ]


def _suite_factorization(rng):
    rows = []
    separation_fail = 0.0
    for k in range(15):
        dim = int(rng.integers(2, 9))
        T, S = pencil_pair(rng, dim) if k % 2 else commuting_pencil_pair(rng, dim)
        p = QuadraticPencil(T, S)
        f = factorize(p)
        lams = np.concatenate([
            complex_gaussian(rng, 8, 2.0),
            rng.standard_normal(4) * 3.0,
        ])
        rows += factorize_claims(p, f, lams)
        if f.separation_regime == "strong" and f.separation <= 0:
            separation_fail = 1.0
    shared = ("factorization-symmetric", "factorization-one-sided", "spectrum-multiset",
              "vandermonde-agreement")
    return [*((c, *_worst(rows, c)) for c in shared),
            ("separation-positive", separation_fail, tolerance("bound-slack"))]


def _suite_bvp(rng):
    scalar = BvpProblem(np.zeros((1, 1)), np.eye(1), np.array([1.0]), np.array([0.0]))
    sol = solve_bvp(scalar)
    witness_gap = float(
        np.max(np.abs(sol.values[:, 0] - np.sinh(1 - sol.grid) / math.sinh(1.0)))
    )
    problems = []
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        T, S = commuting_pencil_pair(rng, dim)
        u0 = complex_gaussian(rng, dim)
        u1 = complex_gaussian(rng, dim)
        problems.append((BvpProblem(T, S, u0, u1), u0, u1))
    solutions = [solve_bvp(p) for p, _, _ in problems]
    rows = []
    for (_, u0, u1), s in zip(problems, solutions):
        rows += bvp_claims(s, u0, u1)
    # Superposition on one fixed problem: combine two data sets linearly.
    p, u0, u1 = problems[0]
    T, S = p.T, p.S
    v0 = complex_gaussian(rng, p.dim)
    v1 = complex_gaussian(rng, p.dim)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    s1 = solutions[0]
    s2 = solve_bvp(BvpProblem(T, S, v0, v1))
    s12 = solve_bvp(BvpProblem(T, S, a * u0 + b * v0, a * u1 + b * v1))
    superpose = float(np.max(np.abs(s12.values - a * s1.values - b * s2.values)))
    fd = fd_oracle(scalar, 400)
    return [
        ("bvp-sinh-witness", witness_gap, tolerance("bvp-witness")),
        ("bvp-boundary-residual", *_worst(rows, "boundary-residual")),
        ("bvp-ode-residual", *_worst(rows, "ode-residual")),
        ("bvp-superposition", superpose, tolerance("superposition")),
        ("bvp-fd-gap", fd.oracle_gap, tolerance("fd-gap")),
    ]


def _suite_laplacian(rng):
    m = LaplacianModel(1.0, 0.0, 0.1, 16)
    u0 = complex_gaussian(rng, 16)
    u1 = complex_gaussian(rng, 16)
    rows = laplacian_claims(demo(m, u0, u1, x_samples=9), u0, u1)
    condition = next(r for r in rows if r["claim"] == "condition-sum")
    condition_fail = 0.0 if condition["status"] == "pass" else 1.0
    screen_fail = 1.0
    try:
        demo(LaplacianModel(1.0, 0.01, 0.1, 16), u0, u1, x_samples=5)
    except ModelError:
        screen_fail = 0.0
    return [
        ("laplacian-condition", condition_fail, tolerance("bound-slack")),
        ("laplacian-oracle-gap", *_worst(rows, "oracle-gap")),
        ("laplacian-boundary", *_worst(rows, "boundary-residual")),
        ("laplacian-screen", screen_fail, tolerance("bound-slack")),
    ]


_REGISTRY = [
    ("pinv-basics", _suite_pinv_basics),
    ("pinv-accretive", _suite_pinv_accretive),
    ("numerical-range", _suite_numerical_range),
    ("sectorial", _suite_sectorial),
    ("perturbation", _suite_perturbation),
    ("neumann", _suite_neumann),
    ("second-power", _suite_second_power),
    ("fractional", _suite_fractional),
    ("factorization", _suite_factorization),
    ("bvp", _suite_bvp),
    ("laplacian", _suite_laplacian),
]


def run_selftest(seed, overrides):
    """Run every suite; return the full conformance report dict."""
    claims = []
    runtimes = {}
    with overridden(overrides):
        for label, fn in _REGISTRY:
            rng = rng_for(seed, label)
            start = time.perf_counter()
            try:
                claims += [claim(*item) for item in fn(rng)]
            except Exception as exc:  # a crashed suite is a failed claim, not a crash
                failed = claim(f"{label}-completed", 1.0, tolerance("bound-slack"), ok=False)
                claims.append({**failed, "error": str(exc)})
            runtimes[label] = round(time.perf_counter() - start, 6)
    names = [c["claim"] for c in claims]
    if len(names) != len(set(names)):
        raise RuntimeError(f"duplicate claim ids in registry: {sorted(names)}")
    passed = sum(c["status"] == "pass" for c in claims)
    body = {
        "version": __version__,
        "seed": int(seed),
        "tolerance_overrides": {k: float(v) for k, v in sorted(overrides.items())},
        "claims": claims,
        "summary": {"total": len(claims), "passed": passed, "failed": len(claims) - passed},
    }
    return {
        "format": FORMAT_VERSION,
        "kind": "conformance",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runtime_seconds": runtimes,
        "body": body,
    }

