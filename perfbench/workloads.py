"""The in-process workloads: seeded request lists and one function per request.

A request is one CLI-equivalent unit of work.  It calls the library's public
functions through a tracer (a pass-through when untraced) and returns the
claims the matching CLI subcommand asserts, plus the benchmark's own checks
against what it knows about the generated input.  Inputs are generated before
timing starts; `sampling` and the benchmark's generators are never timed.
"""

import numpy as np

from accretive import bvp, linops, pencil, pinv, spectral

import inputs

# The library's default tolerance table at the time the benchmark was
# written, fixed here so that the program under test cannot loosen the
# checks that judge it.
TOLS = {
    "accretivity": 1e-10,
    "norm-chain": 1e-8,
    "sectorial-bound": 1e-8,
    "sectorial-witness": 1e-10,
    "hull-distance": 1e-10,
    "spectral-inclusion": 1e-8,
    "kato-reconstruction": 1e-12,
    "penrose": 1e-10,
    "ep": 1e-10,
    "pinv-accretive": 1e-10,
    "involution": 1e-10,
    "inclusion-residual": 1e-10,
    "perturb-formula-rel": 1e-8,
    "subspace-angle": 1e-8,
    "perturb-scaling": 1e-12,
    "neumann-tail": 1e-6,
    "bound-slack": 1e-12,
    "square-pinv": 1e-10,
    "second-power-gamma": 1e-12,
    "vector-inequality": 1e-10,
    "factorization-identity": 1e-10,
    "spectrum-match": 1e-6,
    "balakrishnan-rel": 1e-6,
    "power-angle": 1e-6,
    "bvp-witness": 1e-10,
    "boundary-residual": 1e-9,
    "ode-residual": 1e-8,
    "superposition": 1e-10,
    "fd-gap": 1e-4,
    "mode-oracle": 1e-8,
}

GRID_POINTS = 65

# The Laplacian demo's zero-order coefficient.  Its mode condition sum must
# stay below 1/|xi|, a bound the benchmark computes itself.
XI = complex(0.1, 0.0)
CONDITION_BOUND = 1 / abs(XI)

# Problem sizes; "tiny" keeps every code path but runs in well under a second.
SIZES = {
    "full": {"analyze": (32, 64, 128), "pipeline": 32, "bvp": 16, "modes": 16, "large": 128},
    "tiny": {"analyze": (6, 8, 10), "pipeline": 6, "bvp": 4, "modes": 4, "large": 8},
}

ANALYZE_CLASSES = (
    ("strong", "strongly accretive"),
    ("singular", "accretive, singular real part"),
    ("non-accretive", "not accretive"),
)


def claim(name, measured, tolerance, ok=None):
    measured = float(measured)
    return (name, measured, float(tolerance), measured <= tolerance if ok is None else bool(ok))


def _norm(tr, M):
    return tr.call("linops.operator_norm", linops.operator_norm, M)


# ---------------------------------------------------------------- analyze


def _analyze_matrix(rng, kind, n):
    if kind == "strong":
        return inputs.strongly_accretive(rng, n)
    if kind == "singular":
        return inputs.singular_accretive(rng, n, n // 2)
    return inputs.non_accretive(rng, n)


def analyze_items(seed, scale="full", warmup=False):
    """20 requests: 18 at the small size (6 per class), one each at the two larger.

    The median request therefore lies inside the small size class.
    """
    small, mid, large = SIZES[scale]["analyze"]
    if warmup:
        plan = [(small, 0)]
    else:
        plan = [(small, k % 3) for k in range(18)]
        plan.insert(6, (mid, 1))
        plan.insert(13, (large, 0))
    items = []
    for k, (n, c) in enumerate(plan):
        kind, status = ANALYZE_CLASSES[c]
        rng = inputs.rng_for(seed, f"analyze/{'warmup' if warmup else k}/{kind}/{n}")
        items.append({"T": _analyze_matrix(rng, kind, n), "status": status})
    return items


def analyze_request(tr, item):
    """The CLI `analyze` sequence, plus the status the generator guarantees."""
    T = item["T"]
    scale = max(1.0, _norm(tr, T))
    rep = tr.call(
        "linops.accretivity_report", linops.accretivity_report, T, tol=TOLS["accretivity"] * scale
    )
    chain = max(
        rep.spectral_radius - rep.numerical_radius,
        rep.numerical_radius - rep.operator_norm,
        rep.operator_norm - 2 * rep.numerical_radius,
    ) / scale
    pts = tr.call("linops.numerical_range_boundary", linops.numerical_range_boundary, T)
    hull = float(np.max(tr.call("linops.support_excess", linops.support_excess, T, pts))) / scale
    eigs = np.linalg.eigvals(T)
    spec = float(np.max(tr.call("linops.support_excess", linops.support_excess, T, eigs))) / scale
    return [
        claim("norm-chain", chain, TOLS["norm-chain"]),
        claim("hull-consistency", hull, TOLS["hull-distance"]),
        claim("spectral-inclusion", spec, TOLS["spectral-inclusion"]),
        claim("status", 0.0, 0.0, ok=rep.status == item["status"]),
    ]


# --------------------------------------------------------------- pipeline


def _bvp_item(rng, n):
    T, S, U, t, s = inputs.commuting_pencil(rng, n)
    return {
        "T": T, "S": S, "U": U, "t": t, "s": s,
        "u0": inputs.complex_gaussian(rng, n), "u1": inputs.complex_gaussian(rng, n),
    }


def pipeline_items(seed, scale="full", warmup=False):
    """20 items; each is one pass of the paper's chain on fresh seeded data."""
    sizes = SIZES[scale]
    n, nb, modes = sizes["pipeline"], sizes["bvp"], sizes["modes"]
    items = []
    for k in range(1 if warmup else 20):
        rng = inputs.rng_for(seed, f"pipeline/{'warmup' if warmup else k}")
        pencils = []
        for commuting in (True, False):
            if commuting:
                T, S, _, _, _ = inputs.commuting_pencil(rng, n)
            else:
                T, S = inputs.noncommuting_pencil(rng, n)
            lams = np.concatenate(
                [inputs.complex_gaussian(rng, 12, 2.0), rng.standard_normal(4) * 3.0]
            )
            pencils.append({"T": T, "S": S, "lambdas": lams, "commuting": commuting})
        items.append({
            "perturb": inputs.certified_pair(rng, n, n // 2),
            "pencils": pencils,
            "bvp": _bvp_item(rng, nb),
            "demo": {
                "modes": modes,
                "u0": inputs.complex_gaussian(rng, modes),
                "u1": inputs.complex_gaussian(rng, modes),
            },
        })
    return items


def _perturb(tr, T, S):
    cert = tr.call(
        "pinv.perturbation_certificate", pinv.perturbation_certificate,
        T, S, TOLS["inclusion-residual"] * max(1.0, _norm(tr, S)),
    )
    if cert.mode == "fail":
        return [claim("certificate-mode", 1.0, 0.0)]
    res = tr.call("pinv.pseudoinverse", pinv.pseudoinverse, T)
    updated = tr.call("pinv.perturbed_pinv", pinv.perturbed_pinv, T, S, cert)
    direct = tr.call("pinv.pseudoinverse", pinv.pseudoinverse, T + S)
    pn = _norm(tr, res.pinv)
    formula = _norm(tr, updated - direct.pinv) / max(pn, 1e-300)
    diff = _norm(tr, direct.pinv - res.pinv)
    bound = _norm(tr, S) * pn**2 / (1 - cert.contraction_TdS)
    return [
        claim("update-formula", formula, TOLS["perturb-formula-rel"]),
        claim("error-bound", max(0.0, (diff - bound) / max(1.0, bound)), TOLS["bound-slack"]),
    ]


def _factorize(tr, item):
    T, S = item["T"], item["S"]
    p = pencil.QuadraticPencil(T, S)
    f = tr.call("pencil.factorize", pencil.factorize, p)
    scale = max(1.0, _norm(tr, T) ** 2, _norm(tr, S))
    sym, one = tr.call(
        "pencil.factorization_residuals", pencil.factorization_residuals, f, p, item["lambdas"]
    )
    out = [
        claim("factorization-symmetric", sym / scale, TOLS["factorization-identity"]),
        claim("commuting-detected", 0.0, 0.0, ok=f.commuting == item["commuting"]),
    ]
    if f.commuting:
        spectrum = tr.call("pencil.pencil_spectrum", pencil.pencil_spectrum, p)
        dist = tr.call(
            "pencil.multiset_match_distance", pencil.multiset_match_distance,
            f.spectra_z1 + f.spectra_z2, spectrum,
        )
        out.append(claim("factorization-one-sided", one / scale, TOLS["factorization-identity"]))
        out.append(claim("spectrum-multiset", dist, TOLS["spectrum-match"]))
    agree = tr.call("pencil.vandermonde_check", pencil.vandermonde_check, f)
    out.append(claim("vandermonde-agreement", 0.0 if agree else 1.0, TOLS["bound-slack"]))
    return out


def mode_oracle(item, grid):
    """Per-eigenmode closed form of u'' - 2Tu' - Su = 0, rotated back by U.

    In the eigenbasis each mode solves z^2 - 2 t z - s = 0, z = t +/- r with
    r = sqrt(t^2 + s), and fits a e^{(x-1) z1} + b e^{x z2} to the rotated
    boundary data through a 2x2 solve.  Uses only what the generator knows,
    not the solver's own factors or residuals.
    """
    U, t, s = item["U"], item["t"], item["s"]
    r = np.sqrt(t**2 + s)
    z1, z2 = t + r, t - r
    systems = np.empty((len(t), 2, 2), dtype=complex)
    systems[:, 0, 0] = np.exp(-z1)
    systems[:, 0, 1] = 1.0
    systems[:, 1, 0] = 1.0
    systems[:, 1, 1] = np.exp(z2)
    rhs = np.stack([U.conj().T @ item["u0"], U.conj().T @ item["u1"]], axis=1)
    ab = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    modes = ab[:, 0] * np.exp(np.multiply.outer(grid - 1.0, z1)) + ab[:, 1] * np.exp(
        np.multiply.outer(grid, z2)
    )
    return modes @ U.T


def bvp_request(tr, item, grid):
    """The CLI `solve-bvp` claims plus the independent per-mode oracle."""
    problem = tr.call("bvp.BvpProblem", bvp.BvpProblem, item["T"], item["S"], item["u0"], item["u1"])
    sol = tr.call("bvp.solve_bvp", bvp.solve_bvp, problem, grid)
    scale = 1 + float(np.linalg.norm(item["u0"])) + float(np.linalg.norm(item["u1"]))
    gap = float(np.max(np.abs(sol.values - mode_oracle(item, sol.grid))))
    return [
        claim("boundary-residual", sol.boundary_residual / scale, TOLS["boundary-residual"]),
        claim("ode-residual", sol.ode_residual, TOLS["ode-residual"]),
        claim("mode-oracle", gap, TOLS["mode-oracle"]),
    ]


def _demo(tr, item, grid):
    model = spectral.LaplacianModel(1.0, 0.0, XI, item["modes"])
    u0, u1 = item["u0"], item["u1"]
    out = tr.call("spectral.demo", spectral.demo, model, u0, u1, grid=grid, x_samples=33)
    scale = 1 + float(np.linalg.norm(u0)) + float(np.linalg.norm(u1))
    return [
        claim("oracle-gap", out["oracle_gap"], TOLS["mode-oracle"]),
        claim("boundary-residual", out["boundary_residual"] / scale, TOLS["boundary-residual"]),
        claim(
            "condition-sum", out["condition_sum"], CONDITION_BOUND,
            ok=out["condition_sum"] < CONDITION_BOUND,
        ),
    ]


def pipeline_request(tr, item):
    """perturb, factorize (commuting and not), solve-bvp and demo-laplacian."""
    grid = bvp.chebyshev_grid(GRID_POINTS)
    claims = _perturb(tr, *item["perturb"])
    for p in item["pencils"]:
        claims += _factorize(tr, p)
    claims += bvp_request(tr, item["bvp"], grid)
    claims += _demo(tr, item["demo"], grid)
    return claims


# ------------------------------------------------------------ solve-large


def solve_large_items(seed, scale="full", warmup=False):
    n = SIZES[scale]["large"]
    return [
        _bvp_item(inputs.rng_for(seed, f"solve-large/{'warmup' if warmup else k}"), n)
        for k in range(1 if warmup else 20)
    ]


def solve_large_request(tr, item):
    return bvp_request(tr, item, bvp.chebyshev_grid(GRID_POINTS))


IN_PROCESS = {
    "analyze": (analyze_items, analyze_request),
    "pipeline": (pipeline_items, pipeline_request),
    "solve-large": (solve_large_items, solve_large_request),
}
