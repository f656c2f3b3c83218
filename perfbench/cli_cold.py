"""The cli-cold workload: each subcommand as a fresh process on seeded files.

A request is one `launcher.py` process running one subcommand.  It passes when
the process exits with 0 and its report holds exactly the claims listed in
CLAIMS, each measured within the benchmark's own tolerance.  The launcher's
timings of `import accretive.cli` and `run(argv)` are kept per subcommand for
the per-layer `cli.*` metrics.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import inputs
from workloads import CONDITION_BOUND, TOLS, XI, claim

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

COMMANDS = ("analyze", "pinv", "perturb", "factorize", "solve-bvp", "demo-laplacian", "selftest")
# Three lists of seven processes give the 20 latency samples a p50 needs.
MIN_LISTS = {"full": 3, "tiny": 1}
SIZE = {"full": 8, "tiny": 4}
MODES = {"full": 16, "tiny": 4}


class WorkDir:
    """Scratch directory inside the checkout, removed on exit."""

    def __init__(self, root):
        self.base = os.path.join(root, ".bench_work")
        self.logs = {name: [] for name in COMMANDS}

    def __enter__(self):
        os.makedirs(self.base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="cli-cold-", dir=self.base)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:
            pass  # another run still uses it
        return False


def _write(path, values, kind):
    """A matrix or vector file in the CLI's versioned JSON format."""
    values = np.asarray(values, dtype=complex)
    payload = {
        "format": 1,
        "kind": kind,
        "dim": int(values.shape[0]),
        "entries": [[z.real, z.imag] for z in values.reshape(-1).tolist()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def items(seed, scale="full", warmup=False, work=None):
    """One item per subcommand, with its input files written under `work`."""
    n, modes = SIZE[scale], MODES[scale]
    tag = "warmup" if warmup else "timed"
    folder = os.path.join(work.path, tag)
    os.makedirs(folder, exist_ok=True)
    rng = inputs.rng_for(seed, f"cli-cold/{tag}")

    def matrix(name, M):
        return _write(os.path.join(folder, f"{name}.json"), M, "matrix")

    def vector(name, v):
        return _write(os.path.join(folder, f"{name}.json"), v, "vector")

    pt, ps = inputs.certified_pair(rng, n, n // 2)
    ft, fs, _, _, _ = inputs.commuting_pencil(rng, n)
    bt, bs, _, _, _ = inputs.commuting_pencil(rng, n)
    argvs = {
        "analyze": ["--input", matrix("analyze", inputs.strongly_accretive(rng, n))],
        "pinv": ["--input", matrix("pinv", inputs.singular_accretive(rng, n, n // 2))],
        "perturb": ["--input", matrix("perturb-t", pt), "--input2", matrix("perturb-s", ps)],
        "factorize": ["--input", matrix("factorize-t", ft), "--input2", matrix("factorize-s", fs)],
        "solve-bvp": [
            "--input", matrix("bvp-t", bt), "--input2", matrix("bvp-s", bs),
            "--u0", vector("bvp-u0", inputs.complex_gaussian(rng, n)),
            "--u1", vector("bvp-u1", inputs.complex_gaussian(rng, n)),
        ],
        "demo-laplacian": [
            "--modes", str(modes), "--xi-re", repr(XI.real), "--xi-im", repr(XI.imag),
            "--u0", vector("demo-u0", inputs.complex_gaussian(rng, modes)),
            "--u1", vector("demo-u1", inputs.complex_gaussian(rng, modes)),
        ],
        "selftest": [],
    }
    out = os.path.join(folder, "out")
    return [
        {
            "name": name,
            "argv": [name, *argvs[name], "--seed", str(seed), "--out", out],
            "report": os.path.join(out, f"{name}-report.json"),
            "log": [] if warmup else work.logs[name],
        }
        for name in (COMMANDS[:1] if warmup else COMMANDS)
    ]


# The claims each subcommand reports on the generated inputs, mapped to the
# TOLS key that bounds each one; None marks the demo's condition sum, which
# must stay below CONDITION_BOUND.  The report's own tolerances are not read,
# nor its statuses but for selftest claims missing here, so a program that
# loosens or drops a check does not pass.
CLAIMS = {
    "analyze": {
        "norm-chain": "norm-chain",
        "hull-consistency": "hull-distance",
        "spectral-inclusion": "spectral-inclusion",
    },
    "pinv": {"penrose-identities": "penrose", "pinv-accretive": "pinv-accretive"},
    "perturb": {"update-formula": "perturb-formula-rel", "error-bound": "bound-slack"},
    "factorize": {
        "factorization-symmetric": "factorization-identity",
        "factorization-one-sided": "factorization-identity",
        "spectrum-multiset": "spectrum-match",
        "vandermonde-agreement": "bound-slack",
    },
    "solve-bvp": {"boundary-residual": "boundary-residual", "ode-residual": "ode-residual"},
    "demo-laplacian": {
        "oracle-gap": "mode-oracle",
        "boundary-residual": "boundary-residual",
        "condition-sum": None,
    },
    "selftest": {
        "pinv-penrose": "penrose",
        "pinv-involution": "involution",
        "pinv-ep-accretive": "ep",
        "pinv-accretive-real-part": "pinv-accretive",
        "norm-chain": "norm-chain",
        "hull-consistency": "hull-distance",
        "spectral-inclusion": "spectral-inclusion",
        "sectorial-angle-bound": "sectorial-bound",
        "sectorial-witness": "sectorial-witness",
        "kato-round-trip": "kato-reconstruction",
        "perturb-formula": "perturb-formula-rel",
        "perturb-geometry": "subspace-angle",
        "perturb-error-bound": "bound-slack",
        "perturb-theta-bound": "bound-slack",
        "perturb-scaling": "perturb-scaling",
        "neumann-tail": "neumann-tail",
        "square-pinv": "square-pinv",
        "second-power-vectors": "vector-inequality",
        "gamma-square-bound": "second-power-gamma",
        "fractional-power-accuracy": "balakrishnan-rel",
        "fractional-power-angle": "power-angle",
        "factorization-symmetric": "factorization-identity",
        "factorization-one-sided": "factorization-identity",
        "spectrum-multiset": "spectrum-match",
        "vandermonde-agreement": "bound-slack",
        "separation-positive": "bound-slack",
        "bvp-sinh-witness": "bvp-witness",
        "bvp-boundary-residual": "boundary-residual",
        "bvp-ode-residual": "ode-residual",
        "bvp-superposition": "superposition",
        "bvp-fd-gap": "fd-gap",
        "laplacian-condition": "bound-slack",
        "laplacian-oracle-gap": "mode-oracle",
        "laplacian-boundary": "boundary-residual",
        "laplacian-screen": "bound-slack",
    },
}


def judge(command, listed):
    """The benchmark's verdict on the claims one report lists.

    Every claim in CLAIMS must be there and within its bound.  Other claims
    fail, except that selftest may add suites, which must then pass.
    """
    expected = CLAIMS[command]
    out = []
    for c in listed:
        name, measured = c["claim"], c["measured"]
        if name not in expected:
            out.append(claim(name, measured, c["tolerance"],
                             ok=command == "selftest" and c["status"] == "pass"))
        elif expected[name] is None:
            out.append(claim(name, measured, CONDITION_BOUND, ok=measured < CONDITION_BOUND))
        else:
            out.append(claim(name, measured, TOLS[expected[name]]))
    reported = {c["claim"] for c in listed}
    out += [claim(f"{name} (not reported)", 1.0, 0.0) for name in expected if name not in reported]
    return out


def request(tr, item):
    if os.path.exists(item["report"]):
        os.remove(item["report"])
    proc = subprocess.run(
        [sys.executable, LAUNCHER, *item["argv"]],
        capture_output=True, text=True, timeout=150, check=False,
    )
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    item["log"].append(info)
    out = [claim("exit-code", info["rc"], 0)]
    if info["rc"] == 0:
        with open(item["report"]) as fh:
            report = json.load(fh)
        listed = report["body"]["claims"] if item["name"] == "selftest" else report["claims"]
        out += judge(item["name"], listed)
    return out


def summary(work):
    """Per-subcommand launcher records, and the largest child RSS."""
    rss = [info["max_rss_mib"] for log in work.logs.values() for info in log]
    return {"cli": work.logs, "max_rss_mib": max(rss)}
