"""Command-line interface: exit codes, artifacts, determinism."""

from collections import Counter
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from accretive import linops, selftest
from accretive.cli import run
from accretive.matio import read_matrix, write_matrix, write_vector
from accretive.pencil import QuadraticPencil, accretive_sqrt, factorize
from accretive.pinv import pseudoinverse
from accretive.sampling import (
    accretive_operator,
    certified_pair,
    commuting_pencil_pair,
    complex_gaussian,
    pencil_pair,
    rng_for,
)
from accretive.selftest import _REGISTRY, pinv_claims
from accretive.spectral import LaplacianModel, build_operators


def _text(path):
    with open(path) as fh:
        return fh.read()


@pytest.fixture
def files(tmp_path):
    paths = {}

    def add(name, writer, data):
        p = tmp_path / f"{name}.json"
        writer(p, data)
        paths[name] = str(p)

    add("witness", write_matrix, np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex))
    add("rotation", write_matrix, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    add("diag-t", write_matrix, np.diag([1.0, 2.0]).astype(complex))
    add("diag-s", write_matrix, np.diag([3.0, 5.0]).astype(complex))
    add("rank-t", write_matrix, np.diag([2.0, 0.0]).astype(complex))
    add("bad-s", write_matrix, np.diag([0.0, 0.3]).astype(complex))
    add("zero", write_matrix, np.zeros((2, 2), dtype=complex))
    add("resonant-t", write_matrix, np.diag([1.0, 0.0]).astype(complex))
    add("nc-t", write_matrix, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    add("nc-s", write_matrix, np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))
    add("empty", write_matrix, np.zeros((0, 0), dtype=complex))
    add("u0", write_vector, np.array([1.0, 1.0], dtype=complex))
    add("u1", write_vector, np.array([0.0, 0.0], dtype=complex))
    paths["out"] = str(tmp_path / "out")
    return paths


def test_analyze_witness(files):
    rc = run(["analyze", "--input", files["witness"], "--out", files["out"]])
    assert rc == 0
    report = json.loads(_text(files["out"] + "/analyze-report.json"))
    assert abs(report["analysis"]["omega"] - math.pi / 4) <= 1e-10
    analysis = report["analysis"]
    assert analysis["numerical_radius"] <= analysis["numerical_radius_upper"]
    assert all(c["status"] == "pass" for c in report["claims"])


def test_norm_chain_reads_the_matching_ends_of_the_bracket():
    # The 2x2 Jordan block has r = 0, w = 1/2 and ||T|| = 1 = 2w, and its
    # bracket's w_hi is certified at w_lo (1 + 1e-10) by the level-set test.
    # The outer links read w_hi and the middle one w_lo: each fails when its
    # own end is moved past it, and none reads the other end.
    J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = linops.accretivity_report(J)

    def chain(**ends):
        rows = selftest.analyze_claims(J, dataclasses.replace(rep, **ends))
        return next(r["status"] for r in rows if r["claim"] == "norm-chain")

    assert chain() == "pass"
    assert chain(numerical_radius=0.0) == "pass"
    assert chain(numerical_radius_upper=0.5 * (1 - 1e-6)) == "fail"
    assert chain(numerical_radius=1 + 1e-6) == "fail"
    assert chain(numerical_radius=0.0, spectral_radius=0.5 * (1 + 1e-9)) == "pass"
    assert chain(spectral_radius=0.5 * (1 + 1e-6)) == "fail"
    assert chain(spectral_radius=0.5 * (1 + 1e-4)) == "fail"
    assert chain(numerical_radius_upper=1 + 1e-6) == "pass"


def test_analyze_sweeps_the_numerical_range_once(files, stacked_solves):
    # One polygon of W(T) gives the points and the support values: one
    # tridiagonalization per solve, a polygon of 2m angles taking m solves,
    # at most 4 + _RADIUS_SOLVES, and no stacked eigh or eigvalsh.  A second
    # run on the same file reads the same matrix content, so it shares that
    # polygon and solves nothing more.
    m = len(linops.Operator(read_matrix(files["witness"]))._polygon[0]) // 2
    assert 4 <= m <= 4 + linops._RADIUS_SOLVES
    stacked_solves.update(zhetrd=0, zhetrd_orders=Counter())
    assert run(["analyze", "--input", files["witness"], "--out", files["out"]]) == 0
    assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": m, "zhetrd_orders": {2: m}}
    assert run(["analyze", "--input", files["witness"], "--out", files["out"]]) == 0
    assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": m, "zhetrd_orders": {2: m}}


def test_analyze_computes_the_spectrum_once(files, monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert run(["analyze", "--input", files["witness"], "--out", files["out"]]) == 0
    assert calls == [(2, 2)]


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name} in {path}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_non_sectorial_analyze_report_is_strict_json(files):
    # The rotation is accretive (Re T = 0) but not sectorial: tan(omega) is
    # infinite, which the report writes as null, not as Infinity.
    assert run(["analyze", "--input", files["rotation"], "--out", files["out"]]) == 0
    analysis = _strict_json(files["out"] + "/analyze-report.json")["analysis"]
    assert analysis["is_accretive"] and not analysis["sectorial"]
    assert analysis["lambda0_modulus"] is None


def test_dim_zero_input(files):
    assert run(["analyze", "--input", files["empty"], "--out", files["out"]]) == 0
    assert run(["factorize", "--input", files["empty"], "--input2", files["empty"],
                "--out", files["out"]]) == 0
    report = _strict_json(files["out"] + "/factorize-report.json")
    assert report["separation"] is None


def test_analyze_missing_and_broken_input(files, tmp_path):
    assert run(["analyze", "--input", str(tmp_path / "nope.json"), "--out", files["out"]]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["analyze", "--input", str(broken), "--out", files["out"]]) == 2


def test_tol_override_can_fail_a_claim(files, capsys):
    rc = run([
        "analyze", "--input", files["witness"], "--out", files["out"],
        "--tol-override", "hull-distance=1e-20",
    ])
    assert rc == 1
    assert "failed claim: hull-consistency" in capsys.readouterr().err


def test_tol_override_reaches_the_library_checks(files, capsys):
    # The library's own checks read the overridden table too: an internal
    # check that fails makes the subcommand exit 3 (here) or 1.
    argv = ["solve-bvp", "--input", files["diag-t"], "--input2", files["diag-s"],
            "--u0", files["u0"], "--u1", files["u1"], "--out", files["out"]]
    assert run(argv) == 0
    assert run([*argv, "--tol-override", "resonance=1e3"]) == 3
    assert "resonant" in capsys.readouterr().err


def test_tol_override_reaches_the_selftest_claims(files, tmp_path, capsys):
    # The selftest and factorize read one claim function, so one override
    # fails the same claim id in both.
    override = ["--tol-override", "factorization-identity=1e-30"]
    assert run(["selftest", *override, "--out", str(tmp_path)]) == 1
    assert "failed claim: factorization-symmetric" in capsys.readouterr().err.splitlines()
    body = json.loads(_text(tmp_path / "selftest-report.json"))["body"]
    assert body["tolerance_overrides"] == {"factorization-identity": 1e-30}
    row = next(c for c in body["claims"] if c["claim"] == "factorization-symmetric")
    assert row["tolerance"] == 1e-30 and row["status"] == "fail"
    C, D = commuting_pencil_pair(rng_for(20260814, "override-pencil"), 4)
    write_matrix(tmp_path / "c.json", C)
    write_matrix(tmp_path / "d.json", D)
    assert run(["factorize", "--input", str(tmp_path / "c.json"),
                "--input2", str(tmp_path / "d.json"), *override, "--out", files["out"]]) == 1
    assert "failed claim: factorization-symmetric" in capsys.readouterr().err.splitlines()


def test_suite_fails_when_no_input_produces_its_claim(monkeypatch):
    # Without rows for a claim, its suite fails rather than passing at 0.0.
    def penrose_only(T, res):
        return [r for r in pinv_claims(T, res) if r["claim"] != "pinv-accretive"]

    monkeypatch.setattr(selftest, "pinv_claims", penrose_only)
    claims = {c["claim"]: c for c in selftest.run_selftest(42, {})["body"]["claims"]}
    failed = claims["pinv-accretive-completed"]
    assert failed["status"] == "fail"
    assert failed["error"] == "no generated input produced the claim 'pinv-accretive'"
    assert "pinv-accretive-real-part" not in claims
    assert claims["pinv-penrose"]["status"] == "pass"


@pytest.mark.parametrize("command", ["factorize", "demo-laplacian", "selftest"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_must_be_a_non_negative_integer(files, capsys, command, seed):
    inputs = {"factorize": ["--input", files["diag-t"], "--input2", files["diag-s"]]}
    with pytest.raises(SystemExit) as info:
        run([command, *inputs.get(command, []), "--seed", seed, "--out", files["out"]])
    assert info.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def test_tol_override_validation(files):
    assert run(["analyze", "--input", files["witness"], "--out", files["out"],
                "--tol-override", "nope=1"]) == 2
    assert run(["analyze", "--input", files["witness"], "--out", files["out"],
                "--tol-override", "penrose"]) == 2
    # Non-positive and non-finite values exit 2 like any bad override.
    for value in ("-1", "0", "nan", "inf", "-inf"):
        assert run(["analyze", "--input", files["witness"], "--out", files["out"],
                    "--tol-override", f"penrose={value}"]) == 2
    # A key that no check reads is unknown, not silently accepted.
    for key in ("sqrt-sector", "truncation"):
        assert run(["analyze", "--input", files["witness"], "--out", files["out"],
                    "--tol-override", f"{key}=1"]) == 2


def test_pinv_artifact(files):
    rc = run(["pinv", "--input", files["rank-t"], "--out", files["out"]])
    assert rc == 0
    P = read_matrix(files["out"] + "/pinv.json")
    assert np.array_equal(P, np.diag([0.5, 0.0]).astype(complex))


def test_perturb_pass_and_fail(files, capsys):
    assert run(["perturb", "--input", files["diag-t"], "--input2", files["zero"],
                "--out", files["out"]]) == 0
    rc = run(["perturb", "--input", files["rank-t"], "--input2", files["bad-s"],
              "--out", files["out"]])
    assert rc == 3
    err = capsys.readouterr().err
    assert "certificate" in err
    dump = json.loads(_text(files["out"] + "/perturb-certificate.json"))
    assert dump["mode"] == "fail"
    # The dump holds exactly the eight as_dict keys, the deferred ones
    # included, in the sorted order every JSON file is written in.
    assert list(dump) == sorted([
        "range_inclusion_residual", "kernel_inclusion_residual", "contraction_TdS",
        "contraction_STd", "mode", "s_accretive", "theta", "norm_over_gamma",
    ])


def _singular_resolvent(a, x, calls):
    raise np.linalg.LinAlgError("Singular matrix")


# solve_bvp checks its closed formulas against the 2n x 2n block system (n = 2
# here); perturbed_pinv checks its range route against its kernel route, the
# second solve, and fails when a resolvent is singular.
_ROUTE_FAULTS = {
    "bvp-route-gap": (
        ["solve-bvp", "--input", "diag-t", "--input2", "diag-s", "--u0", "u0", "--u1", "u1"],
        lambda a, x, calls: x + 1.0 if np.shape(a) == (4, 4) else x,
    ),
    "pinv-singular-resolvent": (
        ["perturb", "--input", "diag-t", "--input2", "zero"], _singular_resolvent,
    ),
    "pinv-route-gap": (
        ["perturb", "--input", "diag-t", "--input2", "zero"],
        lambda a, x, calls: x + 1.0 if calls == 2 else x,
    ),
}


@pytest.mark.parametrize("fault", sorted(_ROUTE_FAULTS))
def test_route_disagreement_is_an_accuracy_failure(files, capsys, monkeypatch, fault):
    argv, perturb = _ROUTE_FAULTS[fault]
    solve = np.linalg.solve
    calls = []

    def faulty(a, b):
        calls.append(None)
        return perturb(a, solve(a, b), len(calls))

    monkeypatch.setattr(np.linalg, "solve", faulty)
    rc = run([files.get(arg, arg) for arg in argv] + ["--out", files["out"]])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("accuracy failure: "), err


def test_update_route_gap_is_a_tolerance_key(tmp_path, capsys):
    # perturbed_pinv's range and kernel routes differ by rounding on a
    # certified pair (~2e-16 here); the update-route-gap key bounds that gap,
    # so --tol-override reaches it and 1e-300 makes the run an accuracy failure.
    T, S = certified_pair(rng_for(1, "route-gap"), 6, 3)
    write_matrix(tmp_path / "t.json", T)
    write_matrix(tmp_path / "s.json", S)
    argv = ["perturb", "--input", str(tmp_path / "t.json"), "--input2", str(tmp_path / "s.json")]
    assert run(argv + ["--out", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    rc = run(argv + ["--tol-override", "update-route-gap=1e-300", "--out", str(tmp_path / "tight")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1, err
    assert err[0].startswith("accuracy failure: update formula routes disagree: gap = "), err


def test_factorize_report(files):
    rc = run(["factorize", "--input", files["diag-t"], "--input2", files["diag-s"],
              "--out", files["out"]])
    assert rc == 0
    report = json.loads(_text(files["out"] + "/factorize-report.json"))
    assert report["separation"] == pytest.approx(4.0, abs=1e-9)
    assert report["commuting"] is True
    z1 = read_matrix(files["out"] + "/z1.json")
    assert np.allclose(z1, np.diag([3.0, 5.0]), atol=1e-9)


def test_spectrum_claim_is_relative_to_the_spectrum(files, tmp_path):
    # T scaled by 1e8 and S by 1e16 scale every pencil eigenvalue by 1e8; the
    # spectrum-multiset claim is relative to the spectrum, so it passes as the
    # normalized identities do, and a 1e-3 relative error in one eigenvalue of
    # a factor still fails it.
    T, S = commuting_pencil_pair(rng_for(1, "x"), 8)
    T, S = 1e8 * T, 1e16 * S
    write_matrix(tmp_path / "t.json", T)
    write_matrix(tmp_path / "s.json", S)
    assert run(["factorize", "--input", str(tmp_path / "t.json"),
                "--input2", str(tmp_path / "s.json"), "--out", files["out"]]) == 0
    p = QuadraticPencil(T, S)
    f = factorize(p)
    # Z1 rebuilt from its eigendecomposition with one eigenvalue moved by 1e-3
    # relative; its spectrum is then read from the rebuilt factor.
    vals, vecs = np.linalg.eig(f.z1)
    vals[0] *= 1 + 1e-3
    wrong = dataclasses.replace(f, z1=vecs @ np.diag(vals) @ np.linalg.inv(vecs))
    assert np.min(np.abs(np.asarray(wrong.spectra_z1) - vals[0])) <= 1e-9 * abs(vals[0])
    rows = selftest.factorize_claims(p, wrong, [1.0])
    assert [r["status"] for r in rows if r["claim"] == "spectrum-multiset"] == ["fail"]


def test_solve_bvp_csv(files):
    rc = run(["solve-bvp", "--input", files["diag-t"], "--input2", files["diag-s"],
              "--u0", files["u0"], "--u1", files["u1"], "--grid", "33",
              "--out", files["out"]])
    assert rc == 0
    lines = _text(files["out"] + "/solve-bvp-solution.csv").splitlines()
    assert lines[0] == "t,component,re,im"
    assert len(lines) == 1 + 33 * 2
    t0, comp, re, im = lines[1].split(",")
    assert float(t0) == 0.0 and comp == "0"
    assert float(re) == pytest.approx(1.0, abs=1e-12)
    assert float(im) == pytest.approx(0.0, abs=1e-12)


def test_solve_bvp_hypothesis_failures(files):
    assert run(["solve-bvp", "--input", files["resonant-t"], "--input2", files["zero"],
                "--u0", files["u0"], "--u1", files["u1"], "--out", files["out"]]) == 3
    assert run(["solve-bvp", "--input", files["nc-t"], "--input2", files["nc-s"],
                "--u0", files["u0"], "--u1", files["u1"], "--out", files["out"]]) == 3


def test_pencil_whose_square_overflows_exits_2(files, tmp_path, capsys):
    # T = S = 1e160 I: ||T||^2 and Upsilon = T^2 + S lie beyond the float
    # range, so solve-bvp refuses the data as factorize does, with one line
    # and no warning (tier-1 runs with warnings as errors).  The nilpotent
    # T = [[0, 1e160], [0, 0]] with S = I has T^2 = 0 and a finite Upsilon,
    # but ||T||^2 overflows the pencil scale of the factorize claims.  At
    # (1e150 T, 1e300 S) Upsilon is finite but the commutator T S - S T is not.
    def matrix(name, M):
        write_matrix(tmp_path / name, M)
        return str(tmp_path / name)

    big = matrix("big.json", 1e160 * np.eye(2))
    nil = matrix("nil.json", [[0, 1e160], [0, 0]])
    eye = matrix("eye.json", np.eye(2))
    T, S = pencil_pair(np.random.default_rng(0), 3)
    wide_t, wide_s = matrix("wide-t.json", 1e150 * T), matrix("wide-s.json", 1e300 * S)
    for argv in (
        ["factorize", "--input", big, "--input2", big],
        ["solve-bvp", "--input", big, "--input2", big, "--u0", files["u0"], "--u1", files["u1"]],
        ["factorize", "--input", nil, "--input2", eye],
        ["factorize", "--input", wide_t, "--input2", wide_s],
    ):
        rc = run(argv + ["--out", str(tmp_path / argv[0])])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2, argv[0]
        assert len(err) == 1 and err[0].startswith("invalid input: "), err


def test_pseudoinverse_overflow_exits_2(tmp_path, capsys):
    # A T^+ beyond the float range, or without the factor-2 headroom of
    # T^+ + (T^+)*, is refused by pinv and perturb with one line and no
    # warning (tier-1 runs with warnings as errors).
    for name, T in (("tiny", np.diag([1e-300, 1e-310])), ("edge", np.diag([1e-308, 1e-308]))):
        path = str(tmp_path / f"{name}.json")
        write_matrix(path, T)
        for argv in (["pinv", "--input", path], ["perturb", "--input", path, "--input2", path]):
            rc = run(argv + ["--out", str(tmp_path / f"{argv[0]}-{name}")])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2, argv
            assert len(err) == 1, err
            assert err[0].startswith("invalid input: the pseudoinverse overflows"), err


def test_perturbation_bound_overflow_is_an_accuracy_failure(tmp_path, capsys):
    # T = 1e-200 I has ||T^+||^2 = 1e400: the error bound is not a float, and
    # an infinite bound would pass its claim, so the run fails instead.
    write_matrix(tmp_path / "t.json", 1e-200 * np.eye(2))
    write_matrix(tmp_path / "s.json", 0.5e-200 * np.eye(2))
    out = tmp_path / "out"
    rc = run(["perturb", "--input", str(tmp_path / "t.json"), "--input2", str(tmp_path / "s.json"),
              "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["accuracy failure: perturbation bound overflows: ||T^+|| = 1.000e+200"], err
    assert not (out / "perturb-report.json").exists()


def test_demo_laplacian(files):
    rc = run(["demo-laplacian", "--modes", "8", "--x-samples", "9", "--grid", "17",
              "--out", files["out"]])
    assert rc == 0
    lines = _text(files["out"] + "/demo-laplacian-field.csv").splitlines()
    assert lines[0] == "t,x,re,im"
    assert len(lines) == 1 + 17 * 9
    report = json.loads(_text(files["out"] + "/demo-laplacian-report.json"))
    assert report["certificate_mode"] == "both"
    assert run(["demo-laplacian", "--eta1", "0.01", "--out", files["out"]]) == 3


@pytest.mark.parametrize("argv, code, stage, cause", [
    (["--eta", "1e200"], 2, "factorize", "Upsilon = T^2 + S overflows"),
    (["--eta", "1", "--eta1", "1e200"], 3, "screen", "exceeds eta"),
    (["--eta", "1e-200"], 3, "condition", "modulus condition fails"),
], ids=["eta-overflows", "eta1-overflows", "eta-underflows"])
def test_demo_laplacian_at_extreme_scales(tmp_path, capsys, argv, code, stage, cause):
    # eta^2 or eta1^2 beyond the float range, or eta^2 below it: a contract
    # exit naming the failing stage and its cause in one line, with no warning.
    rc = run(["demo-laplacian", *argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == code
    assert len(err) == 1 and f"[stage: {stage}] " in err[0] and cause in err[0], err


def test_selftest_deterministic(files, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run(["selftest", "--out", out_a]) == 0
    assert run(["selftest", "--out", out_b]) == 0
    rep_a = json.loads(_text(out_a + "/selftest-report.json"))
    rep_b = json.loads(_text(out_b + "/selftest-report.json"))
    assert rep_a["body"] == rep_b["body"]
    assert rep_a["body"]["summary"]["failed"] == 0
    # A different seed must change measured values somewhere.
    out_c = str(tmp_path / "c")
    assert run(["selftest", "--seed", "7", "--out", out_c]) == 0
    rep_c = json.loads(_text(out_c + "/selftest-report.json"))
    assert rep_c["body"] != rep_a["body"]


def test_selftest_runtimes_keyed_by_suite(tmp_path):
    assert run(["selftest", "--out", str(tmp_path)]) == 0
    report = json.loads(_text(tmp_path / "selftest-report.json"))
    assert sorted(report["runtime_seconds"]) == sorted(label for label, _ in _REGISTRY)
    assert all(t >= 0 for t in report["runtime_seconds"].values())


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "accretive.cli", "analyze",
         "--input", files["witness"], "--out", files["out"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "strongly accretive" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded(files):
    # scipy.linalg is imported by the few functions that need it, not by the
    # package, and no subcommand imports scipy.optimize or scipy.sparse: each
    # of the seven runs in a fresh process that then lists which it loaded.
    code = (
        "import sys, accretive, accretive.cli\n"
        "def loaded(names): return [m for m in names if m in sys.modules]\n"
        "assert not loaded(('scipy.optimize', 'scipy.linalg', 'scipy.sparse')), 'at import'\n"
        "rc = accretive.cli.run(sys.argv[1:])\n"
        "print(rc, loaded(('scipy.optimize', 'scipy.sparse')))\n"
    )
    argvs = [
        ["analyze", "--input", files["witness"]],
        ["pinv", "--input", files["rank-t"]],
        ["perturb", "--input", files["diag-t"], "--input2", files["zero"]],
        ["factorize", "--input", files["diag-t"], "--input2", files["diag-s"]],
        ["solve-bvp", "--input", files["diag-t"], "--input2", files["diag-s"],
         "--u0", files["u0"], "--u1", files["u1"]],
        ["demo-laplacian", "--modes", "8", "--x-samples", "9", "--grid", "17"],
        ["selftest"],
    ]
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", files["out"]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
        assert proc.stdout.strip().splitlines()[-1] == "0 []", argv[0]


@pytest.mark.parametrize("command", ["selftest", "analyze"])
@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_exits_2(files, command, under):
    # --out naming a regular file, or a directory below one, cannot be
    # created: a configuration error, not a traceback and exit 1.
    out = files["witness"] + ("/sub" if under else "")
    inputs = {"analyze": ["--input", files["witness"]]}
    proc = subprocess.run(
        [sys.executable, "-m", "accretive.cli", command, *inputs.get(command, []), "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"invalid input: --out {out}: " in proc.stderr.splitlines()[-1]


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


def _kernel_counts(calls, M):
    """Calls per family whose argument is M (the Hermitian solvers': Re M)."""
    targets = {"eigh": (M + M.conj().T) / 2}
    counts = {}
    for family, a in calls:
        target = targets.get(family, M)
        close = 1e-10 * max(1.0, float(np.max(np.abs(target))))
        if a.shape == target.shape and np.max(np.abs(a - target)) <= close:
            counts[family] = counts.get(family, 0) + 1
    return counts


def test_each_operator_factored_once_per_command(tmp_path, kernel_args):
    # T, S, T+, Upsilon = T^2 + S and its root R reach each kernel family at
    # most once per command; the reference matrices are built before counting.
    rng = rng_for(20260814, "kernel-counts")
    n = 16
    A = accretive_operator(rng, n)
    P, Q = certified_pair(rng, n, n // 2)
    C, D = commuting_pencil_pair(rng, n)
    E, F = pencil_pair(rng, n)
    f = {name: str(tmp_path / f"{name}.json") for name in ("A", "P", "Q", "C", "D", "E", "F")}
    for name, M in zip(f, (A, P, Q, C, D, E, F)):
        write_matrix(f[name], M)
    for name in ("u0", "u1"):
        f[name] = str(tmp_path / f"{name}.json")
        write_vector(f[name], complex_gaussian(rng, n))

    def pencil_ops(T, S):
        U = T @ T + S
        return {"T": T, "S": S, "Upsilon": U, "R": accretive_sqrt(U)}

    cases = [
        (["analyze", "--input", f["A"]], {"T": A}),
        (["pinv", "--input", f["A"]], {"T": A, "T+": pseudoinverse(A).pinv}),
        (["perturb", "--input", f["P"], "--input2", f["Q"]],
         {"T": P, "S": Q, "T+": pseudoinverse(P).pinv}),
        (["factorize", "--input", f["C"], "--input2", f["D"]], pencil_ops(C, D)),
        (["factorize", "--input", f["E"], "--input2", f["F"]], pencil_ops(E, F)),
        (["solve-bvp", "--input", f["C"], "--input2", f["D"], "--u0", f["u0"], "--u1", f["u1"]],
         pencil_ops(C, D)),
        (["demo-laplacian"], pencil_ops(*build_operators(LaplacianModel(1.0, 0.0, 0.1, 16)))),
    ]
    for argv, operators in cases:
        # Each command runs in its own process in real use: nothing shared.
        linops._shared_operator.cache_clear()
        kernel_args.clear()
        assert run(argv + ["--out", str(tmp_path / "out")]) == 0, argv
        counts = {name: _kernel_counts(kernel_args, M) for name, M in operators.items()}
        assert counts["T"], (argv[0], "no kernel call matched T")
        repeated = {k: c for k, c in counts.items() if any(v > 1 for v in c.values())}
        assert not repeated, (argv[0], counts)
        if "Upsilon" in counts:
            # One Schur form roots Upsilon; no eigvals call factors it again.
            assert counts["Upsilon"].get("schur") == 1, (argv[0], counts["Upsilon"])
            assert "eigvals" not in counts["Upsilon"], (argv[0], counts["Upsilon"])
