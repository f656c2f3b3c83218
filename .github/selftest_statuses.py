"""Compare the selftest claim statuses of a change with those of its base commit.

Usage: python .github/selftest_statuses.py BASE_SRC CHANGE_SRC

Runs `python -m accretive.cli selftest --seed s` at s = 42, 1, 2, 3, 4, 5,
once with PYTHONPATH=BASE_SRC and once with PYTHONPATH=CHANGE_SRC, and exits
1 when a claim of a base run is missing from the change's run at that seed or
has another status there.  Claims that only the change makes may have any
status.  A run's own exit status is not read: a claim failing at both
commits is unchanged.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

SEEDS = (42, 1, 2, 3, 4, 5)


def statuses(src, seed, out):
    """claim -> status of one selftest run on the package in src."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    subprocess.run(
        [sys.executable, "-m", "accretive.cli", "selftest", "--seed", str(seed), "--out", out],
        env=env, stdout=subprocess.DEVNULL, check=False,
    )
    report = json.loads((pathlib.Path(out) / "selftest-report.json").read_text())
    return {c["claim"]: c["status"] for c in report["body"]["claims"]}


def main(base_src, change_src):
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            base = statuses(base_src, seed, f"{tmp}/base-{seed}")
            change = statuses(change_src, seed, f"{tmp}/change-{seed}")
            for claim, status in base.items():
                now = change.get(claim, "missing")
                if now != status:
                    changed.append(f"seed {seed}: {claim} is {now}, {status} at the base commit")
            print(f"seed {seed}: {len(base)} base claims, {len(set(change) - set(base))} added")
    for line in changed:
        print(line, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
