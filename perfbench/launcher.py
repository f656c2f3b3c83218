"""Run one accretive CLI command in a fresh process and time its two parts.

    python3 perfbench/launcher.py COMMAND [ARGS...]

The command's own output comes first; the last stdout line is a JSON object
with import_s (`import accretive.cli`), run_s (`accretive.cli.run(argv)`),
the exit code rc and the process's max_rss_mib.
"""

import json
import resource
import sys
import time


def main():
    argv = sys.argv[1:]
    t0 = time.perf_counter()
    import accretive.cli

    t1 = time.perf_counter()
    try:
        rc = accretive.cli.run(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    t2 = time.perf_counter()
    sys.stdout.flush()
    print(json.dumps({
        "import_s": t1 - t0,
        "run_s": t2 - t1,
        "rc": rc,
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
