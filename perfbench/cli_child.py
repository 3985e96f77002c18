"""Run one effpot CLI command with the benchmark's tracer installed.

    python perfbench/cli_child.py SUMMARY.json SUBCOMMAND [ARGS...]

Used by the traced cli_cold pass in place of ``python -m effpot``. Writes the
tracer summary to SUMMARY.json, which the parent merges into its own, then
exits with the CLI's own exit code.
"""

import json
import sys

import effpot.cli

from tracing import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = effpot.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
