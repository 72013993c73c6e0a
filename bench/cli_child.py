"""Run ``loopbv.cli.main`` under the tracer and write the trace to a file.

Usage: ``python bench/cli_child.py TRACE_FILE [loopbv arguments...]``.  The
traced CLI workload starts this script in place of ``python -m loopbv.cli``;
stdout, stderr and the exit code are the CLI's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.job, tracer.active = 0, True
    try:
        return tracer.fn("cli.main")(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
