"""One traced `lfverify` command: python3 cli_child.py TRACE_OUT COMMAND [ARGS...]

Runs the command exactly as the console script would, with the benchmark's
wrappers installed, and writes the span totals to TRACE_OUT.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from lfverify import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
